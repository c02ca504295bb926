//! Hierarchical-heavy-hitter set computation.
//!
//! This module implements the *output* side of every HHH algorithm in the
//! workspace: given per-prefix frequency estimates (upper and lower bounds),
//! walk the hierarchy level by level, compute *conditioned frequencies* with
//! respect to the already-selected HHH set (Algorithms 3 and 4 of the paper —
//! `calcPred` for one and two dimensions), and keep every prefix whose
//! conditioned frequency reaches the threshold (Algorithm 2, `output`).
//!
//! The same code serves H-Memento, MST, window-MST, RHHH and the exact
//! oracle; only the [`PrefixEstimator`] they plug in differs.

use std::collections::HashMap;
use std::hash::Hash;

use crate::hierarchy::Hierarchy;

/// Frequency estimates for prefixes, as consumed by the HHH set computation.
///
/// `upper_bound` plays the role of `f̂⁺` and `lower_bound` of `f̂⁻` in the
/// paper. Exact oracles return the same value for both.
pub trait PrefixEstimator<P> {
    /// Upper bound on the (window) frequency of `p`.
    fn upper_bound(&self, p: &P) -> f64;
    /// Lower bound on the (window) frequency of `p`.
    fn lower_bound(&self, p: &P) -> f64;
}

/// Parameters of the HHH set computation.
#[derive(Debug, Clone, Copy)]
pub struct HhhParams {
    /// Absolute threshold `θ·W` (in packets): a prefix is reported when its
    /// conditioned frequency reaches this value.
    pub threshold: f64,
    /// The additive compensation for sampling error added to every
    /// conditioned frequency (`2·Z_{1−δ}·√(V·W)` in Algorithm 2, line 8).
    /// Zero for exact or unsampled algorithms.
    pub sampling_slack: f64,
}

impl HhhParams {
    /// Parameters without sampling compensation.
    pub fn exact(threshold: f64) -> Self {
        HhhParams {
            threshold,
            sampling_slack: 0.0,
        }
    }
}

/// `G(q | P)`: the subset of `P` whose elements are strictly generalized by
/// `q` and have no intermediate element of `P` between themselves and `q`
/// (the "closest descendants" of `q` inside `P`).
pub fn g_set<Hi: Hierarchy>(hier: &Hi, q: &Hi::Prefix, set: &[Hi::Prefix]) -> Vec<Hi::Prefix> {
    let descendants: Vec<Hi::Prefix> = set
        .iter()
        .filter(|h| hier.strictly_generalizes(q, h))
        .copied()
        .collect();
    descendants
        .iter()
        .filter(|h| {
            !descendants
                .iter()
                .any(|mid| *mid != **h && hier.strictly_generalizes(mid, h))
        })
        .copied()
        .collect()
}

/// `calcPred` for one dimension (Algorithm 3): subtract the lower-bound
/// frequencies of the closest already-selected descendants.
fn calc_pred_1d<Hi, E>(hier: &Hi, estimator: &E, q: &Hi::Prefix, selected: &[Hi::Prefix]) -> f64
where
    Hi: Hierarchy,
    E: PrefixEstimator<Hi::Prefix> + ?Sized,
{
    let g = g_set(hier, q, selected);
    -g.iter().map(|h| estimator.lower_bound(h)).sum::<f64>()
}

/// `calcPred` for two dimensions (Algorithm 4): subtract closest descendants,
/// then add back the upper-bound frequency of each pairwise greatest lower
/// bound that is not already covered by a third descendant
/// (inclusion–exclusion).
fn calc_pred_2d<Hi, E>(hier: &Hi, estimator: &E, q: &Hi::Prefix, selected: &[Hi::Prefix]) -> f64
where
    Hi: Hierarchy,
    E: PrefixEstimator<Hi::Prefix> + ?Sized,
{
    let g = g_set(hier, q, selected);
    let mut r = -g.iter().map(|h| estimator.lower_bound(h)).sum::<f64>();
    for (i, h) in g.iter().enumerate() {
        for h2 in g.iter().skip(i + 1) {
            if let Some(glb) = hier.glb(h, h2) {
                let covered = g
                    .iter()
                    .any(|h3| h3 != h && h3 != h2 && hier.generalizes(h3, &glb));
                if !covered {
                    r += estimator.upper_bound(&glb);
                }
            }
        }
    }
    r
}

/// Conservative estimate of the conditioned frequency `C_{q|P}` of prefix `q`
/// with respect to the already-selected set `P`, including the sampling
/// compensation.
pub fn conditioned_frequency_estimate<Hi, E>(
    hier: &Hi,
    estimator: &E,
    q: &Hi::Prefix,
    selected: &[Hi::Prefix],
    sampling_slack: f64,
) -> f64
where
    Hi: Hierarchy,
    E: PrefixEstimator<Hi::Prefix> + ?Sized,
{
    let pred = if hier.dimensions() == 1 {
        calc_pred_1d(hier, estimator, q, selected)
    } else {
        calc_pred_2d(hier, estimator, q, selected)
    };
    estimator.upper_bound(q) + pred + sampling_slack
}

/// The HHH `output` procedure (Algorithm 2): iterate candidate prefixes from
/// depth 0 up to the maximal depth, keep every prefix whose conditioned
/// frequency (with respect to the prefixes kept so far) reaches the
/// threshold. Returns the selected prefixes sorted by depth then value.
///
/// The result depends only on the candidate set (duplicates are ignored),
/// not on the order the candidates arrive in: prefixes of one depth cannot
/// generalize one another, so each is judged against the prefixes selected
/// at strictly lower depths, and each depth is visited in prefix order, so
/// even `calcPred`'s floating-point sums run in one order.
pub fn compute_hhh<'a, Hi, E>(
    hier: &Hi,
    estimator: &E,
    candidates: impl IntoIterator<Item = &'a Hi::Prefix>,
    params: HhhParams,
) -> Vec<Hi::Prefix>
where
    Hi: Hierarchy,
    Hi::Prefix: 'a,
    E: PrefixEstimator<Hi::Prefix> + ?Sized,
{
    let mut by_depth: Vec<Vec<Hi::Prefix>> = vec![Vec::new(); hier.max_depth() + 1];
    for p in candidates {
        by_depth[hier.depth(p)].push(*p);
    }
    let mut selected: Vec<Hi::Prefix> = Vec::new();
    for level in &mut by_depth {
        level.sort_unstable();
        level.dedup();
        let shallower = selected.len();
        for p in level.iter() {
            let c = conditioned_frequency_estimate(
                hier,
                estimator,
                p,
                &selected[..shallower],
                params.sampling_slack,
            );
            if c >= params.threshold {
                selected.push(*p);
            }
        }
    }
    selected
}

// ---------------------------------------------------------------------------
// Exact oracle
// ---------------------------------------------------------------------------

/// Exact per-prefix frequencies of a batch of items: every item contributes
/// one to each of its `H` generalizations.
pub fn prefix_frequencies<Hi, I>(hier: &Hi, items: I) -> HashMap<Hi::Prefix, u64>
where
    Hi: Hierarchy,
    I: IntoIterator<Item = Hi::Item>,
{
    let mut freqs: HashMap<Hi::Prefix, u64> = HashMap::new();
    for item in items {
        for i in 0..hier.h() {
            *freqs.entry(hier.prefix_at(item, i)).or_insert(0) += 1;
        }
    }
    freqs
}

/// An exact [`PrefixEstimator`] backed by a frequency table (upper bound =
/// lower bound = exact frequency).
#[derive(Debug, Clone)]
pub struct ExactPrefixOracle<P: Eq + Hash> {
    freqs: HashMap<P, u64>,
}

impl<P: Eq + Hash + Copy> ExactPrefixOracle<P> {
    /// Builds an oracle from a frequency table.
    pub fn new(freqs: HashMap<P, u64>) -> Self {
        ExactPrefixOracle { freqs }
    }

    /// Builds an oracle from a batch of items under a hierarchy.
    pub fn from_items<Hi, I>(hier: &Hi, items: I) -> Self
    where
        Hi: Hierarchy<Prefix = P>,
        I: IntoIterator<Item = Hi::Item>,
    {
        ExactPrefixOracle {
            freqs: prefix_frequencies(hier, items),
        }
    }

    /// Exact frequency of a prefix.
    pub fn frequency(&self, p: &P) -> u64 {
        self.freqs.get(p).copied().unwrap_or(0)
    }

    /// All prefixes with non-zero frequency.
    pub fn prefixes(&self) -> Vec<P> {
        self.freqs.keys().copied().collect()
    }

    /// Number of tracked prefixes.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when no prefix has been recorded.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

impl<P: Eq + Hash + Copy> PrefixEstimator<P> for ExactPrefixOracle<P> {
    fn upper_bound(&self, p: &P) -> f64 {
        self.frequency(p) as f64
    }

    fn lower_bound(&self, p: &P) -> f64 {
        self.frequency(p) as f64
    }
}

/// Exact hierarchical heavy hitters of a batch of items with threshold
/// `threshold` packets: the ground truth against which approximate HHH sets
/// are evaluated (OPT in the flood experiment of §6.4).
pub fn exact_hhh<Hi>(hier: &Hi, items: &[Hi::Item], threshold: f64) -> Vec<Hi::Prefix>
where
    Hi: Hierarchy,
{
    let oracle = ExactPrefixOracle::from_items(hier, items.iter().copied());
    let candidates = oracle.prefixes();
    compute_hhh(hier, &oracle, &candidates, HhhParams::exact(threshold))
}

/// Exact conditioned frequency from first principles (Definition in §4.2):
/// the number of items generalized by `q` but by no prefix in `selected`.
/// Quadratic and only used by tests to validate `calcPred`.
pub fn conditioned_frequency_exact<Hi>(
    hier: &Hi,
    items: &[Hi::Item],
    q: &Hi::Prefix,
    selected: &[Hi::Prefix],
) -> u64
where
    Hi: Hierarchy,
{
    items
        .iter()
        .filter(|&&item| {
            hier.prefix_matches(q, item) && !selected.iter().any(|p| hier.prefix_matches(p, item))
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{SrcDstHierarchy, SrcHierarchy};
    use crate::prefix::{p1d, Prefix1D};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn g_set_matches_paper_example() {
        // p = 142.14.*, P = {142.14.13.*, 142.14.13.14} -> G = {142.14.13.*}
        let hier = SrcHierarchy;
        let p = p1d(142, 14, 0, 0, 16);
        let set = vec![p1d(142, 14, 13, 0, 24), p1d(142, 14, 13, 14, 32)];
        let g = g_set(&hier, &p, &set);
        assert_eq!(g, vec![p1d(142, 14, 13, 0, 24)]);
    }

    #[test]
    fn g_set_excludes_non_descendants_and_self() {
        let hier = SrcHierarchy;
        let p = p1d(10, 0, 0, 0, 8);
        let set = vec![
            p1d(10, 0, 0, 0, 8),  // p itself: excluded (strict)
            p1d(10, 1, 0, 0, 16), // closest descendant
            p1d(10, 1, 1, 0, 24), // shadowed by 10.1/16
            p1d(11, 0, 0, 0, 8),  // not a descendant
            p1d(10, 2, 2, 0, 24), // closest descendant (no /16 of it in P)
        ];
        let mut g = g_set(&hier, &p, &set);
        g.sort();
        let mut expected = vec![p1d(10, 1, 0, 0, 16), p1d(10, 2, 2, 0, 24)];
        expected.sort();
        assert_eq!(g, expected);
    }

    #[test]
    fn exact_hhh_single_flow() {
        let hier = SrcHierarchy;
        let items: Vec<u32> = std::iter::repeat_n(addr(181, 7, 20, 6), 100).collect();
        let hhh = exact_hhh(&hier, &items, 50.0);
        // The fully specified flow absorbs everything; ancestors have zero
        // conditioned frequency.
        assert_eq!(hhh, vec![p1d(181, 7, 20, 6, 32)]);
    }

    #[test]
    fn exact_hhh_aggregates_subnet() {
        let hier = SrcHierarchy;
        // 60 packets from distinct hosts of 10.1.1.0/24 (20 each) plus 40
        // noise packets from distinct /8s.
        let mut items = Vec::new();
        for host in 1..=3u8 {
            for _ in 0..20 {
                items.push(addr(10, 1, 1, host));
            }
        }
        for i in 0..40u8 {
            items.push(addr(100 + i, 0, 0, 1));
        }
        let hhh = exact_hhh(&hier, &items, 50.0);
        // No single host reaches 50, but the /24 (and nothing above it,
        // since its residual is absorbed) does.
        assert!(hhh.contains(&p1d(10, 1, 1, 0, 24)), "hhh = {hhh:?}");
        assert!(!hhh.iter().any(|p| p.len() == 32));
        // The root's conditioned frequency is the 40 noise packets < 50.
        assert!(!hhh.contains(&Prefix1D::root()));
    }

    #[test]
    fn exact_hhh_root_catches_leftover_mass() {
        let hier = SrcHierarchy;
        // 100 packets spread over distinct /8s: only the root aggregates them.
        let items: Vec<u32> = (0..100).map(|i| addr(i as u8, 0, 0, 1)).collect();
        let hhh = exact_hhh(&hier, &items, 60.0);
        assert_eq!(hhh, vec![Prefix1D::root()]);
    }

    #[test]
    fn conditioned_frequency_estimate_matches_exact_on_oracle_1d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let hier = SrcHierarchy;
        let mut rng = StdRng::seed_from_u64(5);
        let items: Vec<u32> = (0..2000)
            .map(|_| {
                addr(
                    10,
                    rng.gen_range(0..4),
                    rng.gen_range(0..4),
                    rng.gen_range(0..8),
                )
            })
            .collect();
        let oracle = ExactPrefixOracle::from_items(&hier, items.iter().copied());
        let threshold = 150.0;
        let hhh = compute_hhh(
            &hier,
            &oracle,
            &oracle.prefixes(),
            HhhParams::exact(threshold),
        );
        // Coverage check from first principles: any prefix not selected has
        // exact conditioned frequency below the threshold.
        for p in oracle.prefixes() {
            if !hhh.contains(&p) {
                let c = conditioned_frequency_exact(&hier, &items, &p, &hhh);
                assert!(
                    (c as f64) < threshold,
                    "prefix {p:?} violates coverage: C={c}"
                );
            }
        }
    }

    #[test]
    fn conditioned_frequency_estimate_matches_exact_on_oracle_2d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let hier = SrcDstHierarchy;
        let mut rng = StdRng::seed_from_u64(9);
        let items: Vec<(u32, u32)> = (0..1500)
            .map(|_| {
                (
                    addr(10, rng.gen_range(0..3), 0, rng.gen_range(0..4)),
                    addr(20, rng.gen_range(0..3), 0, rng.gen_range(0..4)),
                )
            })
            .collect();
        let oracle = ExactPrefixOracle::from_items(&hier, items.iter().copied());
        let threshold = 200.0;
        let hhh = compute_hhh(
            &hier,
            &oracle,
            &oracle.prefixes(),
            HhhParams::exact(threshold),
        );
        assert!(!hhh.is_empty());
        for p in oracle.prefixes() {
            if !hhh.contains(&p) {
                let c = conditioned_frequency_exact(&hier, &items, &p, &hhh);
                // With exact estimates the inclusion-exclusion bound is
                // conservative, so coverage must hold exactly.
                assert!(
                    (c as f64) < threshold,
                    "2D prefix {p:?} violates coverage: C={c}"
                );
            }
        }
    }

    /// Selects with `compute_hhh` over `items`' exact prefix frequencies,
    /// from the candidates forward, reversed and shuffled with duplicates,
    /// with and without sampling slack: every order selects the same set.
    fn assert_candidate_order_is_irrelevant<Hi: Hierarchy>(
        hier: &Hi,
        items: &[Hi::Item],
        threshold: f64,
        seed: u64,
    ) {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let oracle = ExactPrefixOracle::from_items(hier, items.iter().copied());
        let forward = oracle.prefixes();
        let reversed: Vec<_> = forward.iter().rev().copied().collect();
        let mut shuffled: Vec<_> = forward.iter().chain(&forward).copied().collect();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        for sampling_slack in [0.0, 12.5] {
            let params = HhhParams {
                threshold,
                sampling_slack,
            };
            let want = compute_hhh(hier, &oracle, &forward, params);
            let depths: std::collections::HashSet<usize> =
                want.iter().map(|p| hier.depth(p)).collect();
            assert!(depths.len() > 1, "selections at one depth only: {want:?}");
            assert_eq!(compute_hhh(hier, &oracle, &reversed, params), want);
            assert_eq!(compute_hhh(hier, &oracle, &shuffled, params), want);
        }
    }

    #[test]
    fn compute_hhh_ignores_candidate_order_1d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let items: Vec<u32> = (0..3000)
            .map(|_| match rng.gen_range(0..4) {
                0 => addr(10, 1, 1, rng.gen_range(0..2)),
                1 => addr(10, rng.gen_range(0..4), rng.gen(), rng.gen()),
                _ => addr(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
            })
            .collect();
        assert_candidate_order_is_irrelevant(&SrcHierarchy, &items, 300.0, 1);
    }

    #[test]
    fn compute_hhh_ignores_candidate_order_2d() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let items: Vec<(u32, u32)> = (0..2000)
            .map(|_| match rng.gen_range(0..4) {
                0 => (addr(10, 1, 1, 1), addr(20, 0, 0, rng.gen_range(0..2))),
                1 => (
                    addr(10, rng.gen_range(0..3), rng.gen(), rng.gen()),
                    addr(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
                ),
                _ => (
                    addr(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
                    addr(30, rng.gen_range(0..3), 0, rng.gen_range(0..4)),
                ),
            })
            .collect();
        assert_candidate_order_is_irrelevant(&SrcDstHierarchy, &items, 250.0, 2);
    }

    #[test]
    fn prefix_frequencies_counts_every_level() {
        let hier = SrcHierarchy;
        let items = vec![addr(1, 2, 3, 4), addr(1, 2, 3, 5), addr(1, 9, 9, 9)];
        let freqs = prefix_frequencies(&hier, items);
        assert_eq!(freqs[&p1d(1, 2, 3, 4, 32)], 1);
        assert_eq!(freqs[&p1d(1, 2, 3, 0, 24)], 2);
        assert_eq!(freqs[&p1d(1, 0, 0, 0, 8)], 3);
        assert_eq!(freqs[&Prefix1D::root()], 3);
    }

    #[test]
    fn sampling_slack_only_adds_false_positives() {
        let hier = SrcHierarchy;
        let items: Vec<u32> = (0..50)
            .map(|i| addr(10, 0, 0, (i % 5) as u8))
            .chain((0..50).map(|i| addr(20, 0, 0, (i % 50) as u8)))
            .collect();
        let oracle = ExactPrefixOracle::from_items(&hier, items.iter().copied());
        let strict = compute_hhh(&hier, &oracle, &oracle.prefixes(), HhhParams::exact(30.0));
        let slackful = compute_hhh(
            &hier,
            &oracle,
            &oracle.prefixes(),
            HhhParams {
                threshold: 30.0,
                sampling_slack: 10.0,
            },
        );
        for p in &strict {
            assert!(
                slackful.contains(p),
                "slack must never remove true HHHs: missing {p:?}"
            );
        }
        assert!(slackful.len() >= strict.len());
    }
}
