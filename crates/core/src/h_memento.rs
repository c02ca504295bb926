//! H-Memento — sliding-window hierarchical heavy hitters (Algorithm 2).
//!
//! H-Memento departs from the MST/RHHH lattice of per-level instances: it
//! keeps **one** [`Memento`] instance whose keys are *prefixes*, and for each
//! packet it either
//!
//! * performs a Full update on **one uniformly random** of the `H`
//!   generalizations of the packet's key (with overall probability τ, i.e.
//!   each specific prefix is sampled with probability `τ/H = 1/V`), or
//! * performs a plain Window update (all other packets),
//!
//! so the per-packet cost is constant regardless of the hierarchy size.
//! Queries are scaled by `V = H/τ` and the HHH set is extracted level by
//! level with the conditioned-frequency machinery of
//! [`memento_hierarchy::hhh_set`], adding the `2·Z₁₋δ·√(V·W)` compensation
//! for sampling (Algorithm 2, line 8).
//!
//! Note on parameters: the paper's Algorithm 2 initializes Memento with
//! "τ·H", but its analysis (Theorem 5.3, `V ≜ H/τ`) and evaluation
//! (`τ ≥ H·2⁻¹⁰` so that *each prefix* is sampled with probability `≥ 2⁻¹⁰`)
//! fix the per-prefix sampling probability at `τ/H`; this implementation
//! follows the analysis (see ARCHITECTURE.md, "Deviations from the paper").

use std::collections::HashMap;
use std::hash::Hash;

use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};
use memento_sketches::PrefixSampler;

use crate::analysis::z_value;
use crate::memento::Memento;
use crate::query::{FrozenHhh, HhhQuery};

/// H-Memento: hierarchical heavy hitters over a sliding window in constant
/// time per packet.
#[derive(Debug, Clone)]
pub struct HMemento<Hi: Hierarchy>
where
    Hi::Prefix: Hash,
{
    hier: Hi,
    memento: Memento<Hi::Prefix>,
    sampler: PrefixSampler,
    /// Per-prefix inverse sampling rate `V = H/τ` (also the query scale).
    v: f64,
    /// Overall Full-update probability τ (either applied locally by
    /// [`Self::update`] or already applied upstream, see
    /// [`Self::with_upstream_sampling`]).
    tau: f64,
    /// Confidence parameter δ used for the sampling compensation in `output`.
    delta: f64,
    window: usize,
}

impl<Hi: Hierarchy> HMemento<Hi>
where
    Hi::Prefix: Hash,
{
    /// Creates an H-Memento instance.
    ///
    /// * `hier` — the hierarchy (e.g. [`memento_hierarchy::SrcHierarchy`] or
    ///   [`memento_hierarchy::SrcDstHierarchy`]);
    /// * `counters` — total number of Space-Saving counters shared by all
    ///   prefixes (the paper's `64H`/`512H`/`4096H` configurations);
    /// * `window` — window size `W` in packets;
    /// * `tau` — overall Full-update probability in `(0, 1]`;
    /// * `delta` — confidence for the sampling compensation (e.g. 0.01);
    /// * `seed` — RNG seed.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(hier: Hi, counters: usize, window: usize, tau: f64, delta: f64, seed: u64) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must be in (0,1), got {delta}"
        );
        let h = hier.h();
        // The inner Memento never flips its own coin (τ_inner = 1); sampling
        // is driven here so that the level choice and the coin flip share one
        // random draw. Full updates arrive at rate τ and queries are scaled
        // by V = H/τ.
        let mut memento = Memento::new(counters, window, 1.0, seed ^ 0x5EED);
        let sampler = PrefixSampler::new(h, tau, seed);
        let v = sampler.v();
        memento.configure_external_sampling(tau, v);
        HMemento {
            hier,
            memento,
            sampler,
            v,
            tau,
            delta,
            window,
        }
    }

    /// Creates an H-Memento instance whose *input is already a τ-sample* of
    /// the packet stream, as at the controller of the network-wide
    /// D-H-Memento system: every packet passed to
    /// [`Self::sampled_update`] performs a Full update of one random prefix,
    /// while the un-sampled remainder is accounted for with
    /// [`Self::window_update`] calls. Queries are scaled by
    /// `V = H / upstream_tau`.
    pub fn with_upstream_sampling(
        hier: Hi,
        counters: usize,
        window: usize,
        upstream_tau: f64,
        delta: f64,
        seed: u64,
    ) -> Self {
        assert!(
            upstream_tau > 0.0 && upstream_tau <= 1.0,
            "upstream tau must be in (0,1], got {upstream_tau}"
        );
        let mut hm = Self::new(hier, counters, window, 1.0, delta, seed);
        hm.tau = upstream_tau;
        hm.v = hm.hier.h() as f64 / upstream_tau;
        let v = hm.v;
        hm.memento.configure_external_sampling(upstream_tau, v);
        hm
    }

    /// Processes one packet that was *already sampled upstream* (network-wide
    /// controller path): always performs a Full update of one uniformly
    /// random prefix.
    #[inline]
    pub fn sampled_update(&mut self, item: Hi::Item) {
        let level = self.sampler.sample_level().unwrap_or(0);
        let prefix = self.hier.prefix_at(item, level);
        self.memento.full_update(prefix);
    }

    /// Advances the window by one packet without recording anything
    /// (network-wide controller path for un-sampled packets).
    #[inline]
    pub fn window_update(&mut self) {
        self.memento.window_update();
    }

    /// Advances the window over `n` packets observed elsewhere without
    /// recording them. All prefix levels share the single underlying
    /// [`Memento`], so the bulk advance fans into one closed-form
    /// [`Memento::skip`] call — exactly `n` unrecorded
    /// [`Self::window_update`]s, in time sublinear in `n`.
    pub fn skip(&mut self, n: u64) {
        self.memento.skip(n);
    }

    /// Creates an instance sized from an algorithm error `ε_a`: the paper
    /// allocates `H/ε_a` counters (Theorem A.19).
    pub fn with_epsilon(
        hier: Hi,
        epsilon: f64,
        window: usize,
        tau: f64,
        delta: f64,
        seed: u64,
    ) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0,1), got {epsilon}"
        );
        let h = hier.h();
        let counters = (h as f64 / epsilon).ceil() as usize;
        Self::new(hier, counters, window, tau, delta, seed)
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hi {
        &self.hier
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Overall Full-update probability τ (applied locally or upstream).
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Per-prefix inverse sampling rate `V = H/τ`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// Total number of counters.
    pub fn counters(&self) -> usize {
        self.memento.counters()
    }

    /// Total packets processed.
    pub fn processed(&self) -> u64 {
        self.memento.processed()
    }

    /// Number of Full updates performed.
    pub fn full_updates(&self) -> u64 {
        self.memento.full_updates()
    }

    /// Processes one packet (Algorithm 2, `UPDATE`): with probability τ, Full
    /// update of one random prefix; otherwise a Window update.
    #[inline]
    pub fn update(&mut self, item: Hi::Item) {
        match self.sampler.sample_level() {
            Some(level) => {
                let prefix = self.hier.prefix_at(item, level);
                self.memento.full_update(prefix);
            }
            None => self.memento.window_update(),
        }
    }

    /// Estimated window frequency of a prefix (`f̂ = X̂ · V`), the upper
    /// bound `f̂⁺` that `OUTPUT` uses.
    pub fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.memento.estimate(prefix)
    }

    /// Approximately unbiased point estimate of a prefix's window frequency
    /// (no one-sided correction); see
    /// [`Memento::point_estimate`](crate::Memento::point_estimate).
    pub fn point_estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.memento.point_estimate(prefix)
    }

    /// Lower bound `f̂⁻` on the window frequency of a prefix.
    pub fn lower(&self, prefix: &Hi::Prefix) -> f64 {
        self.memento.lower_bound(prefix)
    }

    /// The additive sampling compensation `2·Z₁₋δ·√(V·W)` used by
    /// [`Self::output`].
    pub fn sampling_slack(&self) -> f64 {
        2.0 * z_value(1.0 - self.delta) * (self.v() * self.window as f64).sqrt()
    }

    /// Computes the approximate HHH set for threshold `θ` (Algorithm 2,
    /// `OUTPUT`): every prefix whose conditioned frequency with respect to
    /// the already selected set reaches `θ·W`.
    pub fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let candidates = self.memento.tracked_keys();
        compute_hhh(
            &self.hier,
            self,
            &candidates,
            HhhParams {
                threshold: theta * self.window as f64,
                sampling_slack: self.sampling_slack(),
            },
        )
    }

    /// Access to the underlying Memento instance (diagnostics, tests).
    pub fn as_memento(&self) -> &Memento<Hi::Prefix> {
        &self.memento
    }

    /// Captures an immutable [`FrozenHhh`] answering exactly the queries
    /// this instance would answer right now: every tracked prefix with its
    /// frequency bounds, read in one walk over the overflow table and the
    /// in-frame summary, plus the `OUTPUT` parameters (`W`, sampling
    /// slack), so the frozen `output` is bit-for-bit equal to the live one
    /// at any threshold.
    pub fn freeze(&self) -> FrozenHhh<Hi> {
        let memento = &self.memento;
        let mut bounds = HashMap::new();
        memento.for_each_tracked(|prefix, overflows, in_frame, _| {
            let upper = memento.upper(overflows, in_frame);
            bounds.insert(*prefix, (upper, memento.lower(overflows)));
        });
        FrozenHhh::capture(
            HhhQuery::<Hi>::name(self),
            self.hier.clone(),
            self.window,
            self.sampling_slack(),
            bounds,
            // Absent prefixes get the fill-state-dependent upper slack and
            // a zero lower bound (no overflows recorded).
            memento.untracked_estimate(),
            0.0,
            self.processed(),
        )
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for HMemento<Hi>
where
    Hi::Prefix: Hash,
{
    fn upper_bound(&self, p: &Hi::Prefix) -> f64 {
        self.memento.estimate(p)
    }

    fn lower_bound(&self, p: &Hi::Prefix) -> f64 {
        self.memento.lower_bound(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_hierarchy::{Prefix1D, SrcDstHierarchy, SrcHierarchy};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn estimates_track_prefix_frequencies_without_sampling() {
        // tau = 1 with H = 5: every packet updates one random prefix, so each
        // prefix level is sampled at rate 1/5 and estimates are scaled by 5.
        let window = 20_000;
        let mut hm = HMemento::new(SrcHierarchy, 1000, window, 1.0, 0.01, 1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2 * window {
            // 40% of traffic from 10.1.0.0/16, rest spread widely.
            let item = if rng.gen::<f64>() < 0.4 {
                addr(10, 1, rng.gen_range(0..8), rng.gen())
            } else {
                addr(rng.gen_range(50..250), rng.gen(), rng.gen(), rng.gen())
            };
            hm.update(item);
        }
        let p16 = Prefix1D::new(addr(10, 1, 0, 0), 16);
        let est = hm.estimate(&p16);
        let expected = 0.4 * window as f64;
        assert!(
            (est - expected).abs() < 0.35 * expected,
            "estimate {est} vs expected {expected}"
        );
    }

    #[test]
    fn output_detects_heavy_subnet_1d() {
        let window = 30_000;
        let tau = 0.5;
        let mut hm = HMemento::new(SrcHierarchy, 2000, window, tau, 0.01, 7);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2 * window {
            // Heavy /8: 181.0.0.0/8 carries ~50% of traffic via many hosts.
            let item = if rng.gen::<f64>() < 0.5 {
                addr(181, rng.gen(), rng.gen(), rng.gen())
            } else {
                addr(rng.gen_range(1..120), rng.gen(), rng.gen(), rng.gen())
            };
            hm.update(item);
        }
        let hhh = hm.output(0.2);
        let heavy = Prefix1D::new(addr(181, 0, 0, 0), 8);
        assert!(
            hhh.contains(&heavy),
            "heavy /8 not detected; output = {:?}",
            hhh.iter().map(|p| p.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn output_has_no_false_negatives_vs_exact_hhh() {
        use memento_hierarchy::exact_hhh;
        let window = 40_000;
        let hier = SrcHierarchy;
        let mut hm = HMemento::new(hier, 4000, window, 0.8, 0.05, 11);
        let mut rng = StdRng::seed_from_u64(13);
        let mut last_window: Vec<u32> = Vec::new();
        for _ in 0..window {
            let item = match rng.gen_range(0..10) {
                0..=3 => addr(10, 0, 0, rng.gen_range(0..4)), // heavy /30-ish hosts
                4..=6 => addr(20, rng.gen_range(0..4), rng.gen(), rng.gen()), // heavy /8
                _ => addr(rng.gen_range(60..250), rng.gen(), rng.gen(), rng.gen()),
            };
            hm.update(item);
            last_window.push(item);
        }
        let theta = 0.25;
        let approx = hm.output(theta);
        let exact = exact_hhh(&hier, &last_window, theta * window as f64);
        // Coverage: every exact HHH must be reported (the approximate set may
        // contain extra prefixes, never fewer).
        for p in &exact {
            assert!(
                approx.contains(p),
                "false negative: exact HHH {p} missing from approx {:?}",
                approx.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn two_dimensional_hierarchy_works() {
        let window = 20_000;
        let mut hm = HMemento::new(SrcDstHierarchy, 4000, window, 1.0, 0.05, 3);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..window {
            let item = if rng.gen::<f64>() < 0.6 {
                (addr(10, 0, rng.gen(), rng.gen()), addr(99, 99, 0, 1))
            } else {
                (
                    addr(rng.gen_range(20..200), rng.gen(), rng.gen(), rng.gen()),
                    addr(rng.gen_range(20..200), rng.gen(), rng.gen(), rng.gen()),
                )
            };
            hm.update(item);
        }
        let hhh = hm.output(0.3);
        assert!(!hhh.is_empty());
        // The (10.0.0.0/16, 99.99.0.1/32) pair region must be represented by
        // some reported ancestor.
        let probe = (addr(10, 0, 1, 2), addr(99, 99, 0, 1));
        assert!(
            hhh.iter().any(|p| SrcDstHierarchy.prefix_matches(p, probe)),
            "no reported prefix covers the heavy 2D region"
        );
    }

    #[test]
    fn update_cost_is_constant_in_hierarchy_size() {
        // Structural check: only one Memento update happens per packet no
        // matter the hierarchy, i.e. processed() equals the packet count.
        let mut hm1 = HMemento::new(SrcHierarchy, 100, 1000, 0.1, 0.01, 1);
        let mut hm2 = HMemento::new(SrcDstHierarchy, 100, 1000, 0.1, 0.01, 1);
        for i in 0..5_000u32 {
            hm1.update(i);
            hm2.update((i, i));
        }
        assert_eq!(hm1.processed(), 5_000);
        assert_eq!(hm2.processed(), 5_000);
        // Full updates happen at rate ~tau in both cases.
        let r1 = hm1.full_updates() as f64 / 5_000.0;
        let r2 = hm2.full_updates() as f64 / 5_000.0;
        assert!((r1 - 0.1).abs() < 0.03, "1D full-update rate {r1}");
        assert!((r2 - 0.1).abs() < 0.03, "2D full-update rate {r2}");
    }

    #[test]
    fn with_epsilon_allocates_h_over_eps_counters() {
        let hm = HMemento::new(SrcHierarchy, 50, 1000, 0.5, 0.01, 0);
        assert_eq!(hm.counters(), 50);
        let hm = HMemento::with_epsilon(SrcHierarchy, 0.01, 1000, 0.5, 0.01, 0);
        assert_eq!(hm.counters(), 500);
        let hm2 = HMemento::with_epsilon(SrcDstHierarchy, 0.01, 1000, 0.5, 0.01, 0);
        assert_eq!(hm2.counters(), 2500);
    }

    #[test]
    fn v_equals_h_over_tau() {
        let hm = HMemento::new(SrcHierarchy, 100, 1000, 0.25, 0.01, 0);
        assert!((hm.v() - 20.0).abs() < 1e-9);
        assert!((hm.tau() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn invalid_delta_panics() {
        let _ = HMemento::new(SrcHierarchy, 10, 100, 0.5, 1.5, 0);
    }
}
