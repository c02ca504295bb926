//! RHHH — Randomized Hierarchical Heavy Hitters (Ben Basat et al., SIGCOMM
//! 2017), the fastest known *interval* HHH algorithm and the speed
//! comparison target of Figure 7.
//!
//! RHHH keeps the MST lattice of per-pattern Space-Saving instances but, for
//! each packet, draws a uniform integer in `[1, V]` (`V ≥ H`): if it lands in
//! `[1, H]` the corresponding pattern instance is updated with that single
//! prefix, otherwise the packet is ignored. Updates are therefore constant
//! time; estimates are scaled by `V`. As the paper notes, RHHH implements the
//! sampling with a *geometric* skip counter, which is cheap at small sampling
//! probabilities and comparatively expensive at large ones — the opposite
//! trade-off of H-Memento's random-number table.
//!
//! RHHH measures intervals: there is no sliding window and the estimates
//! refer to everything since construction or the last [`Rhhh::reset`].

use std::hash::Hash;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use memento_core::analysis::z_value;
use memento_core::traits::{HhhAlgorithm, HhhQuery, Ingest};
use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};
use memento_sketches::{GeometricSampler, SpaceSaving};

/// The RHHH interval HHH algorithm.
#[derive(Debug, Clone)]
pub struct Rhhh<Hi: Hierarchy>
where
    Hi::Prefix: Hash,
{
    hier: Hi,
    instances: Vec<SpaceSaving<Hi::Prefix>>,
    /// Geometric skip sampler firing with probability `τ = H / V`.
    sampler: GeometricSampler,
    level_rng: StdRng,
    /// Per-prefix inverse sampling rate `V`.
    v: f64,
    /// Confidence for the sampling compensation used by `output`.
    delta: f64,
    processed: u64,
    updates: u64,
}

impl<Hi: Hierarchy> Rhhh<Hi>
where
    Hi::Prefix: Hash,
{
    /// Creates an RHHH instance.
    ///
    /// * `counters_per_instance` — Space-Saving counters per pattern;
    /// * `tau` — overall update probability (`H/V`), in `(0, 1]`;
    /// * `delta` — confidence for the sampling compensation;
    /// * `seed` — RNG seed.
    pub fn new(hier: Hi, counters_per_instance: usize, tau: f64, delta: f64, seed: u64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "tau must be in (0,1], got {tau}");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let h = hier.h();
        let instances = (0..h)
            .map(|_| SpaceSaving::new(counters_per_instance))
            .collect();
        Rhhh {
            hier,
            instances,
            sampler: GeometricSampler::new(tau, seed),
            level_rng: StdRng::seed_from_u64(seed ^ 0xABCD_EF01),
            v: h as f64 / tau,
            delta,
            processed: 0,
            updates: 0,
        }
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hi {
        &self.hier
    }

    /// The per-prefix inverse sampling rate `V = H/τ`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// Packets processed since the last reset (the interval length `N`).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of packets that actually updated an instance.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total counters across all instances.
    pub fn counters(&self) -> usize {
        self.instances.iter().map(|i| i.counters()).sum()
    }

    /// Processes one packet: with probability `τ = H/V` updates one uniformly
    /// chosen pattern instance, otherwise only advances the packet counter.
    #[inline]
    pub fn update(&mut self, item: Hi::Item) {
        self.processed += 1;
        if self.sampler.sample() {
            let level = self.level_rng.gen_range(0..self.hier.h());
            let prefix = self.hier.prefix_at(item, level);
            self.instances[level].add(prefix);
            self.updates += 1;
        }
    }

    /// Estimated interval frequency of a prefix (`V ·` instance estimate).
    pub fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].query(prefix) as f64 * self.v
    }

    /// Lower bound on the interval frequency of a prefix.
    pub fn lower(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].query_lower(prefix) as f64 * self.v
    }

    /// Starts a fresh measurement interval.
    pub fn reset(&mut self) {
        for inst in &mut self.instances {
            inst.flush();
        }
        self.processed = 0;
        self.updates = 0;
    }

    /// Approximate heap footprint in bytes: the `H` per-pattern summaries.
    pub fn space_bytes(&self) -> usize {
        self.instances.iter().map(SpaceSaving::space_bytes).sum()
    }

    /// All prefixes currently monitored by any instance.
    pub fn tracked_prefixes(&self) -> Vec<Hi::Prefix> {
        self.instances
            .iter()
            .flat_map(|inst| inst.snapshot().into_iter().map(|c| c.key))
            .collect()
    }

    /// The additive sampling compensation `2·Z₁₋δ·√(V·N)` used by
    /// [`Self::output`] so that, with high probability, no true HHH is
    /// missed despite the sampling.
    pub fn sampling_slack(&self) -> f64 {
        2.0 * z_value(1.0 - self.delta) * (self.v * self.processed as f64).sqrt()
    }

    /// The approximate HHH set for threshold `θ` over the current interval.
    pub fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let candidates = self.tracked_prefixes();
        compute_hhh(
            &self.hier,
            self,
            &candidates,
            HhhParams {
                threshold: theta * self.processed as f64,
                sampling_slack: self.sampling_slack(),
            },
        )
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for Rhhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn upper_bound(&self, p: &Hi::Prefix) -> f64 {
        self.estimate(p)
    }

    fn lower_bound(&self, p: &Hi::Prefix) -> f64 {
        self.lower(p)
    }
}

impl<Hi: Hierarchy> HhhQuery<Hi> for Rhhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn name(&self) -> &'static str {
        "rhhh"
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        Rhhh::estimate(self, prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        Rhhh::output(self, theta)
    }

    fn processed(&self) -> u64 {
        Rhhh::processed(self)
    }
}

impl<Hi: Hierarchy> Ingest<Hi::Item> for Rhhh<Hi>
where
    Hi::Prefix: Hash,
{
    #[inline]
    fn update(&mut self, item: Hi::Item) {
        Rhhh::update(self, item);
    }

    /// No-op: RHHH is an interval algorithm — it counts everything since
    /// its last reset and has no sliding window to advance, so packets
    /// observed elsewhere are simply outside its interval.
    fn skip(&mut self, _n: u64) {}

    fn is_interval(&self) -> bool {
        true
    }

    fn reset_interval(&mut self) {
        self.reset();
    }
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for Rhhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn space_bytes(&self) -> usize {
        Rhhh::space_bytes(self)
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
    fn estimates_converge_for_large_flows() {
        let mut rhhh = Rhhh::new(SrcHierarchy, 256, 0.5, 0.01, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        for _ in 0..n {
            let it = if rng.gen::<f64>() < 0.3 {
                addr(44, rng.gen(), rng.gen(), rng.gen())
            } else {
                addr(rng.gen_range(1..40), rng.gen(), rng.gen(), rng.gen())
            };
            rhhh.update(it);
        }
        let subnet = Prefix1D::new(addr(44, 0, 0, 0), 8);
        let est = rhhh.estimate(&subnet);
        let expected = 0.3 * n as f64;
        assert!(
            (est - expected).abs() < 0.25 * expected,
            "est {est}, expected {expected}"
        );
    }

    #[test]
    fn update_rate_matches_tau() {
        let mut rhhh = Rhhh::new(SrcDstHierarchy, 64, 0.1, 0.01, 5);
        for i in 0..50_000u32 {
            rhhh.update((i, i.wrapping_mul(7)));
        }
        let rate = rhhh.updates() as f64 / rhhh.processed() as f64;
        assert!((rate - 0.1).abs() < 0.02, "update rate {rate}");
        assert!((rhhh.v() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn output_detects_heavy_subnet_with_no_false_negative() {
        let mut rhhh = Rhhh::new(SrcHierarchy, 512, 0.8, 0.05, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 80_000;
        for _ in 0..n {
            let it = if rng.gen::<f64>() < 0.5 {
                addr(99, rng.gen(), rng.gen(), rng.gen())
            } else {
                addr(rng.gen_range(1..90), rng.gen(), rng.gen(), rng.gen())
            };
            rhhh.update(it);
        }
        let hhh = rhhh.output(0.25);
        assert!(
            hhh.contains(&Prefix1D::new(addr(99, 0, 0, 0), 8)),
            "heavy /8 missing from {hhh:?}"
        );
    }

    #[test]
    fn reset_clears_interval() {
        let mut rhhh = Rhhh::new(SrcHierarchy, 32, 1.0, 0.01, 0);
        for _ in 0..1000 {
            rhhh.update(addr(1, 1, 1, 1));
        }
        assert!(rhhh.estimate(&Prefix1D::new(addr(1, 1, 1, 1), 32)) > 0.0);
        rhhh.reset();
        assert_eq!(rhhh.processed(), 0);
        assert_eq!(rhhh.estimate(&Prefix1D::new(addr(1, 1, 1, 1), 32)), 0.0);
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn invalid_tau_panics() {
        let _ = Rhhh::new(SrcHierarchy, 8, 0.0, 0.01, 0);
    }
}
