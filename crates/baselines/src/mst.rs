//! MST — interval hierarchical heavy hitters with one Space-Saving instance
//! per prefix pattern (Mitzenmacher, Steinke, Thaler — ALENEX 2012).
//!
//! Every arriving packet is expanded into its `H` generalizations and each is
//! fed to the Space-Saving instance of its pattern, so updates cost `O(H)`.
//! Queries are answered from the per-pattern instance; the HHH set is
//! computed with the same conditioned-frequency machinery used by the other
//! algorithms. MST measures *intervals*: its state covers everything since
//! construction or the last [`Mst::reset`].

use std::hash::Hash;

use memento_core::traits::{HhhAlgorithm, HhhQuery, Ingest};
use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};
use memento_sketches::SpaceSaving;

/// The MST interval HHH algorithm.
#[derive(Debug, Clone)]
pub struct Mst<Hi: Hierarchy>
where
    Hi::Prefix: Hash,
{
    hier: Hi,
    /// One Space-Saving instance per prefix pattern.
    instances: Vec<SpaceSaving<Hi::Prefix>>,
    /// Packets processed since the last reset (the interval length `N`).
    processed: u64,
}

impl<Hi: Hierarchy> Mst<Hi>
where
    Hi::Prefix: Hash,
{
    /// Creates an MST instance with `counters_per_instance` counters in each
    /// of the `H` per-pattern summaries.
    pub fn new(hier: Hi, counters_per_instance: usize) -> Self {
        let instances = (0..hier.h())
            .map(|_| SpaceSaving::new(counters_per_instance))
            .collect();
        Mst {
            hier,
            instances,
            processed: 0,
        }
    }

    /// Creates an MST instance sized for a per-pattern additive error of
    /// `epsilon * N` (`⌈1/ε⌉` counters per instance, `H/ε` in total).
    pub fn with_epsilon(hier: Hi, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        let counters = (1.0 / epsilon).ceil() as usize;
        Self::new(hier, counters)
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hi {
        &self.hier
    }

    /// Total counters across all instances.
    pub fn counters(&self) -> usize {
        self.instances.iter().map(|i| i.counters()).sum()
    }

    /// Packets processed in the current interval.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Processes one packet: `H` Space-Saving updates, one per pattern.
    pub fn update(&mut self, item: Hi::Item) {
        for i in 0..self.hier.h() {
            let prefix = self.hier.prefix_at(item, i);
            self.instances[i].add(prefix);
        }
        self.processed += 1;
    }

    /// Estimated interval frequency of a prefix (upper bound).
    pub fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].query(prefix) as f64
    }

    /// Guaranteed lower bound on the interval frequency of a prefix.
    pub fn lower(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].query_lower(prefix) as f64
    }

    /// Starts a new measurement interval (the usage pattern of interval-based
    /// mitigation systems the paper describes in §3).
    pub fn reset(&mut self) {
        for inst in &mut self.instances {
            inst.flush();
        }
        self.processed = 0;
    }

    /// Approximate heap footprint in bytes: the `H` per-pattern summaries.
    pub fn space_bytes(&self) -> usize {
        self.instances.iter().map(SpaceSaving::space_bytes).sum()
    }

    /// All prefixes currently monitored by any per-pattern instance.
    pub fn tracked_prefixes(&self) -> Vec<Hi::Prefix> {
        self.instances
            .iter()
            .flat_map(|inst| inst.snapshot().into_iter().map(|c| c.key))
            .collect()
    }

    /// The approximate HHH set for threshold `θ` over the current interval
    /// (threshold is `θ · N` with `N` the interval length so far).
    pub fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let candidates = self.tracked_prefixes();
        compute_hhh(
            &self.hier,
            self,
            &candidates,
            HhhParams::exact(theta * self.processed as f64),
        )
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for Mst<Hi>
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

impl<Hi: Hierarchy> HhhQuery<Hi> for Mst<Hi>
where
    Hi::Prefix: Hash,
{
    fn name(&self) -> &'static str {
        "mst"
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        Mst::estimate(self, prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        Mst::output(self, theta)
    }

    fn processed(&self) -> u64 {
        Mst::processed(self)
    }
}

impl<Hi: Hierarchy> Ingest<Hi::Item> for Mst<Hi>
where
    Hi::Prefix: Hash,
{
    #[inline]
    fn update(&mut self, item: Hi::Item) {
        Mst::update(self, item);
    }

    /// No-op: MST is an interval algorithm — it counts everything since its
    /// last reset and has no sliding window to advance, so packets observed
    /// elsewhere are simply outside its interval.
    fn skip(&mut self, _n: u64) {}

    fn is_interval(&self) -> bool {
        true
    }

    fn reset_interval(&mut self) {
        self.reset();
    }
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for Mst<Hi>
where
    Hi::Prefix: Hash,
{
    fn space_bytes(&self) -> usize {
        Mst::space_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_hierarchy::{
        exact_hhh, prefix_frequencies, Prefix1D, SrcDstHierarchy, SrcHierarchy,
    };
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn estimates_never_undershoot_exact_interval_counts() {
        let hier = SrcHierarchy;
        let mut mst = Mst::new(hier, 64);
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<u32> = (0..20_000)
            .map(|_| {
                addr(
                    rng.gen_range(0..20),
                    rng.gen_range(0..4),
                    0,
                    rng.gen_range(0..16),
                )
            })
            .collect();
        for &it in &items {
            mst.update(it);
        }
        let exact = prefix_frequencies(&hier, items.iter().copied());
        for (p, &f) in &exact {
            let est = mst.estimate(p);
            assert!(est + 1e-9 >= f as f64, "undershoot at {p}: {est} < {f}");
            assert!(mst.lower(p) <= f as f64, "lower bound violated at {p}");
            // Space Saving per-pattern error bound: N / counters.
            assert!(
                est - f as f64 <= (items.len() / 64 + 1) as f64,
                "error too large at {p}"
            );
        }
    }

    #[test]
    fn output_covers_exact_hhh() {
        let hier = SrcHierarchy;
        let mut mst = Mst::new(hier, 256);
        let mut rng = StdRng::seed_from_u64(2);
        let items: Vec<u32> = (0..30_000)
            .map(|_| {
                if rng.gen::<f64>() < 0.4 {
                    addr(181, rng.gen(), rng.gen(), rng.gen())
                } else {
                    addr(rng.gen_range(1..100), rng.gen(), rng.gen(), rng.gen())
                }
            })
            .collect();
        for &it in &items {
            mst.update(it);
        }
        let theta = 0.2;
        let approx = mst.output(theta);
        let exact = exact_hhh(&hier, &items, theta * items.len() as f64);
        for p in &exact {
            assert!(approx.contains(p), "missing exact HHH {p}");
        }
        assert!(approx.contains(&Prefix1D::new(addr(181, 0, 0, 0), 8)));
    }

    #[test]
    fn reset_starts_a_fresh_interval() {
        let mut mst = Mst::new(SrcHierarchy, 32);
        for _ in 0..100 {
            mst.update(addr(1, 2, 3, 4));
        }
        assert!(mst.estimate(&Prefix1D::new(addr(1, 2, 3, 4), 32)) >= 100.0);
        mst.reset();
        assert_eq!(mst.processed(), 0);
        assert_eq!(mst.estimate(&Prefix1D::new(addr(1, 2, 3, 4), 32)), 0.0);
    }

    #[test]
    fn update_touches_every_pattern_2d() {
        let hier = SrcDstHierarchy;
        let mut mst = Mst::new(hier, 16);
        mst.update((addr(1, 2, 3, 4), addr(5, 6, 7, 8)));
        assert_eq!(mst.tracked_prefixes().len(), 25);
        assert_eq!(mst.counters(), 25 * 16);
    }

    #[test]
    fn with_epsilon_sizes_instances() {
        let mst = Mst::new(SrcHierarchy, 10);
        assert_eq!(mst.counters(), 50);
        let mst = Mst::with_epsilon(SrcHierarchy, 0.01);
        assert_eq!(mst.counters(), 500);
    }
}
