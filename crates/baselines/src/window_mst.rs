//! The paper's **Baseline** window HHH algorithm: MST with its per-pattern
//! Space-Saving summaries replaced by WCSS sliding-window summaries.
//!
//! This is the best previously known sliding-window HHH construction (MST
//! proposed it with Lee & Ting's algorithm; the paper substitutes WCSS, the
//! state of the art, to compare against the strongest variant). Every packet
//! performs `H` *Full* window updates — exactly the cost H-Memento avoids —
//! so this is the comparison target of Figure 6.

use std::hash::Hash;

use memento_core::traits::{HhhAlgorithm, HhhQuery, Ingest};
use memento_core::Wcss;
use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};

/// Window-MST ("Baseline"): one WCSS instance per prefix pattern.
#[derive(Debug, Clone)]
pub struct WindowMst<Hi: Hierarchy>
where
    Hi::Prefix: Hash,
{
    hier: Hi,
    instances: Vec<Wcss<Hi::Prefix>>,
    window: usize,
}

impl<Hi: Hierarchy> WindowMst<Hi>
where
    Hi::Prefix: Hash,
{
    /// Creates a Baseline instance with `counters_per_instance` counters per
    /// pattern and a sliding window of `window` packets.
    pub fn new(hier: Hi, counters_per_instance: usize, window: usize) -> Self {
        let instances = (0..hier.h())
            .map(|_| Wcss::new(counters_per_instance, window))
            .collect();
        WindowMst {
            hier,
            instances,
            window,
        }
    }

    /// Creates a Baseline sized for a per-pattern error of `ε_a · W`.
    pub fn with_epsilon(hier: Hi, epsilon: f64, window: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        let counters = (4.0 / epsilon).ceil() as usize;
        Self::new(hier, counters, window)
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hi {
        &self.hier
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total counters across all instances.
    pub fn counters(&self) -> usize {
        self.instances.iter().map(|i| i.counters()).sum()
    }

    /// Processes one packet: `H` Full window updates (the `O(H)` cost the
    /// paper's Figure 6 measures).
    pub fn update(&mut self, item: Hi::Item) {
        for i in 0..self.hier.h() {
            let prefix = self.hier.prefix_at(item, i);
            self.instances[i].update(prefix);
        }
    }

    /// Advances the window over `n` packets observed elsewhere: fans out to
    /// every per-pattern WCSS instance (each tracks the same stream, keyed
    /// by a different generalization), `H` closed-form bulk advances, each
    /// sublinear in `n`.
    pub fn skip(&mut self, n: u64) {
        for instance in &mut self.instances {
            instance.skip(n);
        }
    }

    /// Estimated window frequency of a prefix (upper bound).
    pub fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].estimate(prefix)
    }

    /// Lower bound on the window frequency of a prefix.
    pub fn lower(&self, prefix: &Hi::Prefix) -> f64 {
        let idx = self.hier.pattern_index(prefix);
        self.instances[idx].lower_bound(prefix)
    }

    /// Approximate heap footprint in bytes: the `H` per-pattern WCSS
    /// summaries.
    pub fn space_bytes(&self) -> usize {
        self.instances
            .iter()
            .map(|inst| inst.as_memento().space_bytes())
            .sum()
    }

    /// Total packets processed so far.
    pub fn processed(&self) -> u64 {
        self.instances.first().map_or(0, Wcss::processed)
    }

    /// All prefixes currently tracked by any per-pattern instance.
    pub fn tracked_prefixes(&self) -> Vec<Hi::Prefix> {
        self.instances
            .iter()
            .flat_map(|inst| inst.as_memento().tracked_keys())
            .collect()
    }

    /// The approximate window HHH set for threshold `θ` (threshold `θ · W`).
    pub fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let candidates = self.tracked_prefixes();
        compute_hhh(
            &self.hier,
            self,
            &candidates,
            HhhParams::exact(theta * self.window as f64),
        )
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for WindowMst<Hi>
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

impl<Hi: Hierarchy> HhhQuery<Hi> for WindowMst<Hi>
where
    Hi::Prefix: Hash,
{
    fn name(&self) -> &'static str {
        "window-mst"
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        WindowMst::estimate(self, prefix)
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        WindowMst::output(self, theta)
    }

    fn processed(&self) -> u64 {
        WindowMst::processed(self)
    }
}

impl<Hi: Hierarchy> Ingest<Hi::Item> for WindowMst<Hi>
where
    Hi::Prefix: Hash,
{
    #[inline]
    fn update(&mut self, item: Hi::Item) {
        WindowMst::update(self, item);
    }

    /// Bulk window advance fanned out over the `H` per-pattern WCSS
    /// instances ([`WindowMst::skip`]).
    fn skip(&mut self, n: u64) {
        WindowMst::skip(self, n);
    }
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for WindowMst<Hi>
where
    Hi::Prefix: Hash,
{
    fn space_bytes(&self) -> usize {
        WindowMst::space_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_hierarchy::{Prefix1D, SrcHierarchy};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn window_semantics_forget_old_subnets() {
        let window = 2_000;
        let mut baseline = WindowMst::new(SrcHierarchy, 100, window);
        // Heavy subnet in the first window.
        for i in 0..window {
            baseline.update(addr(50, 1, 1, (i % 200) as u8));
        }
        let subnet = Prefix1D::new(addr(50, 0, 0, 0), 8);
        assert!(baseline.estimate(&subnet) > 0.8 * window as f64);
        // Two windows of unrelated traffic.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2 * window {
            baseline.update(addr(
                rng.gen_range(100..250),
                rng.gen(),
                rng.gen(),
                rng.gen(),
            ));
        }
        let leftover = baseline.estimate(&subnet);
        assert!(
            leftover < 0.2 * window as f64,
            "stale subnet retained: {leftover}"
        );
    }

    #[test]
    fn output_reports_heavy_subnet() {
        let window = 5_000;
        let mut baseline = WindowMst::new(SrcHierarchy, 128, window);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..window {
            let it = if rng.gen::<f64>() < 0.45 {
                addr(77, rng.gen(), rng.gen(), rng.gen())
            } else {
                addr(rng.gen_range(1..60), rng.gen(), rng.gen(), rng.gen())
            };
            baseline.update(it);
        }
        let hhh = baseline.output(0.3);
        assert!(
            hhh.contains(&Prefix1D::new(addr(77, 0, 0, 0), 8)),
            "{hhh:?}"
        );
    }

    #[test]
    fn estimates_match_wcss_per_pattern() {
        // With a single repeated item, the /32 estimate must be ~count.
        let mut baseline = WindowMst::new(SrcHierarchy, 32, 1_000);
        for _ in 0..500 {
            baseline.update(addr(9, 9, 9, 9));
        }
        let host = Prefix1D::new(addr(9, 9, 9, 9), 32);
        let est = baseline.estimate(&host);
        assert!((est - 500.0).abs() <= 2.0 * (1_000 / 32) as f64 + 1.0);
        assert!(baseline.lower(&host) <= 500.0);
        assert_eq!(baseline.counters(), 5 * 32);
        assert_eq!(baseline.window(), 1_000);
    }

    #[test]
    fn with_epsilon_sizes_counters() {
        let b = WindowMst::with_epsilon(SrcHierarchy, 0.1, 1_000);
        assert_eq!(b.counters(), 5 * 40);
    }
}
