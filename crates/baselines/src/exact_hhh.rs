//! Streaming exact sliding-window HHH oracle.
//!
//! Keeps exact per-prefix counts over the last `W` packets by feeding every
//! packet's `H` generalizations into an exact window of `W·H` entries.
//! Memory and time are linear in the window — exactly the cost the paper's
//! approximate algorithms avoid — but it provides the ground truth for the
//! RMSE metrics (Figures 5, 8, 9) and the OPT line of Figure 10.

use std::hash::Hash;

use memento_core::traits::{HhhAlgorithm, HhhQuery, Ingest};
use memento_hierarchy::{compute_hhh, HhhParams, Hierarchy, PrefixEstimator};
use memento_sketches::ExactWindow;

/// Exact sliding-window hierarchical frequency oracle.
#[derive(Debug, Clone)]
pub struct ExactWindowHhh<Hi: Hierarchy>
where
    Hi::Prefix: Hash,
{
    hier: Hi,
    window: usize,
    counts: ExactWindow<Hi::Prefix>,
    processed: u64,
}

impl<Hi: Hierarchy> ExactWindowHhh<Hi>
where
    Hi::Prefix: Hash,
{
    /// Creates an oracle over the last `window` packets.
    pub fn new(hier: Hi, window: usize) -> Self {
        let h = hier.h();
        ExactWindowHhh {
            hier,
            window,
            counts: ExactWindow::new(window * h),
            processed: 0,
        }
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hi {
        &self.hier
    }

    /// Window size `W` in packets.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Packets processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Processes one packet (adds each of its `H` generalizations).
    pub fn update(&mut self, item: Hi::Item) {
        for i in 0..self.hier.h() {
            self.counts.add(self.hier.prefix_at(item, i));
        }
        self.processed += 1;
    }

    /// Advances the window over `n` packets observed elsewhere without
    /// recording them: global-position eviction on the inner exact window.
    /// Each packet occupies `H` entry positions (one per generalization),
    /// so the inner window of `W·H` entries advances by `n·H`.
    pub fn skip(&mut self, n: u64) {
        self.counts.skip(n * self.hier.h() as u64);
        self.processed += n;
    }

    /// Exact window frequency of a prefix.
    pub fn frequency(&self, prefix: &Hi::Prefix) -> u64 {
        self.counts.query(prefix)
    }

    /// Approximate heap footprint in bytes (linear in `W·H` — the cost the
    /// approximate algorithms avoid).
    pub fn space_bytes(&self) -> usize {
        self.counts.space_bytes()
    }

    /// All prefixes with non-zero window frequency.
    pub fn tracked_prefixes(&self) -> Vec<Hi::Prefix> {
        self.counts.iter().map(|(p, _)| *p).collect()
    }

    /// The exact window HHH set for threshold `θ`.
    pub fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let candidates = self.tracked_prefixes();
        let effective_window = (self.processed as usize).min(self.window);
        compute_hhh(
            &self.hier,
            self,
            &candidates,
            HhhParams::exact(theta * effective_window as f64),
        )
    }
}

impl<Hi: Hierarchy> PrefixEstimator<Hi::Prefix> for ExactWindowHhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn upper_bound(&self, p: &Hi::Prefix) -> f64 {
        self.frequency(p) as f64
    }

    fn lower_bound(&self, p: &Hi::Prefix) -> f64 {
        self.frequency(p) as f64
    }
}

impl<Hi: Hierarchy> HhhQuery<Hi> for ExactWindowHhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn name(&self) -> &'static str {
        "exact-window-hhh"
    }

    fn estimate(&self, prefix: &Hi::Prefix) -> f64 {
        self.frequency(prefix) as f64
    }

    fn output(&self, theta: f64) -> Vec<Hi::Prefix> {
        ExactWindowHhh::output(self, theta)
    }

    fn processed(&self) -> u64 {
        ExactWindowHhh::processed(self)
    }
}

impl<Hi: Hierarchy> Ingest<Hi::Item> for ExactWindowHhh<Hi>
where
    Hi::Prefix: Hash,
{
    #[inline]
    fn update(&mut self, item: Hi::Item) {
        ExactWindowHhh::update(self, item);
    }

    /// Global-position eviction on the inner exact window
    /// ([`ExactWindowHhh::skip`]).
    fn skip(&mut self, n: u64) {
        ExactWindowHhh::skip(self, n);
    }
}

impl<Hi: Hierarchy> HhhAlgorithm<Hi> for ExactWindowHhh<Hi>
where
    Hi::Prefix: Hash,
{
    fn space_bytes(&self) -> usize {
        ExactWindowHhh::space_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_hierarchy::{exact_hhh, Prefix1D, SrcHierarchy};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn addr(a: u8, b: u8, c: u8, d: u8) -> u32 {
        u32::from_be_bytes([a, b, c, d])
    }

    #[test]
    fn frequencies_are_exact_over_the_window() {
        let hier = SrcHierarchy;
        let w = 500;
        let mut oracle = ExactWindowHhh::new(hier, w);
        let mut rng = StdRng::seed_from_u64(1);
        let mut items = Vec::new();
        for _ in 0..2_000 {
            let it = addr(
                rng.gen_range(0..5),
                rng.gen_range(0..3),
                0,
                rng.gen_range(0..10),
            );
            oracle.update(it);
            items.push(it);
        }
        let suffix = &items[items.len() - w..];
        let truth = memento_hierarchy::prefix_frequencies(&hier, suffix.iter().copied());
        for (p, &f) in &truth {
            assert_eq!(oracle.frequency(p), f, "mismatch at {p}");
        }
    }

    #[test]
    fn output_matches_batch_exact_hhh() {
        let hier = SrcHierarchy;
        let w = 1_000;
        let mut oracle = ExactWindowHhh::new(hier, w);
        let mut rng = StdRng::seed_from_u64(7);
        let mut items = Vec::new();
        for _ in 0..3 * w {
            let it = if rng.gen::<f64>() < 0.4 {
                addr(10, 1, rng.gen_range(0..2), rng.gen_range(0..4))
            } else {
                addr(rng.gen_range(30..200), rng.gen(), rng.gen(), rng.gen())
            };
            oracle.update(it);
            items.push(it);
        }
        let theta = 0.2;
        let streaming = oracle.output(theta);
        let batch = exact_hhh(&hier, &items[items.len() - w..], theta * w as f64);
        assert_eq!(streaming, batch);
        assert!(streaming
            .iter()
            .any(|p| *p == Prefix1D::new(addr(10, 1, 0, 0), 16)
                || p.generalizes(&Prefix1D::new(addr(10, 1, 0, 0), 16))
                || Prefix1D::new(addr(10, 1, 0, 0), 16).generalizes(p)));
    }

    #[test]
    fn partial_window_uses_processed_count() {
        let hier = SrcHierarchy;
        let mut oracle = ExactWindowHhh::new(hier, 10_000);
        for _ in 0..100 {
            oracle.update(addr(5, 5, 5, 5));
        }
        // Only 100 packets seen: the threshold is relative to those 100.
        let hhh = oracle.output(0.5);
        assert!(hhh.contains(&Prefix1D::new(addr(5, 5, 5, 5), 32)));
    }
}
