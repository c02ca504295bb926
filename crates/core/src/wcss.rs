//! WCSS — Window Compact Space Saving (Ben-Basat et al., Infocom 2016).
//!
//! The paper builds Memento on top of WCSS and uses "Memento with τ = 1" as
//! its WCSS implementation for the evaluation (§6: *"For WCSS we use our
//! Memento implementation without sampling (τ = 1)"*). This type makes that
//! construction explicit: it is a thin, fully-typed wrapper around
//! [`Memento`] with the sampling disabled, exposing the classical WCSS
//! guarantees (`(ε_a, 0)`-window frequency estimation with `⌈4/ε_a⌉`
//! counters and constant-time updates and queries).

use std::hash::Hash;

use crate::memento::Memento;

/// The WCSS sliding-window heavy-hitters algorithm (Memento with τ = 1).
#[derive(Debug, Clone)]
pub struct Wcss<K: Eq + Hash + Clone> {
    inner: Memento<K>,
}

impl<K: Eq + Hash + Clone> Wcss<K> {
    /// Creates a WCSS instance with an explicit number of counters.
    pub fn new(counters: usize, window: usize) -> Self {
        Wcss {
            inner: Memento::new(counters, window, 1.0, 0),
        }
    }

    /// Creates a WCSS instance sized for an additive error of `ε_a · W`
    /// (`⌈4/ε_a⌉` counters).
    pub fn with_epsilon(epsilon: f64, window: usize) -> Self {
        Wcss {
            inner: Memento::with_epsilon(epsilon, window, 1.0, 0),
        }
    }

    /// Processes one packet (always a Full update).
    #[inline]
    pub fn update(&mut self, key: K) {
        self.inner.full_update(key);
    }

    /// Estimated window frequency of `key` (one-sided error of at most
    /// `4W/k`).
    pub fn estimate(&self, key: &K) -> f64 {
        self.inner.estimate(key)
    }

    /// Lower bound on the window frequency of `key`.
    pub fn lower_bound(&self, key: &K) -> f64 {
        self.inner.lower_bound(key)
    }

    /// Advances the window over `n` packets observed elsewhere without
    /// recording them — exactly `n` unrecorded window updates, in O(1)
    /// amortized time (see [`Memento::skip`]).
    pub fn skip(&mut self, n: u64) {
        self.inner.skip(n);
    }

    /// Flows whose estimated window frequency reaches `threshold` packets.
    pub fn heavy_hitters(&self, threshold: f64) -> Vec<(K, f64)> {
        self.inner.heavy_hitters(threshold)
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.inner.window()
    }

    /// Number of counters.
    pub fn counters(&self) -> usize {
        self.inner.counters()
    }

    /// Total packets processed.
    pub fn processed(&self) -> u64 {
        self.inner.processed()
    }

    /// Access to the underlying Memento instance (all WCSS behaviour is the
    /// τ = 1 special case).
    pub fn as_memento(&self) -> &Memento<K> {
        &self.inner
    }

    /// Mutable access to the underlying Memento instance.
    pub fn as_memento_mut(&mut self) -> &mut Memento<K> {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memento_sketches::ExactWindow;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn wcss_is_memento_with_tau_one() {
        let wcss = Wcss::<u64>::new(64, 1_000);
        assert_eq!(wcss.as_memento().tau(), 1.0);
        assert_eq!(wcss.counters(), 64);
        assert_eq!(wcss.window(), 1_000);
    }

    #[test]
    fn with_epsilon_allocates_4_over_eps_counters() {
        let wcss = Wcss::<u64>::with_epsilon(0.001, 1_000_000);
        assert_eq!(wcss.counters(), 4_000);
    }

    #[test]
    fn error_bound_holds_on_skewed_stream() {
        let window = 5_000;
        let counters = 200; // eps = 2% -> bound 100 packets
        let mut wcss = Wcss::new(counters, window);
        let mut exact = ExactWindow::new(window);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..25_000u64 {
            let r: f64 = rng.gen();
            let flow = (r * r * r * 300.0) as u64;
            wcss.update(flow);
            exact.add(flow);
        }
        let bound = (4 * window / counters) as f64;
        for flow in 0..300u64 {
            let est = wcss.estimate(&flow);
            let real = exact.query(&flow) as f64;
            assert!(est + 1e-9 >= real, "one-sided error violated");
            assert!(est - real <= bound, "flow {flow}: est {est}, real {real}");
        }
    }

    #[test]
    fn every_update_is_a_full_update() {
        let mut wcss = Wcss::new(16, 100);
        for i in 0..500u64 {
            wcss.update(i % 10);
        }
        assert_eq!(wcss.processed(), 500);
        assert_eq!(wcss.as_memento().full_updates(), 500);
    }

    #[test]
    fn mutable_memento_access_allows_window_updates() {
        let mut wcss = Wcss::<u64>::new(16, 100);
        wcss.as_memento_mut().window_update();
        assert_eq!(wcss.processed(), 1);
    }
}
