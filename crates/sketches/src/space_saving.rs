//! Space Saving (Metwally, Agrawal, El Abbadi — ICDT 2005).
//!
//! The algorithm keeps `k` counters. A packet of a monitored flow increments
//! that flow's counter; a packet of an unmonitored flow either takes a free
//! counter (count 1) or takes over the *minimum* counter, inheriting its count
//! (charged as `error`) and incrementing it. Queries return the counter value
//! when the flow is monitored and the minimum counter value otherwise, so the
//! estimate never undershoots the true count and overshoots by at most `N/k`
//! after `N` insertions.
//!
//! In this reproduction Space Saving is used:
//! * per frame inside [Memento / WCSS](https://arxiv.org/abs/1810.02899)
//!   (`y` in Algorithm 1, flushed at frame boundaries),
//! * per prefix level in the MST and RHHH baselines,
//! * on its own, as the interval (landmark-window) baseline the estimator
//!   traits of `memento-core` also drive.

use std::hash::Hash;

use crate::fasthash::PREFETCH_LOOKAHEAD;
use crate::journal::JournalDrain;
use crate::stream_summary::StreamSummary;

/// A snapshot of one Space Saving counter, used for reporting and
/// heavy-hitter extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot<K> {
    /// Monitored key.
    pub key: K,
    /// Estimated count (upper bound on the true count).
    pub count: u64,
    /// Error term: the count inherited when the key took over the slot.
    /// `count - error` is a lower bound on the true count.
    pub error: u64,
}

/// The Space Saving frequency-estimation algorithm with `k` counters.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Eq + Hash + Clone> {
    summary: StreamSummary<K>,
    processed: u64,
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// Creates an instance with `counters` counters.
    ///
    /// # Panics
    /// Panics if `counters == 0`.
    pub fn new(counters: usize) -> Self {
        SpaceSaving {
            summary: StreamSummary::new(counters),
            processed: 0,
        }
    }

    /// Creates an instance sized for an additive error of `epsilon * N`
    /// (i.e. `ceil(1/epsilon)` counters).
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 1]`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self::new((1.0 / epsilon).ceil() as usize)
    }

    /// Number of counters.
    pub fn counters(&self) -> usize {
        self.summary.capacity()
    }

    /// Number of items processed since creation or the last [`Self::flush`].
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of currently monitored keys.
    pub fn monitored(&self) -> usize {
        self.summary.len()
    }

    /// Processes one occurrence of `key` and returns its new estimate:
    /// one [`StreamSummary::offer`] step, which probes the key index once
    /// whether the key is monitored, takes a free counter or evicts.
    pub fn add(&mut self, key: K) -> u64 {
        self.add_hashed(key, None)
    }

    /// [`Self::add`] with an optionally precomputed
    /// [`crate::fasthash::hash_one`] value for `key`: the batched
    /// pipelines hash each key once when issuing its prefetch and hand
    /// the value down here, so no branch of the step hashes `key` again.
    #[inline]
    pub fn add_hashed(&mut self, key: K, hash: Option<u64>) -> u64 {
        self.processed += 1;
        let hash = hash.unwrap_or_else(|| crate::fasthash::hash_one(&key));
        self.summary.offer_hashed(key, hash).0
    }

    /// Processes a batch of occurrences with the prefetch pipeline: each
    /// key is hashed once, [`PREFETCH_LOOKAHEAD`] keys before its turn,
    /// the hash issues the index prefetch and then rides a small ring
    /// buffer to the key's own [`Self::add_hashed`] probe — so the probe
    /// misses of a batch overlap *and* no key is hashed twice. Exactly
    /// equivalent to calling `add` on each key in order (prefetches are
    /// hints — see [`crate::fasthash::prefetch`]).
    pub fn add_batch(&mut self, keys: &[K]) {
        let mut hashes = [0u64; PREFETCH_LOOKAHEAD];
        for (j, key) in keys.iter().take(PREFETCH_LOOKAHEAD).enumerate() {
            hashes[j] = crate::fasthash::hash_one(key);
        }
        for (i, key) in keys.iter().enumerate() {
            let slot = i % PREFETCH_LOOKAHEAD;
            let hash = hashes[slot];
            if let Some(ahead) = keys.get(i + PREFETCH_LOOKAHEAD) {
                let h = crate::fasthash::hash_one(ahead);
                self.summary.prefetch_hashed(h);
                hashes[slot] = h;
            }
            self.add_hashed(key.clone(), Some(hash));
        }
    }

    /// Hints the CPU to pull the summary-index lines `key`'s next
    /// [`Self::add`] or [`Self::query`] will touch
    /// ([`StreamSummary::prefetch`]). No observable effect.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.summary.prefetch(key);
    }

    /// [`Self::prefetch`] with the caller supplying the key's
    /// [`crate::fasthash::hash_one`] value (see
    /// [`StreamSummary::prefetch_hashed`]).
    #[inline]
    pub fn prefetch_hashed(&self, hash: u64) {
        self.summary.prefetch_hashed(hash);
    }

    /// Estimated count of `key` (the counter value when monitored, otherwise
    /// the minimum counter value). Never underestimates the true count.
    ///
    /// When the summary still has free counters an absent key has necessarily
    /// never been seen, so the estimate is 0 rather than the minimum counter.
    pub fn query(&self, key: &K) -> u64 {
        self.summary.get(key).unwrap_or_else(|| {
            if self.summary.is_full() {
                self.summary.min_count()
            } else {
                0
            }
        })
    }

    /// A guaranteed lower bound on the count of `key` (`count - error` when
    /// monitored, 0 otherwise).
    pub fn query_lower(&self, key: &K) -> u64 {
        self.summary
            .get_with_error(key)
            .map(|(c, e)| c - e)
            .unwrap_or(0)
    }

    /// True when `key` currently holds a counter.
    pub fn is_monitored(&self, key: &K) -> bool {
        self.summary.contains(key)
    }

    /// The answer [`Self::query`] gives for any key *not* currently holding
    /// a counter: the minimum counter value once the summary is full, 0
    /// while it still has free counters. Snapshot code captures this at
    /// freeze time because it depends on the fill state.
    pub fn absent_query(&self) -> u64 {
        if self.summary.is_full() {
            self.summary.min_count()
        } else {
            0
        }
    }

    /// Current minimum counter value (0 when empty).
    pub fn min_count(&self) -> u64 {
        self.summary.min_count()
    }

    /// Starts recording per-slot changes for incremental snapshots
    /// ([`StreamSummary::enable_journal`]). Idempotent.
    pub fn enable_journal(&mut self) {
        self.summary.enable_journal();
    }

    /// True once [`Self::enable_journal`] has been called.
    pub fn journal_enabled(&self) -> bool {
        self.summary.journal_enabled()
    }

    /// Takes everything recorded since the previous drain
    /// ([`StreamSummary::drain_journal`]).
    pub fn drain_journal(&mut self) -> Option<JournalDrain<K>> {
        self.summary.drain_journal()
    }

    /// SoA slot holding `key`, if monitored ([`StreamSummary::slot_of`]) —
    /// the tie-breaking rank of the incremental snapshot path.
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.summary.slot_of(key)
    }

    /// The `(key, count, error)` stored in `slot`, if occupied
    /// ([`StreamSummary::slot_entry`]).
    pub fn slot_entry(&self, slot: usize) -> Option<(&K, u64, u64)> {
        self.summary.slot_entry(slot)
    }

    /// Clears all counters (Memento calls this at every frame boundary).
    pub fn flush(&mut self) {
        self.summary.clear();
        self.processed = 0;
    }

    /// Returns all keys whose *estimated* count is at least `threshold`
    /// (a superset of the true heavy hitters since estimates never
    /// underestimate).
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<CounterSnapshot<K>> {
        let mut out: Vec<_> = self
            .summary
            .iter()
            .filter(|&(_, count, _)| count >= threshold)
            .map(|(k, count, error)| CounterSnapshot {
                key: k.clone(),
                count,
                error,
            })
            .collect();
        out.sort_by_key(|c| std::cmp::Reverse(c.count));
        out
    }

    /// Footprint in bytes by the paper's per-counter accounting: each of
    /// the `k` counters costs its key plus four 64-bit words (count, error
    /// term and bucket-list links), plus this struct once. The key index
    /// and the bucket nodes are not counted. The index is the larger of
    /// the two: it is at most a quarter full, so each counter has at least
    /// 4 index slots of one control byte plus an `Option<(K, usize)>` —
    /// 4 × 25 B for `u64` keys, 400 KiB at k = 4096. Used by the
    /// workspace's `space_bytes` accounting to compare algorithm memory at
    /// equal error.
    pub fn space_bytes(&self) -> usize {
        self.summary.capacity() * (std::mem::size_of::<K>() + 4 * std::mem::size_of::<u64>())
            + std::mem::size_of::<Self>()
    }

    /// Snapshot of every counter, in unspecified order.
    pub fn snapshot(&self) -> Vec<CounterSnapshot<K>> {
        self.summary
            .iter()
            .map(|(k, count, error)| CounterSnapshot {
                key: k.clone(),
                count,
                error,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_enough_counters() {
        let mut ss = SpaceSaving::new(8);
        let stream = [1u32, 2, 1, 3, 1, 2, 1];
        for &x in &stream {
            ss.add(x);
        }
        assert_eq!(ss.query(&1), 4);
        assert_eq!(ss.query(&2), 2);
        assert_eq!(ss.query(&3), 1);
        assert_eq!(ss.query(&4), 0, "absent key while counters are free");
    }

    #[test]
    fn absent_key_returns_min_counter() {
        let mut ss = SpaceSaving::new(2);
        for &x in &[1u32, 1, 2, 2, 2] {
            ss.add(x);
        }
        // counters: 1 -> 2, 2 -> 3 ; min = 2
        assert_eq!(ss.query(&99), 2);
    }

    #[test]
    fn eviction_follows_space_saving_rule() {
        let mut ss = SpaceSaving::new(2);
        ss.add("x");
        ss.add("x");
        ss.add("x");
        ss.add("x"); // x=4
        ss.add("y"); // y=1
                     // paper's own example: new flow y with min counter 4 -> value 5
        let mut ss2 = SpaceSaving::new(1);
        for _ in 0..4 {
            ss2.add("x");
        }
        assert_eq!(ss2.add("y"), 5);
        assert!(!ss2.is_monitored(&"x"));
        assert_eq!(ss.query(&"y"), 1);
    }

    #[test]
    fn overestimation_bounded_by_n_over_k() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(3);
        let k = 32;
        let mut ss = SpaceSaving::new(k);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        let n = 20_000u64;
        for _ in 0..n {
            // Zipf-ish skew via squaring.
            let r: f64 = rng.gen();
            let key = (r * r * 500.0) as u32;
            ss.add(key);
            *truth.entry(key).or_insert(0) += 1;
        }
        for key in truth.keys() {
            let est = ss.query(key);
            let real = truth[key];
            assert!(est >= real, "Space Saving must never underestimate");
            assert!(
                est - real <= n / k as u64,
                "overestimation {} exceeds N/k={}",
                est - real,
                n / k as u64
            );
            assert!(ss.query_lower(key) <= real, "lower bound must hold");
        }
    }

    #[test]
    fn flush_clears_state() {
        let mut ss = SpaceSaving::new(4);
        ss.add(1);
        ss.add(1);
        ss.flush();
        assert_eq!(ss.processed(), 0);
        assert_eq!(ss.query(&1), 0);
        assert_eq!(ss.monitored(), 0);
    }

    #[test]
    fn heavy_hitters_sorted_and_filtered() {
        let mut ss = SpaceSaving::new(8);
        for _ in 0..10 {
            ss.add("big");
        }
        for _ in 0..3 {
            ss.add("mid");
        }
        ss.add("small");
        let hh = ss.heavy_hitters(3);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].key, "big");
        assert_eq!(hh[1].key, "mid");
    }

    #[test]
    fn with_epsilon_sizes_counters() {
        let ss = SpaceSaving::<u32>::with_epsilon(0.01);
        assert_eq!(ss.counters(), 100);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn with_bad_epsilon_panics() {
        let _ = SpaceSaving::<u32>::with_epsilon(0.0);
    }
}
