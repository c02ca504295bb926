//! Exact reference counters.
//!
//! These are the ground-truth oracles behind every error metric in the
//! paper's evaluation (the on-arrival RMSE of §6, the flood-detection OPT
//! line of Figure 10, and all property tests).

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::compact_map::CompactMap;

/// Exact interval counter: counts every occurrence since creation or the last
/// [`ExactInterval::reset`]. This models the paper's "Interval" measurement
/// discipline at its most accurate.
#[derive(Debug, Clone, Default)]
pub struct ExactInterval<K: Eq + Hash + Clone> {
    counts: HashMap<K, u64>,
    processed: u64,
}

impl<K: Eq + Hash + Clone> ExactInterval<K> {
    /// Creates an empty counter.
    pub fn new() -> Self {
        ExactInterval {
            counts: HashMap::new(),
            processed: 0,
        }
    }

    /// Records one occurrence of `key`.
    pub fn add(&mut self, key: K) {
        *self.counts.entry(key).or_insert(0) += 1;
        self.processed += 1;
    }

    /// Exact count of `key` in the current interval.
    pub fn query(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of items in the current interval.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Starts a fresh interval.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.processed = 0;
    }

    /// All keys whose count is at least `threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Iterates over all `(key, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

/// Exact sliding-window counter over the last `window` *stream positions*.
///
/// Keeps a ring buffer of the position-stamped keys still inside the window
/// plus a [`CompactMap`] of their counts, so both update and query are O(1)
/// (amortized) and memory is O(window) — exactly the cost the paper's
/// approximate algorithms avoid.
///
/// The window is defined over global stream positions, not over recorded
/// items: [`ExactWindow::skip`] advances the position over packets observed
/// elsewhere (another shard of a partitioned deployment, another
/// measurement point) without recording them, evicting whatever the
/// advance pushes out of the last `window` positions. When every position
/// is recorded through [`ExactWindow::add`] — the single-instance case —
/// the two views coincide and the counter behaves exactly like the classic
/// "last `W` items" oracle.
#[derive(Debug, Clone)]
pub struct ExactWindow<K: Eq + Hash + Clone> {
    window: usize,
    /// Recorded items still inside the window, oldest first, each stamped
    /// with the (1-based) global stream position at which it was recorded.
    ring: VecDeque<(u64, K)>,
    counts: CompactMap<K, u64>,
    /// Global stream position: recorded items plus skipped packets.
    processed: u64,
}

impl<K: Eq + Hash + Clone> ExactWindow<K> {
    /// Creates a counter over the last `window` items.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        ExactWindow {
            window,
            ring: VecDeque::with_capacity(window),
            counts: CompactMap::new(),
            processed: 0,
        }
    }

    /// The window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total stream positions ever covered (recorded items plus skipped
    /// packets).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of recorded items currently inside the window
    /// (`min(processed, W)` when nothing was ever skipped).
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// Records one occurrence of `key` at the next stream position,
    /// expiring whatever leaves the last `W` positions.
    ///
    /// # Panics
    /// Panics with "add: the stream position overflows u64" when the
    /// stream position is already `u64::MAX`, before any state changes.
    pub fn add(&mut self, key: K) {
        self.processed = self
            .processed
            .checked_add(1)
            .expect("add: the stream position overflows u64");
        self.ring.push_back((self.processed, key.clone()));
        *self.counts.get_or_insert_with(key, || 0) += 1;
        self.evict_expired();
    }

    /// Advances the stream position over `n` packets observed elsewhere
    /// without recording them, expiring whatever the advance pushes out of
    /// the last `W` positions — for a full window, exactly equivalent to
    /// `n` evictions without an insert.
    ///
    /// The eviction is a **range eviction**, not a per-slot pop walk: the
    /// ring is position-sorted, so the expiry boundary is found by binary
    /// search and the expired prefix is drained in one pass; when the
    /// advance outruns every recorded position (`n ≥ W` on a full ring) the
    /// ring and the count table are cleared wholesale — `O(distinct keys)`
    /// instead of `W` per-slot pops with a hash-table decrement each, and
    /// `O(1)` once the ring is empty.
    ///
    /// # Panics
    /// Panics with "skip: the stream position overflows u64" when the
    /// advance would carry the stream position past `u64::MAX`, before any
    /// state changes.
    pub fn skip(&mut self, n: u64) {
        self.processed = self
            .processed
            .checked_add(n)
            .expect("skip: the stream position overflows u64");
        let horizon = self.processed.saturating_sub(self.window as u64);
        match self.ring.back() {
            None => {}
            Some((newest, _)) if *newest <= horizon => {
                // Every recorded item expired: retire the whole ring without
                // touching individual counts.
                self.ring.clear();
                self.counts.clear();
            }
            _ => {
                // Positions are strictly increasing along the ring: binary-
                // search the expiry boundary, then retire the prefix.
                let cut = self.ring.partition_point(|(pos, _)| *pos <= horizon);
                for (_, old) in self.ring.drain(..cut) {
                    if let Some(c) = self.counts.get_mut(&old) {
                        *c -= 1;
                        if *c == 0 {
                            self.counts.remove(&old);
                        }
                    }
                }
            }
        }
    }

    /// Bit-for-bit reference for [`Self::skip`]: the per-slot eviction loop
    /// this crate shipped before the range eviction (`O(evicted)` front
    /// pops, each with a hash-table decrement). Kept for the differential
    /// tests and as the baseline of the `sublinear_skip` bench; not part of
    /// the supported API.
    #[doc(hidden)]
    pub fn skip_reference(&mut self, n: u64) {
        self.processed += n;
        self.evict_expired();
    }

    /// Drops recorded items whose position fell out of the last `W`
    /// positions (the per-slot path: [`Self::add`] evicts at most one item
    /// per call, so a pop walk is already optimal there).
    fn evict_expired(&mut self) {
        let horizon = self.processed.saturating_sub(self.window as u64);
        while let Some((pos, _)) = self.ring.front() {
            if *pos > horizon {
                break;
            }
            let (_, old) = self.ring.pop_front().expect("front checked above");
            if let Some(c) = self.counts.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&old);
                }
            }
        }
    }

    /// Exact count of `key` among the last `W` stream positions.
    pub fn query(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// All keys whose window count is at least `threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    /// Iterates over all `(key, window count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// Number of distinct keys in the window.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Approximate heap footprint in bytes: the ring of position-stamped
    /// keys plus the count table — the linear-in-`W` cost the paper's
    /// approximate algorithms avoid.
    pub fn space_bytes(&self) -> usize {
        self.window * std::mem::size_of::<(u64, K)>()
            + self.counts.len() * (std::mem::size_of::<K>() + 2 * std::mem::size_of::<u64>())
            + std::mem::size_of::<Self>()
    }
}

/// Exact **time-based** sliding-window counter: counts every occurrence
/// whose timestamp lies in `(now − window_ticks, now]`.
///
/// This is the ground-truth oracle of the time plane (PR 9): where
/// [`ExactWindow`] defines its window over *stream positions* (and the
/// grain-mapped `TimedWindow` layer quantizes time onto that position
/// schedule), this counter evicts by the *recorded timestamps themselves* —
/// no grains, no quantization. The gate's `bursty-replay` row measures the
/// approximate time plane's on-arrival error against it, which therefore
/// includes the grain-quantization error by construction.
///
/// Timestamps are `u64` ticks of any unit. The clock policy matches the
/// time plane's: non-monotone timestamps clamp to the newest one observed
/// (never panic), duplicates are fine. Memory is O(items in window) — the
/// linear cost the approximate structures avoid.
#[derive(Debug, Clone)]
pub struct ExactTimedWindow<K: Eq + Hash + Clone> {
    window_ticks: u64,
    /// Recorded items still inside the window, oldest first, stamped with
    /// their (post-clamp) arrival tick.
    ring: VecDeque<(u64, K)>,
    counts: CompactMap<K, u64>,
    /// Newest (post-clamp) timestamp observed.
    now: u64,
    /// Items ever recorded.
    recorded: u64,
    /// Non-monotone timestamps clamped (diagnostics).
    clamped: u64,
}

impl<K: Eq + Hash + Clone> ExactTimedWindow<K> {
    /// Creates a counter over the trailing `window_ticks` clock ticks.
    ///
    /// # Panics
    /// Panics if `window_ticks == 0`.
    pub fn new(window_ticks: u64) -> Self {
        assert!(window_ticks > 0, "window must be positive");
        ExactTimedWindow {
            window_ticks,
            ring: VecDeque::new(),
            counts: CompactMap::new(),
            now: 0,
            recorded: 0,
            clamped: 0,
        }
    }

    /// The window length in clock ticks.
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// The newest (post-clamp) timestamp observed.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Items ever recorded.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Non-monotone timestamps clamped to the newest observation so far.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of recorded items currently inside the window.
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// Number of distinct keys in the window.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Clamps `t` to the newest observation and advances the clock.
    fn clamp(&mut self, t: u64) -> u64 {
        if t < self.now {
            self.clamped += 1;
            return self.now;
        }
        self.now = t;
        t
    }

    /// Records one occurrence of `key` at tick `t` (clamped monotone),
    /// evicting everything older than `t − window_ticks`.
    pub fn add_at(&mut self, key: K, t: u64) {
        let t = self.clamp(t);
        self.recorded += 1;
        self.ring.push_back((t, key.clone()));
        *self.counts.get_or_insert_with(key, || 0) += 1;
        self.evict();
    }

    /// Advances the clock to `t` without recording anything, evicting
    /// expired items. Same range-eviction shape as [`ExactWindow::skip`]:
    /// a binary-searched prefix drain, or a wholesale clear when the
    /// advance outruns every recorded timestamp.
    pub fn advance_to(&mut self, t: u64) {
        let _ = self.clamp(t);
        let Some(horizon) = self.now.checked_sub(self.window_ticks) else {
            return; // the window still reaches back past tick 0
        };
        match self.ring.back() {
            None => {}
            Some((newest, _)) if *newest <= horizon => {
                self.ring.clear();
                self.counts.clear();
            }
            _ => self.evict(),
        }
    }

    /// Drops items stamped at or before `now − window_ticks` (ticks are
    /// non-decreasing along the ring, so a front walk terminates at the
    /// first survivor).
    fn evict(&mut self) {
        let Some(horizon) = self.now.checked_sub(self.window_ticks) else {
            return;
        };
        while let Some((tick, _)) = self.ring.front() {
            if *tick > horizon {
                break;
            }
            let (_, old) = self.ring.pop_front().expect("front checked above");
            if let Some(c) = self.counts.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&old);
                }
            }
        }
    }

    /// Exact count of `key` among the items of the last `window_ticks`
    /// ticks (as of the newest observation — call
    /// [`advance_to`](Self::advance_to) first to evict up to a later time).
    pub fn query(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// All keys whose window count is at least `threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(K, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_counts_exactly() {
        let mut c = ExactInterval::new();
        for x in [1, 2, 1, 1, 3] {
            c.add(x);
        }
        assert_eq!(c.query(&1), 3);
        assert_eq!(c.query(&2), 1);
        assert_eq!(c.query(&4), 0);
        assert_eq!(c.processed(), 5);
        c.reset();
        assert_eq!(c.query(&1), 0);
        assert_eq!(c.processed(), 0);
    }

    #[test]
    fn interval_heavy_hitters() {
        let mut c = ExactInterval::new();
        for _ in 0..5 {
            c.add("a");
        }
        for _ in 0..2 {
            c.add("b");
        }
        assert_eq!(c.heavy_hitters(3), vec![("a", 5)]);
        assert_eq!(c.heavy_hitters(1).len(), 2);
    }

    #[test]
    fn window_expires_old_items() {
        let mut w = ExactWindow::new(3);
        w.add(1);
        w.add(1);
        w.add(2);
        assert_eq!(w.query(&1), 2);
        w.add(3); // expels the first 1
        assert_eq!(w.query(&1), 1);
        w.add(3); // expels the second 1
        assert_eq!(w.query(&1), 0);
        assert_eq!(w.query(&3), 2);
        assert_eq!(w.occupancy(), 3);
        assert_eq!(w.distinct(), 2);
    }

    #[test]
    fn window_matches_naive_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let window = 50;
        let mut w = ExactWindow::new(window);
        let mut stream = Vec::new();
        for i in 0..2_000 {
            let key = rng.gen_range(0u32..20);
            stream.push(key);
            w.add(key);
            if i % 97 == 0 {
                let start = stream.len().saturating_sub(window);
                let probe = rng.gen_range(0u32..20);
                let naive = stream[start..].iter().filter(|&&k| k == probe).count() as u64;
                assert_eq!(w.query(&probe), naive);
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = ExactWindow::<u32>::new(0);
    }

    /// On a full window, `skip(n)` is exactly `n` evictions without an
    /// insert: the oldest `n` recorded items leave the window.
    #[test]
    fn skip_evicts_by_global_position() {
        let mut w = ExactWindow::new(4);
        for key in [1, 1, 2, 3] {
            w.add(key);
        }
        w.skip(2); // positions 1 and 2 (both 1s) fall out
        assert_eq!(w.query(&1), 0);
        assert_eq!(w.query(&2), 1);
        assert_eq!(w.query(&3), 1);
        assert_eq!(w.processed(), 6);
        assert_eq!(w.occupancy(), 2);
        // A later add lands at position 7; the window (4..=7] keeps 2 out.
        w.add(5);
        assert_eq!(w.query(&2), 0);
        assert_eq!(w.query(&3), 1);
        assert_eq!(w.query(&5), 1);
        // Skipping a whole window clears everything.
        w.skip(4);
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.distinct(), 0);
    }

    /// One add and a skip of `u64::MAX - 1`: the stream at `u64::MAX`.
    fn window_at_u64_max() -> ExactWindow<u64> {
        let mut w = ExactWindow::new(4);
        w.add(7);
        w.skip(u64::MAX - 1);
        w
    }

    #[test]
    fn skip_landing_exactly_on_u64_max_still_works() {
        let mut w = window_at_u64_max();
        assert_eq!(w.processed(), u64::MAX);
        assert_eq!(w.query(&7), 0);
        assert_eq!(w.occupancy(), 0);
        w.skip(0);
        assert_eq!(w.processed(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "add: the stream position overflows u64")]
    fn add_past_u64_max_panics() {
        let mut w = window_at_u64_max();
        w.add(7);
    }

    #[test]
    #[should_panic(expected = "skip: the stream position overflows u64")]
    fn skip_past_u64_max_panics() {
        let mut w = window_at_u64_max();
        w.skip(1);
    }

    /// Interleaved add/skip matches a naive model that materializes the
    /// skipped positions as never-matching filler keys.
    #[test]
    fn skip_matches_materialized_filler_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let window = 60;
        let mut fast: ExactWindow<u64> = ExactWindow::new(window);
        let mut model: ExactWindow<u64> = ExactWindow::new(window);
        for i in 0..3_000u64 {
            if rng.gen_bool(0.3) {
                let n = rng.gen_range(1..25u64);
                fast.skip(n);
                for j in 0..n {
                    model.add(u64::MAX - (i * 32 + j)); // unique filler
                }
            } else {
                let key = rng.gen_range(0u64..12);
                fast.add(key);
                model.add(key);
            }
            if i % 61 == 0 {
                for key in 0u64..12 {
                    assert_eq!(fast.query(&key), model.query(&key), "key {key} at step {i}");
                }
                assert_eq!(fast.processed(), model.processed());
            }
        }
    }

    /// The range-evicting `skip` must match the per-slot reference walk on
    /// arbitrary add/skip interleavings, including whole-ring clears.
    #[test]
    fn range_eviction_skip_equals_per_slot_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let window = 90;
        let mut fast: ExactWindow<u64> = ExactWindow::new(window);
        let mut reference: ExactWindow<u64> = ExactWindow::new(window);
        for step in 0..2_500u64 {
            if rng.gen_bool(0.25) {
                // Mix small advances, exact-window advances and overshoots.
                let choices = [1, 7, window as u64 - 1, window as u64, 3 * window as u64];
                let n = choices[rng.gen_range(0..choices.len())];
                fast.skip(n);
                reference.skip_reference(n);
            } else {
                let key = rng.gen_range(0u64..15);
                fast.add(key);
                reference.add(key);
            }
            if step % 37 == 0 {
                assert_eq!(fast.processed(), reference.processed());
                assert_eq!(fast.occupancy(), reference.occupancy());
                assert_eq!(fast.distinct(), reference.distinct());
                for key in 0u64..15 {
                    assert_eq!(fast.query(&key), reference.query(&key), "key {key}");
                }
            }
        }
    }

    #[test]
    fn timed_window_evicts_by_timestamp() {
        let mut w = ExactTimedWindow::new(10);
        w.add_at(1, 0);
        w.add_at(1, 3);
        w.add_at(2, 9);
        assert_eq!(w.query(&1), 2);
        // t = 11: the window (1, 11] drops the item at t = 0 only.
        w.advance_to(11);
        assert_eq!(w.query(&1), 1);
        assert_eq!(w.query(&2), 1);
        // An idle gap past the whole window clears everything wholesale.
        w.advance_to(1_000);
        assert_eq!(w.occupancy(), 0);
        assert_eq!(w.distinct(), 0);
        assert_eq!(w.recorded(), 3);
    }

    #[test]
    fn timed_window_clamps_backward_clocks() {
        let mut w = ExactTimedWindow::new(5);
        w.add_at("a", 100);
        w.add_at("b", 7); // clamped to t = 100
        assert_eq!(w.clamped(), 1);
        assert_eq!(w.now(), 100);
        assert_eq!(w.query(&"b"), 1);
        w.advance_to(3); // also clamps; evicts nothing
        assert_eq!(w.clamped(), 2);
        assert_eq!(w.query(&"a"), 1);
    }

    #[test]
    fn timed_window_matches_naive_time_filter() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let window = 40u64;
        let mut w: ExactTimedWindow<u32> = ExactTimedWindow::new(window);
        let mut log: Vec<(u64, u32)> = Vec::new();
        let mut t = 0u64;
        for i in 0..3_000u64 {
            t += rng.gen_range(0u64..4);
            let key = rng.gen_range(0u32..15);
            w.add_at(key, t);
            log.push((t, key));
            if i % 83 == 0 {
                let probe = rng.gen_range(0u32..15);
                let naive = log
                    .iter()
                    .filter(|&&(tick, k)| k == probe && tick + window > t)
                    .count() as u64;
                assert_eq!(w.query(&probe), naive, "probe {probe} at t {t}");
            }
        }
    }

    #[test]
    fn window_heavy_hitters_sorted() {
        let mut w = ExactWindow::new(10);
        for _ in 0..6 {
            w.add("hh");
        }
        for _ in 0..4 {
            w.add("small");
        }
        let hh = w.heavy_hitters(5);
        assert_eq!(hh, vec![("hh", 6)]);
    }
}
