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
//!
//! # The stream summary
//!
//! The counters live in the O(1) *stream-summary* structure: counters with
//! equal counts are grouped into *buckets* that form a doubly-linked list
//! ordered by count, so the minimum counter, an increment by one, and an
//! eviction are all O(1).
//!
//! The implementation is index-based (no `unsafe`, no pointer juggling):
//! bucket nodes live in a `Vec` with a free list and links are `usize`
//! indices with `NIL` as the null sentinel. Counter slots are stored
//! **structure-of-arrays** for the per-packet hot path: the fields an
//! increment touches (count, bucket, neighbour links — `SlotHot`) live in
//! one dense `Vec`, while the key and its error term (`SlotCold`) — read
//! only on insertion, eviction and queries — live in a parallel `Vec`, so
//! bucket-list surgery never drags key bytes through the cache. The key →
//! slot index is a [`CompactMap`] probed with the workspace's fast hash
//! ([`crate::fasthash`]) rather than a SipHash `HashMap`, and one
//! Space-Saving step ([`SpaceSaving::offer`]) probes it once, whichever way
//! the step goes.
//!
//! The index is sized for the `k` keys it can ever hold, at most a quarter
//! full: the smallest power of two ≥ 4k slots, never below 16. It is not
//! packed to the 7/8 cap of maps that grow ([`CompactMap::with_capacity`],
//! which leaves it 7/16 to 7/8 full), because on a full summary most steps
//! can be evictions, and each one pays a miss walk for the new key and a
//! removal shift for the old one, both growing with load. On backbone keys
//! at k = 4096 a miss walks 1.39 slots at a quarter load against 2.54 at a
//! half. An eviction inserts the new key before it removes the old one (see
//! `offer_hashed`). The price is memory the paper's per-counter accounting
//! ([`SpaceSaving::space_bytes`]) leaves out: 4 to 8 index slots per
//! counter, each a control byte plus an `Option<(K, usize)>` — 400 KiB for
//! 4096 `u64` keys — and a [`SpaceSaving::flush`] that empties every slot.

use std::hash::Hash;

use crate::compact_map::CompactMap;
use crate::fasthash::{hash_one, PREFETCH_LOOKAHEAD};
use crate::journal::{Journal, JournalDrain};

/// Null sentinel for the intrusive index-based linked lists.
const NIL: usize = usize::MAX;

/// Key-index slots reserved per counter (before the power-of-two round
/// up): the index is at most a quarter full.
const INDEX_SLOTS_PER_KEY: usize = 4;

/// The per-slot fields an increment touches (the hot array of the SoA
/// split): current count, owning bucket, and the neighbour links of the
/// bucket's child list.
#[derive(Debug, Clone)]
struct SlotHot {
    count: u64,
    bucket: usize,
    prev: usize,
    next: usize,
}

/// The per-slot fields only insertion/eviction/queries touch (the cold
/// array): the monitored key and the classical Space Saving `error` term
/// (the slot's value when the key took it over; `count - error` is a lower
/// bound on the key's true frequency).
#[derive(Debug, Clone)]
struct SlotCold<K> {
    key: Option<K>,
    error: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    /// Head of the doubly-linked list of counter slots in this bucket.
    child: usize,
    prev: usize,
    next: usize,
    in_use: bool,
}

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

/// The Space Saving frequency-estimation algorithm with `k` counters, over
/// the stream-summary structure (see the module docs).
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Eq + Hash + Clone> {
    /// Hot slot fields (count/bucket/links), parallel to `cold`.
    hot: Vec<SlotHot>,
    /// Cold slot fields (key/error), parallel to `hot`.
    cold: Vec<SlotCold<K>>,
    buckets: Vec<Bucket>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count (head of the bucket list), or NIL.
    min_bucket: usize,
    index: CompactMap<K, usize>,
    /// The number of counters `k`.
    capacity: usize,
    /// Change journal for incremental snapshot publication; `None` until
    /// [`Self::enable_journal`]. A slot is dirty when its count, key or
    /// error changed; evicted keys depart; `flush` invalidates it.
    journal: Option<Box<Journal<K>>>,
    /// Items processed since creation or the last [`Self::flush`].
    processed: u64,
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// Creates an instance with `counters` counters.
    ///
    /// # Panics
    /// Panics if `counters == 0`.
    pub fn new(counters: usize) -> Self {
        assert!(counters > 0, "Space Saving capacity must be positive");
        SpaceSaving {
            hot: Vec::with_capacity(counters),
            cold: Vec::with_capacity(counters),
            // At most counters+1 distinct counts can coexist transiently.
            buckets: Vec::with_capacity(counters + 1),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            // The index never holds more than `counters` keys at rest, so
            // it never grows; sizing it for a quarter-full table keeps the
            // miss walks and the eviction's removal shift short.
            index: CompactMap::with_slots(counters.saturating_mul(INDEX_SLOTS_PER_KEY)),
            capacity: counters,
            journal: None,
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
        self.capacity
    }

    /// Number of items processed since creation or the last [`Self::flush`].
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of currently monitored keys.
    pub fn monitored(&self) -> usize {
        self.index.len()
    }

    /// Processes one occurrence of `key` and returns its new estimate:
    /// one [`Self::offer`] step.
    pub fn add(&mut self, key: K) -> u64 {
        self.add_hashed(key, None)
    }

    /// [`Self::add`] with an optionally precomputed
    /// [`crate::fasthash::hash_one`] value for `key`: the batched
    /// pipelines hash each key once when issuing its prefetch and hand
    /// the value down here, so no branch of the step hashes `key` again.
    #[inline]
    pub fn add_hashed(&mut self, key: K, hash: Option<u64>) -> u64 {
        let hash = hash.unwrap_or_else(|| hash_one(&key));
        self.offer_hashed(key, hash).0
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
            hashes[j] = hash_one(key);
        }
        for (i, key) in keys.iter().enumerate() {
            let slot = i % PREFETCH_LOOKAHEAD;
            let hash = hashes[slot];
            if let Some(ahead) = keys.get(i + PREFETCH_LOOKAHEAD) {
                let h = hash_one(ahead);
                self.prefetch_hashed(h);
                hashes[slot] = h;
            }
            self.add_hashed(key.clone(), Some(hash));
        }
    }

    /// Hints the CPU to pull the key-index lines the next step or query of
    /// the key whose [`crate::fasthash::hash_one`] value is `hash` will
    /// touch ([`CompactMap::prefetch_hashed`]): the batched update
    /// pipelines call this a small lookahead before the step, so the index
    /// misses of a batch overlap. No observable effect.
    #[inline]
    pub fn prefetch_hashed(&self, hash: u64) {
        self.index.prefetch_hashed(hash);
    }

    /// One Space-Saving step for `key`: increments the key's counter, or
    /// gives an unmonitored key a free counter, or — once every counter is
    /// taken — the minimum counter's slot, charging that slot's count as
    /// the new key's error term before the increment. Returns the key's
    /// new count and, when the step evicted one, the key that lost its
    /// slot (among tied minimum counters, the head of the min bucket).
    pub fn offer(&mut self, key: K) -> (u64, Option<K>) {
        let hash = hash_one(&key);
        self.offer_hashed(key, hash)
    }

    /// [`Self::offer`], where `hash` is `key`'s
    /// [`crate::fasthash::hash_one`] value (anything else breaks the
    /// index).
    ///
    /// Every step probes the key index once, and each branch pays only
    /// for what it changes:
    ///
    /// * **hit** — the increment: bucket-list surgery on the hot array,
    ///   or a count bumped in place when the counter is alone in its
    ///   bucket and no bucket holds `count + 1` (see `increment_slot`);
    /// * **free slot** — push the new hot and cold slot, then write the
    ///   key into the probe's terminating empty slot: nothing touched the
    ///   index since the probe, so that slot is still where a lookup of
    ///   the key will stop;
    /// * **eviction** — move the evicted key out of its cold slot (no
    ///   clone), write the new key into the probe's miss slot, then
    ///   remove the evicted key from the index (one hash and probe of it,
    ///   and the backward shift). The insert goes first because nothing
    ///   has touched the index since the probe, so the miss slot is still
    ///   the new key's first empty slot; after a removal it may not be,
    ///   since the shift can empty a slot earlier on the new key's path.
    ///   The shift keeps every key reachable, the new one included.
    ///   Between the two calls the index holds `k + 1` keys, far below
    ///   its growth cap at a quarter-full table.
    fn offer_hashed(&mut self, key: K, hash: u64) -> (u64, Option<K>) {
        self.processed += 1;
        let miss = match self.index.probe_hashed(hash, &key) {
            Ok(i) => return (self.increment_slot(*self.index.value_at(i)), None),
            Err(miss) => miss,
        };
        if self.index.len() < self.capacity {
            let slot = self.hot.len();
            self.hot.push(SlotHot {
                count: 0,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.cold.push(SlotCold {
                key: Some(key.clone()),
                error: 0,
            });
            self.index.insert_at_miss(miss, key, slot);
            return (self.increment_slot(slot), None);
        }
        let slot = self.buckets[self.min_bucket].child;
        let evicted = self.cold[slot]
            .key
            .take()
            .expect("occupied slot must hold a key");
        self.index.insert_at_miss(miss, key.clone(), slot);
        self.index.remove(&evicted);
        self.cold[slot] = SlotCold {
            key: Some(key),
            error: self.hot[slot].count,
        };
        if let Some(j) = self.journal.as_deref_mut() {
            j.depart(evicted.clone());
        }
        (self.increment_slot(slot), Some(evicted))
    }

    /// Estimated count of `key` (the counter value when monitored, otherwise
    /// [`Self::absent_query`]). Never underestimates the true count.
    pub fn query(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map_or_else(|| self.absent_query(), |&slot| self.hot[slot].count)
    }

    /// A guaranteed lower bound on the count of `key` (`count - error` when
    /// monitored, 0 otherwise).
    pub fn query_lower(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map_or(0, |&slot| self.hot[slot].count - self.cold[slot].error)
    }

    /// True when `key` currently holds a counter.
    pub fn is_monitored(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The answer [`Self::query`] gives for any key *not* currently holding
    /// a counter: the minimum counter value once every counter is taken,
    /// 0 while some are free (an absent key has then never been seen).
    /// Snapshot code captures this at freeze time because it depends on
    /// the fill state.
    pub fn absent_query(&self) -> u64 {
        if self.index.len() >= self.capacity {
            self.min_count()
        } else {
            0
        }
    }

    /// Current minimum counter value (0 when empty).
    pub fn min_count(&self) -> u64 {
        if self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    /// Starts recording per-slot changes for incremental snapshots
    /// ([`Self::drain_journal`]). The first drain after enabling always
    /// reports a rebuild. Idempotent.
    pub fn enable_journal(&mut self) {
        self.journal.get_or_insert_with(|| Box::new(Journal::new()));
    }

    /// True once [`Self::enable_journal`] has been called.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Takes everything recorded since the previous drain and resets the
    /// journal to clean. Returns `None` when the journal was never enabled.
    /// The slot population is bounded by the counter count, so the dirty
    /// bitset never resizes and a mark is a single word OR.
    pub fn drain_journal(&mut self) -> Option<JournalDrain<K>> {
        let slots = self.capacity;
        Some(self.journal.as_deref_mut()?.drain(slots))
    }

    /// Counter slot holding `key`, if monitored — the stable per-instance
    /// identity the incremental snapshot path uses as a tie-breaking rank
    /// (slots never move: keys change slots only through eviction, which is
    /// journaled).
    #[inline]
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// The `(key, count, error)` stored in counter `slot`, if occupied.
    /// The journal consumer and slot-order walks read slots through this.
    /// Slots fill in order and are freed only all at once, by
    /// [`Self::flush`], so the occupied ones are `0..monitored()`.
    #[inline]
    pub fn slot_entry(&self, slot: usize) -> Option<(&K, u64, u64)> {
        let cold = self.cold.get(slot)?;
        let key = cold.key.as_ref()?;
        Some((key, self.hot[slot].count, cold.error))
    }

    /// Clears all counters, keeping the allocated capacity (Memento calls
    /// this at every frame boundary).
    pub fn flush(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.buckets.clear();
        self.free_buckets.clear();
        self.min_bucket = NIL;
        self.index.clear();
        if let Some(j) = self.journal.as_deref_mut() {
            j.invalidate();
        }
        self.processed = 0;
    }

    /// Returns all keys whose *estimated* count is at least `threshold`
    /// (a superset of the true heavy hitters since estimates never
    /// underestimate).
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<CounterSnapshot<K>> {
        let mut out: Vec<_> = self
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
        self.capacity * (std::mem::size_of::<K>() + 4 * std::mem::size_of::<u64>())
            + std::mem::size_of::<Self>()
    }

    /// Snapshot of every counter, in slot order.
    pub fn snapshot(&self) -> Vec<CounterSnapshot<K>> {
        self.iter()
            .map(|(k, count, error)| CounterSnapshot {
                key: k.clone(),
                count,
                error,
            })
            .collect()
    }

    /// `(key, count, error)` of every counter, in slot order.
    fn iter(&self) -> impl Iterator<Item = (&K, u64, u64)> {
        self.cold
            .iter()
            .zip(&self.hot)
            .filter_map(|(cold, hot)| cold.key.as_ref().map(|k| (k, hot.count, cold.error)))
    }

    // ---- the bucket list ----------------------------------------------------

    fn alloc_bucket(&mut self, count: u64) -> usize {
        if let Some(idx) = self.free_buckets.pop() {
            let b = &mut self.buckets[idx];
            b.count = count;
            b.child = NIL;
            b.prev = NIL;
            b.next = NIL;
            b.in_use = true;
            idx
        } else {
            self.buckets.push(Bucket {
                count,
                child: NIL,
                prev: NIL,
                next: NIL,
                in_use: true,
            });
            self.buckets.len() - 1
        }
    }

    fn free_bucket(&mut self, bucket: usize) {
        debug_assert_eq!(self.buckets[bucket].child, NIL);
        let (prev, next) = (self.buckets[bucket].prev, self.buckets[bucket].next);
        if prev != NIL {
            self.buckets[prev].next = next;
        } else if self.min_bucket == bucket {
            self.min_bucket = next;
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        }
        self.buckets[bucket].in_use = false;
        self.buckets[bucket].prev = NIL;
        self.buckets[bucket].next = NIL;
        self.free_buckets.push(bucket);
    }

    /// Detaches `slot` from its bucket's child list (does not free the bucket).
    fn detach_slot(&mut self, slot: usize) {
        let bucket = self.hot[slot].bucket;
        let (prev, next) = (self.hot[slot].prev, self.hot[slot].next);
        if prev != NIL {
            self.hot[prev].next = next;
        } else if bucket != NIL {
            self.buckets[bucket].child = next;
        }
        if next != NIL {
            self.hot[next].prev = prev;
        }
        self.hot[slot].prev = NIL;
        self.hot[slot].next = NIL;
        self.hot[slot].bucket = NIL;
    }

    /// Attaches `slot` at the head of `bucket`'s child list.
    fn attach_slot(&mut self, slot: usize, bucket: usize) {
        let head = self.buckets[bucket].child;
        self.hot[slot].bucket = bucket;
        self.hot[slot].prev = NIL;
        self.hot[slot].next = head;
        if head != NIL {
            self.hot[head].prev = slot;
        }
        self.buckets[bucket].child = slot;
    }

    /// Moves `slot` from its current bucket to the bucket for `count + 1`,
    /// creating the destination bucket if needed — or, when the slot is
    /// alone in its bucket and no bucket holds `count + 1`, raises that
    /// bucket's count in place. O(1) because counts only ever grow by one.
    /// Touches only the hot array and the bucket nodes — never the keys.
    fn increment_slot(&mut self, slot: usize) -> u64 {
        let old_bucket = self.hot[slot].bucket;
        let new_count = self.hot[slot].count + 1;
        self.hot[slot].count = new_count;
        // Every observable slot mutation funnels through here (both miss
        // branches of `offer_hashed` end in an increment), so one mark
        // covers count, key and error changes alike.
        if let Some(j) = self.journal.as_deref_mut() {
            j.mark(slot);
        }

        // Locate the destination bucket: it is either the bucket right after
        // the current one (if its count matches) or a freshly created bucket
        // inserted right after the current one — unless the slot is alone
        // in its bucket, which then just takes the new count.
        let dest = if old_bucket == NIL {
            // Fresh slot (count was 0): destination is the min bucket if it
            // already holds `new_count`, otherwise a new bucket at the front.
            if self.min_bucket != NIL && self.buckets[self.min_bucket].count == new_count {
                self.min_bucket
            } else {
                let b = self.alloc_bucket(new_count);
                let old_min = self.min_bucket;
                self.buckets[b].next = old_min;
                if old_min != NIL {
                    self.buckets[old_min].prev = b;
                }
                self.min_bucket = b;
                b
            }
        } else {
            let next = self.buckets[old_bucket].next;
            if next != NIL && self.buckets[next].count == new_count {
                next
            } else if self.buckets[old_bucket].child == slot && self.hot[slot].next == NIL {
                // Alone, with no bucket at `new_count` to join: the move
                // below would give the slot a fresh bucket at this very
                // list position and free this one. Raising this bucket's
                // count leaves the same counts, order and eviction heads
                // (the next bucket, if any, holds more than `new_count`).
                self.buckets[old_bucket].count = new_count;
                return new_count;
            } else {
                debug_assert!(next == NIL || self.buckets[next].count > new_count);
                let b = self.alloc_bucket(new_count);
                self.buckets[b].prev = old_bucket;
                self.buckets[b].next = next;
                self.buckets[old_bucket].next = b;
                if next != NIL {
                    self.buckets[next].prev = b;
                }
                b
            }
        };

        self.detach_slot(slot);
        self.attach_slot(slot, dest);
        if old_bucket != NIL && self.buckets[old_bucket].child == NIL {
            self.free_bucket(old_bucket);
        }
        new_count
    }

    /// The key index, for the structure's memory tests.
    #[cfg(test)]
    pub(crate) fn index(&self) -> &CompactMap<K, usize> {
        &self.index
    }

    /// Debug helper: checks every structural invariant. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // The arrays of the SoA split stay parallel.
        assert_eq!(self.hot.len(), self.cold.len());
        // Index consistency.
        for (key, &slot) in self.index.iter() {
            assert!(self.cold[slot].key.as_ref() == Some(key));
        }
        // Slots fill in order and are freed only by `flush`: every slot
        // below `cold.len()` holds a key.
        assert!(self.cold.iter().all(|s| s.key.is_some()));
        assert_eq!(self.index.len(), self.cold.len());
        // At rest the index is at most a quarter full.
        assert!(
            self.index.len() * INDEX_SLOTS_PER_KEY <= self.index.slots(),
            "{} keys in a {}-slot index",
            self.index.len(),
            self.index.slots()
        );
        // Bucket list is strictly increasing and every child belongs to it.
        let mut seen_slots = 0usize;
        let mut b = self.min_bucket;
        let mut last = 0u64;
        let mut first = true;
        while b != NIL {
            let bucket = &self.buckets[b];
            assert!(bucket.in_use);
            assert!(first || bucket.count > last, "bucket counts must increase");
            first = false;
            last = bucket.count;
            assert_ne!(bucket.child, NIL, "bucket must not be empty");
            let mut s = bucket.child;
            let mut prev = NIL;
            while s != NIL {
                let slot = &self.hot[s];
                assert_eq!(slot.bucket, b);
                assert_eq!(slot.prev, prev);
                assert_eq!(slot.count, bucket.count);
                seen_slots += 1;
                prev = s;
                s = slot.next;
            }
            b = bucket.next;
        }
        assert_eq!(seen_slots, self.index.len());
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
