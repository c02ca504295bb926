//! The *stream-summary* data structure behind [Space Saving](crate::SpaceSaving).
//!
//! The structure maintains at most `capacity` monitored keys, each with an
//! estimated count and an *error* term (the count the slot held when the key
//! took it over). Counters with equal counts are grouped into *buckets* that
//! form a doubly-linked list ordered by count, so the minimum counter, an
//! increment by one, and an eviction are all O(1).
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
//! Space-Saving step ([`StreamSummary::offer`]) probes it once, whichever
//! way the step goes.
//!
//! The index is sized for the `capacity` keys it can ever hold, at most a
//! quarter full: the smallest power of two ≥ 4 × `capacity` slots, never
//! below 16. It is not packed to the 7/8 cap of maps that grow
//! ([`CompactMap::with_capacity`], which leaves it 7/16 to 7/8 full),
//! because on a full summary most steps can be evictions, and each one
//! pays a miss walk for the new key and a removal shift for the old one,
//! both growing with load. On backbone keys at `capacity` 4096 a miss
//! walks 1.39 slots at a quarter load against 2.54 at a half. An
//! eviction inserts the new key before it removes the old one (see
//! [`StreamSummary::offer_hashed`]). The price is memory the paper's
//! per-counter accounting ([`crate::SpaceSaving::space_bytes`]) leaves
//! out: 4 to 8 index slots per counter, each a control byte plus an
//! `Option<(K, usize)>` — 400 KiB for 4096 `u64` keys — and a
//! [`StreamSummary::clear`] that empties every slot.

use std::hash::Hash;

use crate::compact_map::CompactMap;
use crate::fasthash::hash_one;
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

/// An O(1) stream-summary: the union of counter slots, count-ordered buckets
/// and a key index.
///
/// This is deliberately a low-level structure: [`Self::offer`] is the
/// Space Saving step itself, and [`crate::SpaceSaving`] wraps it with the
/// stream bookkeeping, queries and the batched prefetch pipeline.
#[derive(Debug, Clone)]
pub struct StreamSummary<K: Eq + Hash + Clone> {
    /// Hot slot fields (count/bucket/links), parallel to `cold`.
    hot: Vec<SlotHot>,
    /// Cold slot fields (key/error), parallel to `hot`.
    cold: Vec<SlotCold<K>>,
    buckets: Vec<Bucket>,
    free_buckets: Vec<usize>,
    /// Bucket with the smallest count (head of the bucket list), or NIL.
    min_bucket: usize,
    index: CompactMap<K, usize>,
    capacity: usize,
    /// Change journal for incremental snapshot publication; `None` until
    /// [`Self::enable_journal`]. A slot is dirty when its count, key or
    /// error changed; evicted keys depart; `clear` invalidates it.
    journal: Option<Box<Journal<K>>>,
}

impl<K: Eq + Hash + Clone> StreamSummary<K> {
    /// Creates a summary able to monitor up to `capacity` keys.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stream summary capacity must be positive");
        StreamSummary {
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            // At most capacity+1 distinct counts can coexist transiently.
            buckets: Vec::with_capacity(capacity + 1),
            free_buckets: Vec::new(),
            min_bucket: NIL,
            // The index never holds more than `capacity` keys at rest, so
            // it never grows; sizing it for a quarter-full table keeps the
            // miss walks and the eviction's removal shift short.
            index: CompactMap::with_slots(capacity.saturating_mul(INDEX_SLOTS_PER_KEY)),
            capacity,
            journal: None,
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
    /// The slot population is bounded by `capacity`, so the dirty bitset
    /// never resizes and a mark is a single word OR.
    pub fn drain_journal(&mut self) -> Option<JournalDrain<K>> {
        let slots = self.capacity;
        Some(self.journal.as_deref_mut()?.drain(slots))
    }

    /// SoA slot holding `key`, if monitored — the stable per-summary
    /// identity the incremental snapshot path uses as a tie-breaking rank
    /// (slots never move: keys change slots only through eviction, which is
    /// journaled).
    #[inline]
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// The `(key, count, error)` stored in `slot`, if occupied. The journal
    /// consumer reads dirty slots through this.
    #[inline]
    pub fn slot_entry(&self, slot: usize) -> Option<(&K, u64, u64)> {
        let cold = self.cold.get(slot)?;
        let key = cold.key.as_ref()?;
        Some((key, self.hot[slot].count, cold.error))
    }

    /// Number of monitored keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no key is monitored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when all slots are occupied.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.capacity
    }

    /// Count of the smallest monitored counter, or 0 when empty.
    pub fn min_count(&self) -> u64 {
        if self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    /// Estimated count for `key` if it is monitored.
    pub fn get(&self, key: &K) -> Option<u64> {
        self.index.get(key).map(|&slot| self.hot[slot].count)
    }

    /// Estimated count and error term for `key` if it is monitored.
    pub fn get_with_error(&self, key: &K) -> Option<(u64, u64)> {
        self.index
            .get(key)
            .map(|&slot| (self.hot[slot].count, self.cold[slot].error))
    }

    /// True when `key` currently holds a counter slot.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Hints the CPU to pull the key-index lines a probe of `key` will
    /// touch ([`CompactMap::prefetch`]): the batched update pipelines call
    /// this a small lookahead before [`Self::offer`] so the index misses
    /// of a batch overlap. No observable effect.
    #[inline]
    pub fn prefetch(&self, key: &K) {
        self.index.prefetch(key);
    }

    /// [`Self::prefetch`] with the caller supplying the key's
    /// [`crate::fasthash::hash_one`] value, so one hash serves both the
    /// prefetch and the later [`Self::offer_hashed`] probe.
    #[inline]
    pub fn prefetch_hashed(&self, hash: u64) {
        self.index.prefetch_hashed(hash);
    }

    /// One Space-Saving step for `key`: [`Self::offer_hashed`], hashing
    /// `key` first.
    pub fn offer(&mut self, key: K) -> (u64, Option<K>) {
        let hash = hash_one(&key);
        self.offer_hashed(key, hash)
    }

    /// One Space-Saving step for `key`, where `hash` is its
    /// [`crate::fasthash::hash_one`] value: increments the key's counter,
    /// or gives an unmonitored key a free slot, or — on a full summary —
    /// the slot of the minimum counter, charging that slot's count as the
    /// new key's error term before the increment. Returns the key's new
    /// count and, when the step evicted one, the key that lost its slot
    /// (among tied minimum counters, the head of the min bucket).
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
    ///   Between the two calls the index holds `capacity + 1` keys, far
    ///   below its growth cap at a quarter-full table.
    ///
    /// Passing anything but `key`'s own `hash_one` value breaks the index.
    pub fn offer_hashed(&mut self, key: K, hash: u64) -> (u64, Option<K>) {
        let miss = match self.index.probe_hashed(hash, &key) {
            Ok(i) => return (self.increment_slot(*self.index.value_at(i)), None),
            Err(miss) => miss,
        };
        if !self.is_full() {
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

    /// Removes every monitored key, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.buckets.clear();
        self.free_buckets.clear();
        self.min_bucket = NIL;
        self.index.clear();
        if let Some(j) = self.journal.as_deref_mut() {
            j.invalidate();
        }
    }

    /// Iterates over `(key, count, error)` for every monitored key, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64, u64)> {
        self.cold
            .iter()
            .zip(&self.hot)
            .filter_map(|(cold, hot)| cold.key.as_ref().map(|k| (k, hot.count, cold.error)))
    }

    // ---- internal plumbing --------------------------------------------------

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

    /// Debug helper: checks every structural invariant. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        // The arrays of the SoA split stay parallel.
        assert_eq!(self.hot.len(), self.cold.len());
        // Index consistency.
        for (key, &slot) in self.index.iter() {
            assert!(self.cold[slot].key.as_ref() == Some(key));
        }
        assert_eq!(
            self.index.len(),
            self.cold.iter().filter(|s| s.key.is_some()).count()
        );
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
    fn insert_and_increment() {
        let mut s = StreamSummary::new(4);
        assert_eq!(s.offer("a"), (1, None));
        assert_eq!(s.offer("b"), (1, None));
        assert_eq!(s.offer("a"), (2, None));
        assert_eq!(s.get(&"a"), Some(2));
        assert_eq!(s.get(&"b"), Some(1));
        assert_eq!(s.get(&"c"), None);
        assert_eq!(s.min_count(), 1);
        s.check_invariants();
    }

    #[test]
    fn insert_new_rejects_duplicates_and_full() {
        // A monitored key never takes a second slot, and a full summary
        // evicts instead of growing.
        let mut s = StreamSummary::new(2);
        assert_eq!(s.offer(1), (1, None));
        assert_eq!(s.offer(1), (2, None), "a monitored key is incremented");
        assert_eq!(s.len(), 1);
        assert_eq!(s.offer(2), (1, None));
        assert!(s.is_full());
        assert_eq!(s.offer(3), (2, Some(2)), "a full summary evicts");
        assert_eq!(s.len(), 2);
        s.check_invariants();
    }

    #[test]
    fn replace_min_evicts_smallest() {
        let mut s = StreamSummary::new(2);
        s.offer("a");
        s.offer("a");
        s.offer("a"); // a -> 3
        s.offer("b"); // b -> 1
        let (count, evicted) = s.offer("c");
        assert_eq!(evicted, Some("b"));
        assert_eq!(count, 2); // inherits 1 and increments
        assert_eq!(s.get_with_error(&"c"), Some((2, 1)));
        assert!(!s.contains(&"b"));
        s.check_invariants();
    }

    #[test]
    fn min_count_tracks_smallest_bucket() {
        let mut s = StreamSummary::new(3);
        assert_eq!(s.min_count(), 0);
        s.offer(10);
        s.offer(20);
        s.offer(30);
        assert_eq!(s.min_count(), 1);
        s.offer(10);
        s.offer(20);
        s.offer(30);
        assert_eq!(s.min_count(), 2);
        s.check_invariants();
        // 10 leaves the shared bucket for a new one at 3, then — alone
        // there with no bucket at 4 — is bumped in place to 4.
        s.offer(10);
        s.offer(10);
        assert_eq!(s.get(&10), Some(4));
        s.check_invariants();
        // 20 moves to a new bucket at 3, alone but with the bucket at 4
        // right after it: the next +1 must join that bucket, not bump.
        s.offer(20);
        s.offer(20);
        assert_eq!(s.get(&20), Some(4));
        assert_eq!(s.min_count(), 2);
        s.check_invariants();
        // The lone minimum counter bumps in place, and min_count follows.
        s.offer(30);
        assert_eq!(s.min_count(), 3);
        s.check_invariants();
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = StreamSummary::new(3);
        s.offer(1);
        s.offer(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min_count(), 0);
        assert_eq!(s.get(&1), None);
        assert_eq!(s.offer(1), (1, None));
        s.check_invariants();
    }

    #[test]
    fn iter_reports_all_entries() {
        let mut s = StreamSummary::new(4);
        for k in 0..4 {
            s.offer(k);
        }
        s.offer(2);
        let mut entries: Vec<_> = s.iter().map(|(k, c, e)| (*k, c, e)).collect();
        entries.sort();
        assert_eq!(entries, vec![(0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = StreamSummary::<u32>::new(0);
    }

    #[test]
    fn journal_tracks_increments_evictions_and_clears() {
        let mut s = StreamSummary::new(2);
        assert!(s.drain_journal().is_none(), "journal off by default");
        s.enable_journal();
        assert!(s.drain_journal().unwrap().rebuild, "first drain rebuilds");
        s.offer("a");
        s.offer("b");
        let d = s.drain_journal().unwrap();
        assert!(!d.rebuild);
        assert_eq!(d.dirty_slots, vec![0, 1]);
        assert!(d.departed.is_empty());
        // Increment only "a": only its slot is dirty.
        s.offer("a");
        let d = s.drain_journal().unwrap();
        assert_eq!(d.dirty_slots, vec![s.slot_of(&"a").unwrap()]);
        // An in-place bump ("a" alone at 2, nothing at 3) marks it too.
        s.offer("a");
        let d = s.drain_journal().unwrap();
        assert_eq!(d.dirty_slots, vec![s.slot_of(&"a").unwrap()]);
        // Offering "c" to the full summary evicts "b" and re-marks the
        // reused slot.
        let (_, evicted) = s.offer("c");
        assert_eq!(evicted, Some("b"));
        let d = s.drain_journal().unwrap();
        assert_eq!(d.departed, vec!["b"]);
        assert_eq!(d.dirty_slots, vec![s.slot_of(&"c").unwrap()]);
        assert_eq!(s.slot_entry(s.slot_of(&"c").unwrap()).unwrap().0, &"c");
        // clear() suspends per-slot tracking until the rebuild drain.
        s.clear();
        s.offer("d");
        let d = s.drain_journal().unwrap();
        assert!(d.rebuild && d.dirty_slots.is_empty() && d.departed.is_empty());
    }

    #[test]
    fn index_is_at_most_a_quarter_full() {
        for capacity in [1usize, 3, 4, 5, 4095, 4096, 4097, 7168] {
            let mut s = StreamSummary::new(capacity);
            // Fill every counter, then evict through a second key range.
            for key in 0..2 * capacity as u64 {
                s.offer(key);
            }
            assert_eq!(s.len(), capacity);
            s.check_invariants();
        }
    }

    #[test]
    fn index_real_bytes_at_4096_counters() {
        // The quarter-load sizing's memory price: 16,384 slots of one
        // control byte and one `Option<(u64, usize)>` each, twice what the
        // 7/8-capped `CompactMap::with_capacity(4096)` would take.
        let s = StreamSummary::<u64>::new(4096);
        assert_eq!(s.index.slots(), 16_384);
        assert_eq!(s.index.heap_bytes(), 409_600);
    }

    #[test]
    fn long_random_sequence_keeps_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = StreamSummary::new(16);
        for _ in 0..5_000 {
            let key = rng.gen_range(0u32..64);
            let monitored = s.contains(&key);
            let (count, evicted) = s.offer(key);
            assert_eq!(s.get(&key), Some(count));
            assert!(evicted.is_none() || !monitored, "a hit never evicts");
        }
        s.check_invariants();
        assert_eq!(s.len(), 16);
    }
}
