//! Unit tests of the stream-summary structure behind
//! [`SpaceSaving`](crate::SpaceSaving): the count-ordered bucket list, the
//! key index and the change journal, driven through the Space-Saving step
//! [`SpaceSaving::offer`](crate::SpaceSaving::offer). The algorithm's own
//! tests (estimates, error bounds, heavy hitters) are in `space_saving.rs`.

mod tests {
    use crate::SpaceSaving;

    /// The count and error term of a monitored `key`.
    fn counter<K: Eq + std::hash::Hash + Clone>(s: &SpaceSaving<K>, key: &K) -> Option<(u64, u64)> {
        let (_, count, error) = s.slot_entry(s.slot_of(key)?)?;
        Some((count, error))
    }

    /// The count of a monitored `key`.
    fn get<K: Eq + std::hash::Hash + Clone>(s: &SpaceSaving<K>, key: &K) -> Option<u64> {
        counter(s, key).map(|(count, _)| count)
    }

    #[test]
    fn insert_and_increment() {
        let mut s = SpaceSaving::new(4);
        assert_eq!(s.offer("a"), (1, None));
        assert_eq!(s.offer("b"), (1, None));
        assert_eq!(s.offer("a"), (2, None));
        assert_eq!(get(&s, &"a"), Some(2));
        assert_eq!(get(&s, &"b"), Some(1));
        assert_eq!(get(&s, &"c"), None);
        assert_eq!(s.min_count(), 1);
        s.check_invariants();
    }

    #[test]
    fn insert_new_rejects_duplicates_and_full() {
        // A monitored key never takes a second slot, and a full summary
        // evicts instead of growing.
        let mut s = SpaceSaving::new(2);
        assert_eq!(s.offer(1), (1, None));
        assert_eq!(s.offer(1), (2, None), "a monitored key is incremented");
        assert_eq!(s.monitored(), 1);
        assert_eq!(s.offer(2), (1, None));
        assert_eq!(s.monitored(), s.counters(), "every counter taken");
        assert_eq!(s.offer(3), (2, Some(2)), "a full summary evicts");
        assert_eq!(s.monitored(), 2);
        s.check_invariants();
    }

    #[test]
    fn replace_min_evicts_smallest() {
        let mut s = SpaceSaving::new(2);
        s.offer("a");
        s.offer("a");
        s.offer("a"); // a -> 3
        s.offer("b"); // b -> 1
        let (count, evicted) = s.offer("c");
        assert_eq!(evicted, Some("b"));
        assert_eq!(count, 2); // inherits 1 and increments
        assert_eq!(counter(&s, &"c"), Some((2, 1)));
        assert!(!s.is_monitored(&"b"));
        s.check_invariants();
    }

    #[test]
    fn min_count_tracks_smallest_bucket() {
        let mut s = SpaceSaving::new(3);
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
        assert_eq!(get(&s, &10), Some(4));
        s.check_invariants();
        // 20 moves to a new bucket at 3, alone but with the bucket at 4
        // right after it: the next +1 must join that bucket, not bump.
        s.offer(20);
        s.offer(20);
        assert_eq!(get(&s, &20), Some(4));
        assert_eq!(s.min_count(), 2);
        s.check_invariants();
        // The lone minimum counter bumps in place, and min_count follows.
        s.offer(30);
        assert_eq!(s.min_count(), 3);
        s.check_invariants();
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = SpaceSaving::new(3);
        s.offer(1);
        s.offer(2);
        s.flush();
        assert_eq!(s.monitored(), 0);
        assert_eq!(s.min_count(), 0);
        assert_eq!(get(&s, &1), None);
        assert_eq!(s.offer(1), (1, None));
        s.check_invariants();
    }

    #[test]
    fn iter_reports_all_entries() {
        let mut s = SpaceSaving::new(4);
        for k in 0..4 {
            s.offer(k);
        }
        s.offer(2);
        let mut entries: Vec<_> = s
            .snapshot()
            .into_iter()
            .map(|c| (c.key, c.count, c.error))
            .collect();
        entries.sort();
        assert_eq!(entries, vec![(0, 1, 0), (1, 1, 0), (2, 2, 0), (3, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpaceSaving::<u32>::new(0);
    }

    #[test]
    fn journal_tracks_increments_evictions_and_clears() {
        let mut s = SpaceSaving::new(2);
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
        // A flush suspends per-slot tracking until the rebuild drain.
        s.flush();
        s.offer("d");
        let d = s.drain_journal().unwrap();
        assert!(d.rebuild && d.dirty_slots.is_empty() && d.departed.is_empty());
    }

    #[test]
    fn index_is_at_most_a_quarter_full() {
        for capacity in [1usize, 3, 4, 5, 4095, 4096, 4097, 7168] {
            let mut s = SpaceSaving::new(capacity);
            // Fill every counter, then evict through a second key range.
            for key in 0..2 * capacity as u64 {
                s.offer(key);
            }
            assert_eq!(s.monitored(), capacity);
            s.check_invariants();
        }
    }

    #[test]
    fn index_real_bytes_at_4096_counters() {
        // The quarter-load sizing's memory price: 16,384 slots of one
        // control byte and one `Option<(u64, usize)>` each, twice what the
        // 7/8-capped `CompactMap::with_capacity(4096)` would take.
        let s = SpaceSaving::<u64>::new(4096);
        assert_eq!(s.index().slots(), 16_384);
        assert_eq!(s.index().heap_bytes(), 409_600);
    }

    #[test]
    fn long_random_sequence_keeps_invariants() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = SpaceSaving::new(16);
        for _ in 0..5_000 {
            let key = rng.gen_range(0u32..64);
            let monitored = s.is_monitored(&key);
            let (count, evicted) = s.offer(key);
            assert_eq!(get(&s, &key), Some(count));
            assert!(evicted.is_none() || !monitored, "a hit never evicts");
        }
        s.check_invariants();
        assert_eq!(s.monitored(), 16);
    }
}
