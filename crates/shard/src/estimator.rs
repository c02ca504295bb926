//! Per-flow estimation on the sharded [`Engine`].

use std::hash::Hash;

use memento_core::traits::SlidingWindowEstimator;
use memento_core::{DeltaWindow, Memento, Wcss, WindowPatch};
use memento_sketches::ExactWindow;

use crate::engine::{Assembler, Engine, Reader, Shard};
use crate::snapshot::DeltaAssembler;

/// The boxed per-shard estimator each worker thread owns.
pub type BoxedEstimator<K> = Box<dyn SlidingWindowEstimator<K> + Send>;

/// A sliding-window estimator scaled across worker threads: the [`Engine`]
/// over [`BoxedEstimator`]s. A flow lives wholly in the shard its key
/// routes to, so per-flow queries are answered by that shard alone and
/// heavy-hitter queries are the union of the per-shard answers (see
/// [`EngineSnapshot`](crate::EngineSnapshot)). The engine implements
/// [`SlidingWindowEstimator`] itself, so every generic driver in the
/// workspace — the figure harnesses, the flood-mitigation scenario, the
/// time plane — can run sharded without modification.
pub type ShardedEstimator<K> = Engine<BoxedEstimator<K>>;

/// A [`Reader`] of a [`ShardedEstimator`]'s snapshots.
pub type SnapshotReader<K> = Reader<BoxedEstimator<K>>;

impl<K: Eq + Hash + Clone + Send + Sync + 'static> Shard for BoxedEstimator<K> {
    type Item = K;
    /// Incremental freezes: a [`WindowPatch`] covering only the slots
    /// dirtied since the shard's previous freeze.
    type Part = WindowPatch<K>;
    /// The shard's patches folded onto a persistent [`DeltaWindow`].
    type View = DeltaWindow<K>;

    fn assert_shardable(&self) {
        assert!(
            !self.is_interval(),
            "{} cannot answer global-position window queries across key partitions \
             (its skip cannot anchor a shard's window at the global stream position); \
             it cannot be sharded",
            self.name()
        );
    }

    fn error_bound(&self) -> f64 {
        (**self).error_bound()
    }

    fn replay(&mut self, gaps: &[u64], keys: &[K], tail: u64) {
        if !keys.is_empty() {
            self.update_batch_positioned(gaps, keys);
        }
        if tail > 0 {
            self.skip(tail);
        }
    }

    fn freeze_part(&mut self) -> WindowPatch<K> {
        self.freeze_delta()
    }

    fn space_bytes(&self) -> usize {
        (**self).space_bytes()
    }

    /// The persistent merge state of delta publication: one rotating view
    /// assembler per shard, owned by the closure. Each epoch folds the
    /// shards' patches onto assembler-owned views (in-place hash-table
    /// writes — the rotation keeps the patched view out of the published
    /// snapshot) and publishes O(1) clones, so assembling costs O(slots
    /// dirtied since the previous epoch) instead of O(shards × summary
    /// size).
    fn assembler(name: &'static str, shards: usize) -> Assembler<Self> {
        let mut merged: Vec<DeltaAssembler<K>> =
            (0..shards).map(|_| DeltaAssembler::new(name)).collect();
        Box::new(move |parts| {
            merged
                .iter_mut()
                .zip(parts)
                .map(|(assembler, patch)| assembler.publish(patch))
                .collect()
        })
    }
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static> ShardedEstimator<K> {
    /// A sharded [`Memento`]: every shard keeps a **full `W`-packet window
    /// at the global stream position** with the full `k` counters (same
    /// error bound as the single instance — the `N×` counter memory is the
    /// price of full-window coverage per shard).
    ///
    /// At τ < 1 the router samples, with one random-number table seeded
    /// with `seed`, and ships only the sampled keys. Each shard is a
    /// Memento at τ = 1 configured for Full updates arriving at rate τ
    /// ([`Memento::configure_external_sampling`]), which records every
    /// shipped key at its global position and scales its answers by
    /// `1/τ`. Every packet is still sampled independently with
    /// probability τ, and every shard count samples the same positions:
    /// those a `Memento::new(counters, window, tau, seed)` samples from
    /// its `update_batch` calls, which a one-shard engine therefore
    /// answers like bit-for-bit.
    pub fn memento(shards: usize, counters: usize, window: usize, tau: f64, seed: u64) -> Self {
        Self::sampled("sharded-memento", shards, tau, seed, move |i| {
            let mut memento = Memento::new(counters, window, 1.0, shard_seed(seed, i));
            memento.configure_external_sampling(tau, 1.0 / tau);
            Box::new(memento)
        })
    }

    /// A sharded [`Wcss`] (Memento with τ = 1): the fully deterministic
    /// configuration, used by the equivalence tests. Per-shard windows and
    /// counters match the single instance exactly, so on streams where no
    /// Space-Saving eviction occurs the sharded estimates are bit-for-bit
    /// the single-threaded ones.
    pub fn wcss(shards: usize, counters: usize, window: usize) -> Self {
        Self::new("sharded-wcss", shards, move |_| {
            Box::new(Wcss::new(counters, window))
        })
    }

    /// A sharded exact window oracle (full `W`-position window per shard):
    /// zero estimation error, used as the sharding-layer ground truth.
    pub fn exact(shards: usize, window: usize) -> Self {
        Self::new("sharded-exact", shards, move |_| {
            Box::new(ExactWindow::new(window))
        })
    }
}

/// The stride between consecutive shards' seeds: odd, so shard `i`'s seed
/// returns to shard 0's only at `i = 2⁶⁴`.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shard `shard`'s seed in an engine seeded `seed`: decorrelated across
/// shards, and `seed` itself for shard 0.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(SEED_STRIDE))
}

/// A seed that no shard of an engine seeded `seed` gets: one stride below
/// shard 0's, which [`shard_seed`] reaches only at shard `2⁶⁴ − 1`.
pub(crate) fn spare_seed(seed: u64) -> u64 {
    seed.wrapping_sub(SEED_STRIDE)
}

impl<K: Eq + Hash + Clone + Send + Sync + 'static> SlidingWindowEstimator<K>
    for ShardedEstimator<K>
{
    fn space_bytes(&self) -> usize {
        self.total_space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineSnapshot, PublishPolicy, ShardedHhh};
    use memento_core::{FrozenHhh, GrainMap, HMemento, HhhQuery, TimedWindow, WindowQuery};
    use memento_hierarchy::{Prefix1D, SrcHierarchy};
    use memento_sketches::fasthash;

    /// Reads either snapshot kind back as (epoch, processed, estimates of a
    /// fixed probe set), so an engine-level test takes the HHH engine as one
    /// more input.
    trait Probe: Shard {
        fn probe(snapshot: &EngineSnapshot<Self::View>) -> (u64, u64, Vec<f64>);
    }

    impl Probe for BoxedEstimator<u64> {
        /// Keys `0..64`, which cover every test stream's keys.
        fn probe(s: &EngineSnapshot<DeltaWindow<u64>>) -> (u64, u64, Vec<f64>) {
            let estimates = (0..64u64).map(|key| s.estimate(&key)).collect();
            (s.epoch(), s.processed(), estimates)
        }
    }

    impl Probe for HMemento<SrcHierarchy> {
        /// Every /8.
        fn probe(s: &EngineSnapshot<FrozenHhh<SrcHierarchy>>) -> (u64, u64, Vec<f64>) {
            let estimates = (0..=255u32)
                .map(|a| s.estimate(&Prefix1D::new(a << 24, 8)))
                .collect();
            (s.epoch(), s.processed(), estimates)
        }
    }

    /// Probes the latest published snapshot.
    fn latest<A: Probe>(engine: &Engine<A>) -> (u64, u64, Vec<f64>) {
        A::probe(&engine.reader().latest().expect("published"))
    }

    /// `n` hosts spread over 42.0.0.0/8.
    fn hosts(n: u32) -> Vec<u32> {
        (0..n)
            .map(|i| u32::from_be_bytes([42, (i % 61) as u8, (i % 17) as u8, (i % 5) as u8]))
            .collect()
    }

    #[test]
    fn routes_all_packets_and_counts_them() {
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(4, 4_000);
        for i in 0..2_000u64 {
            sharded.update(i % 37);
        }
        assert_eq!(sharded.processed(), 2_000);
        assert_eq!(sharded.shards(), 4);
        assert!(sharded.space_bytes() > 0);
        assert_eq!(sharded.error_bound(), 0.0);
    }

    #[test]
    fn exact_sharding_matches_exact_counts_beyond_the_window() {
        // Global-position windows: the sharded exact oracle agrees with a
        // single exact window even when the stream is much longer than W
        // and expiry is in full swing — the per-key gap stamps replay every
        // key at its exact global position.
        let window = 800;
        let shards = 4;
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(shards, window);
        let mut single: ExactWindow<u64> = ExactWindow::new(window);
        for i in 0..5_000u64 {
            let key = (i * i) % 101;
            sharded.update(key);
            single.add(key);
        }
        for key in 0..101u64 {
            assert_eq!(sharded.estimate(&key), single.query(&key) as f64);
        }
        assert_eq!(sharded.processed(), single.processed());
    }

    #[test]
    fn heavy_hitters_merge_across_shards() {
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(3, 30_000);
        // Three heavy flows chosen to (very likely) live on distinct shards.
        for _ in 0..1_000 {
            for key in [1u64, 2, 3, 500, 501] {
                sharded.update(key);
            }
        }
        let hh = sharded.heavy_hitters(900.0);
        assert_eq!(hh.len(), 5);
        for pair in hh.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "merged output not sorted: {hh:?}");
        }
    }

    #[test]
    fn single_shard_memento_matches_unsharded_memento() {
        // With one shard the engine routes everything to one inner Memento
        // configured identically (all gaps are zero), so estimates agree
        // exactly.
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::memento(1, 64, 4_000, 1.0, 7);
        let mut single: Memento<u64> = Memento::new(64, 4_000, 1.0, 7);
        for i in 0..10_000u64 {
            let key = (i * i) % 113;
            sharded.update(key);
            single.update(key);
        }
        for key in 0..113u64 {
            assert_eq!(sharded.estimate(&key), Memento::estimate(&single, &key));
        }
        assert_eq!(sharded.processed(), single.processed());
    }

    #[test]
    fn router_sampled_engines_report_the_sampled_error_bound() {
        // The shards run at τ = 1 and receive Full updates at rate τ: the
        // bound keeps the single instance's sampling term.
        let single = WindowQuery::error_bound(&Memento::<u64>::new(256, 40_000, 0.25, 7));
        for shards in [1, 2, 4] {
            let sharded: ShardedEstimator<u64> =
                ShardedEstimator::memento(shards, 256, 40_000, 0.25, 7);
            assert_eq!(sharded.error_bound().to_bits(), single.to_bits());
            assert_eq!(sharded.reader().error_bound().to_bits(), single.to_bits());
        }
    }

    #[test]
    fn periodic_publication_counts_routed_positions() {
        // Every 8 flush thresholds of positions, sampled or not, checked
        // after each shipment and at the end of each ingest call: with
        // calls of a quarter of that, exactly on every fourth call at any
        // τ. At τ = 2⁻¹⁰ no buffer fills in this stream, so a check at
        // shipments alone would never publish.
        let due = (8 * crate::DEFAULT_FLUSH_THRESHOLD) as u64;
        let policy = PublishPolicy {
            every_batches: 8,
            on_query: false,
        };
        let keys: Vec<u64> = (0..1_000_000u64).map(|i| (i * 7) % 5_003).collect();
        let fed = keys.len() as u64;
        for tau in [1.0, 0.25, 1.0 / 1024.0] {
            let mut batched: ShardedEstimator<u64> =
                ShardedEstimator::memento(1, 64, 50_000, tau, 3).with_policy(policy);
            for part in keys.chunks(2 * crate::DEFAULT_FLUSH_THRESHOLD) {
                batched.update_batch(part);
            }
            assert_eq!(batched.publish_now() - 1, fed / due, "tau {tau}");
            assert_eq!(batched.reader().processed(), fed);
            // One item per call: due exactly at every multiple.
            let mut single: ShardedEstimator<u64> =
                ShardedEstimator::memento(1, 64, 50_000, tau, 3).with_policy(policy);
            for &key in &keys[..100_000] {
                single.update(key);
            }
            assert_eq!(single.publish_now() - 1, 100_000 / due, "tau {tau}");
        }
    }

    #[test]
    fn update_batch_equals_per_packet_updates() {
        let mut batched: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 64, 8_000);
        let mut one_by_one: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 64, 8_000);
        let keys: Vec<u64> = (0..20_000u64).map(|i| (i * 7) % 301).collect();
        for part in keys.chunks(997) {
            batched.update_batch(part);
        }
        for &key in &keys {
            one_by_one.update(key);
        }
        for key in 0..301u64 {
            assert_eq!(batched.estimate(&key), one_by_one.estimate(&key));
        }
        assert_eq!(batched.processed(), one_by_one.processed());
    }

    #[test]
    fn positioned_batches_equal_interleaved_skip_and_update() {
        // The engine-level `update_batch_positioned` override (the time
        // plane's ingest path) must match the trait contract: the
        // per-item `skip(gap); update(item)` interleaving.
        fn check<A: Probe>(make: impl Fn() -> Engine<A>, items: &[A::Item]) {
            let mut positioned = make();
            let mut interleaved = make();
            let gaps: Vec<u64> = (0..items.len())
                .map(|i| [0, 0, 1, 0, 7, 0, 0, 350][i % 8])
                .collect();
            for (gap_part, item_part) in gaps.chunks(997).zip(items.chunks(997)) {
                positioned.update_batch_positioned(gap_part, item_part);
            }
            for (&gap, item) in gaps.iter().zip(items) {
                if gap > 0 {
                    interleaved.skip(gap);
                }
                interleaved.update(item.clone());
            }
            positioned.publish_now();
            interleaved.publish_now();
            let (_, at, estimates) = latest(&positioned);
            let (_, interleaved_at, interleaved_estimates) = latest(&interleaved);
            assert_eq!(estimates, interleaved_estimates);
            assert_eq!(at, interleaved_at);
        }
        let window = 900;
        let keys: Vec<u64> = (0..6_000u64).map(|i| (i * 13) % 41).collect();
        check(|| ShardedEstimator::exact(3, window), &keys);
        // H-Memento at τ = 1 is deterministic per seed.
        for shards in [1, 2, 4] {
            check(
                || ShardedHhh::h_memento(SrcHierarchy, shards, 1_024, window, 1.0, 0.01, 5),
                &hosts(6_000),
            );
        }
    }

    #[test]
    fn engine_level_skip_advances_every_shard_window() {
        // Fill a window, then skip a full window's worth of elsewhere
        // packets: everything must expire on every shard.
        let window = 500;
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(3, window);
        for i in 0..window as u64 {
            sharded.update(i % 11);
        }
        assert!(sharded.estimate(&1) > 0.0);
        sharded.skip(window as u64);
        for key in 0..11u64 {
            assert_eq!(sharded.estimate(&key), 0.0, "key {key} survived the skip");
        }
        assert_eq!(sharded.processed(), 2 * window as u64);
    }

    #[test]
    fn reader_answers_without_engine_queries() {
        // Periodic publication alone (no on-query publish) must hand the
        // reader a usable snapshot with bounded staleness.
        let mut sharded: ShardedEstimator<u64> =
            ShardedEstimator::exact(2, 50_000).with_policy(PublishPolicy {
                every_batches: 1,
                on_query: false,
            });
        let reader = sharded.reader();
        assert_eq!(reader.processed(), 0, "no snapshot before any publish");
        let keys: Vec<u64> = (0..40_000u64).map(|i| i % 10).collect();
        sharded.update_batch(&keys);
        let epoch = sharded.publish_now();
        assert!(epoch >= 1);
        let snap = reader.latest().expect("published snapshot");
        assert_eq!(snap.processed(), 40_000);
        assert_eq!(reader.estimate(&3), 4_000.0);
        // Clones share the hub and observe the same epochs.
        let clone = reader.clone();
        assert_eq!(
            clone.latest().expect("shared snapshot").epoch(),
            snap.epoch()
        );
    }

    #[test]
    fn snapshot_queries_match_fifo_queries() {
        // The engine's snapshot-backed answers equal the historical FIFO
        // piggyback path at the same point in the stream.
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::wcss(4, 128, 9_000);
        let keys: Vec<u64> = (0..12_000u64).map(|i| (i * 31) % 257).collect();
        sharded.update_batch(&keys);
        for key in 0..257u64 {
            let via_snapshot = sharded.estimate(&key);
            let shard = fasthash::route(&key, sharded.shards());
            let via_fifo = sharded.query_via_fifo(shard, move |est| est.estimate(&key));
            assert_eq!(via_snapshot.to_bits(), via_fifo.to_bits());
        }
    }

    #[test]
    fn unchanged_engine_republishes_without_freezing() {
        fn check<A: Probe>(mut engine: Engine<A>, items: &[A::Item]) {
            engine.update_batch(items);
            let e1 = engine.publish_now();
            let rounds = engine.freeze_rounds();
            let (_, processed, estimates) = latest(&engine);
            assert_eq!(processed, items.len() as u64);
            // Publishing an untouched engine must advance the epoch without
            // enqueueing a single freeze job (the workers never hear about it).
            let e2 = engine.publish_now();
            let e3 = engine.publish_now();
            assert!(e1 < e2 && e2 < e3, "epochs must keep advancing");
            assert_eq!(engine.freeze_rounds(), rounds, "short circuit froze");
            // The restamped snapshot carries the new epoch and the old answers.
            assert_eq!(latest(&engine), (e3, processed, estimates));
            // Any ingest — even a single packet — re-arms the real freeze path.
            engine.update(items[1].clone());
            let e4 = engine.publish_now();
            assert!(e4 > e3);
            assert!(engine.freeze_rounds() > rounds, "ingest must re-freeze");
            assert_eq!(latest(&engine).1, processed + 1);
            // A bare position advance (skip) also counts as a change.
            let rounds = engine.freeze_rounds();
            engine.skip(5_000);
            engine.publish_now();
            assert!(engine.freeze_rounds() > rounds, "skip must re-freeze");
            assert_eq!(latest(&engine).1, processed + 5_001);
        }
        let keys: Vec<u64> = (0..4_000u64).map(|i| i % 23).collect();
        check(ShardedEstimator::wcss(2, 64, 8_000), &keys);
        let hhh = ShardedHhh::h_memento(SrcHierarchy, 2, 1_024, 8_000, 1.0, 0.01, 3);
        check(hhh, &hosts(4_000));
    }

    #[test]
    fn engine_advance_to_expires_by_time() {
        // The engine's time plane is a `TimedWindow` around it. Two windows
        // of idle ticks must expire everything on every shard down to
        // `residue`, with the rotations carried by `advance_to` alone: no
        // ingest follows, so the publication ships them as trailing skips.
        fn check<A: Probe>(engine: Engine<A>, window: u64, items: &[A::Item], residue: f64) {
            let map = GrainMap::new(100 * window, window, 8);
            let mut timed = TimedWindow::new(engine, map);
            let hottest = |engine: &Engine<A>| {
                engine.publish_now();
                latest(engine).2.into_iter().fold(0.0, f64::max)
            };
            timed.advance_to(5);
            for item in items {
                timed.record_at(item.clone(), 5);
            }
            assert!(hottest(timed.inner()) > residue);
            timed.advance_to(5 + 2 * map.window_ticks());
            let left = hottest(timed.inner());
            assert!(left <= residue, "{left} survived the gap");
            // The one clock observed the schedule.
            assert_eq!(timed.clock().last_tick(), 5 + 2 * map.window_ticks());
        }
        let keys: Vec<u64> = (0..400u64).map(|i| i % 13).collect();
        check(ShardedEstimator::exact(2, 400), 400, &keys, 0.0);
        // A hot /8 keeps only the per-shard one-sided slack.
        let hhh = ShardedHhh::h_memento(SrcHierarchy, 2, 2_048, 4_000, 1.0, 0.01, 5);
        check(hhh, 4_000, &hosts(4_000), 0.25 * 4_000.0);
    }

    /// The engines of the overflow tests, one over exact shards and one
    /// over a Memento shard, at global position `u64::MAX` after one update
    /// and a skip of `u64::MAX - 1`.
    fn at_u64_max() -> [ShardedEstimator<u64>; 2] {
        let mut engines = [
            ShardedEstimator::exact(2, 64),
            ShardedEstimator::memento(1, 64, 100, 1.0, 7),
        ];
        for engine in &mut engines {
            engine.update(1);
            engine.skip(u64::MAX - 1);
        }
        engines
    }

    #[test]
    fn skip_landing_exactly_on_u64_max_still_works() {
        let [mut exact, memento] = at_u64_max();
        assert_eq!(memento.processed(), u64::MAX);
        assert_eq!(exact.processed(), u64::MAX);
        assert_eq!(exact.estimate(&1), 0.0);
        exact.update_batch(&[]);
        exact.skip(0);
        assert_eq!(exact.processed(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "update: the stream position overflows u64")]
    fn update_past_u64_max_panics_on_exact_shards() {
        let [mut exact, _] = at_u64_max();
        exact.update(2);
    }

    #[test]
    #[should_panic(expected = "update: the stream position overflows u64")]
    fn update_past_u64_max_panics_on_memento_shards() {
        let [_, mut memento] = at_u64_max();
        memento.update(2);
        memento.update(3);
        let _ = memento.processed();
    }

    #[test]
    fn every_entry_point_refuses_to_pass_u64_max() {
        type Call = fn(&mut ShardedEstimator<u64>);
        let calls: [(&str, Call); 5] = [
            ("update", |e| e.update(2)),
            ("update_batch", |e| e.update_batch(&[2])),
            ("update_batch_positioned", |e| {
                e.update_batch_positioned(&[0], &[2])
            }),
            // Only the second gap passes u64::MAX: the whole span is
            // checked before the first item routes.
            ("update_batch_positioned", |e| {
                e.update_batch_positioned(&[0, u64::MAX], &[2, 3])
            }),
            ("skip", |e| e.skip(1)),
        ];
        for (caller, call) in calls {
            for mut engine in at_u64_max() {
                let panic =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut engine)))
                        .expect_err(caller);
                assert_eq!(
                    panic.downcast_ref::<String>().map(String::as_str),
                    Some(format!("{caller}: the stream position overflows u64").as_str()),
                );
            }
        }
    }

    /// An overflow panic is raised under the router lock and poisons it:
    /// every later call that takes the lock panics "router state
    /// poisoned", queries included under the default on-query policy. A
    /// reader taken earlier still answers from the last published
    /// snapshot, and dropping the engine is clean.
    #[test]
    fn an_overflow_panic_poisons_the_engine_but_not_its_readers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        type Call = fn(&mut ShardedEstimator<u64>);
        let calls: [(&str, Call); 7] = [
            ("update", |e| e.update(2)),
            ("update_batch", |e| e.update_batch(&[])),
            ("update_batch_positioned", |e| {
                e.update_batch_positioned(&[], &[])
            }),
            ("skip", |e| e.skip(0)),
            ("publish_now", |e| {
                e.publish_now();
            }),
            ("processed", |e| {
                e.processed();
            }),
            ("estimate", |e| {
                e.estimate(&1);
            }),
        ];
        for mut engine in at_u64_max() {
            let epoch = engine.publish_now();
            let reader = engine.reader();
            let estimate = reader.estimate(&1);
            catch_unwind(AssertUnwindSafe(|| engine.update(2)))
                .expect_err("an update past u64::MAX must panic");
            for (caller, call) in calls {
                let panic = catch_unwind(AssertUnwindSafe(|| call(&mut engine))).expect_err(caller);
                assert_eq!(
                    panic.downcast_ref::<String>().map(String::as_str),
                    Some("router state poisoned: PoisonError { .. }"),
                    "{caller}"
                );
            }
            let snapshot = reader.latest().expect("published before the panic");
            assert_eq!(snapshot.epoch(), epoch);
            assert_eq!(reader.processed(), u64::MAX);
            assert_eq!(reader.estimate(&1).to_bits(), estimate.to_bits());
            assert_eq!(engine.reader().processed(), u64::MAX);
            drop(engine);
        }
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panic() {
        let _ = ShardedEstimator::<u64>::exact(0, 100);
    }

    #[test]
    #[should_panic(expected = "global-position window")]
    fn interval_estimators_are_refused() {
        use memento_sketches::SpaceSaving;
        let _ = ShardedEstimator::<u64>::new("sharded-space-saving", 2, |_| {
            Box::new(SpaceSaving::new(16))
        });
    }
}
