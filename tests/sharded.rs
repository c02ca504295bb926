//! Cross-crate tests of the multi-core sharding engine: property-based
//! equivalence against the single-threaded estimators on deterministic
//! paths — including the `skip(n)` bulk-advance semantics that anchor every
//! shard's window at the global stream position — and a trait-object smoke
//! test showing the engine rides behind the same `SlidingWindowEstimator`
//! surface as everything else.

use memento::sketches::ExactWindow;
use memento::traits::{Ingest, SlidingWindowEstimator};
use memento::WindowQuery;
use memento::{Memento, ShardedEstimator, TraceGenerator, TracePreset, Wcss};
use proptest::prelude::*;

/// The shard counts the acceptance criteria call out.
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// Case count, honoring the nightly fuzz job's `PROPTEST_CASES` (the
/// vendored proptest stand-in has no built-in env support; the PR-gating
/// default stays low).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A skewed stream over a 10-key universe: key 0 dominates (~60% of
/// packets), a few warm keys share most of the rest. This is exactly the
/// distribution under which count-based `W/N` shard windows used to
/// diverge — the shard owning key 0 receives far more than `1/N` of the
/// stream.
fn skewed_stream(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            6 => Just(0u64),
            3 => 1u64..4,
            1 => 4u64..10,
        ],
        50..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// `skip(n)` on Memento/WCSS is bit-for-bit `n` unrecorded
    /// `window_update()` calls, at any τ, alignment and overflow state.
    #[test]
    fn memento_skip_equals_n_window_updates(
        stream in skewed_stream(1_200),
        n in 1u64..3_000,
        tau_exp in 0u32..3,
    ) {
        let window = 700; // deliberately not a multiple of the block count
        let counters = 9;
        let tau = 0.5f64.powi(tau_exp as i32);
        let mut bulk: Memento<u64> = Memento::new(counters, window, tau, 13);
        let mut per_packet: Memento<u64> = Memento::new(counters, window, tau, 13);
        for &key in &stream {
            bulk.update(key);
            per_packet.update(key);
        }
        bulk.skip(n);
        for _ in 0..n {
            per_packet.window_update();
        }
        prop_assert_eq!(bulk.processed(), per_packet.processed());
        prop_assert_eq!(bulk.tracked_overflows(), per_packet.tracked_overflows());
        for key in 0u64..10 {
            prop_assert_eq!(
                bulk.estimate(&key).to_bits(),
                per_packet.estimate(&key).to_bits(),
                "skip({}) != {} window updates for key {}", n, n, key
            );
        }
    }

    /// `skip(n)` on a full `ExactWindow` is `n` evictions without an
    /// insert; in general it matches a model that materializes the skipped
    /// positions as unique never-queried filler keys.
    #[test]
    fn exact_window_skip_equals_evictions_without_insert(
        stream in skewed_stream(1_500),
        skips in prop::collection::vec((0usize..40, 1u64..150), 1..12),
    ) {
        let window = 300;
        let mut fast: ExactWindow<u64> = ExactWindow::new(window);
        let mut model: ExactWindow<u64> = ExactWindow::new(window);
        let mut filler = 1u64 << 40;
        let mut cursor = 0usize;
        for (advance, n) in skips {
            let end = (cursor + advance).min(stream.len());
            for &key in &stream[cursor..end] {
                fast.add(key);
                model.add(key);
            }
            cursor = end;
            fast.skip(n);
            for _ in 0..n {
                model.add(filler); // an eviction-without-insert stand-in
                filler += 1;
            }
        }
        prop_assert_eq!(fast.processed(), model.processed());
        for key in 0u64..10 {
            prop_assert_eq!(fast.query(&key), model.query(&key), "key {}", key);
        }
    }

    /// The trait-provided `update_batch_positioned` coalesces gap stamps —
    /// one closed-form `skip` per run of foreign packets, one `update_batch`
    /// per run of own packets — and must equal the per-key
    /// `skip(gap); update(key)` interleaving it documents (exactly, on a
    /// deterministic implementor).
    #[test]
    fn default_positioned_batch_equals_per_key_interleaving(
        pairs in prop::collection::vec((0u64..7, 0u64..30), 1..250),
    ) {
        let window = 100;
        let mut coalesced: ExactWindow<u64> = ExactWindow::new(window);
        let mut per_key: ExactWindow<u64> = ExactWindow::new(window);
        let gaps: Vec<u64> = pairs.iter().map(|(g, _)| *g).collect();
        let keys: Vec<u64> = pairs.iter().map(|(_, k)| *k).collect();
        coalesced.update_batch_positioned(&gaps, &keys);
        for (gap, key) in gaps.iter().zip(&keys) {
            if *gap > 0 {
                Ingest::skip(&mut per_key, *gap);
            }
            Ingest::update(&mut per_key, *key);
        }
        prop_assert_eq!(coalesced.processed(), per_key.processed());
        prop_assert_eq!(coalesced.occupancy(), per_key.occupancy());
        for key in 0u64..30 {
            prop_assert_eq!(coalesced.query(&key), per_key.query(&key), "key {}", key);
        }
    }

    /// Global-position windows: on the fully deterministic path (WCSS =
    /// Memento with τ = 1), a sharded estimator over N ∈ {1, 2, 4} shards
    /// answers exactly like the single-threaded estimator **on skewed key
    /// distributions with streams well beyond the old per-shard `W/N`
    /// window** — the case PR 2's count-based windows could not assert
    /// (the shard owning the dominant flow would have expired packets the
    /// single instance still covers). The router's gap stamps anchor every
    /// shard at the global position, so below `W` global packets the
    /// deterministic states coincide bit-for-bit (counters cover the key
    /// universe on both sides, so no Space-Saving eviction differs).
    #[test]
    fn sharded_wcss_matches_single_threaded_on_skewed_streams(
        stream in skewed_stream(6_000),
        shard_idx in 0usize..3,
    ) {
        let shards = SHARD_SWEEP[shard_idx];
        let window = 8_000; // > |stream|: no frame flush / retirement yet
        let counters = 40; // covers the 10-key universe in every partition
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::wcss(shards, counters, window);
        let mut single: Wcss<u64> = Wcss::new(counters, window);
        for &key in &stream {
            sharded.update(key);
            single.update(key);
        }
        prop_assert_eq!(sharded.processed(), stream.len() as u64);
        prop_assert_eq!(sharded.processed(), Wcss::processed(&single));
        for key in 0u64..10 {
            prop_assert_eq!(
                sharded.estimate(&key).to_bits(),
                Wcss::estimate(&single, &key).to_bits(),
                "estimates diverge for key {} at {} shards", key, shards
            );
        }
        // Same per-key estimates => same heavy-hitter sets at any threshold.
        let threshold = stream.len() as f64 * 0.2;
        let mut merged = sharded.heavy_hitters(threshold);
        let mut expected = Wcss::heavy_hitters(&single, threshold);
        merged.sort_by_key(|(k, _)| *k);
        expected.sort_by_key(|(k, _)| *k);
        prop_assert_eq!(merged, expected);
    }

    /// With an exact per-shard oracle the equivalence holds for *any*
    /// stream length — far beyond the window, with expiry in full swing on
    /// a heavily skewed stream, for every shard count: the per-key gap
    /// stamps replay every item at its exact global position even through
    /// buffered batches.
    #[test]
    fn sharded_exact_matches_exact_window_beyond_the_window(
        stream in skewed_stream(2_000),
        shard_idx in 0usize..3,
    ) {
        let shards = SHARD_SWEEP[shard_idx];
        let window = 500; // much shorter than most streams: expiry is live
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(shards, window);
        let mut oracle: ExactWindow<u64> = ExactWindow::new(window);
        for &key in &stream {
            sharded.update(key);
            oracle.add(key);
        }
        prop_assert_eq!(sharded.processed(), stream.len() as u64);
        for key in 0u64..10 {
            prop_assert_eq!(
                sharded.estimate(&key),
                oracle.query(&key) as f64,
                "exact counts diverge for key {} at {} shards", key, shards
            );
        }
    }

    /// Batched shipment keeps the exact-oracle equivalence as long as the
    /// stream stays inside the window (estimates below `W` positions are
    /// insensitive to the in-flight batch compression).
    #[test]
    fn sharded_exact_matches_exact_window_counts(
        stream in prop::collection::vec(0u64..200, 50..1500),
        shard_idx in 0usize..3,
    ) {
        let shards = SHARD_SWEEP[shard_idx];
        let window = 8_000;
        let mut sharded: ShardedEstimator<u64> = ShardedEstimator::exact(shards, window);
        let mut oracle: ExactWindow<u64> = ExactWindow::new(window);
        // Arbitrary batch splits exercise the channel path.
        for part in stream.chunks(97) {
            sharded.update_batch(part);
        }
        for &key in &stream {
            oracle.add(key);
        }
        prop_assert_eq!(sharded.processed(), stream.len() as u64);
        for key in 0u64..200 {
            prop_assert_eq!(
                sharded.estimate(&key),
                oracle.query(&key) as f64,
                "exact counts diverge for key {} at {} shards", key, shards
            );
        }
    }
}

/// Feeds `stream` to `engine` in the chunk lengths of `calls`, cycling
/// through them, each chunk through the entry point its tag names: 0
/// per-key `update`, 1 `update_batch`, otherwise a zero-gap
/// `update_batch_positioned`.
fn feed(engine: &mut ShardedEstimator<u64>, stream: &[u64], calls: &[(u8, usize)]) {
    let mut at = 0;
    for &(call, len) in calls.iter().cycle() {
        if at == stream.len() {
            break;
        }
        let part = &stream[at..(at + len).min(stream.len())];
        match call {
            0 => part.iter().for_each(|&key| engine.update(key)),
            1 => engine.update_batch(part),
            _ => engine.update_batch_positioned(&vec![0; part.len()], part),
        }
        at += part.len();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// At τ < 1 the router samples, from a table seeded with the engine
    /// seed, the positions `Memento::update_batch` samples with the same
    /// seed, and carries its skip across calls as the batch path does. A
    /// one-shard engine fed through any mix of `update`, `update_batch`
    /// and zero-gap `update_batch_positioned`, in any chunking, therefore
    /// answers bit-for-bit like one Memento fed by `update_batch`, past
    /// the window and through Space-Saving evictions.
    #[test]
    fn one_shard_router_sampling_matches_memento_update_batch(
        stream in skewed_stream(3_000),
        calls in prop::collection::vec((0u8..3, 1usize..700), 1..12),
        tau_exp in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let (window, counters) = (700, 9);
        let tau = 0.5f64.powi(tau_exp as i32);
        let mut engine: ShardedEstimator<u64> =
            ShardedEstimator::memento(1, counters, window, tau, seed);
        let mut single: Memento<u64> = Memento::new(counters, window, tau, seed);
        feed(&mut engine, &stream, &calls);
        single.update_batch(&stream);
        prop_assert_eq!(engine.processed(), single.processed());
        for key in 0u64..10 {
            prop_assert_eq!(
                engine.estimate(&key).to_bits(),
                single.estimate(&key).to_bits(),
                "key {} at tau {}", key, tau
            );
        }
        let bits = |mut hh: Vec<(u64, f64)>| {
            hh.sort_by_key(|&(key, _)| key);
            hh.into_iter().map(|(key, f)| (key, f.to_bits())).collect::<Vec<_>>()
        };
        for threshold in [0.0, 0.1 * window as f64] {
            prop_assert_eq!(
                bits(engine.heavy_hitters(threshold)),
                bits(single.heavy_hitters(threshold))
            );
        }
    }

    /// Every shard count samples the same positions, so within the window
    /// (no expiry) and with counters covering the key universe (no
    /// eviction), each key's shard records exactly the Full updates a
    /// one-shard engine records for it: estimates are bit-identical at 1,
    /// 2 and 4 shards. Past `W` they are not, because which keys share a
    /// shard's overflow queues decides when their overflows retire.
    #[test]
    fn router_sampled_estimates_do_not_depend_on_the_shard_count(
        stream in skewed_stream(6_000),
        tau_exp in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let (window, counters) = (8_000, 40);
        let tau = 0.5f64.powi(tau_exp as i32);
        let estimates: Vec<Vec<u64>> = SHARD_SWEEP
            .iter()
            .map(|&shards| {
                let mut engine: ShardedEstimator<u64> =
                    ShardedEstimator::memento(shards, counters, window, tau, seed);
                for part in stream.chunks(997) {
                    engine.update_batch(part);
                }
                assert_eq!(engine.processed(), stream.len() as u64);
                (0u64..10).map(|key| engine.estimate(&key).to_bits()).collect()
            })
            .collect();
        prop_assert_eq!(&estimates[0], &estimates[1], "1 vs 2 shards at tau {}", tau);
        prop_assert_eq!(&estimates[0], &estimates[2], "1 vs 4 shards at tau {}", tau);
    }
}

/// The sharded engine behind `Box<dyn SlidingWindowEstimator<u64>>`, next to
/// the single-threaded estimators, driven by one shared loop — the same
/// pattern the figure harnesses and detectors use.
#[test]
fn sharded_estimators_ride_behind_the_trait_object() {
    let window = 40_000;
    let counters = 512;
    // Short enough that nothing expires: every shard's full-W global-
    // position window then covers the whole stream, and the error bounds
    // hold sharded exactly as they do single-threaded.
    let packets: Vec<u64> = {
        let mut gen = TraceGenerator::new(TracePreset::datacenter(), 99);
        (0..8_000).map(|_| gen.next_packet().flow()).collect()
    };

    let mut estimators: Vec<Box<dyn SlidingWindowEstimator<u64>>> = vec![
        Box::new(Wcss::new(counters, window)),
        Box::new(ShardedEstimator::wcss(2, counters, window)),
        Box::new(ShardedEstimator::wcss(4, counters, window)),
        Box::new(ShardedEstimator::memento(4, counters, window, 1.0, 3)),
        Box::new(ShardedEstimator::exact(3, window)),
    ];

    let mut oracle: ExactWindow<u64> = ExactWindow::new(window);
    for chunk in packets.chunks(1_024) {
        for est in &mut estimators {
            est.update_batch(chunk);
        }
        for &flow in chunk {
            oracle.add(flow);
        }
    }

    let heavy: Vec<(u64, u64)> = oracle.heavy_hitters((packets.len() / 50) as u64);
    assert!(!heavy.is_empty(), "trace produced no heavy flows");
    let top = heavy[0].0;

    for est in &estimators {
        assert!(!est.is_interval(), "{} must be mergeable", est.name());
        assert_eq!(
            est.processed(),
            packets.len() as u64,
            "{} lost packets",
            est.name()
        );
        assert!(est.space_bytes() > 0, "{} reports no memory", est.name());
        let bound = est.error_bound();
        assert!(bound.is_finite(), "{} has no finite bound", est.name());
        for &(flow, real) in &heavy {
            let err = (est.estimate(&flow) - real as f64).abs();
            assert!(
                err <= bound,
                "{}: flow {flow:x} off by {err}, bound {bound}",
                est.name()
            );
        }
        let reported = est.heavy_hitters(0.5 * heavy[0].1 as f64);
        assert!(
            reported.iter().any(|(k, _)| *k == top),
            "{} missed the top flow",
            est.name()
        );
    }
}
