//! PR 9 differential time-replay suite: the time plane's correctness claim
//! — `advance_to(t)` answers bit-for-bit equal to the count-based path on
//! the computed rotation schedule — proven for Memento (any τ), WCSS and
//! the exact window, single-device and sharded at N ∈ {1, 2, 4}, plus the
//! clock-policy edge cases (clamp-to-last, idle-gap wholesale clears,
//! grain-boundary off-by-ones) and the PR 8 residual (`freeze_delta`
//! across a time-advance that degrades the journal to a rebuild).
//!
//! The suite also pins the chunked-ingest differential: the
//! run-structured `record_timed` (one clock consult per same-grain run)
//! against per-packet `record_at`. H-Memento rides the same time plane as
//! the estimators and is pinned against its own skip schedule.

use memento::sketches::{ExactTimedWindow, ExactWindow};
use memento::traits::SlidingWindowEstimator;
use memento::{
    DeltaWindow, GrainClock, GrainMap, HMemento, HhhQuery, Memento, Prefix1D, ShardedEstimator,
    SrcHierarchy, TimedWindow, Wcss, WindowQuery,
};
use proptest::prelude::*;

/// Key universe for full-sweep estimate comparison.
const UNIVERSE: u64 = 24;

/// Case count, honoring the nightly `time-fuzz` job's `PROPTEST_CASES`
/// (the vendored proptest stand-in has no built-in env support, so the
/// suite reads it directly; the PR-gating default stays low).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Decodes generated `(kind, key)` pairs into a monotone timestamped
/// packet stream: mostly bursts sharing a timestamp, some sub-grain steps,
/// some gaps straddling grain boundaries, and rare multi-grain jumps that
/// can outrun the whole window.
fn decode_timed(raw: &[(u64, u64)], grain_span: u64) -> Vec<(u64, u64)> {
    let mut t = 0u64;
    raw.iter()
        .map(|&(kind, key)| {
            let gap = match kind {
                0..=4 => 0,                       // burst: duplicate timestamps
                5 | 6 => 1 + key % 3,             // sub-grain steps
                7 | 8 => grain_span / 2 + key,    // around a grain boundary
                _ => grain_span * (key % 40 + 1), // multi-grain / idle jumps
            };
            t += gap;
            (t, key)
        })
        .collect()
}

/// Drives `est` over the packets on the manual rotation schedule: an
/// independent [`GrainClock`] replica computes each packet's rotations,
/// executed via the closed-form `skip(n)` before the per-packet update —
/// the count-based reference path of the differential.
fn drive_skip_schedule<E: SlidingWindowEstimator<u64>>(
    est: &mut E,
    map: GrainMap,
    packets: &[(u64, u64)],
) {
    let mut clock = GrainClock::new(map);
    let mut position = est.processed();
    for &(t, key) in packets {
        let n = clock.observe(t, position);
        if n > 0 {
            est.skip(n);
            position += n;
        }
        est.update(key);
        position += 1;
    }
}

/// Same schedule, but every rotation is `n` per-packet `window_update()`
/// calls instead of one closed-form skip (RNG-free either way, so this
/// leg is bit-for-bit at any τ).
fn drive_window_updates(est: &mut Memento<u64>, map: GrainMap, packets: &[(u64, u64)]) {
    let mut clock = GrainClock::new(map);
    let mut position = Memento::processed(est);
    for &(t, key) in packets {
        let n = clock.observe(t, position);
        for _ in 0..n {
            est.window_update();
        }
        position += n;
        est.update(key);
        position += 1;
    }
}

/// Full-universe bit-for-bit estimate comparison.
fn assert_estimates_equal<A, B>(a: &A, b: &B, context: &str)
where
    A: WindowQuery<u64> + ?Sized,
    B: WindowQuery<u64> + ?Sized,
{
    for key in 0..UNIVERSE {
        assert_eq!(
            a.estimate(&key).to_bits(),
            b.estimate(&key).to_bits(),
            "{context}: estimates diverge for key {key}: {} vs {}",
            a.estimate(&key),
            b.estimate(&key),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Memento, any τ: `advance_to(t)` ≡ the closed-form `skip(n)` schedule
    /// ≡ `n` per-packet `window_update`s, bit-for-bit on estimates and
    /// positions. (Rotations consume no randomness on any of the three
    /// paths, and all record legs go through the same per-packet `update`,
    /// so the RNG streams stay aligned even at τ < 1.)
    #[test]
    fn memento_advance_equals_skip_equals_window_updates(
        raw in prop::collection::vec((0u64..10, 0u64..UNIVERSE), 100..1_200),
        tau_exp in 0u32..3,
        grains_exp in 0u32..4,
    ) {
        let window = 700usize;
        let tau = 0.5f64.powi(tau_exp as i32);
        let grains = 1u64 << (2 * grains_exp); // 1, 4, 16, 64
        let map = GrainMap::new(640, window as u64, grains);
        let packets = decode_timed(&raw, map.grain_span());

        let mut timed = TimedWindow::new(Memento::new(24, window, tau, 99), map);
        for &(t, key) in &packets {
            timed.record_at(key, t);
        }
        let mut skipped = Memento::new(24, window, tau, 99);
        drive_skip_schedule(&mut skipped, map, &packets);
        let mut stepped = Memento::new(24, window, tau, 99);
        drive_window_updates(&mut stepped, map, &packets);

        prop_assert_eq!(timed.position(), Memento::processed(&skipped));
        prop_assert_eq!(Memento::processed(&skipped), Memento::processed(&stepped));
        assert_estimates_equal(&timed, &skipped, "timed vs skip schedule");
        assert_estimates_equal(&skipped, &stepped, "skip vs window_update");
    }

    /// WCSS (τ = 1): the same three-way equivalence on the deterministic
    /// reference algorithm, including the batched `record_timed` ingest —
    /// and H-Memento at τ = 1 through the same `record_timed` ingest
    /// against its skip schedule, on every /8 and on `output(θ)`.
    #[test]
    fn wcss_advance_equals_skip_equals_window_updates(
        raw in prop::collection::vec((0u64..10, 0u64..UNIVERSE), 100..1_200),
        chunk in 1usize..300,
        grains_exp in 0u32..4,
    ) {
        let window = 500usize;
        let grains = 1u64 << (2 * grains_exp);
        let map = GrainMap::new(480, window as u64, grains);
        let packets = decode_timed(&raw, map.grain_span());

        let mut timed = TimedWindow::new(Wcss::new(16, window), map);
        for part in packets.chunks(chunk) {
            timed.record_timed(part);
        }
        let mut skipped = Wcss::new(16, window);
        drive_skip_schedule(&mut skipped, map, &packets);
        // WCSS is Memento at τ = 1 (estimates are RNG-independent there),
        // so the window_update leg runs on the underlying algorithm.
        let mut stepped = Memento::new(16, window, 1.0, 5);
        drive_window_updates(&mut stepped, map, &packets);

        prop_assert_eq!(timed.position(), Wcss::processed(&skipped));
        assert_estimates_equal(&timed, &skipped, "timed vs skip schedule");
        assert_estimates_equal(&skipped, &stepped, "skip vs window_update");

        // H-Memento over the same arrivals, each key a host in its own /8.
        let hosts: Vec<(u64, u32)> = packets
            .iter()
            .map(|&(t, key)| (t, u32::from_be_bytes([key as u8, (key * 7) as u8, 0, 1])))
            .collect();
        let h_memento = || HMemento::new(SrcHierarchy, 64, window, 1.0, 0.01, 3);
        let mut timed_hhh = TimedWindow::new(h_memento(), map);
        for part in hosts.chunks(chunk) {
            timed_hhh.record_timed(part);
        }
        let mut skipped_hhh = h_memento();
        let mut clock = GrainClock::new(map);
        let mut position = 0;
        for &(t, host) in &hosts {
            let n = clock.observe(t, position);
            if n > 0 {
                skipped_hhh.skip(n);
            }
            skipped_hhh.update(host);
            position += n + 1;
        }
        prop_assert_eq!(timed_hhh.position(), skipped_hhh.processed());
        for a in 0..=255u32 {
            let subnet = Prefix1D::new(a << 24, 8);
            prop_assert_eq!(
                HhhQuery::<SrcHierarchy>::estimate(&timed_hhh, &subnet).to_bits(),
                skipped_hhh.estimate(&subnet).to_bits()
            );
        }
        for theta in [0.05, 0.2, 0.5] {
            prop_assert_eq!(
                HhhQuery::<SrcHierarchy>::output(&timed_hhh, theta),
                skipped_hhh.output(theta)
            );
        }
    }

    /// Exact window: `advance_to(t)` ≡ the skip schedule (position-stamped
    /// eviction) for arbitrary streams — and when the per-grain position
    /// budget covers the stream's peak per-grain rate (the provisioning
    /// rule the ACL rate limiter uses; under overload the count capacity
    /// binds instead, by design), the grained answers sandwich the true
    /// timestamp-eviction oracle within the documented quantization slop:
    /// at least the count over the last `D − grain_span` ticks, at most
    /// the count over the last `D + 2·grain_span` ticks.
    #[test]
    fn exact_advance_equals_skip_schedule_and_bounds_the_oracle(
        raw in prop::collection::vec((0u64..10, 0u64..UNIVERSE), 100..1_000),
        grains_exp in 0u32..4,
    ) {
        let grains = 1u64 << (2 * grains_exp);
        let ticks = 512u64;
        let probe = GrainMap::new(ticks, 1, grains);
        let span = probe.grain_span();
        let packets = decode_timed(&raw, span);

        // Provision the position budget for the peak per-grain record
        // count so bursts never overrun the schedule.
        let mut per_grain = std::collections::HashMap::new();
        for &(t, _) in &packets {
            *per_grain.entry(t / span).or_insert(0u64) += 1;
        }
        let peak = per_grain.values().copied().max().unwrap_or(1).max(1);
        let positions = probe.grains() * peak;
        let map = GrainMap::new(ticks, positions, grains);
        prop_assert_eq!(map.positions_per_grain(), peak);

        let window = positions as usize;
        let mut timed = TimedWindow::new(ExactWindow::<u64>::new(window), map);
        let mut oracle_lo = ExactTimedWindow::new((ticks - span).max(1));
        let mut oracle_hi = ExactTimedWindow::new(ticks + 2 * span);
        for &(t, key) in &packets {
            timed.record_at(key, t);
            oracle_lo.add_at(key, t);
            oracle_hi.add_at(key, t);
        }
        let mut skipped = ExactWindow::<u64>::new(window);
        drive_skip_schedule(&mut skipped, map, &packets);

        assert_estimates_equal(&timed, &skipped, "timed vs skip schedule");
        for key in 0..UNIVERSE {
            let grained = timed.inner().query(&key);
            if ticks > span {
                prop_assert!(
                    grained >= oracle_lo.query(&key),
                    "grained window expired early for key {}: {} < {} (g {})",
                    key, grained, oracle_lo.query(&key), map.grains()
                );
            }
            prop_assert!(
                grained <= oracle_hi.query(&key),
                "grained window retained key {} beyond two grains: {} > {} (g {})",
                key, grained, oracle_hi.query(&key), map.grains()
            );
        }
    }

    /// Clock policy: arbitrary (freely non-monotone, duplicate-laden,
    /// far-backward) timestamp streams never panic, every inversion is
    /// counted, and the answers are bit-for-bit those of the same stream
    /// with timestamps pre-clamped to the running maximum.
    #[test]
    fn non_monotone_timestamps_clamp_to_last_and_never_panic(
        raw in prop::collection::vec((0u64..5_000, 0u64..UNIVERSE), 50..800),
    ) {
        let map = GrainMap::new(300, 600, 8);
        let mut wild = TimedWindow::new(ExactWindow::<u64>::new(600), map);
        let mut tamed = TimedWindow::new(ExactWindow::<u64>::new(600), map);
        let mut running_max = 0u64;
        let mut inversions = 0u64;
        for (i, &(t, key)) in raw.iter().enumerate() {
            wild.record_at(key, t);
            if i > 0 && t < running_max {
                inversions += 1;
            }
            running_max = running_max.max(t);
            tamed.record_at(key, running_max);
        }
        prop_assert_eq!(wild.clock().clamped(), inversions);
        prop_assert_eq!(wild.clock().last_tick(), tamed.clock().last_tick());
        prop_assert_eq!(wild.position(), tamed.position());
        assert_estimates_equal(&wild, &tamed, "wild vs pre-clamped clock");
    }

    /// PR 10 chunked ingest: `record_timed`'s run-structured loop (one
    /// clock consult per same-grain run, the tail handled by the hoisted
    /// in-grain fast path) is pinned two ways across grain geometries,
    /// chunk sizes, grain boundaries landing mid-chunk, and freely
    /// non-monotone timestamps (so the clamp path runs inside run tails,
    /// not just run heads):
    ///
    /// 1. τ = 1 (RNG-free): chunked `record_timed` ≡ per-packet
    ///    `record_at`, bit-for-bit on estimates, position, clamp
    ///    diagnostics and wholesale-clear counts.
    /// 2. τ < 1: chunked `record_timed` ≡ the pre-hoist per-packet
    ///    `observe` schedule fed through the same batch path — isolating
    ///    exactly what PR 10 changed (the clock consult), with the RNG
    ///    stream held identical. (Per-packet `record_at` draws the RNG
    ///    differently at τ < 1 by long-standing design; see
    ///    `record_timed`'s docs.)
    #[test]
    fn chunked_record_timed_equals_per_packet_record_at(
        raw in prop::collection::vec((0u64..12, 0u64..UNIVERSE), 100..1_200),
        chunk in 1usize..300,
        grains_exp in 0u32..4,
    ) {
        let window = 650usize;
        let grains = 1u64 << (2 * grains_exp);
        let map = GrainMap::new(620, window as u64, grains);
        // Monotone base stream, then re-introduced inversions: some stay
        // inside the current grain (tail clamps), some cross backwards
        // over a grain boundary (head clamps).
        let packets: Vec<(u64, u64)> = decode_timed(&raw, map.grain_span())
            .into_iter()
            .enumerate()
            .map(|(i, (t, key))| {
                if i % 9 == 8 {
                    (t.saturating_sub(1 + key * 7 % (2 * map.grain_span())), key)
                } else {
                    (t, key)
                }
            })
            .collect();

        // Leg 1: τ = 1, chunked vs per-packet record_at.
        let mut chunked = TimedWindow::new(Wcss::new(20, window), map);
        for part in packets.chunks(chunk) {
            chunked.record_timed(part);
        }
        let mut per_packet = TimedWindow::new(Wcss::new(20, window), map);
        for &(t, key) in &packets {
            per_packet.record_at(key, t);
        }
        prop_assert_eq!(chunked.position(), per_packet.position());
        prop_assert_eq!(chunked.clock().last_tick(), per_packet.clock().last_tick());
        prop_assert_eq!(chunked.clock().clamped(), per_packet.clock().clamped());
        prop_assert_eq!(
            chunked.whole_window_advances(),
            per_packet.whole_window_advances()
        );
        assert_estimates_equal(&chunked, &per_packet, "chunked vs per-packet (τ = 1)");

        // Leg 2: τ < 1, chunked vs the per-packet observe schedule through
        // identical update_batch_positioned calls (same chunking, so the
        // persistent geometric-skip state stays aligned).
        let mut memento_chunked = TimedWindow::new(Memento::new(20, window, 0.25, 31), map);
        for part in packets.chunks(chunk) {
            memento_chunked.record_timed(part);
        }
        let mut manual = Memento::new(20, window, 0.25, 31);
        let mut clock = GrainClock::new(map);
        let mut position = Memento::processed(&manual);
        for part in packets.chunks(chunk) {
            let mut gaps = Vec::with_capacity(part.len());
            let mut keys = Vec::with_capacity(part.len());
            for &(t, key) in part {
                let n = clock.observe(t, position);
                gaps.push(n);
                keys.push(key);
                position += n + 1;
            }
            manual.update_batch_positioned(&gaps, &keys);
        }
        prop_assert_eq!(memento_chunked.position(), position);
        prop_assert_eq!(memento_chunked.clock().last_tick(), clock.last_tick());
        prop_assert_eq!(memento_chunked.clock().clamped(), clock.clamped());
        assert_estimates_equal(
            &memento_chunked,
            &manual,
            "chunked vs per-packet observe schedule (τ < 1)",
        );
    }
}

/// The sharded engines at N ∈ {1, 2, 4}: replaying a timed trace through
/// `record_timed` (one engine `skip` over each same-grain run's rotations,
/// then one `update_batch` over the run's items) answers bit-for-bit like
/// the same engine driven on the manual rotation schedule through
/// gap-stamped `update_batch_positioned` calls — for the exact
/// window, WCSS, and Memento at τ < 1. The exact engines additionally
/// match the single-threaded timed reference, tying the sharded time plane
/// to ground truth.
#[test]
fn sharded_timed_replay_matches_positioned_schedule() {
    let window = 900usize;
    let map = GrainMap::new(450, window as u64, 16);
    let raw: Vec<(u64, u64)> = (0..4_000u64)
        .map(|i| (i * 7 % 10, i * 31 % UNIVERSE))
        .collect();
    let packets = decode_timed(&raw, map.grain_span());
    let chunk = 997usize;

    // Single-threaded exact reference on the same schedule.
    let mut reference = TimedWindow::new(ExactWindow::<u64>::new(window), map);
    for &(t, key) in &packets {
        reference.record_at(key, t);
    }

    /// One engine type through both drives: `record_timed` vs the manual
    /// clock replica issuing identical chunked positioned calls.
    fn run_one<E, F>(
        make: F,
        map: GrainMap,
        packets: &[(u64, u64)],
        chunk: usize,
        context: &str,
    ) -> TimedWindow<u64, E>
    where
        E: SlidingWindowEstimator<u64>,
        F: Fn() -> E,
    {
        let mut timed = TimedWindow::new(make(), map);
        for part in packets.chunks(chunk) {
            timed.record_timed(part);
        }
        let mut manual = make();
        let mut clock = GrainClock::new(map);
        let mut position = manual.processed();
        for part in packets.chunks(chunk) {
            let mut gaps = Vec::with_capacity(part.len());
            let mut keys = Vec::with_capacity(part.len());
            for &(t, key) in part {
                let n = clock.observe(t, position);
                gaps.push(n);
                keys.push(key);
                position += n + 1;
            }
            manual.update_batch_positioned(&gaps, &keys);
        }
        assert_eq!(
            timed.position(),
            position,
            "{context}: position mirror diverged"
        );
        assert_estimates_equal(
            &timed,
            &manual,
            &format!("{context}: timed vs positioned schedule"),
        );
        timed
    }

    for shards in [1usize, 2, 4] {
        let timed_exact = run_one(
            || ShardedEstimator::exact(shards, window),
            map,
            &packets,
            chunk,
            &format!("exact@{shards}"),
        );
        assert_estimates_equal(
            &timed_exact,
            &reference,
            &format!("exact@{shards}: sharded vs single-threaded"),
        );
        run_one(
            || ShardedEstimator::wcss(shards, 32, window),
            map,
            &packets,
            chunk,
            &format!("wcss@{shards}"),
        );
        run_one(
            || ShardedEstimator::memento(shards, 32, window, 0.25, 7),
            map,
            &packets,
            chunk,
            &format!("memento@{shards}"),
        );
    }
}

/// Idle gaps longer than the whole window must land on the O(1)
/// wholesale-clear path — observed through the `whole_window_advances`
/// hook (the time plane's `freeze_rounds`-style diagnostic counter) and
/// through the emptied state on both the grained window and the oracle.
#[test]
fn idle_gap_outrunning_the_ring_takes_the_wholesale_clear() {
    let map = GrainMap::new(100, 400, 8);
    let mut timed = TimedWindow::new(ExactWindow::<u64>::new(400), map);
    let mut oracle = ExactTimedWindow::new(100);
    for i in 0..300u64 {
        timed.record_at(i % 5, 10 + i % 3);
        oracle.add_at(i % 5, 10 + i % 3);
    }
    assert_eq!(timed.whole_window_advances(), 0);
    assert!(timed.estimate(&1) > 0.0);
    // Sleep for forty windows: one observation, ≥ W rotations, one clear.
    timed.advance_to(4_000);
    oracle.advance_to(4_000);
    assert_eq!(timed.whole_window_advances(), 1);
    assert_eq!(timed.estimate(&1), 0.0);
    assert_eq!(oracle.occupancy(), 0);
    // The cleared window keeps working: a fresh record is queryable.
    timed.record_at(7, 4_001);
    assert_eq!(timed.estimate(&7), 1.0);
}

/// Grain-boundary off-by-ones at `grains_per_window` ∈ {1, 8, 64}: with an
/// exactly divisible geometry, an entry recorded at the very start of a
/// grain is still present when the clock reaches `t + D` (expiry is never
/// early, at most one grain late) and gone one grain later.
#[test]
fn grain_boundary_off_by_ones_across_grain_counts() {
    for grains in [1u64, 8, 64] {
        let span = 16u64;
        let ticks = grains * span; // D, exactly divisible
        let positions = grains * 4; // W, exactly divisible: ppg = 4
        let map = GrainMap::new(ticks, positions, grains);
        assert_eq!(map.grain_span(), span);
        assert_eq!(map.positions_per_grain(), 4);

        let mut timed = TimedWindow::new(ExactWindow::<u64>::new(positions as usize), map);
        timed.record_at(42, 0);
        // One tick before a full window: always present.
        timed.advance_to(ticks - 1);
        assert_eq!(timed.estimate(&42), 1.0, "expired early at g = {grains}");
        // Exactly one window later: the quantized expiry may lag one grain,
        // so the entry is still (just) visible…
        timed.advance_to(ticks);
        assert_eq!(
            timed.estimate(&42),
            1.0,
            "quantized expiry ran early at g = {grains}"
        );
        // …and one grain past that it must be gone.
        timed.advance_to(ticks + span);
        assert_eq!(
            timed.estimate(&42),
            0.0,
            "expiry more than one grain late at g = {grains}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// PR 8 residual: maintaining a [`DeltaWindow`] by applying every
    /// `freeze_delta` patch stays bit-for-bit with the live window across
    /// time-advances — including advances whose rotations trigger the
    /// frame-flush / whole-structure-clear rebuild degradation of the
    /// journal (`skip` past the window), previously untested under the
    /// time plane.
    #[test]
    fn freeze_delta_survives_time_advance_rebuilds(
        raw in prop::collection::vec((0u64..10, 0u64..UNIVERSE), 150..600),
        tau_sel in 0u32..2,
    ) {
        let window = 180usize;
        // A coarse map (few grains over a short tick window) so routine
        // advances regularly rotate whole frames and idle jumps clear the
        // structure outright.
        let map = GrainMap::new(64, window as u64, 4);
        let packets = decode_timed(&raw, map.grain_span());
        let tau = if tau_sel == 0 { 1.0 } else { 0.25 };
        let mut timed = TimedWindow::new(Memento::new(16, window, tau, 5), map);
        let mut delta = DeltaWindow::empty(WindowQuery::name(&timed));
        for (i, &(t, key)) in packets.iter().enumerate() {
            timed.record_at(key, t);
            if i % 41 == 0 {
                delta.apply(&timed.freeze_delta());
                assert_estimates_equal(&delta, &timed, "delta vs live mid-stream");
                prop_assert_eq!(delta.processed(), WindowQuery::processed(&timed));
            }
        }
        // A terminal idle gap past the whole window: the rebuild patch
        // after the wholesale clear must leave the delta view empty too.
        let quiet = timed.clock().last_tick() + 40 * map.window_ticks();
        timed.advance_to(quiet);
        delta.apply(&timed.freeze_delta());
        assert_estimates_equal(&delta, &timed, "delta vs live after idle clear");
        prop_assert_eq!(delta.processed(), WindowQuery::processed(&timed));
        prop_assert!(timed.whole_window_advances() >= 1);
    }
}

/// Deterministic pin of the journal-invalidation path: a mid-size
/// time-advance whose rotations flush frames (without clearing the whole
/// structure) must degrade the next patch to a correct rebuild.
#[test]
fn freeze_delta_pins_frame_flush_rebuild_under_advance() {
    let window = 240usize;
    let map = GrainMap::new(120, window as u64, 8);
    let mut timed = TimedWindow::new(Wcss::new(12, window), map);
    let mut delta = DeltaWindow::empty(WindowQuery::name(&timed));
    for i in 0..400u64 {
        timed.record_at(i % 7, i / 4);
    }
    delta.apply(&timed.freeze_delta());
    assert_estimates_equal(&delta, &timed, "baseline");
    // Advance most of a window in one observation: enough rotations to
    // flush frames and invalidate the journal, not enough to clear.
    let t = timed.clock().last_tick() + map.window_ticks() - 2 * map.grain_span();
    timed.advance_to(t);
    assert!(
        timed.estimate(&1) > 0.0,
        "advance should not clear everything"
    );
    delta.apply(&timed.freeze_delta());
    assert_estimates_equal(&delta, &timed, "after frame-flush advance");
    // And repeat across the wholesale clear for completeness.
    timed.advance_to(t + 50 * map.window_ticks());
    delta.apply(&timed.freeze_delta());
    assert_estimates_equal(&delta, &timed, "after wholesale clear");
}
