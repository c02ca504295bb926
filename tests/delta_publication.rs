//! Differential tests of the PR 8 incremental freeze path.
//!
//! The contract under test: maintaining a [`DeltaWindow`] by applying every
//! [`freeze_delta`](WindowQuery::freeze_delta) patch in call order answers
//! **bit-for-bit** the same queries as the live estimator at the same
//! instant — estimates, heavy-hitter sets *including order*, untracked
//! estimates, stream positions and error bounds. Exercised across window
//! rotations, closed-form `skip(n)` (including whole-window clears),
//! evictions and backward-shift deletions, for Memento (τ < 1), WCSS
//! (τ = 1), the exact window and Space Saving.

use memento::sketches::SpaceSaving;
use memento::traits::{Ingest, SlidingWindowEstimator};
use memento::{DeltaWindow, WindowQuery};
use proptest::prelude::*;

/// Case count, honoring the nightly fuzz job's `PROPTEST_CASES` (the
/// vendored proptest stand-in has no built-in env support, so the suite
/// reads it directly; the PR-gating default stays low).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Key universe shared by all generators: small enough that per-checkpoint
/// full-universe estimate comparison is cheap, large enough to force
/// eviction and overflow churn in the tiny summaries below.
const UNIVERSE: u64 = 40;

/// One step of a generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Record one packet of the flow.
    Update(u64),
    /// Advance the window over `n` foreign packets (closed-form skip).
    Skip(u64),
}

/// Decodes generated `(key, kind)` pairs into a workload: one in nine steps
/// becomes a skip (length derived from the key, up to `max_skip`), the rest
/// record the key. Kept as a decode step because the vendored proptest
/// stand-in has no `prop_map`.
fn decode_ops(raw: &[(u64, u64)], max_skip: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(key, kind)| {
            if kind == 0 {
                Op::Skip((key * 41 + kind) % max_skip + 1)
            } else {
                Op::Update(key)
            }
        })
        .collect()
}

/// Asserts the delta-maintained view answers like the live estimator, bit
/// for bit, on every observable query.
fn assert_bitwise_equal(delta: &DeltaWindow<u64>, full: &impl WindowQuery<u64>, at: usize) {
    for key in 0..UNIVERSE {
        assert_eq!(
            delta.estimate(&key).to_bits(),
            full.estimate(&key).to_bits(),
            "estimate diverges for key {key} at op {at}: delta {} full {}",
            delta.estimate(&key),
            full.estimate(&key),
        );
    }
    assert_eq!(
        delta.untracked_estimate().to_bits(),
        full.untracked_estimate().to_bits(),
        "untracked estimate diverges at op {at}"
    );
    assert_eq!(delta.processed(), full.processed(), "position at op {at}");
    assert_eq!(
        delta.error_bound().to_bits(),
        full.error_bound().to_bits(),
        "error bound at op {at}"
    );
    // Heavy hitters: the full list at several thresholds must match
    // element-wise — same keys, same bit patterns, same ORDER (this is what
    // exercises the tie-breaking ranks).
    for threshold in [0.0, 1.0, 30.0, 1_000.0] {
        let d = delta.heavy_hitters(threshold);
        let f = full.heavy_hitters(threshold);
        assert_eq!(
            d.len(),
            f.len(),
            "hh cardinality at threshold {threshold}, op {at}"
        );
        for (i, ((dk, dv), (fk, fv))) in d.iter().zip(&f).enumerate() {
            assert_eq!(
                (dk, dv.to_bits()),
                (fk, fv.to_bits()),
                "hh[{i}] diverges at threshold {threshold}, op {at}"
            );
        }
    }
}

/// Drives an estimator through the workload, checkpointing every
/// `checkpoint_every` ops: apply the incremental patch to the persistent
/// `DeltaWindow`, compare it with the estimator bit-for-bit.
fn run_differential<E: SlidingWindowEstimator<u64>>(
    est: &mut E,
    ops: &[Op],
    checkpoint_every: usize,
) {
    let mut delta = DeltaWindow::empty(est.name());
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Update(key) => est.update(key),
            Op::Skip(n) => est.skip(n),
        }
        if i % checkpoint_every == 0 {
            delta.apply(&est.freeze_delta());
            assert_bitwise_equal(&delta, est, i);
        }
    }
    delta.apply(&est.freeze_delta());
    assert_bitwise_equal(&delta, est, ops.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Memento (τ < 1): geometric sampling, overflow retirement, frame
    /// flushes and closed-form skips — the skip bound exceeds the window so
    /// whole-structure clears (rebuild patches) are reachable.
    #[test]
    fn memento_delta_freeze_matches_full_freeze(
        raw in prop::collection::vec((0u64..UNIVERSE, 0u64..9), 200..700),
        window in 64usize..300,
    ) {
        let ops = decode_ops(&raw, 400);
        let mut est = memento::Memento::new(32, window, 0.25, 42);
        run_differential(&mut est, &ops, 37);
    }

    /// WCSS (τ = 1, deterministic) with deliberately few counters: constant
    /// summary eviction plus overflow-table removals exercising the
    /// backward-shift deletion journal.
    #[test]
    fn wcss_delta_freeze_matches_full_freeze(
        raw in prop::collection::vec((0u64..UNIVERSE, 0u64..9), 200..700),
        window in 48usize..200,
    ) {
        let ops = decode_ops(&raw, 300);
        let mut est = memento::Wcss::new(8, window);
        run_differential(&mut est, &ops, 23);
    }

    /// Exact windows: per-key removal on expiry, whole-ring clears on big
    /// skips, table growth (all-dirty rebuilds).
    #[test]
    fn exact_delta_freeze_matches_full_freeze(
        raw in prop::collection::vec((0u64..UNIVERSE, 0u64..9), 200..700),
        window in 32usize..256,
    ) {
        let ops = decode_ops(&raw, 500);
        let mut est = memento::sketches::ExactWindow::new(window);
        run_differential(&mut est, &ops, 29);
    }
}

/// Space Saving (interval semantics, `skip` is a no-op): evictions at a
/// tiny capacity plus explicit flushes, which must degrade the next patch
/// to a rebuild.
#[test]
fn space_saving_delta_freeze_matches_full_freeze() {
    let mut est: SpaceSaving<u64> = SpaceSaving::new(8);
    let mut delta = DeltaWindow::empty(WindowQuery::name(&est));
    for round in 0..6 {
        for i in 0..500u64 {
            // Skewed keys so the summary churns through its 8 slots.
            let key = (i * i * (round + 1)) % UNIVERSE;
            Ingest::update(&mut est, key);
            if i % 61 == 0 {
                delta.apply(&est.freeze_delta());
                assert_bitwise_equal(&delta, &est, (round * 500 + i) as usize);
            }
        }
        // Interval boundary: everything resets; the next patch must rebuild.
        est.flush();
        delta.apply(&est.freeze_delta());
        assert_bitwise_equal(&delta, &est, usize::MAX);
    }
}

/// The provided (journal-free) `freeze_delta` always rebuilds: applying
/// any of its patches to an empty `DeltaWindow` must reproduce the
/// instance. The exact window has no native override, so it exercises the
/// default path.
#[test]
fn default_freeze_delta_rebuilds_faithfully() {
    let mut est = memento::sketches::ExactWindow::new(100);
    for i in 0..250u64 {
        est.add(i % 9);
    }
    for _ in 0..2 {
        let patch = est.freeze_delta();
        assert!(patch.rebuild, "default impl must rebuild");
        let mut delta = DeltaWindow::empty(est.name());
        delta.apply(&patch);
        assert_bitwise_equal(&delta, &est, 0);
    }
}
