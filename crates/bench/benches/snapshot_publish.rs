//! Freeze-and-merge cost of the snapshot query plane: full rebuilds (PR 7)
//! vs incremental delta publication (PR 8).
//!
//! One publication under the PR 7 plane cost `O(k)` per shard regardless
//! of what changed: it enumerated and sorted every tracked key and built a
//! fresh lookup table from them. The delta plane freezes a [`WindowPatch`]
//! covering only the slots dirtied since the previous freeze and folds it
//! onto a persistent [`DeltaWindow`], so publication cost tracks the
//! *churn*, not the summary size.
//!
//! Each `dirty_*` row performs the same work between measurements — touch
//! `fraction × k` distinct monitored keys — and then pays its plane's
//! publication cost:
//!
//! * `full_freeze_*` — a [`WindowPatch::rebuild`] of `heavy_hitters(0.0)`
//!   applied to a fresh [`DeltaWindow`]: the full-rebuild unit of work;
//! * `delta_freeze_*` — `freeze_delta()` + `DeltaWindow::apply` + the O(1)
//!   structural-sharing clone a publication retains: the PR 8 unit.
//!
//! Swept over k ∈ {1k, 4k, 16k} counters at 1%, 10% and 100% dirty. The
//! honest crossover (where the patch covers so much of the summary that a
//! rebuild is cheaper) is recorded in `crates/bench/EXPERIMENTS.md` §PR 8.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use memento_core::{DeltaWindow, Wcss, WindowPatch, WindowQuery};

/// Counter budgets swept (the gate's 4_096 in the middle).
const COUNTERS: [usize; 3] = [1_024, 4_096, 16_384];

/// Fractions of the counter budget touched between publications.
const DIRTY: [(f64, &str); 3] = [(0.01, "1pct"), (0.10, "10pct"), (1.0, "100pct")];

/// A deterministic WCSS (τ = 1) with `k` counters, warmed until all `k`
/// summary slots are populated and the window is in steady state.
fn warmed(k: usize) -> Wcss<u64> {
    let mut est = Wcss::new(k, 8 * k);
    // 4× the counter budget of distinct keys: the summary churns through
    // its slots and the overflow table holds real entries. Deliberately
    // 1.75 windows of warmup — ending mid-frame, NOT at a frame boundary,
    // so the summary is full when measurement starts (a frame boundary
    // flushes it, which would make the "full" freeze artificially cheap).
    let warm = 8 * k + 6 * k;
    let keys: Vec<u64> = (0..warm as u64).map(|i| (i * i) % (4 * k as u64)).collect();
    est.as_memento_mut().update_batch(&keys);
    est
}

/// The keys touched between two publications: `n` *distinct* flows drawn
/// from the hot half of the universe, so they hit monitored summary slots
/// (marking them dirty) rather than churning through eviction.
fn touch_set(k: usize, fraction: f64) -> Vec<u64> {
    let n = ((k as f64 * fraction) as usize).max(1);
    (0..n as u64).map(|i| (i * 2) % (2 * k as u64)).collect()
}

fn bench_snapshot_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_publish");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    for k in COUNTERS {
        for (fraction, label) in DIRTY {
            let touches = touch_set(k, fraction);
            group.throughput(Throughput::Elements(touches.len() as u64));

            // Full-rebuild unit: touch, then rebuild the frozen view from scratch —
            // O(k) no matter how little changed.
            group.bench_function(format!("full_freeze_k{k}_dirty_{label}"), |b| {
                let mut est = warmed(k);
                b.iter(|| {
                    est.as_memento_mut().update_batch(&touches);
                    let mut view = DeltaWindow::empty(WindowQuery::name(&est));
                    view.apply(&WindowPatch::rebuild(
                        WindowQuery::heavy_hitters(&est, 0.0),
                        est.untracked_estimate(),
                        WindowQuery::processed(&est),
                        est.error_bound(),
                    ));
                    view.tracked()
                })
            });

            // PR 8 unit: touch, then freeze only the dirtied slots and
            // fold the patch onto the persistent merged view. The clone
            // models what a publication retains in the snapshot pointer.
            group.bench_function(format!("delta_freeze_k{k}_dirty_{label}"), |b| {
                let mut est = warmed(k);
                let mut view: DeltaWindow<u64> = DeltaWindow::empty(WindowQuery::name(&est));
                view.apply(&est.freeze_delta());
                b.iter(|| {
                    est.as_memento_mut().update_batch(&touches);
                    view.apply(&est.freeze_delta());
                    let snapshot = view.clone();
                    snapshot.tracked()
                })
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_snapshot_publish);
criterion_main!(benches);
