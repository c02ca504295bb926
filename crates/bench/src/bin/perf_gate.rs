//! The CI performance gate: a deterministic, laptop-scale throughput and
//! accuracy smoke harness.
//!
//! Measures update throughput (million packets per second) and on-arrival
//! RMSE for a matrix of algorithm × shard-count configurations on a
//! synthetic Zipf trace — including the `publish-heavy` row, which pins the
//! snapshot-publication cadence to every shipped batch to bound the cost of
//! the delta publication plane — writes the result as machine-readable JSON
//! (`BENCH_pr.json`, schema in `memento_bench::gate`), and fails when
//!
//! * a configuration's throughput regressed beyond the noise tolerance
//!   against the committed baseline,
//! * the sharded engine no longer scales (the 4-shard Memento falls below
//!   2× the single-core throughput, checked only when the host has ≥ 4
//!   cores so CI containers with tiny CPU quotas don't flap), or
//! * sharded accuracy blows up on the skewed workload (schema v2): a
//!   sharded configuration's on-arrival RMSE exceeding 2× its single-shard
//!   reference means the global-position windows regressed to the old
//!   `W/N` under-coverage failure mode, or
//! * a replay row — the trace replayed *at recorded timestamps* through the
//!   grain-mapped `TimedWindow<Memento>`, on two arrival clocks: the
//!   `bursty-replay` worst case (idle-gap floods, then a diurnal rotation)
//!   and the `dense-replay` steady state (uniform at-rate arrivals, zero
//!   wholesale clears — the regime PR 10's chunked `record_timed` hoist
//!   targets) — drifts beyond its bound against the exact time-window
//!   oracle (grain-quantization reference + sketch error headroom).
//!
//! The machine-speed calibration figure that normalizes baseline
//! comparisons is the median of three runs of the fixed integer workload.
//!
//! When `GITHUB_STEP_SUMMARY` is set (GitHub Actions), the gate verdict is
//! also appended there as markdown.
//!
//! Usage: `perf_gate [--full] [--write-baseline] [--output PATH]
//! [--baseline PATH]`. Environment: `PERF_GATE_TOLERANCE` (fractional
//! regression tolerance, default 0.30), `PERF_GATE_SKIP_BASELINE=1`,
//! `PERF_GATE_SKIP_SPEEDUP=1`. Refresh the baseline on a quiet machine with
//! `cargo run --release --bin perf_gate -- --write-baseline`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use memento_bench::gate::{
    calibration_mops, check_rmse_blowup, compare_throughput, GateReport, GateRow,
    GATE_SCHEMA_VERSION,
};
use memento_bench::{
    full_scale, make_trace, measure_mpps, on_arrival_rmse, on_arrival_rmse_timed, scaled,
    stamp_bursty_then_diurnal,
};
use memento_core::traits::SlidingWindowEstimator;
use memento_core::{Memento, TimedWindow, Wcss, WindowQuery};
use memento_shard::{PublishPolicy, ShardedEstimator};
use memento_sketches::ExactWindow;
use memento_traces::{ArrivalModel, Packet, TracePreset};

/// Packet-burst size fed to `update_batch` (a NIC-burst-like unit, same for
/// every configuration so the comparison is fair).
const CHUNK: usize = 4_096;

/// Throughput passes per configuration; the best pass is reported (the
/// usual best-of-N discipline for wall-clock microbenchmarks).
const PASSES: usize = 3;

/// Shard counts measured for the sharded engine.
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// Maximum sharded-vs-single on-arrival RMSE ratio on the skewed workload
/// (the schema-v2 accuracy rule): global-position windows keep sharded
/// accuracy at the single-shard level, so 2× is generous headroom — the
/// old count-based `W/N` windows sat at ~27×.
const RMSE_BLOWUP_LIMIT: f64 = 2.0;

/// Grains of the `bursty-replay` row's [`TimedWindow`] — the production
/// default resolution (the load balancer uses 64 as well).
const REPLAY_GRAINS: u64 = 64;

/// Mean inter-arrival gap inside a flood, in nanoseconds. The row's time
/// window is `REPLAY_FLOOD_GAP_NANOS × W` ticks, so a sustained flood
/// arrives at exactly the provisioned positions-per-grain rate — the
/// boundary where the grain schedule is fully loaded but overruns stay
/// within jitter.
const REPLAY_FLOOD_GAP_NANOS: u64 = 100;

struct GateConfig {
    packets: usize,
    window: usize,
    counters: usize,
    tau: f64,
    accuracy_packets: usize,
    probe_every: usize,
    seed: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let output_path = flag_value(&args, "--output").unwrap_or_else(|| "BENCH_pr.json".to_string());
    let baseline_path = flag_value(&args, "--baseline")
        .unwrap_or_else(|| "crates/bench/baselines/perf_gate_baseline.json".to_string());

    let full = full_scale();
    let config = GateConfig {
        packets: scaled(1_500_000, 30_000_000),
        window: scaled(100_000, 1_000_000),
        counters: 4_096,
        tau: 0.25,
        accuracy_packets: scaled(300_000, 3_000_000),
        probe_every: 101,
        seed: 2018,
    };

    let preset = TracePreset::datacenter();
    eprintln!(
        "perf_gate: generating {} packets of the {} preset (seed {})...",
        config.packets, preset.name, config.seed
    );
    let packets = make_trace(&preset, config.packets, config.seed);
    let keys: Vec<u64> = packets.iter().map(Packet::flow).collect();
    let accuracy_keys = &keys[..config.accuracy_packets.min(keys.len())];

    let mut rows = Vec::new();

    // Single-core references.
    rows.push(measure_row(
        &config,
        &preset,
        1,
        config.tau,
        &keys,
        accuracy_keys,
        || {
            Box::new(Memento::new(
                config.counters,
                config.window,
                config.tau,
                config.seed,
            ))
        },
    ));
    rows.push(measure_row(
        &config,
        &preset,
        1,
        1.0,
        &keys,
        accuracy_keys,
        || Box::new(Wcss::new(config.counters, config.window)),
    ));

    // The sharded engine across the shard sweep: every shard keeps a full
    // `W` global-position window with the full counter budget, so the
    // sharded rows are directly comparable (same error bound) to the
    // single-core references.
    for &shards in &SHARD_SWEEP {
        rows.push(measure_row(
            &config,
            &preset,
            shards,
            config.tau,
            &keys,
            accuracy_keys,
            || {
                Box::new(ShardedEstimator::memento(
                    shards,
                    config.counters,
                    config.window,
                    config.tau,
                    config.seed,
                ))
            },
        ));
    }
    for &shards in &SHARD_SWEEP[1..] {
        rows.push(measure_row(
            &config,
            &preset,
            shards,
            1.0,
            &keys,
            accuracy_keys,
            || {
                Box::new(ShardedEstimator::wcss(
                    shards,
                    config.counters,
                    config.window,
                ))
            },
        ));
    }

    // The PR 7 query-plane row: the 4-shard Memento ingesting at full tilt
    // while 4 snapshot readers hammer `estimate` concurrently.
    rows.push(measure_readers_row(&config, &preset, &keys));

    // The PR 8 delta-publication row: the 4-shard Memento publishing a
    // snapshot after *every* shipped batch.
    rows.push(measure_publish_heavy_row(&config, &preset, &keys));

    // The PR 9 time-plane row: the same trace replayed at recorded
    // timestamps (idle-gap floods, then a diurnal rotation) through a
    // grain-mapped `TimedWindow<Memento>`.
    let (replay_row, replay_quant_rmse) = measure_bursty_replay_row(&config, &packets);
    rows.push(replay_row);

    // The PR 10 time-plane row: the same trace at uniform at-rate arrivals
    // — long same-grain runs, zero wholesale clears — through the identical
    // geometry, isolating the chunked `record_timed` steady state.
    let (dense_row, dense_quant_rmse) = measure_dense_replay_row(&config, &packets);
    rows.push(dense_row);

    let calibration = calibration_mops();
    eprintln!("perf_gate: calibration workload: {calibration:.0} mops single-core");

    let report = GateReport {
        schema_version: GATE_SCHEMA_VERSION,
        mode: if full { "full" } else { "laptop" }.to_string(),
        trace_preset: preset.name.to_string(),
        packets: config.packets,
        window: config.window,
        calibration_mops: calibration,
        rows,
    };

    println!("algorithm,shards,tau,mpps,on_arrival_rmse");
    for row in &report.rows {
        println!(
            "{},{},{},{:.3},{}",
            row.algorithm,
            row.shards,
            row.tau,
            row.mpps,
            row.on_arrival_rmse
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".to_string())
        );
    }

    std::fs::write(&output_path, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {output_path}: {e}"));
    eprintln!("perf_gate: wrote {output_path}");

    let mut failures = Vec::new();
    check_speedup(&report, &mut failures);
    check_reader_overhead(&report, &mut failures);
    check_replay_rmse(&report, "bursty-replay", replay_quant_rmse, &mut failures);
    check_replay_rmse(&report, "dense-replay", dense_quant_rmse, &mut failures);

    // Schema-v2 accuracy rule: sharded on-arrival RMSE must track the
    // single-shard reference on the skewed workload.
    let rmse_violations = check_rmse_blowup(&report, RMSE_BLOWUP_LIMIT);
    if rmse_violations.is_empty() {
        eprintln!(
            "perf_gate: sharded on-arrival RMSE within {RMSE_BLOWUP_LIMIT}x of the \
             single-shard references"
        );
    }
    failures.extend(rmse_violations);

    if write_baseline {
        if let Some(parent) = std::path::Path::new(&baseline_path).parent() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
        std::fs::write(&baseline_path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {baseline_path}: {e}"));
        eprintln!("perf_gate: refreshed baseline {baseline_path}");
    } else if env_truthy("PERF_GATE_SKIP_BASELINE") {
        eprintln!("perf_gate: baseline comparison skipped (PERF_GATE_SKIP_BASELINE)");
    } else {
        compare_with_baseline(&report, &baseline_path, &mut failures);
    }

    write_step_summary(&report, &failures);
    if failures.is_empty() {
        eprintln!("perf_gate: PASS");
    } else {
        for failure in &failures {
            eprintln!("perf_gate: FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

/// Appends the gate verdict (and the measured matrix) to the GitHub
/// Actions step summary when `GITHUB_STEP_SUMMARY` points at a writable
/// file; silently does nothing elsewhere.
fn write_step_summary(report: &GateReport, failures: &[String]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::new();
    md.push_str(if failures.is_empty() {
        "## Perf gate: PASS ✅\n\n"
    } else {
        "## Perf gate: FAIL ❌\n\n"
    });
    for failure in failures {
        md.push_str(&format!("- **FAIL** {failure}\n"));
    }
    md.push_str(&format!(
        "\n{} rows, {} mode, {} preset, calibration {:.0} mops\n\n\
         | algorithm | shards | τ | mpps | on-arrival RMSE |\n|---|---|---|---|---|\n",
        report.rows.len(),
        report.mode,
        report.trace_preset,
        report.calibration_mops
    ));
    for row in &report.rows {
        md.push_str(&format!(
            "| {} | {} | {} | {:.2} | {} |\n",
            row.algorithm,
            row.shards,
            row.tau,
            row.mpps,
            row.on_arrival_rmse
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "—".to_string())
        ));
    }
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()))
    {
        eprintln!("perf_gate: could not write step summary {path}: {e}");
    }
}

/// Measures one configuration: best-of-N chunked `update_batch` throughput
/// plus on-arrival RMSE on the accuracy prefix of the trace.
fn measure_row(
    config: &GateConfig,
    preset: &TracePreset,
    shards: usize,
    tau: f64,
    keys: &[u64],
    accuracy_keys: &[u64],
    mut make: impl FnMut() -> Box<dyn SlidingWindowEstimator<u64>>,
) -> GateRow {
    let mut best = 0.0f64;
    let mut name = "";
    for _ in 0..PASSES {
        let mut estimator = make();
        name = estimator.name();
        let mpps = measure_mpps(keys.len(), || {
            for part in keys.chunks(CHUNK) {
                estimator.update_batch(part);
            }
            // Barrier: a sharded engine has in-flight batches until queried;
            // counting them inside the timed region keeps the comparison
            // honest. For single-threaded estimators this is a field read.
            assert_eq!(estimator.processed(), keys.len() as u64);
        });
        best = best.max(mpps);
    }
    let mut estimator = make();
    let rmse = on_arrival_rmse(
        estimator.as_mut(),
        accuracy_keys,
        config.window.min(accuracy_keys.len() / 3),
        config.probe_every,
    );
    eprintln!(
        "perf_gate: {name}@{shards} shards: {best:.2} mpps, on-arrival RMSE {:.2} over {} probes",
        rmse.value(),
        rmse.count()
    );
    GateRow {
        algorithm: name.to_string(),
        shards,
        tau,
        counters: config.counters,
        workload: preset.name.to_string(),
        mpps: best,
        on_arrival_rmse: Some(rmse.value()),
    }
}

/// Measures the `concurrent-readers` row: the 4-shard Memento's ingest
/// throughput while 4 [`SnapshotReader`] threads spin on `estimate`
/// against the published snapshots. The engine publishes every 16 shipped
/// batches, so the readers chew on a continuously-swapping epoch buffer —
/// the worst case for reader/publisher interference. Because the readers
/// never touch a worker FIFO or the router lock, and contend only with
/// each publication's pointer store, ingest should be nearly unaffected
/// (the `check_reader_overhead` rule).
///
/// [`SnapshotReader`]: memento_shard::SnapshotReader
fn measure_readers_row(config: &GateConfig, preset: &TracePreset, keys: &[u64]) -> GateRow {
    const READERS: usize = 4;
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let mut engine =
            ShardedEstimator::memento(4, config.counters, config.window, config.tau, config.seed)
                .with_policy(PublishPolicy {
                    every_batches: 16,
                    on_query: true,
                });
        let reader = engine.reader();
        let stop = Arc::new(AtomicBool::new(false));
        let guards: Vec<_> = (0..READERS)
            .map(|i| {
                let r = reader.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut acc = 0.0f64;
                    let mut key = i as u64;
                    while !stop.load(Ordering::Relaxed) {
                        acc += r.estimate(&key);
                        key = (key + 7) % 4_096;
                    }
                    acc
                })
            })
            .collect();
        let mpps = measure_mpps(keys.len(), || {
            for part in keys.chunks(CHUNK) {
                engine.update_batch(part);
            }
            assert_eq!(engine.processed(), keys.len() as u64);
        });
        stop.store(true, Ordering::Relaxed);
        for g in guards {
            let _ = g.join();
        }
        best = best.max(mpps);
    }
    eprintln!("perf_gate: concurrent-readers@4 shards + {READERS} readers: {best:.2} mpps");
    GateRow {
        algorithm: "concurrent-readers".to_string(),
        shards: 4,
        tau: config.tau,
        counters: config.counters,
        workload: preset.name.to_string(),
        mpps: best,
        on_arrival_rmse: None,
    }
}

/// Measures the `publish-heavy` row: the 4-shard Memento with
/// `every_batches = 1` — a snapshot publication after every shipped batch,
/// the densest cadence the policy supports. Under the PR 7 plane each
/// publication re-froze every shard's entire summary (O(k) per shard);
/// under the PR 8 delta plane it freezes only the slots dirtied since the
/// previous epoch and folds them onto the assembler's persistent views, so
/// this row isolates the cost of the publication machinery itself. The
/// RMSE column runs the same engine configuration through the on-arrival
/// harness, where `on_query` publications exercise the delta-built
/// snapshots' accuracy.
fn measure_publish_heavy_row(config: &GateConfig, preset: &TracePreset, keys: &[u64]) -> GateRow {
    let policy = PublishPolicy {
        every_batches: 1,
        on_query: true,
    };
    let make = || {
        Box::new(
            ShardedEstimator::memento(4, config.counters, config.window, config.tau, config.seed)
                .with_policy(policy),
        )
    };
    let mut best = 0.0f64;
    for _ in 0..PASSES {
        let mut engine = make();
        let mpps = measure_mpps(keys.len(), || {
            for part in keys.chunks(CHUNK) {
                engine.update_batch(part);
            }
            assert_eq!(engine.processed(), keys.len() as u64);
        });
        best = best.max(mpps);
    }
    let mut engine = make();
    let accuracy_keys = &keys[..config.accuracy_packets.min(keys.len())];
    let rmse = on_arrival_rmse(
        engine.as_mut(),
        accuracy_keys,
        config.window.min(accuracy_keys.len() / 3),
        config.probe_every,
    );
    eprintln!(
        "perf_gate: publish-heavy@4 shards (every_batches=1): {best:.2} mpps, \
         on-arrival RMSE {:.2} over {} probes",
        rmse.value(),
        rmse.count()
    );
    GateRow {
        algorithm: "publish-heavy".to_string(),
        shards: 4,
        tau: config.tau,
        counters: config.counters,
        workload: preset.name.to_string(),
        mpps: best,
        on_arrival_rmse: Some(rmse.value()),
    }
}

/// Measures the `bursty-replay` row: the trace replayed *at recorded
/// timestamps* through a grain-mapped `TimedWindow<Memento>`. The arrival
/// clock is the time plane's worst case — idle-gap/flood bursts for the
/// first half (each idle gap outruns the whole ring and takes the
/// wholesale-clear path; each flood loads the grain schedule to its
/// provisioned rate), then a diurnal fast/slow rotation spanning many
/// windows. Throughput drives [`TimedWindow::record_timed`] in
/// [`CHUNK`]-sized slices (the gap-stamped batch fast path); accuracy is
/// on-arrival RMSE against an exact *time*-window oracle over the same
/// span. Also returns the RMSE of a `TimedWindow<ExactWindow>` with the
/// identical geometry on the identical arrivals — the pure
/// grain-quantization error [`check_replay_rmse`] separates from the
/// sketch error.
fn measure_bursty_replay_row(config: &GateConfig, packets: &[Packet]) -> (GateRow, f64) {
    let window_positions = config.window as u64;
    let window_ticks = REPLAY_FLOOD_GAP_NANOS * window_positions;
    // Floods of W/4 packets separated by idle gaps of two full windows
    // (every gap clears the ring wholesale); the diurnal tail alternates
    // the provisioned rate with 1/16th of it every W/2 packets.
    let bursty = ArrivalModel::Bursty {
        burst_len: (window_positions / 4).max(1),
        flood_gap_nanos: REPLAY_FLOOD_GAP_NANOS,
        idle_nanos: 2 * window_ticks,
    };
    let diurnal = ArrivalModel::Diurnal {
        fast_gap_nanos: REPLAY_FLOOD_GAP_NANOS,
        slow_gap_nanos: 16 * REPLAY_FLOOD_GAP_NANOS,
        period: (window_positions / 2).max(1),
    };
    let arrivals = stamp_bursty_then_diurnal(packets, bursty, diurnal, config.seed);

    let make_timed = || {
        TimedWindow::with_grains(
            Memento::new(config.counters, config.window, config.tau, config.seed),
            window_ticks,
            window_positions,
            REPLAY_GRAINS,
        )
    };
    let mut best = 0.0f64;
    let mut clears = 0u64;
    for _ in 0..PASSES {
        let mut timed = make_timed();
        let mpps = measure_mpps(arrivals.len(), || {
            for part in arrivals.chunks(CHUNK) {
                timed.record_timed(part);
            }
        });
        best = best.max(mpps);
        clears = timed.whole_window_advances();
    }

    let accuracy_arrivals = &arrivals[..config.accuracy_packets.min(arrivals.len())];
    let mut timed = make_timed();
    let rmse = on_arrival_rmse_timed(&mut timed, accuracy_arrivals, config.probe_every);
    // The quantization reference: an exact count window behind the same
    // grain clock, so its only error against the time oracle is the grain
    // mapping itself.
    let mut quant_ref = TimedWindow::with_grains(
        ExactWindow::new(config.window),
        window_ticks,
        window_positions,
        REPLAY_GRAINS,
    );
    let quant_rmse =
        on_arrival_rmse_timed(&mut quant_ref, accuracy_arrivals, config.probe_every).value();
    eprintln!(
        "perf_gate: bursty-replay@1: {best:.2} mpps, on-arrival RMSE {:.2} over {} probes \
         (quantization reference {quant_rmse:.2}, {clears} wholesale clears)",
        rmse.value(),
        rmse.count()
    );
    (
        GateRow {
            algorithm: "bursty-replay".to_string(),
            shards: 1,
            tau: config.tau,
            counters: config.counters,
            workload: "bursty-replay".to_string(),
            mpps: best,
            on_arrival_rmse: Some(rmse.value()),
        },
        quant_rmse,
    )
}

/// Measures the `dense-replay` row (PR 10): the trace replayed at uniform
/// at-rate arrivals — one packet every [`REPLAY_FLOOD_GAP_NANOS`] ns mean,
/// so a grain holds its provisioned positions-per-grain packets and no gap
/// ever outruns the ring (zero wholesale clears). This is the steady state
/// the chunked [`TimedWindow::record_timed`] hoist targets: nearly every
/// packet is the tail of a same-grain run and pays one grain-end
/// comparison instead of a full `GrainClock::observe`. Geometry, chunking
/// and the accuracy harness are identical to the `bursty-replay` row, so
/// the pair brackets the time plane's arrival regimes. Returns the row and
/// the grain-quantization reference RMSE, as for the bursty row.
fn measure_dense_replay_row(config: &GateConfig, packets: &[Packet]) -> (GateRow, f64) {
    let window_positions = config.window as u64;
    let window_ticks = REPLAY_FLOOD_GAP_NANOS * window_positions;
    let arrivals: Vec<(u64, u64)> = ArrivalModel::Uniform {
        gap_nanos: REPLAY_FLOOD_GAP_NANOS,
    }
    .stamp(packets, config.seed)
    .iter()
    .map(|tp| (tp.nanos, tp.packet.flow()))
    .collect();

    let make_timed = || {
        TimedWindow::with_grains(
            Memento::new(config.counters, config.window, config.tau, config.seed),
            window_ticks,
            window_positions,
            REPLAY_GRAINS,
        )
    };
    let mut best = 0.0f64;
    let mut clears = 0u64;
    for _ in 0..PASSES {
        let mut timed = make_timed();
        let mpps = measure_mpps(arrivals.len(), || {
            for part in arrivals.chunks(CHUNK) {
                timed.record_timed(part);
            }
        });
        best = best.max(mpps);
        clears = timed.whole_window_advances();
    }
    assert_eq!(
        clears, 0,
        "dense-replay must never outrun the ring (uniform at-rate arrivals)"
    );

    let accuracy_arrivals = &arrivals[..config.accuracy_packets.min(arrivals.len())];
    let mut timed = make_timed();
    let rmse = on_arrival_rmse_timed(&mut timed, accuracy_arrivals, config.probe_every);
    let mut quant_ref = TimedWindow::with_grains(
        ExactWindow::new(config.window),
        window_ticks,
        window_positions,
        REPLAY_GRAINS,
    );
    let quant_rmse =
        on_arrival_rmse_timed(&mut quant_ref, accuracy_arrivals, config.probe_every).value();
    eprintln!(
        "perf_gate: dense-replay@1: {best:.2} mpps, on-arrival RMSE {:.2} over {} probes \
         (quantization reference {quant_rmse:.2}, {clears} wholesale clears)",
        rmse.value(),
        rmse.count()
    );
    (
        GateRow {
            algorithm: "dense-replay".to_string(),
            shards: 1,
            tau: config.tau,
            counters: config.counters,
            workload: "dense-replay".to_string(),
            mpps: best,
            on_arrival_rmse: Some(rmse.value()),
        },
        quant_rmse,
    )
}

/// The PR 9 acceptance check, generalized over the replay rows in PR 10:
/// a replay row's on-arrival RMSE must be bounded against the exact
/// time-window baseline. The timed Memento's error decomposes into
/// grain-quantization error (measured directly by the exact-inner
/// reference on the same clock) plus sketch error (tracked by the
/// count-based `memento@1` row); 3× headroom on the sketch term plus a
/// 5-packet absolute slack absorbs measurement noise.
fn check_replay_rmse(report: &GateReport, row: &str, quant_rmse: f64, failures: &mut Vec<String>) {
    let (Some(replay), Some(sketch_ref)) = (report.row(row, 1), report.row("memento", 1)) else {
        failures.push(format!(
            "replay RMSE check: {row}@1 or memento@1 row missing"
        ));
        return;
    };
    let (Some(rmse), Some(sketch_rmse)) = (replay.on_arrival_rmse, sketch_ref.on_arrival_rmse)
    else {
        failures.push(format!(
            "replay RMSE check ({row}): a required on_arrival_rmse is missing"
        ));
        return;
    };
    let ceiling = quant_rmse + 3.0 * sketch_rmse + 5.0;
    eprintln!(
        "perf_gate: {row} on-arrival RMSE {rmse:.1} vs ceiling {ceiling:.1} \
         (quantization {quant_rmse:.1} + 3x sketch {sketch_rmse:.1} + 5)"
    );
    if rmse > ceiling {
        failures.push(format!(
            "{row}@1 on-arrival RMSE {rmse:.1} exceeds the time-window bound \
             {ceiling:.1} (quantization reference {quant_rmse:.1}, count-based sketch \
             reference {sketch_rmse:.1})"
        ));
    }
}

/// The PR 7 acceptance check: with 4 concurrent snapshot readers, ingest
/// throughput must stay within 10% of the no-reader 4-shard Memento row.
/// Enforced from 8 cores up (4 workers + 4 readers genuinely in parallel);
/// below that the readers legitimately steal worker cycles and the check
/// would measure the scheduler, not the query plane. Skipped with
/// `PERF_GATE_SKIP_READERS=1`.
fn check_reader_overhead(report: &GateReport, failures: &mut Vec<String>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (Some(no_readers), Some(with_readers)) = (
        report.row("sharded-memento", 4),
        report.row("concurrent-readers", 4),
    ) else {
        failures.push(
            "reader overhead check: sharded-memento@4 or concurrent-readers@4 row missing"
                .to_string(),
        );
        return;
    };
    let ratio = with_readers.mpps / no_readers.mpps;
    eprintln!(
        "perf_gate: ingest with 4 readers at {:.2}x the no-reader throughput \
         ({:.2} / {:.2} mpps, {cores} cores)",
        ratio, with_readers.mpps, no_readers.mpps
    );
    if env_truthy("PERF_GATE_SKIP_READERS") {
        eprintln!("perf_gate: reader overhead check skipped (PERF_GATE_SKIP_READERS)");
    } else if cores < 8 {
        eprintln!("perf_gate: reader overhead check skipped (only {cores} cores available)");
    } else if ratio < 0.90 {
        failures.push(format!(
            "concurrent-readers@4 ingest dropped to {ratio:.2}x of the no-reader \
             throughput (need >= 0.90x)"
        ));
    }
}

/// The ISSUE-2 acceptance check: the 4-shard Memento must hold ≥ 2× the
/// single-core Memento throughput. Enforced from 4 cores up — the 4
/// workers then run genuinely in parallel (the feeding thread interleaves,
/// but it is a fraction of the per-packet work), and standard CI runners
/// have exactly 4 vCPUs, so the gate must bind there or it binds nowhere.
/// Skipped below 4 cores or with `PERF_GATE_SKIP_SPEEDUP=1`.
fn check_speedup(report: &GateReport, failures: &mut Vec<String>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (Some(single), Some(sharded)) =
        (report.row("memento", 1), report.row("sharded-memento", 4))
    else {
        failures.push("speedup check: memento@1 or sharded-memento@4 row missing".to_string());
        return;
    };
    let speedup = sharded.mpps / single.mpps;
    eprintln!(
        "perf_gate: sharded-memento@4 speedup vs single-core memento: {speedup:.2}x \
         ({:.2} / {:.2} mpps, {cores} cores)",
        sharded.mpps, single.mpps
    );
    if env_truthy("PERF_GATE_SKIP_SPEEDUP") {
        eprintln!("perf_gate: speedup check skipped (PERF_GATE_SKIP_SPEEDUP)");
    } else if cores < 4 {
        eprintln!("perf_gate: speedup check skipped (only {cores} cores available)");
    } else if speedup < 2.0 {
        failures.push(format!(
            "sharded-memento@4 is only {speedup:.2}x the single-core throughput (need >= 2x)"
        ));
    }
}

fn compare_with_baseline(report: &GateReport, baseline_path: &str, failures: &mut Vec<String>) {
    let tolerance = match std::env::var("PERF_GATE_TOLERANCE") {
        Err(_) => 0.30,
        Ok(raw) => match raw.parse::<f64>() {
            Ok(t) if (0.0..1.0).contains(&t) => t,
            _ => {
                failures.push(format!(
                    "PERF_GATE_TOLERANCE={raw:?} is not a fraction in [0, 1)"
                ));
                return;
            }
        },
    };
    match std::fs::read_to_string(baseline_path) {
        Err(e) => failures.push(format!(
            "no baseline at {baseline_path} ({e}); run with --write-baseline to create it \
             or set PERF_GATE_SKIP_BASELINE=1"
        )),
        Ok(text) => match GateReport::from_json(&text) {
            Err(e) => failures.push(format!("baseline {baseline_path} is invalid: {e}")),
            Ok(baseline) => {
                let violations = compare_throughput(report, &baseline, tolerance);
                if violations.is_empty() {
                    eprintln!(
                        "perf_gate: all {} baseline configurations within {:.0}% of {}",
                        baseline.rows.len(),
                        tolerance * 100.0,
                        baseline_path
                    );
                }
                failures.extend(violations);
            }
        },
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn env_truthy(name: &str) -> bool {
    std::env::var(name)
        .map(|v| memento_bench::is_truthy(&v))
        .unwrap_or(false)
}
