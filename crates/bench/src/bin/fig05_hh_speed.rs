//! Figure 5 (a, c, e) — single-device heavy-hitter update speed vs the
//! sampling probability τ, for 64/512/4096 counters, on the three traces.
//!
//! WCSS corresponds to the τ = 1 column. Every algorithm runs behind the
//! generic [`measure_update_mpps`] driver; the batched column shows the
//! geometric-skip `update_batch` fast path on the same instance
//! configuration. Output: CSV of million packets per second per
//! (trace, counters, τ, path).
//!
//! ```text
//! cargo run -p memento-bench --release --bin fig05_hh_speed [--full]
//! ```

use memento_bench::{
    csv_header, csv_row, make_trace, measure_estimator_batch_mpps, measure_update_mpps, scaled,
    tau_sweep, COUNTER_SWEEP,
};
use memento_core::Memento;
use memento_shard::ShardedEstimator;
use memento_traces::{Packet, TracePreset};

fn main() {
    let packets = scaled(300_000, 16_000_000);
    let window = scaled(100_000, 5_000_000);

    eprintln!("# Figure 5 (speed): N={packets}, W={window}; tau=1 is WCSS");
    csv_header(&["trace", "counters", "tau_exponent", "tau", "path", "mpps"]);

    for preset in TracePreset::all() {
        let flows: Vec<u64> = make_trace(&preset, packets, 11)
            .iter()
            .map(Packet::flow)
            .collect();
        for &counters in &COUNTER_SWEEP {
            for (i, &tau) in tau_sweep().iter().enumerate() {
                let mut memento: Memento<u64> = Memento::new(counters, window, tau, 5);
                let mpps = measure_update_mpps(&mut memento, &flows);
                csv_row(&[
                    preset.name.to_string(),
                    counters.to_string(),
                    format!("-{i}"),
                    format!("{tau:.6}"),
                    "per_packet".to_string(),
                    format!("{mpps:.2}"),
                ]);
                let mut memento: Memento<u64> = Memento::new(counters, window, tau, 5);
                let mpps = measure_estimator_batch_mpps(&mut memento, &flows);
                csv_row(&[
                    preset.name.to_string(),
                    counters.to_string(),
                    format!("-{i}"),
                    format!("{tau:.6}"),
                    "batched".to_string(),
                    format!("{mpps:.2}"),
                ]);
                // The multi-core engine behind the same trait and the same
                // generic driver (sharded rows only at the largest counter
                // config to keep the sweep's runtime in check).
                if counters == COUNTER_SWEEP[COUNTER_SWEEP.len() - 1] {
                    for shards in [2usize, 4] {
                        let mut sharded: ShardedEstimator<u64> =
                            ShardedEstimator::memento(shards, counters, window, tau, 5);
                        let mpps = measure_estimator_batch_mpps(&mut sharded, &flows);
                        csv_row(&[
                            preset.name.to_string(),
                            counters.to_string(),
                            format!("-{i}"),
                            format!("{tau:.6}"),
                            format!("sharded-{shards}"),
                            format!("{mpps:.2}"),
                        ]);
                    }
                }
            }
        }
    }
}
