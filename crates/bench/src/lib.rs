//! # memento-bench
//!
//! Benchmark and figure-regeneration harness for the Memento reproduction.
//!
//! Each figure of the paper's evaluation has a dedicated binary under
//! `src/bin/` that prints the same series the paper plots as CSV on stdout
//! (the repository README's "Reproducing the paper's figures" lists them,
//! and `crates/bench/EXPERIMENTS.md` records the results). The Criterion benches under `benches/` measure the
//! speed comparisons (Figures 5–7) with statistical rigor.
//!
//! All harnesses run at a laptop-friendly scale by default; pass `--full`
//! (or set `MEMENTO_FULL=1`) to use the paper-scale parameters (windows of
//! millions of packets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use std::hash::Hash;
use std::time::Instant;

use memento_baselines::ExactWindowHhh;
use memento_core::traits::{HhhAlgorithm, Ingest, SlidingWindowEstimator};
use memento_core::TimedWindow;
use memento_hierarchy::Hierarchy;
use memento_sketches::{ExactTimedWindow, ExactWindow};
use memento_traces::{ArrivalModel, Packet, TraceGenerator, TracePreset};

/// True when the harness should run at paper scale (`--full` argument or
/// `MEMENTO_FULL` set to a truthy value — `MEMENTO_FULL=0` explicitly stays
/// at laptop scale).
pub fn full_scale() -> bool {
    full_scale_from(
        std::env::args(),
        std::env::var("MEMENTO_FULL").ok().as_deref(),
    )
}

/// Pure core of [`full_scale`]: decides from an argument list and the value
/// of `MEMENTO_FULL` (if set). The env var is truthy unless it is one of the
/// usual falsy spellings — a seed-era bug treated *any* set value,
/// including `0`, as paper scale.
pub fn full_scale_from<I: IntoIterator<Item = String>>(args: I, var: Option<&str>) -> bool {
    args.into_iter().any(|a| a == "--full") || var.map(is_truthy).unwrap_or(false)
}

/// The workspace's one truthiness rule for environment toggles
/// (`MEMENTO_FULL`, `PERF_GATE_SKIP_*`): everything is truthy except the
/// usual falsy spellings (empty, `0`, `false`, `no`, `off`,
/// case-insensitive, surrounding whitespace ignored).
pub fn is_truthy(value: &str) -> bool {
    !matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "" | "0" | "false" | "no" | "off"
    )
}

/// Picks between the laptop-scale and paper-scale value of a parameter.
pub fn scaled(small: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        small
    }
}

/// The τ sweep used by the paper's speed/accuracy figures: 2⁰ … 2⁻¹⁰.
pub fn tau_sweep() -> Vec<f64> {
    (0..=10).map(|i| 2f64.powi(-i)).collect()
}

/// The counter configurations of Figure 5.
pub const COUNTER_SWEEP: [usize; 3] = [64, 512, 4096];

/// Pre-generates a packet trace for a preset.
pub fn make_trace(preset: &TracePreset, packets: usize, seed: u64) -> Vec<Packet> {
    let mut gen = TraceGenerator::new(preset.clone(), seed);
    gen.generate(packets)
}

/// Measures the throughput of `run` over `packets` items and returns
/// million packets per second.
pub fn measure_mpps<F: FnMut()>(packets: usize, mut run: F) -> f64 {
    let start = Instant::now();
    run();
    let elapsed = start.elapsed().as_secs_f64();
    packets as f64 / elapsed / 1e6
}

// ---------------------------------------------------------------------------
// Generic drivers. Every figure harness drives its algorithms through these,
// so adding an algorithm to a comparison means implementing a trait, not
// writing another per-algorithm loop.
// ---------------------------------------------------------------------------

/// Per-packet update throughput of any [`Ingest`] implementor — a flow
/// estimator or an HHH algorithm — in million packets per second.
pub fn measure_update_mpps<T: Clone>(algorithm: &mut dyn Ingest<T>, items: &[T]) -> f64 {
    measure_mpps(items.len(), || {
        for item in items {
            algorithm.update(item.clone());
        }
    })
}

/// Batched update throughput of a flow estimator (drives the
/// `update_batch` fast path), in million packets per second. The timed
/// region ends with a `processed()` barrier: for an asynchronous engine
/// (the sharded estimator) that forces in-flight batches to drain, so the
/// number reflects completed work; for single-threaded estimators it is a
/// field read.
pub fn measure_estimator_batch_mpps<K: Clone>(
    estimator: &mut dyn SlidingWindowEstimator<K>,
    keys: &[K],
) -> f64 {
    measure_mpps(keys.len(), || {
        estimator.update_batch(keys);
        let _ = estimator.processed();
    })
}

/// The paper's On Arrival error model for flow estimators: before each
/// probed arrival, the arriving packet's flow is estimated and compared
/// against an exact sliding window of `window` packets. The first `window`
/// packets warm up; afterwards every `probe_every`-th arrival is scored.
pub fn on_arrival_rmse<K: Eq + Hash + Clone>(
    estimator: &mut dyn SlidingWindowEstimator<K>,
    keys: &[K],
    window: usize,
    probe_every: usize,
) -> Rmse {
    assert!(probe_every > 0, "probe interval must be positive");
    let mut exact = ExactWindow::new(window);
    let mut rmse = Rmse::new();
    for (n, key) in keys.iter().enumerate() {
        if n > window && n % probe_every == 0 {
            rmse.record(estimator.estimate(key), exact.query(key) as f64);
        }
        estimator.update(key.clone());
        exact.add(key.clone());
    }
    rmse
}

/// The On Arrival error model on the time plane (the gate's
/// `bursty-replay` row): before each probed arrival the arriving packet's
/// flow is estimated from the grain-mapped [`TimedWindow`] and compared
/// against an [`ExactTimedWindow`] oracle spanning the same `window_ticks`
/// — the true timestamp-eviction window the grain clock quantizes.
/// Arrivals inside the first `window_ticks` of the clock warm up;
/// afterwards every `probe_every`-th arrival is scored. `arrivals` is a
/// `(nanos, flow)` sequence, monotone non-decreasing in time.
pub fn on_arrival_rmse_timed<E: SlidingWindowEstimator<u64>>(
    timed: &mut TimedWindow<u64, E>,
    arrivals: &[(u64, u64)],
    probe_every: usize,
) -> Rmse {
    assert!(probe_every > 0, "probe interval must be positive");
    let window_ticks = timed.clock().map().window_ticks();
    let mut oracle: ExactTimedWindow<u64> = ExactTimedWindow::new(window_ticks);
    let mut rmse = Rmse::new();
    for (n, &(t, key)) in arrivals.iter().enumerate() {
        if t > window_ticks && n % probe_every == 0 {
            oracle.advance_to(t);
            let exact = oracle.query(&key) as f64;
            rmse.record(timed.query_at(t).estimate(&key), exact);
        }
        timed.record_at(key, t);
        oracle.add_at(key, t);
    }
    rmse
}

/// Stamps a packet trace with the gate's `bursty-replay` arrival clock: the
/// first half arrives as idle-gap/flood bursts (stressing the wholesale
/// clear and the schedule-overrun re-anchor), the second half as a diurnal
/// fast/slow rate rotation, with the second segment's clock continuing from
/// the end of the first. Returns monotone `(nanos, flow)` arrivals.
pub fn stamp_bursty_then_diurnal(
    packets: &[Packet],
    bursty: ArrivalModel,
    diurnal: ArrivalModel,
    seed: u64,
) -> Vec<(u64, u64)> {
    let mid = packets.len() / 2;
    let (front, back) = packets.split_at(mid);
    let mut arrivals: Vec<(u64, u64)> = bursty
        .stamp(front, seed)
        .iter()
        .map(|tp| (tp.nanos, tp.packet.flow()))
        .collect();
    let offset = arrivals.last().map_or(0, |&(t, _)| t);
    arrivals.extend(
        diurnal
            .stamp(back, seed.wrapping_add(1))
            .iter()
            .map(|tp| (offset.saturating_add(tp.nanos), tp.packet.flow())),
    );
    arrivals
}

/// On Arrival error for HHH algorithms, per prefix level: before each probed
/// arrival, every algorithm estimates each of the arriving packet's
/// prefixes against an exact sliding window of `window` packets. Interval
/// algorithms ([`Ingest::is_interval`]) are reset every `window`
/// packets, as in §6.3.1. Returns one `Vec<Rmse>` (indexed by prefix level)
/// per algorithm, in input order.
pub fn on_arrival_hhh_rmse<Hi: Hierarchy>(
    hier: &Hi,
    algorithms: &mut [&mut dyn HhhAlgorithm<Hi>],
    items: &[Hi::Item],
    window: usize,
    probe_every: usize,
) -> Vec<Vec<Rmse>>
where
    Hi::Prefix: Hash,
{
    assert!(probe_every > 0, "probe interval must be positive");
    let h = hier.h();
    let mut oracle = ExactWindowHhh::new(hier.clone(), window);
    let mut rmse = vec![vec![Rmse::new(); h]; algorithms.len()];
    for (n, &item) in items.iter().enumerate() {
        if n > window && n % probe_every == 0 {
            for level in 0..h {
                let prefix = hier.prefix_at(item, level);
                let exact = oracle.frequency(&prefix) as f64;
                for (alg, acc) in algorithms.iter().zip(rmse.iter_mut()) {
                    acc[level].record(alg.estimate(&prefix), exact);
                }
            }
        }
        for alg in algorithms.iter_mut() {
            alg.update(item);
        }
        oracle.update(item);
        if (n + 1) % window == 0 {
            for alg in algorithms.iter_mut() {
                if alg.is_interval() {
                    alg.reset_interval();
                }
            }
        }
    }
    rmse
}

/// Prints a CSV header line.
pub fn csv_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Prints one CSV row from string-able cells.
pub fn csv_row(cells: &[String]) {
    println!("{}", cells.join(","));
}

/// Root-mean-square error accumulator (same semantics as the paper's
/// on-arrival RMSE).
#[derive(Debug, Clone, Default)]
pub struct Rmse {
    sum_sq: f64,
    n: u64,
}

impl Rmse {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Rmse::default()
    }

    /// Records one (estimate, exact) pair.
    pub fn record(&mut self, estimate: f64, exact: f64) {
        let d = estimate - exact;
        self.sum_sq += d * d;
        self.n += 1;
    }

    /// The RMSE over everything recorded (0 when empty).
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq / self.n as f64).sqrt()
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_sweep_spans_paper_range() {
        let sweep = tau_sweep();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0], 1.0);
        assert!((sweep[10] - 2f64.powi(-10)).abs() < 1e-12);
    }

    #[test]
    fn scaled_picks_by_mode() {
        // In the test environment --full is not set.
        assert_eq!(scaled(10, 1000), 10);
    }

    #[test]
    fn full_scale_honors_falsy_env_values() {
        let no_args = Vec::<String>::new();
        // Unset, and every falsy spelling: laptop scale.
        assert!(!full_scale_from(no_args.clone(), None));
        for falsy in ["", "0", "false", "no", "off", " 0 ", "FALSE", "Off"] {
            assert!(!full_scale_from(no_args.clone(), Some(falsy)), "{falsy:?}");
        }
        // Any other value: paper scale.
        for truthy in ["1", "true", "yes", "on", "2", "full"] {
            assert!(full_scale_from(no_args.clone(), Some(truthy)), "{truthy:?}");
        }
        // --full wins regardless of the env var.
        let args = vec!["bin".to_string(), "--full".to_string()];
        assert!(full_scale_from(args, Some("0")));
    }

    #[test]
    fn rmse_math() {
        let mut r = Rmse::new();
        r.record(2.0, 0.0);
        r.record(0.0, 2.0);
        assert_eq!(r.count(), 2);
        assert!((r.value() - 2.0).abs() < 1e-12);
        assert_eq!(Rmse::new().value(), 0.0);
    }

    #[test]
    fn make_trace_produces_requested_length() {
        let t = make_trace(&TracePreset::tiny(), 1000, 1);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn measure_mpps_is_positive() {
        let mut acc = 0u64;
        let mpps = measure_mpps(10_000, || {
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i);
            }
        });
        assert!(mpps > 0.0);
        assert!(acc > 0);
    }

    #[test]
    fn generic_estimator_drivers_process_every_packet() {
        use memento_core::{Memento, WindowQuery};
        let keys: Vec<u64> = make_trace(&TracePreset::tiny(), 5_000, 2)
            .iter()
            .map(Packet::flow)
            .collect();
        let mut memento: Memento<u64> = Memento::new(64, 2_000, 0.5, 1);
        let mpps = measure_update_mpps(&mut memento, &keys);
        assert!(mpps > 0.0);
        assert_eq!(WindowQuery::processed(&memento), 5_000);
        let mut batched: Memento<u64> = Memento::new(64, 2_000, 0.5, 1);
        let mpps = measure_estimator_batch_mpps(&mut batched, &keys);
        assert!(mpps > 0.0);
        assert_eq!(WindowQuery::processed(&batched), 5_000);
    }

    #[test]
    fn stamp_bursty_then_diurnal_is_monotone_and_complete() {
        let pkts = make_trace(&TracePreset::tiny(), 1_000, 9);
        let arrivals = stamp_bursty_then_diurnal(
            &pkts,
            ArrivalModel::Bursty {
                burst_len: 100,
                flood_gap_nanos: 50,
                idle_nanos: 100_000,
            },
            ArrivalModel::Diurnal {
                fast_gap_nanos: 50,
                slow_gap_nanos: 5_000,
                period: 100,
            },
            9,
        );
        assert_eq!(arrivals.len(), pkts.len());
        assert!(arrivals.windows(2).all(|w| w[0].0 <= w[1].0));
        // The keys are the trace's flows, in order.
        assert!(arrivals
            .iter()
            .zip(&pkts)
            .all(|(&(_, flow), p)| flow == p.flow()));
        // Stamping is deterministic.
        let again = stamp_bursty_then_diurnal(
            &pkts,
            ArrivalModel::Bursty {
                burst_len: 100,
                flood_gap_nanos: 50,
                idle_nanos: 100_000,
            },
            ArrivalModel::Diurnal {
                fast_gap_nanos: 50,
                slow_gap_nanos: 5_000,
                period: 100,
            },
            9,
        );
        assert_eq!(arrivals, again);
    }

    #[test]
    fn timed_on_arrival_rmse_stays_within_the_quantization_sandwich() {
        // One key every 10 ticks; 100 grains of span 10 over a 1000-tick
        // window with one position per grain, so the provisioning exactly
        // matches the arrival rate (no schedule overrun). The grained
        // estimate then stays within a couple of grains of the time
        // oracle, bounding the RMSE by the quantization alone.
        let arrivals: Vec<(u64, u64)> = (1..=2_000u64).map(|i| (i * 10, 42)).collect();
        let mut timed = TimedWindow::with_grains(ExactWindow::new(100), 1_000, 100, 100);
        let rmse = on_arrival_rmse_timed(&mut timed, &arrivals, 7);
        assert!(rmse.count() > 0);
        assert!(
            rmse.value() <= 4.0,
            "quantization error blew up: {}",
            rmse.value()
        );
    }

    #[test]
    fn on_arrival_rmse_is_zero_for_an_exact_estimator() {
        let keys: Vec<u64> = make_trace(&TracePreset::tiny(), 4_000, 3)
            .iter()
            .map(Packet::flow)
            .collect();
        let mut exact: ExactWindow<u64> = ExactWindow::new(1_000);
        let rmse = on_arrival_rmse(&mut exact, &keys, 1_000, 10);
        assert!(rmse.count() > 0);
        assert_eq!(rmse.value(), 0.0);
    }

    #[test]
    fn hhh_driver_scores_all_algorithms_and_resets_interval_ones() {
        use memento_baselines::Mst;
        use memento_core::HMemento;
        use memento_hierarchy::SrcHierarchy;
        let hier = SrcHierarchy;
        let items: Vec<u32> = make_trace(&TracePreset::tiny(), 6_000, 5)
            .iter()
            .map(|p| p.src)
            .collect();
        let window = 2_000;
        let mut hm = HMemento::new(hier, 512, window, 1.0, 0.01, 1);
        let mut mst = Mst::new(hier, 128);
        let rmse = on_arrival_hhh_rmse(
            &hier,
            &mut [&mut hm as &mut dyn HhhAlgorithm<_>, &mut mst],
            &items,
            window,
            20,
        );
        assert_eq!(rmse.len(), 2);
        assert_eq!(rmse[0].len(), hier.h());
        assert!(rmse[0][0].count() > 0);
        // The interval algorithm was reset at each window boundary, so its
        // interval only covers the tail of the trace.
        assert!(Mst::processed(&mst) < items.len() as u64);
        // The exact-by-construction /0 root estimate of MST right after a
        // reset is small, but every algorithm was scored the same number of
        // times.
        assert_eq!(rmse[0][0].count(), rmse[1][0].count());
    }
}
