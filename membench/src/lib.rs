//! # membench
//!
//! The repository benchmark. One command runs one workload for a fixed
//! time and prints every metric by name and unit; see `README.md` in this
//! directory for the workloads, the metrics and how to read them.
//!
//! Every workload is a closed loop: one producer thread issues the next
//! call only after the previous one returns, so the figures are work
//! completed per second at a stated input size. Each repetition builds its
//! engine, warms it untimed, then times the rest of the input; the
//! repetitions of a run are timed back to back until the run's time budget
//! is spent. The benchmark only calls public items of the library crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod ladder;
mod sketch;
pub mod stats;
pub mod trace;
mod workloads;

use memento_bench::gate::Json;

/// Default seed of every generator (trace, flood, arrival stamps, sketch
/// RNG).
pub const DEFAULT_SEED: u64 = 2018;

/// The seed kept for checking a claimed gain on inputs the change was not
/// tuned on.
pub const HELD_OUT_SEED: u64 = 7;

/// The gated end-to-end metrics: name and unit. Every workload reports all
/// of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ingest_mpps", "Mitems/s"),
    ("setup_s", "s"),
    ("space_mb", "MiB"),
    ("rmse", "items"),
];

/// The per-layer metrics of the traced run: name and unit. Every workload
/// reports all of them.
pub const PER_LAYER: [(&str, &str); 17] = [
    ("traces.generate_s", "s"),
    ("floor_ns", "ns"),
    ("fasthash.self_ns", "ns"),
    ("compact_map.self_ns", "ns"),
    ("compact_map.probe_len_mean", "count"),
    ("space_saving.self_ns", "ns"),
    ("space_saving.hit_frac", "ratio"),
    ("memento.self_ns", "ns"),
    ("memento.full_frac", "ratio"),
    ("plane.self_ns", "ns"),
    ("serve.self_ns", "ns"),
    ("ladder.top_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("span.ingest_p50_us", "us"),
    ("span.ingest_p99_us", "us"),
    ("query_ns", "ns"),
    ("span.query_p90_ns", "ns"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Datacenter trace through a single-threaded `Memento::update_batch`.
    DcCount,
    /// The same trace and sketch behind a one-shard `ShardedEstimator`,
    /// with snapshot reads and publications beside the writes.
    DcSharded,
    /// Backbone trace at recorded timestamps through
    /// `TimedWindow<Memento>::record_timed`.
    BbTimed,
    /// The Figure 10 HTTP-flood defense: proxies, network-wide H-Memento
    /// controller, detection and mitigation.
    LbFlood,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 4] = [
        Workload::DcCount,
        Workload::DcSharded,
        Workload::BbTimed,
        Workload::LbFlood,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DcCount => "dc-count",
            Workload::DcSharded => "dc-sharded",
            Workload::BbTimed => "bb-timed",
            Workload::LbFlood => "lb-flood",
        }
    }

    /// The workload with command-line name `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of a run. [`Scale::benchmark`] is what the benchmark
/// measures; [`Scale::tiny`] lets tests drive every workload in moments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Datacenter-trace packets per repetition (dc-count, dc-sharded).
    pub dc_packets: usize,
    /// Count window `W` of the datacenter workloads.
    pub dc_window: usize,
    /// Backbone-trace packets per repetition (bb-timed).
    pub bb_packets: usize,
    /// Count window `W` of bb-timed; its time window is 100 ns × `W`.
    pub bb_window: usize,
    /// Network-wide window `W` of lb-flood; the flood starts at request `W`.
    pub lb_window: usize,
    /// Requests per lb-flood repetition.
    pub lb_requests: usize,
    /// Requests between lb-flood detection sweeps.
    pub lb_check_every: usize,
    /// Control bytes per request the lb-flood proxies may spend.
    pub lb_budget: f64,
    /// Independent datacenter streams (trace and sketch seeded apart) the
    /// untimed accuracy harness averages over.
    pub dc_accuracy_streams: usize,
}

impl Scale {
    /// The benchmark's sizes: the paper's window sizes and the Figure 10
    /// setup.
    pub fn benchmark() -> Scale {
        Scale {
            dc_packets: 16_000_000,
            dc_window: 100_000,
            bb_packets: 4_000_000,
            bb_window: 1_000_000,
            lb_window: 1_000_000,
            lb_requests: 4_000_000,
            lb_check_every: 10_000,
            lb_budget: 1.0,
            dc_accuracy_streams: 64,
        }
    }

    /// Sizes small enough for unit tests in a debug build. The flood
    /// budget is raised so detection still works at the small window.
    pub fn tiny() -> Scale {
        Scale {
            dc_packets: 60_000,
            dc_window: 5_000,
            bb_packets: 60_000,
            bb_window: 5_000,
            lb_window: 10_000,
            lb_requests: 40_000,
            lb_check_every: 500,
            lb_budget: 4.0,
            dc_accuracy_streams: 2,
        }
    }
}

/// How to run: the generators' seed, the measuring time, and whether this
/// is the traced run (per-layer metrics) or the untraced one (end-to-end
/// metrics).
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of every generator.
    pub seed: u64,
    /// Measuring time; at least three repetitions (or ladder rounds) run
    /// even when it is shorter.
    pub seconds: f64,
    /// Run the layer ladder with spans instead of the end-to-end loop.
    pub trace: bool,
}

/// Correctness checks of a run: how many ran and which failed.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks performed.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Number of failed checks.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name ([`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Unit, as in the catalog.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Correctness checks.
    pub checks: Checks,
    /// The catalog's metrics for this mode, in catalog order.
    pub metrics: Vec<Metric>,
    /// Further numbers for the report and the human-readable output
    /// (workload-specific results, sample counts, raw samples).
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// Every metric as `{name: {"value": v, "unit": u}}`.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Num(m.value)),
                            ("unit".to_string(), Json::Str(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The run's result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, as one line of JSON.
    pub fn result_line(&self) -> String {
        one_line(&Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(self.checks.failures.is_empty()),
            ),
            (
                "attempted".to_string(),
                Json::Num(self.checks.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(self.checks.failed() as f64)),
            ("metrics".to_string(), self.metrics_json()),
        ]))
    }
}

/// `json` on one line. `Json::render` pretty-prints; strings never hold a
/// raw newline (they are escaped), so joining the trimmed lines is still
/// valid JSON.
pub fn one_line(json: &Json) -> String {
    json.render().lines().map(str::trim_start).collect()
}

/// Runs `workload` at `scale` under `options`.
pub fn run(workload: Workload, scale: &Scale, options: &RunOptions) -> Outcome {
    workloads::run(workload, scale, options)
}

/// Builds the metric list for `catalog` from `(name, value)` pairs.
///
/// # Panics
/// Panics if a catalog metric has no value: the catalog and the drivers
/// must not drift apart.
pub(crate) fn catalog_metrics(
    catalog: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no value for metric {name}"))
                .1;
            Metric { name, unit, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn result_line_is_one_line_of_json() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        let outcome = Outcome {
            workload: Workload::DcCount,
            checks,
            metrics: vec![Metric {
                name: "ingest_mpps",
                unit: "Mitems/s",
                value: 12.345678901,
            }],
            details: Vec::new(),
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1.0));
        let metric = parsed.get("metrics").and_then(|m| m.get("ingest_mpps"));
        assert_eq!(
            metric.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(12.345678901)
        );
        assert_eq!(
            metric.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("Mitems/s")
        );
    }
}
