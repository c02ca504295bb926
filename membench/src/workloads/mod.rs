//! The four workloads: their inputs, engines, plane rungs, accuracy
//! harnesses and checks, and the run that turns them into metrics.

use std::hash::Hash;
use std::time::{Duration, Instant};

use memento_bench::gate::Json;
use memento_core::WindowQuery;
use memento_sketches::fasthash::hash_one;

use crate::drive::{repeat, Collector, Engine, Spec, MIN_ROUNDS};
use crate::ladder::{round_robin, Pass, Rung};
use crate::sketch::SketchStack;
use crate::stats::{
    fastest_total, interquartile_mean, median, percentile, quartiles, self_cost, tail_percentile,
};
use crate::trace::Tracer;
use crate::{catalog_metrics, Checks, Outcome, RunOptions, Scale, Workload, END_TO_END, PER_LAYER};

mod bb;
mod dc;
mod lb;

/// Space-Saving counters of every sketch in the benchmark.
const COUNTERS: usize = 4_096;

/// The accuracy harness scores every this-many-th arrival.
const PROBE_EVERY: usize = 101;

/// Spans the traced run can hold.
const SPAN_CAPACITY: usize = 1 << 17;

const MIB: f64 = (1u64 << 20) as f64;

/// Runs `workload` at `scale` under `options` (see [`crate::run`]).
pub fn run(workload: Workload, scale: &Scale, options: &RunOptions) -> Outcome {
    let seed = options.seed;
    let start = Instant::now();
    match workload {
        Workload::DcCount => {
            let bench = dc::DcCount::new(scale, seed);
            measure(workload, &bench, start.elapsed(), options)
        }
        Workload::DcSharded => {
            let bench = dc::DcSharded::new(scale, seed);
            measure(workload, &bench, start.elapsed(), options)
        }
        Workload::BbTimed => {
            let bench = bb::BbTimed::new(scale, seed);
            measure(workload, &bench, start.elapsed(), options)
        }
        Workload::LbFlood => {
            let bench = lb::LbFlood::new(scale, seed);
            measure(workload, &bench, start.elapsed(), options)
        }
    }
}

/// What the run needs from a workload beyond the driver's [`Spec`].
trait Bench: Spec {
    /// The rung the plane rung stands on: the sketch, unless the plane does
    /// not push every item through a sketch.
    const PLANE_ON: &'static str = "memento";

    /// The key stream and sketch configuration of the ladder's lower rungs.
    fn sketch(&self) -> SketchStack<'_>;

    /// One pass of the workload's ingest plane without reads, publications
    /// or sweeps: the rung between the sketch and the full workload.
    fn plane(&self) -> Pass;

    /// On-arrival RMSE of the workload's estimates against an exact oracle.
    fn rmse(&self, summary: &Self::Summary) -> f64;

    /// Workload-specific checks of the summary.
    fn verify(&self, _summary: &Self::Summary, _checks: &mut Checks) {}

    /// Workload-specific numbers for the report.
    fn details(&self, _summary: &Self::Summary) -> Vec<(String, Json)> {
        Vec::new()
    }

    /// A digest of the generated input (differs between seeds).
    fn input_digest(&self) -> u64;
}

fn measure<B: Bench>(
    workload: Workload,
    bench: &B,
    generate: Duration,
    options: &RunOptions,
) -> Outcome {
    let mut details = vec![
        (
            "input_digest".to_string(),
            Json::Str(format!("{:016x}", bench.input_digest())),
        ),
        ("timed_items".to_string(), num(bench.timed().len())),
    ];
    let (checks, metrics) = if options.trace {
        traced(bench, generate, options, &mut details)
    } else {
        untraced(bench, options, &mut details)
    };
    Outcome {
        workload,
        checks,
        metrics,
        details,
    }
}

/// The end-to-end run: repetitions of the closed loop, then the untimed
/// accuracy harness.
fn untraced<B: Bench>(
    bench: &B,
    options: &RunOptions,
    details: &mut Vec<(String, Json)>,
) -> (Checks, Vec<crate::Metric>) {
    let (passes, mut collector) = repeat(bench, options.seconds);
    let summary = collector.settle().expect("at least one repetition");
    bench.verify(&summary, &mut collector.checks);
    let rmse = bench.rmse(&summary);
    let mpps: Vec<f64> = passes.iter().map(Pass::mitems_per_s).collect();
    let items = bench.timed().len() as f64;
    let ingest_mpps = items * 1e3 / fastest_total(&collector.log.segments);
    details.push(("repetitions".to_string(), num(passes.len())));
    details.push(("ingest_mpps_samples".to_string(), nums(&mpps)));
    details.push(("ingest_mpps_quartiles".to_string(), nums(&quartiles(&mpps))));
    details.push(("setup_s_samples".to_string(), nums(&collector.setup_s)));
    log_details(&collector, details);
    details.extend(bench.details(&summary));
    let values = [
        ("ingest_mpps", ingest_mpps),
        ("setup_s", median(&collector.setup_s)),
        ("space_mb", collector.space_bytes as f64 / MIB),
        ("rmse", rmse),
    ];
    (collector.checks, catalog_metrics(&END_TO_END, &values))
}

/// The traced run: the layer ladder, round-robin, with the workload itself
/// as the top rung both untraced and traced.
fn traced<B: Bench>(
    bench: &B,
    generate: Duration,
    options: &RunOptions,
    details: &mut Vec<(String, Json)>,
) -> (Checks, Vec<crate::Metric>) {
    let stack = bench.sketch();
    let mut top = Collector::default();
    let mut traced_top = Collector::default();
    let mut untraced = Tracer::disabled();
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let (names, passes) = {
        let mut rungs = stack.rungs();
        rungs.push(Rung::new("plane", || bench.plane()));
        rungs.push(Rung::new("top", || top.repetition(bench, &mut untraced)));
        rungs.push(Rung::new("top_traced", || {
            traced_top.repetition(bench, &mut tracer)
        }));
        let names: Vec<&str> = rungs.iter().map(|r| r.name).collect();
        let passes = round_robin(
            &mut rungs,
            Duration::from_secs_f64(options.seconds),
            MIN_ROUNDS,
        );
        (names, passes)
    };
    // Each rung's fastest pass: interference from other tenants only ever
    // adds time (see `fastest_total`).
    let ns: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.iter()
                .map(Pass::ns_per_item)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let rung = |name: &str| ns[names.iter().position(|n| *n == name).expect("rung exists")];

    let summary = top.settle();
    let traced_summary = traced_top.settle();
    let mut checks = std::mem::take(&mut top.checks);
    checks.attempted += traced_top.checks.attempted;
    checks.failures.append(&mut traced_top.checks.failures);
    if let (Some(a), Some(b)) = (&summary, &traced_summary) {
        checks.check(a == b, || {
            "tracing changed the workload's results".to_string()
        });
        bench.verify(a, &mut checks);
    }

    let ingest_us: Vec<f64> = tracer
        .durations(<B::Engine as Engine>::INGEST)
        .iter()
        .map(|d| d / 1e3)
        .collect();
    let query_ns: Vec<f64> = tracer
        .durations(<B::Engine as Engine>::READ)
        .iter()
        .map(|d| d / crate::drive::READS as f64)
        .collect();
    details.push(("rungs".to_string(), rung_details(&names, &passes)));
    details.push(("ingest_spans".to_string(), num(ingest_us.len())));
    details.push(("read_spans".to_string(), num(query_ns.len())));
    details.push(("dropped_spans".to_string(), num(tracer.dropped() as usize)));
    details.push((
        "rep_self_us".to_string(),
        nums(
            &crate::trace::self_times(tracer.spans())
                .iter()
                .zip(tracer.spans())
                .filter(|(_, s)| s.name == "rep")
                .map(|(t, _)| *t as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
    ));
    details.push(("spans".to_string(), tracer.to_json()));
    log_details(&traced_top, details);

    let values = [
        ("traces.generate_s", generate.as_secs_f64()),
        ("floor_ns", rung("floor")),
        (
            "fasthash.self_ns",
            self_cost(rung("fasthash"), 1.0, rung("floor")),
        ),
        (
            "compact_map.self_ns",
            self_cost(rung("compact_map"), 1.0, rung("fasthash")),
        ),
        ("compact_map.probe_len_mean", stack.probe_len_mean()),
        (
            "space_saving.self_ns",
            self_cost(rung("space_saving"), 1.0, rung("compact_map")),
        ),
        ("space_saving.hit_frac", stack.hit_frac()),
        (
            "memento.self_ns",
            self_cost(rung("memento"), stack.tau(), rung("space_saving")),
        ),
        ("memento.full_frac", stack.full_frac()),
        (
            "plane.self_ns",
            self_cost(rung("plane"), 1.0, rung(B::PLANE_ON)),
        ),
        ("serve.self_ns", self_cost(rung("top"), 1.0, rung("plane"))),
        ("ladder.top_ns", rung("top")),
        (
            "trace.overhead_pct",
            (rung("top_traced") / rung("top") - 1.0) * 100.0,
        ),
        ("span.ingest_p50_us", percentile(&ingest_us, 50.0)),
        ("span.ingest_p99_us", percentile(&ingest_us, 99.0)),
        ("query_ns", interquartile_mean(&top.log.read_ns)),
        ("span.query_p90_ns", percentile(&query_ns, 90.0)),
    ];
    (checks, catalog_metrics(&PER_LAYER, &values))
}

fn rung_details(names: &[&str], passes: &[Vec<Pass>]) -> Json {
    Json::Obj(
        names
            .iter()
            .zip(passes)
            .map(|(name, p)| {
                let ns: Vec<f64> = p.iter().map(Pass::ns_per_item).collect();
                (name.to_string(), nums(&quartiles(&ns)))
            })
            .collect(),
    )
}

/// Publication, staleness and read numbers, for the engines that have them.
fn log_details<T>(collector: &Collector<T>, details: &mut Vec<(String, Json)>) {
    let log = &collector.log;
    let us: Vec<f64> = log.publish_ns.iter().map(|n| n / 1e3).collect();
    tail_details("publish", "us", &us, details);
    let kitems: Vec<f64> = log.staleness.iter().map(|n| n / 1e3).collect();
    tail_details("staleness", "kitems", &kitems, details);
    tail_details("query", "ns", &log.read_ns, details);
}

/// Reports `values` as `<name>_samples`, `<name>_p50_<unit>` and
/// `<name>_p<tail>_<unit>`, the highest percentile with ten samples beyond
/// it. A percentile landing on an infinite value (a miss) reads `null`.
fn tail_details(name: &str, unit: &str, values: &[f64], details: &mut Vec<(String, Json)>) {
    if values.is_empty() {
        return;
    }
    let at = |p: f64| {
        let v = percentile(values, p);
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    };
    details.push((format!("{name}_samples"), num(values.len())));
    details.push((format!("{name}_p50_{unit}"), at(50.0)));
    if let Some(tail) = tail_percentile(values.len()).filter(|&p| p > 50.0) {
        details.push((format!("{name}_p{tail}_{unit}"), at(tail)));
    }
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn digest<T: Hash>(items: impl IntoIterator<Item = T>) -> u64 {
    items
        .into_iter()
        .fold(0u64, |acc, item| hash_one(&(acc, item)))
}

/// Digest of the heavy hitters above 1% of the window, to compare
/// repetitions bit for bit.
fn hh_digest(query: &dyn WindowQuery<u64>, window: usize) -> u64 {
    digest(
        query
            .heavy_hitters(window as f64 / 100.0)
            .into_iter()
            .map(|(k, e)| (k, e.to_bits())),
    )
}
