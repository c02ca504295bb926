//! Every workload driver at a tiny size: the metric catalog, the drivers
//! and `BENCHMARK.json` must agree, and every correctness check must pass.

use membench::{
    run, Outcome, RunOptions, Scale, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};
use memento_bench::gate::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(
        workload,
        &Scale::tiny(),
        &RunOptions {
            seed,
            seconds: 0.0,
            trace,
        },
    )
}

#[test]
fn the_catalog_is_what_benchmark_json_declares() {
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), catalog(&END_TO_END));
    assert_eq!(declared("per_layer"), catalog(&PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = tiny(workload, DEFAULT_SEED, trace);
            let name = workload.name();
            assert!(
                outcome.checks.failures.is_empty(),
                "{name} (trace {trace}): {:?}",
                outcome.checks.failures
            );
            assert!(outcome.checks.attempted > 0, "{name} ran no checks");
            assert_eq!(
                reported(&outcome),
                declared(section),
                "{name} (trace {trace})"
            );
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            let line = Json::parse(&outcome.result_line()).expect("the result line is JSON");
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        }
    }
}

#[test]
fn seeds_change_the_inputs_but_not_the_metrics_reported() {
    for workload in Workload::ALL {
        let a = tiny(workload, DEFAULT_SEED, false);
        let b = tiny(workload, HELD_OUT_SEED, false);
        let digest = |o: &Outcome| {
            o.details
                .iter()
                .find(|(k, _)| k == "input_digest")
                .map(|(_, v)| v.clone())
                .expect("input digest")
        };
        assert_ne!(
            digest(&a),
            digest(&b),
            "{}: same input for both seeds",
            workload.name()
        );
        assert_eq!(digest(&a), digest(&tiny(workload, DEFAULT_SEED, false)));
        assert_eq!(reported(&a), reported(&b));
        assert!(b.checks.failures.is_empty(), "{:?}", b.checks.failures);
    }
}
