//! The benchmark command.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric as `name = value unit`, then workload details as
//! `# key: value` lines, and finally one line of JSON with `correct`,
//! `attempted`, `failed` and the metrics. The full report, including the
//! spans of a traced run, goes to
//! `$CARGO_TARGET_DIR/membench/<workload>-seed<N>-trace<0|1>.json`
//! (`target/` when the variable is unset).

use std::path::PathBuf;
use std::process::ExitCode;

use membench::{one_line, run, Outcome, RunOptions, Scale, Workload, DEFAULT_SEED};
use memento_bench::gate::Json;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Workload, RunOptions), String> {
    let mut workload = None;
    let mut options = RunOptions {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds.is_finite() && options.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, options))
}

fn report(outcome: &Outcome, options: &RunOptions) -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        (
            "workload".to_string(),
            Json::Str(outcome.workload.name().to_string()),
        ),
        ("seed".to_string(), Json::Num(options.seed as f64)),
        ("seconds".to_string(), Json::Num(options.seconds)),
        ("trace".to_string(), Json::Bool(options.trace)),
        ("cpus".to_string(), Json::Num(cpus as f64)),
        (
            "attempted".to_string(),
            Json::Num(outcome.checks.attempted as f64),
        ),
        (
            "failures".to_string(),
            Json::Arr(
                outcome
                    .checks
                    .failures
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("metrics".to_string(), outcome.metrics_json()),
        ("details".to_string(), Json::Obj(outcome.details.clone())),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(workload, &Scale::benchmark(), &options);

    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &outcome.details {
        if key != "spans" {
            println!("# {key}: {}", one_line(value));
        }
    }
    for failure in &outcome.checks.failures {
        eprintln!("benchmark: check failed: {failure}");
    }

    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("membench");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        options.seed,
        u8::from(options.trace)
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report(&outcome, &options).render()))
    {
        Ok(()) => eprintln!("benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }

    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
