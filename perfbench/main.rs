//! `vgrid-perfbench`: run the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_churn --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.jsonl B.jsonl
//! ```
//!
//! Prints every metric as `workload name value unit`, appends one record
//! per run to `target/perfbench/results.jsonl`, writes traced runs'
//! spans to `target/perfbench/<workload>-seed<n>.trace.json`, and ends
//! with one JSON summary line. Exits nonzero when an output check fails.

#![forbid(unsafe_code)]

mod child;
mod runner;

use std::collections::BTreeSet;
use std::io::Write;
use std::process::ExitCode;
use vgrid_perfbench::compare::{self, RunRecord};
use vgrid_perfbench::spec::BenchSpec;
use vgrid_perfbench::{trace, Workload};
use vgrid_simobs::json;

const USAGE: &str =
    "usage: vgrid-perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n       \
                     vgrid-perfbench compare A.jsonl B.jsonl";

/// Where runs append their records and write their traces (relative to
/// the working directory, the repository root).
const OUT_DIR: &str = "target/perfbench";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String], spec: &BenchSpec) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

fn child_main(args: &[String]) -> ExitCode {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["ready"] => child::ready_probe(),
        ["batch", w, t] => match Workload::from_name(w) {
            Some(w) => child::batch(w, *t == "1"),
            None => return ExitCode::from(2),
        },
        ["serve"] => child::serve(),
        ["replay"] => child::replay(),
        ["probes"] => child::probes(),
        _ => return ExitCode::from(2),
    }
    ExitCode::SUCCESS
}

fn compare_main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::read_records(&t).map_err(|e| format!("{p}: {e}")))
    };
    match (read(a), read(b)) {
        (Ok(ra), Ok(rb)) => {
            let (text, bad) = compare::report(&BenchSpec::embedded(), &ra, &rb);
            print!("{text}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn bench_main(o: Options, spec: &BenchSpec) -> ExitCode {
    let defs = if o.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let expected: BTreeSet<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("{OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut summary = Vec::new();
    for w in &o.workloads {
        let mut r = match runner::run(*w, o.seed, o.seconds, o.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let emitted: BTreeSet<&str> = r.metrics.keys().map(String::as_str).collect();
        if emitted != expected {
            r.problems.push(format!(
                "emitted metrics {emitted:?} differ from BENCHMARK.json {expected:?}"
            ));
            r.failed = r.attempted;
        }
        for p in &r.problems {
            eprintln!("{}: check failed: {p}", w.name());
        }
        for d in defs {
            let v = r.metrics.get(&d.name).copied().unwrap_or(f64::NAN);
            println!("{} {} {} {}", w.name(), d.name, v, d.unit);
            let key = if o.workloads.len() == 1 {
                d.name.clone()
            } else {
                format!("{}.{}", w.name(), d.name)
            };
            summary.push((
                key,
                json::object(&[("value", json::number(v)), ("unit", json::string(&d.unit))]),
            ));
        }
        correct &= r.problems.is_empty();
        attempted += r.attempted;
        failed += r.failed;

        let record = RunRecord {
            workload: w.name().to_string(),
            seed: o.seed,
            trace: o.trace,
            correct: r.problems.is_empty(),
            digest: format!("{:016x}", r.digest),
            metrics: r.metrics,
        };
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{OUT_DIR}/results.jsonl"))
            .and_then(|mut f| writeln!(f, "{}", record.to_json()));
        if let Err(e) = appended {
            eprintln!("results.jsonl: {e}");
        }
        if o.trace {
            let path = format!("{OUT_DIR}/{}-seed{}.trace.json", w.name(), o.seed);
            if let Err(e) = std::fs::write(&path, trace::chrome_json(&r.trace)) {
                eprintln!("{path}: {e}");
            }
        }
    }
    let metrics: Vec<(&str, String)> = summary
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct", correct.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("metrics", json::object(&metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => {
            let spec = BenchSpec::embedded();
            match parse_args(&args, &spec) {
                Ok(o) => bench_main(o, &spec),
                Err(e) => {
                    eprintln!("{e}\n{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
    }
}
