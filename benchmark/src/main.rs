//! `ktbench` — the repository's benchmark.
//!
//! ```text
//! ktbench run     [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//! ktbench trace   [--workload W]... [--seed N] [--seconds S]
//! ktbench compare RUNS.jsonl [--bench BENCHMARK.json]
//! ktbench summary RUNS.jsonl
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace` (or
//! `run --trace 1`) is the separate traced run that yields the per-layer
//! metrics and a Chrome trace under `target/ktbench/trace/`. Each
//! workload prints its metric table to stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Without `--workload` every workload runs in turn.
//!
//! `compare` applies the decision rule to runs recorded by
//! `benchmark/ab.sh`; `summary` prints each metric's quartiles and spread.
//!
//! The benchmark drives the system from outside only: the public APIs of
//! the `hsoptflow`, `kgraph`, `ktiler`, `gpu-sim`, `ktiler-svc` and
//! `ktiler-gateway` crates, and the `ktiler_serve` / `ktiler_gateway`
//! binaries (expected next to this executable) over TCP.

mod cluster;
mod compare;
mod json;
mod load;
mod os;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Opts, Report, END_TO_END, NAMES, PER_LAYER};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ktbench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ktbench trace [--workload W]... [--seed N] [--seconds S]\n\
         \x20      ktbench compare RUNS.jsonl [--bench BENCHMARK.json]\n\
         \x20      ktbench summary RUNS.jsonl\n\
         workloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" => measure(rest, false),
        "trace" => measure(rest, true),
        "compare" => compare_cmd(rest),
        "summary" => summary_cmd(rest),
        _ => usage(),
    }
}

/// The value following flag `name`, for every occurrence.
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2).filter(|w| w[0] == name).map(|w| w[1].as_str()).collect()
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_values(args, name).last() {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {name}")),
    }
}

fn measure(args: &[String], trace_cmd: bool) -> ExitCode {
    let parsed = (|| -> Result<(Vec<String>, Opts, bool), String> {
        let known = ["--workload", "--seed", "--seconds", "--trace"];
        for pair in args.chunks(2) {
            if !known.contains(&pair[0].as_str()) || pair.len() < 2 {
                return Err(format!("unexpected argument '{}'", pair[0]));
            }
        }
        let mut workloads: Vec<String> =
            flag_values(args, "--workload").into_iter().map(String::from).collect();
        if workloads.is_empty() {
            workloads = NAMES.iter().map(|s| s.to_string()).collect();
        }
        if let Some(w) = workloads.iter().find(|w| !NAMES.contains(&w.as_str())) {
            return Err(format!("unknown workload '{w}'"));
        }
        let traced = trace_cmd || flag::<u8>(args, "--trace", 0)? == 1;
        let seconds: f64 = flag(args, "--seconds", 10.0)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let placement = cluster::Placement::apply().map_err(|e| format!("CPU placement: {e}"))?;
        eprintln!(
            "CPUs: node 0 and gateway on {}, node 1 and benchmark on {}",
            placement.first, placement.second
        );
        let opts = Opts {
            seed: flag(args, "--seed", 1)?,
            seconds,
            bin_dir: exe.parent().map(PathBuf::from).unwrap_or_default(),
            root: PathBuf::from("target").join("ktbench"),
            placement,
        };
        Ok((workloads, opts, traced))
    })();
    let (workloads, opts, traced) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in &workloads {
        eprintln!(
            "== {w} ({}, seed {}, {} s) ==",
            if traced { "trace" } else { "run" },
            opts.seed,
            opts.seconds
        );
        let rep = match workloads::measure(w, &opts, traced) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        match result_line(&rep, table, traced) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if rep.failed > 0 {
            eprintln!(
                "error: {w}: {} of {} operations failed or differed from the reference",
                rep.failed, rep.attempted
            );
            code = ExitCode::FAILURE;
        }
        if let Some(why) = &rep.invalid {
            eprintln!("error: {w}: invalid run: {why}");
            code = ExitCode::from(3);
        }
    }
    code
}

/// Prints the metric table to stderr and renders the result line. Every
/// end-to-end metric must have been measured; a per-layer metric of a
/// layer the workload does not use reads 0.
fn result_line(rep: &Report, table: &[(&str, &str)], traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match rep.value(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a number ({value})"));
        }
        eprintln!("  {name:<34} {value:>14.4} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(name),
            json::num(value),
            json::string(unit)
        ));
    }
    for n in &rep.notes {
        eprintln!("  # {n}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    ))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let Some(runs_path) = args.first() else {
        return usage();
    };
    let result = (|| -> Result<bool, String> {
        let bench_path = flag_values(args, "--bench").last().copied().unwrap_or("BENCHMARK.json");
        let metrics = compare::bench_metrics(&read(bench_path)?)?;
        let runs = compare::parse_runs(&read(runs_path)?)?;
        let rows = compare::compare(&metrics, &runs)?;
        println!(
            "{:<10} {:<15} {:>5} {:>33} {:>33} {:>5} {:>6}  verdict",
            "workload",
            "metric",
            "pairs",
            "parent q1/median/q3",
            "change q1/median/q3",
            "wins",
            "bound"
        );
        let mut regressed = false;
        for r in &rows {
            let d = &r.decision;
            let q = |v: &[f64; 3]| format!("{:.4}/{:.4}/{:.4}", v[0], v[1], v[2]);
            println!(
                "{:<10} {:<15} {:>5} {:>33} {:>33} {:>4.0}% {:>5.0}%  {}",
                r.workload,
                r.metric.name,
                r.pairs,
                q(&d.parent),
                q(&d.change),
                d.win_frac * 100.0,
                r.metric.bound * 100.0,
                d.verdict
            );
            regressed |= d.verdict == compare::Verdict::Regressed;
        }
        Ok(regressed)
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn summary_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    match read(path).and_then(|t| compare::parse_runs(&t)) {
        Ok(runs) => {
            println!("{}", compare::summary(&runs));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics the result lines
    /// carry, with the same units.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let doc = json::parse(&std::fs::read_to_string("../BENCHMARK.json").unwrap()).unwrap();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(json::Value::arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(json::Value::str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, emitted, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::str).unwrap())
            .collect();
        assert_eq!(workloads, NAMES);
    }
}
