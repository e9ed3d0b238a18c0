//! perfbench: the workload benchmark of the KERT-BN workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--workload` is `serve-hot`, `serve-distinct`, `control-loop` or
//! `all` (each workload in a fresh process). `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the traced
//! per-layer breakdown. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it
//! print every metric with its unit and sample count. See README.md.

mod control;
mod layers;
mod loadgen;
mod report;
mod serving;
mod stats;
mod streams;
mod verify;

use std::process::{Command, ExitCode};

use kert_obs::TraceTree;

use report::{print_table, result_line, Metric, Outcome};

const WORKLOADS: [&str; 3] = ["serve-hot", "serve-distinct", "control-loop"];

/// End-to-end metrics (`--trace 0`), in the order BENCHMARK.json lists them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("best_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in the order BENCHMARK.json lists
/// them. A layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("loadgen.late_p99_ms", "ms"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("frame.req_bytes", "count"),
    ("frame.resp_bytes", "count"),
    ("frame.read_us", "us"),
    ("frame.write_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.linger_us.p50", "us"),
    ("server.fold_ratio", "ratio"),
    ("server.dedup_ratio", "ratio"),
    ("server.busy_frac", "ratio"),
    ("server.serialize_us.p50", "us"),
    ("server.shed", "count"),
    ("serve.propagate_us.p50", "us"),
    ("serve.propagate_us.p99", "us"),
    ("serve.evidence_us.p50", "us"),
    ("serve.session_us", "us"),
    ("jt.marginal_us.p50", "us"),
    ("jt.collect_us.p50", "us"),
    ("jt.compile_ms", "ms"),
    ("jt.width", "count"),
    ("jt.table_entries", "count"),
    ("jt.messages_per_op", "count"),
    ("factor.sum_outs_per_op", "count"),
    ("factor.products_per_op", "count"),
    ("factor.ws_hit_ratio", "ratio"),
    ("stream.slide_us", "us"),
    ("stream.refresh_us", "us"),
    ("stream.cpds_moved", "count"),
    ("autonomic.violation_us", "us"),
    ("autonomic.dcomp_us", "us"),
    ("autonomic.paccel_us", "us"),
    ("autonomic.compiles_per_tick", "count"),
    ("obs.trace_overhead", "ratio"),
    ("unattributed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (expected one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where traced runs write their span trees.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `trees` as JSON lines, once, at the end of a traced run;
/// returns the path.
pub fn write_traces(workload: &str, seed: u64, trees: &[TraceTree]) -> String {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
    let mut text = String::new();
    for t in trees {
        text.push_str(&serde_json::to_string(t).expect("trace trees serialize"));
        text.push('\n');
    }
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(not written: {e})"),
    }
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain and commit, recorded with every result.
fn provenance() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only ask git inside a git checkout of this repository; a plain
    // source tree has no commit to report.
    let commit = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "available_parallelism {}; {}; commit {commit}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        command_line("rustc", &["--version"]),
    )
}

/// Keep exactly the contract metrics, in contract order; a metric the
/// workload does not measure reports 0 with no samples.
fn contract_metrics(outcome: &Outcome, names: &[(&str, &str)]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit: unit.to_string(),
                    samples: 0,
                })
        })
        .collect()
}

fn run_one(args: &Args) -> ExitCode {
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("serve-hot", false) => serving::run(&serving::SERVE_HOT, args.seed, args.seconds),
        ("serve-hot", true) => serving::run_traced(&serving::SERVE_HOT, args.seed),
        ("serve-distinct", false) => {
            serving::run(&serving::SERVE_DISTINCT, args.seed, args.seconds)
        }
        ("serve-distinct", true) => serving::run_traced(&serving::SERVE_DISTINCT, args.seed),
        ("control-loop", false) => control::run(args.seed, args.seconds),
        ("control-loop", true) => control::run_traced(args.seed),
        (other, _) => unreachable!("workload {other} was validated"),
    };
    outcome.notes.insert(0, provenance());
    outcome.notes.insert(
        0,
        format!(
            "seed {}; {} s per run; trace {}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = contract_metrics(&outcome, names);
    // The table shows the contract metrics, then whatever else the run
    // measured (such as p99_ms and the generator's lateness).
    let extra: Vec<Metric> = outcome
        .metrics
        .drain(..)
        .filter(|m| !names.iter().any(|&(n, _)| n == m.name))
        .collect();
    outcome.metrics = metrics.iter().cloned().chain(extra).collect();
    print_table(&args.workload, &outcome);
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} wrong answers on {}",
            outcome.mismatches, args.workload
        );
        ExitCode::FAILURE
    }
}

/// Run every workload in a fresh process of this executable and merge
/// the results (metric names prefixed with the workload).
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {workload} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        correct &= output.status.success();
        match serde_json::value_from_str(last) {
            Ok(v) => {
                let num = |k: &str| match v.get(k) {
                    Some(serde_json::Value::Num(n)) => *n as u64,
                    _ => 0,
                };
                attempted += num("attempted");
                failed += num("failed");
                if let Some(serde_json::Value::Map(entries)) = v.get("metrics") {
                    for (name, m) in entries {
                        let value = match m.get("value") {
                            Some(serde_json::Value::Num(n)) => *n,
                            _ => f64::NAN,
                        };
                        let unit = match m.get("unit") {
                            Some(serde_json::Value::Str(u)) => u.clone(),
                            _ => String::new(),
                        };
                        merged.push(Metric {
                            name: format!("{workload}.{name}"),
                            value,
                            unit,
                            samples: 1,
                        });
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: {workload} printed no result ({e})");
                correct = false;
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &merged));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in code are the ones BENCHMARK.json declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(serde_json::Value::Seq(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(serde_json::Value::Str(n)), Some(serde_json::Value::Str(u))) => {
                            (n.clone(), u.clone())
                        }
                        _ => panic!("{key} entry without name/unit"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(serde_json::Value::Seq(items)) => items
                .iter()
                .map(|w| match w.get("name") {
                    Some(serde_json::Value::Str(n)) => n.clone(),
                    _ => panic!("workload without name"),
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no workloads"),
        };
        assert_eq!(workloads, WORKLOADS);
    }
}
