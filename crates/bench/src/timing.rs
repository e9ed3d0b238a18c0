//! A minimal, dependency-free micro-benchmark harness.
//!
//! The offline build vendors every external crate, so criterion is out;
//! this module provides the small slice of it the kernel benchmarks need:
//! warm-up, batch-size calibration, a median over repeated samples, and a
//! merged `BENCH_perf.json` at the workspace root so before/after numbers
//! from separate bench binaries land in one committed artifact.
//!
//! Medians (not means) because micro-benchmarks on a shared host see
//! one-sided noise — scheduler preemption only ever makes a sample slower.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// True when the bench binary runs as a CI smoke test: `--quick` on the
/// command line (cargo forwards arguments after `--` to the binary) or
/// `KERT_BENCH_QUICK=1`. Quick mode shrinks calibration targets and sample
/// counts so every bench executes in milliseconds, and skips the
/// `BENCH_perf.json` merge — smoke numbers would be garbage and must never
/// overwrite the committed medians.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("KERT_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// One benchmark's result: median nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (also the JSON key).
    pub name: String,
    /// Median per-iteration time across samples, in nanoseconds.
    pub median_ns: f64,
    /// Iterations per timed sample (calibrated).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Time `f`, returning the median per-iteration nanoseconds.
///
/// Calibration doubles the batch size until one batch costs ≥ 2 ms (so the
/// `Instant` overhead vanishes), then takes `KERT_BENCH_SAMPLES` samples
/// (default 11). The closure's result is `black_box`ed to keep the
/// optimizer honest.
pub fn bench<T, F: FnMut() -> T>(name: &str, mut f: F) -> BenchResult {
    let (batch_target_ns, default_samples) = if quick_mode() {
        (50_000u128, 3)
    } else {
        (2_000_000u128, 11)
    };
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= batch_target_ns || iters >= 1 << 22 {
            break;
        }
        // Jump straight toward the target batch once we have an estimate.
        let per_iter = (elapsed / iters as u128).max(1);
        iters = ((batch_target_ns + batch_target_ns / 4) / per_iter)
            .clamp(iters as u128 * 2, 1 << 22) as u64;
    }
    let n_samples = crate::env_usize("KERT_BENCH_SAMPLES", default_samples).max(3);
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns = per_iter_ns[per_iter_ns.len() / 2];
    let result = BenchResult {
        name: name.to_string(),
        median_ns,
        iters_per_sample: iters,
        samples: n_samples,
    };
    println!(
        "{:<44} {:>14}   ({} iters × {} samples)",
        result.name,
        format_ns(median_ns),
        iters,
        n_samples
    );
    result
}

/// Human-readable nanoseconds.
pub fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Path of the committed benchmark artifact (workspace root).
fn bench_perf_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_perf.json")
}

/// Merge one section of results into `BENCH_perf.json`.
///
/// Each bench binary owns a top-level key (`"inference"`, `"learning"`,
/// `"construction"`) and replaces only its own section, so running the
/// binaries in any order or subset keeps the others' numbers.
pub fn merge_bench_perf(section: &str, entries: serde::Value) {
    if quick_mode() {
        eprintln!("(quick mode: section {section:?} not merged into BENCH_perf.json)");
        return;
    }
    merge_bench_perf_at(&bench_perf_path(), section, entries);
}

/// [`merge_bench_perf`] against the ledger at `path`. The section is
/// stamped with the host core count it was measured on: the
/// decentralized-vs-centralized comparison only shows a wall-clock win
/// with real parallel hardware, so each section's parallel figures must
/// sit next to *their* host's cores, not the last merger's.
fn merge_bench_perf_at(path: &std::path::Path, section: &str, entries: serde::Value) {
    use serde::Value;

    let mut root: Vec<(String, Value)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::value_from_str(&s).ok())
    {
        Some(Value::Map(m)) => m,
        _ => Vec::new(),
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let entries = match entries {
        Value::Map(mut m) => {
            m.insert(0, ("host_cores".into(), Value::Num(cores as f64)));
            Value::Map(m)
        }
        other => other,
    };
    match root.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = entries,
        None => root.push((section.to_string(), entries)),
    }
    match serde_json::to_string_pretty(&Value::Map(root)) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(merged section {section:?} into {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize bench results: {e}"),
    }
}

/// Host-core-independent speedup of running `node_times` in parallel
/// (one node per machine, latency = the slowest) instead of sequentially
/// (latency = the sum): `Σ node_times / max(node_times)`.
///
/// This is the quantity the paper's decentralized-learning claim is about —
/// each agent learns its own CPD on its own host. A wall-clock comparison
/// of the worker pool on the benchmark host measures the host's core
/// count plus thread overhead, not the architecture; on a 1-core CI box it
/// even reads below 1×. Report both, labeled.
pub fn simulated_speedup(node_times: &[Duration]) -> f64 {
    let max = node_times.iter().max().copied().unwrap_or_default();
    if max.is_zero() {
        return 1.0;
    }
    let sum: Duration = node_times.iter().sum();
    sum.as_secs_f64() / max.as_secs_f64()
}

/// Convenience: a `(median_ns, speedup-vs-before)` JSON object.
pub fn before_after(before: &BenchResult, after: &BenchResult) -> serde::Value {
    use serde::Value;
    Value::Map(vec![
        ("before_ns".into(), Value::Num(before.median_ns)),
        ("after_ns".into(), Value::Num(after.median_ns)),
        (
            "speedup".into(),
            Value::Num(before.median_ns / after.median_ns),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn get<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
        match map {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[test]
    fn merge_stamps_host_cores_per_section() {
        let path =
            std::env::temp_dir().join(format!("kert-bench-perf-merge-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"learning": {"host_cores": 1, "speedup": 0.5}, "serving": {"old": 1}}"#,
        )
        .unwrap();
        let fresh = || Value::Map(vec![("speedup".into(), Value::Num(2.5))]);
        merge_bench_perf_at(&path, "serving", fresh());
        merge_bench_perf_at(&path, "tracing", fresh());

        let root = serde_json::value_from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        assert_eq!(get(&root, "host_cores"), None, "no file-wide core count");
        // Merging one section never relabels another.
        let learning = get(&root, "learning").unwrap();
        assert_eq!(get(learning, "host_cores"), Some(&Value::Num(1.0)));
        assert_eq!(get(learning, "speedup"), Some(&Value::Num(0.5)));
        // Merged sections are replaced whole and carry this host's cores.
        for section in ["serving", "tracing"] {
            let merged = get(&root, section).unwrap();
            assert_eq!(get(merged, "host_cores"), Some(&Value::Num(cores)));
            assert_eq!(get(merged, "speedup"), Some(&Value::Num(2.5)));
            assert_eq!(get(merged, "old"), None);
        }
    }
}
