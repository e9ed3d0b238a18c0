//! Result lines: a human table on stdout, then one JSON object as the
//! last line.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

/// A workload run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations the run's result covers.
    pub attempted: u64,
    /// Of those, error replies, I/O errors and wrong answers.
    pub failed: u64,
    /// Wrong answers found by the correctness checks (any phase).
    pub mismatches: u64,
    /// Free-form lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

/// JSON number for `v`; non-finite values (a metric with no samples)
/// print as 0 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print the table for `workload` (stdout, above the result line).
pub fn print_table(workload: &str, outcome: &Outcome) {
    println!("== {workload}");
    for line in &outcome.notes {
        println!("   {line}");
    }
    for m in &outcome.metrics {
        println!(
            "   {:<28} {:>16} {:<6} (n={})",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "   failed_frac {:.6} ({} of {} attempted; {} wrong answers)",
        crate::stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted,
        outcome.mismatches
    );
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_parses_with_exactly_the_contract_keys() {
        let metrics = vec![
            Metric {
                name: "p50_ms".into(),
                value: 1.25,
                unit: "ms".into(),
                samples: 10,
            },
            Metric {
                name: "setup_s".into(),
                value: 0.0123,
                unit: "s".into(),
                samples: 5,
            },
        ];
        let line = result_line(true, 10, 0, &metrics);
        let keys: Vec<String> = match serde_json::value_from_str(&line).unwrap() {
            serde_json::Value::Map(entries) => entries.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
