//! Exporters: the JSONL line sink and the Prometheus-style text snapshot.
//!
//! The JSONL sink is a process-global writer. By default the stream goes
//! to stderr; `KERT_OBS_FILE=<path>` (read at first write) redirects it
//! to a file. Lines are flushed as they are written — the stream exists
//! for post-mortem and CI validation, not throughput, and event rates are
//! control-period-scale.
//!
//! The Prometheus snapshot renders the whole registry in text exposition
//! format (counters, gauges, and histograms with cumulative `le` buckets).
//! [`parse_prometheus`] is the matching validator used by `kertctl` and
//! the CI observability job.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::registry::{with_registry, HIST_BUCKETS};

struct SinkState {
    /// Has the sink looked at `KERT_OBS_FILE` yet?
    init: bool,
    /// `Some(file)` = write there; `None` = stderr.
    file: Option<File>,
}

static SINK: Mutex<SinkState> = Mutex::new(SinkState {
    init: false,
    file: None,
});

/// Write one line (plus `\n`) to the active sink, initializing from
/// `KERT_OBS_FILE` on first use. Errors are swallowed: telemetry must
/// never take down the workload it observes.
pub(crate) fn write_line(line: &str) {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if !sink.init {
        sink.init = true;
        if let Ok(path) = std::env::var("KERT_OBS_FILE") {
            sink.file = OpenOptions::new().create(true).append(true).open(path).ok();
        }
    }
    match &mut sink.file {
        Some(f) => {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        None => {
            let _ = writeln!(std::io::stderr().lock(), "{line}");
        }
    }
}

/// Flush the sink (file writes already flush per line; this exists so
/// shutdown paths can be explicit about it).
pub fn flush() {
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(f) = &mut sink.file {
        let _ = f.flush();
    }
}

/// Map a dotted metric name onto the Prometheus charset:
/// `[a-zA-Z0-9_:]`, everything else becomes `_`.
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write_sample(out: &mut String, name: &str, value: f64) {
    out.push_str(name);
    out.push(' ');
    if value.fract() == 0.0 && value.abs() < 1e15 {
        out.push_str(&format!("{}", value as i64));
    } else {
        out.push_str(&format!("{value}"));
    }
    out.push('\n');
}

/// Render the registry in Prometheus text exposition format. Counters and
/// gauges become single samples; histograms expose cumulative
/// `_bucket{le="…"}` samples plus `_sum` and `_count`.
pub fn prometheus_snapshot() -> String {
    let mut out = String::new();
    with_registry(|r| {
        for (name, handle) in &r.counters {
            let n = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {n} counter\n"));
            write_sample(&mut out, &n, handle.load(Ordering::Relaxed) as f64);
        }
        let mut last_base = String::new();
        for (name, handle) in &r.gauges {
            // Labeled gauges store `base{k="v"}` with the base already
            // sanitized; plain gauges keep their dotted name and are
            // sanitized here. One TYPE line per base (series of one base
            // sort adjacently in the BTreeMap).
            let (base, labels) = match name.find('{') {
                Some(i) => (sanitize_metric_name(&name[..i]), &name[i..]),
                None => (sanitize_metric_name(name), ""),
            };
            if base != last_base {
                out.push_str(&format!("# TYPE {base} gauge\n"));
                last_base = base.clone();
            }
            write_sample(
                &mut out,
                &format!("{base}{labels}"),
                f64::from_bits(handle.load(Ordering::Relaxed)),
            );
        }
        for (name, h) in &r.histograms {
            let n = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            for (i, bucket) in h.buckets.iter().enumerate() {
                let c = bucket.load(Ordering::Relaxed);
                if c == 0 {
                    continue;
                }
                cumulative += c;
                // Bucket i holds ns < 2^i (bucket 0 holds zeros).
                let le = if i >= HIST_BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    format!("{}", 1u64 << i)
                };
                write_sample(
                    &mut out,
                    &format!("{n}_bucket{{le=\"{le}\"}}"),
                    cumulative as f64,
                );
            }
            write_sample(
                &mut out,
                &format!("{n}_bucket{{le=\"+Inf\"}}"),
                h.count.load(Ordering::Relaxed) as f64,
            );
            write_sample(
                &mut out,
                &format!("{n}_sum"),
                h.sum_ns.load(Ordering::Relaxed) as f64,
            );
            write_sample(
                &mut out,
                &format!("{n}_count"),
                h.count.load(Ordering::Relaxed) as f64,
            );
        }
    });
    out
}

/// Parse a Prometheus text exposition back into `(name, value)` samples,
/// validating metric-name charset, label-block quoting, and numeric
/// values. The inverse check for [`prometheus_snapshot`]; used by the CI
/// observability job.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no sample value in {line:?}", lineno + 1))?;
        let value: f64 = value.parse().or_else(|_| match value {
            "+Inf" => Ok(f64::INFINITY),
            "-Inf" => Ok(f64::NEG_INFINITY),
            _ => Err(format!("line {}: bad value {value:?}", lineno + 1)),
        })?;
        validate_sample_name(name).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        samples.push((name.to_string(), value));
    }
    Ok(samples)
}

fn validate_sample_name(name: &str) -> Result<(), String> {
    let (base, labels) = match name.find('{') {
        Some(i) => (&name[..i], Some(&name[i..])),
        None => (name, None),
    };
    if base.is_empty()
        || !base
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || base.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("bad metric name {base:?}"));
    }
    if let Some(block) = labels {
        let inner = block
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .ok_or_else(|| format!("unterminated label block in {name:?}"))?;
        for pair in inner.split(',') {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("label {pair:?} is not k=\"v\""))?;
            if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("bad label name {k:?}"));
            }
            if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                return Err(format!("label value {v:?} is not quoted"));
            }
            validate_label_value(&v[1..v.len() - 1])
                .map_err(|e| format!("label value {v:?}: {e}"))?;
        }
    }
    Ok(())
}

/// Validate the escaping inside a quoted label value: only `\\`, `\"`,
/// and `\n` escapes are legal, and raw quotes/newlines must not appear
/// unescaped (they would have broken the quoting that
/// [`crate::set_gauge_labeled`] produces).
fn validate_label_value(inner: &str) -> Result<(), String> {
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') | Some('"') | Some('n') => {}
                Some(other) => return Err(format!("unknown escape \\{other}")),
                None => return Err("dangling backslash".into()),
            },
            '"' => return Err("unescaped quote".into()),
            '\n' => return Err("unescaped newline".into()),
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn snapshot_parses_back() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_mode(ObsMode::Metrics);
        static C: crate::Counter = crate::Counter::new("test.export.requests");
        static H: crate::Histogram = crate::Histogram::new("test.export.latency");
        C.add(7);
        H.record(1_500);
        crate::set_gauge_labeled("test.export.health", &[("node", "1")], 0.5);
        let text = prometheus_snapshot();
        let samples = parse_prometheus(&text).expect("own snapshot must parse");
        assert!(samples
            .iter()
            .any(|(n, v)| n == "test_export_requests" && *v >= 7.0));
        assert!(samples
            .iter()
            .any(|(n, _)| n == "test_export_health{node=\"1\"}"));
        assert!(samples
            .iter()
            .any(|(n, _)| n.starts_with("test_export_latency_bucket")));
        crate::set_mode(ObsMode::Disabled);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("no_value_here\n").is_err());
        assert!(parse_prometheus("bad-name 1\n").is_err());
        assert!(parse_prometheus("name{k=unquoted} 1\n").is_err());
        assert!(parse_prometheus("ok_name 1\n# comment\n\n").is_ok());
    }

    #[test]
    fn hostile_label_values_are_escaped_and_parse_back() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_mode(ObsMode::Metrics);
        crate::set_gauge_labeled("test.export.escapes", &[("path", "a\\b\"c\nd")], 1.0);
        let text = prometheus_snapshot();
        let samples = parse_prometheus(&text).expect("escaped snapshot must parse");
        let sample = samples
            .iter()
            .find(|(n, _)| n.starts_with("test_export_escapes{"))
            .expect("labeled gauge exported");
        // Backslash, quote, and newline survive as exposition escapes
        // instead of being flattened to `_`.
        assert_eq!(sample.0, "test_export_escapes{path=\"a\\\\b\\\"c\\nd\"}");
        crate::set_mode(ObsMode::Disabled);
    }

    #[test]
    fn parser_rejects_unescaped_label_values() {
        // Raw quote inside the quoted value.
        assert!(parse_prometheus("g{k=\"a\"b\"} 1\n").is_err());
        // Unknown escape sequence.
        assert!(parse_prometheus("g{k=\"a\\qb\"} 1\n").is_err());
        // Dangling backslash.
        assert!(parse_prometheus("g{k=\"a\\\"} 1\n").is_err());
        // Properly escaped forms pass.
        assert!(parse_prometheus("g{k=\"a\\\\b\\\"c\\nd\"} 1\n").is_ok());
    }
}
