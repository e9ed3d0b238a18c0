//! The JSONL event schema.
//!
//! Every line the JSONL exporter writes is one [`TelemetryEvent`] object.
//! The struct is flat on purpose: a fixed field set (no per-event-type
//! shapes) keeps the schema trivially validatable — parse the line, round
//! trip it through `serde`, compare — which is exactly what the CI
//! observability job does.
//!
//! ```json
//! {"seq":42,"kind":"Event","name":"agents.ladder","span_id":0,
//!  "parent_id":17,"elapsed_ns":0,"value":1,
//!  "labels":[["node","3"],["rung","stale"]]}
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// What a [`TelemetryEvent`] line describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A closed span: `span_id`/`parent_id`/`elapsed_ns` are meaningful.
    Span,
    /// A point event: `value` and `labels` carry the payload, `parent_id`
    /// is the span that was open when it fired (0 at top level).
    Event,
}

/// One line of the JSONL stream. Field meanings by [`EventKind`]:
///
/// | field | `Span` | `Event` |
/// |---|---|---|
/// | `seq` | global emission order | global emission order |
/// | `name` | span name | event name |
/// | `span_id` | this span's id | 0 |
/// | `parent_id` | enclosing span (0 = root) | enclosing span (0 = root) |
/// | `elapsed_ns` | wall time inside the span | 0 |
/// | `value` | `elapsed_ns` as f64 | numeric payload |
/// | `labels` | empty | key/value context pairs |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Global emission sequence number (gaps mean dropped lines).
    pub seq: u64,
    /// Span close or point event.
    pub kind: EventKind,
    /// Dot-separated metric-style name (`crate.subsystem.what`).
    pub name: String,
    /// Span id for `Span` lines, 0 otherwise.
    pub span_id: u64,
    /// Id of the enclosing span at emission time (0 = none).
    pub parent_id: u64,
    /// Span duration in nanoseconds (0 for point events).
    pub elapsed_ns: u64,
    /// Numeric payload.
    pub value: f64,
    /// Context pairs, e.g. `[["rung","stale"],["node","3"]]`.
    pub labels: Vec<(String, String)>,
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Stamp a sequence number and write the event as one JSONL line.
pub(crate) fn emit(mut e: TelemetryEvent) {
    e.seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    if let Ok(line) = serde_json::to_string(&e) {
        crate::export::write_line(&line);
    }
}

/// Emit a point event carrying a numeric `value` and string `labels`.
/// No-op (after one relaxed load) unless the JSONL stream is active.
/// Non-finite values are clamped to 0 so every line stays valid JSON.
pub fn event(name: &str, value: f64, labels: &[(&str, &str)]) {
    if !crate::jsonl_enabled() {
        return;
    }
    emit(TelemetryEvent {
        seq: 0,
        kind: EventKind::Event,
        name: name.to_string(),
        span_id: 0,
        parent_id: crate::span::current_span_id(),
        elapsed_ns: 0,
        value: if value.is_finite() { value } else { 0.0 },
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_schema_round_trips() {
        let e = TelemetryEvent {
            seq: 42,
            kind: EventKind::Event,
            name: "agents.ladder".into(),
            span_id: 0,
            parent_id: 17,
            elapsed_ns: 0,
            value: 1.0,
            labels: vec![("rung".into(), "stale".into()), ("node".into(), "3".into())],
        };
        let line = serde_json::to_string(&e).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, e);
        // And a span line.
        let s = TelemetryEvent {
            seq: 43,
            kind: EventKind::Span,
            name: "jt.marginal".into(),
            span_id: 18,
            parent_id: 17,
            elapsed_ns: 54_000,
            value: 54_000.0,
            labels: Vec::new(),
        };
        let line = serde_json::to_string(&s).unwrap();
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let line = r#"{"seq":0,"kind":"Bogus","name":"x","span_id":0,"parent_id":0,"elapsed_ns":0,"value":0,"labels":[]}"#;
        assert!(serde_json::from_str::<TelemetryEvent>(line).is_err());
    }
}
