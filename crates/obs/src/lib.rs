//! # kert-obs — spans, counters, and health telemetry for the KERT-BN runtime
//!
//! The paper's premise is autonomic management driven by monitoring agents;
//! this crate makes the reproduction's own runtime observable the same way.
//! It is a dependency-free instrumentation layer (std plus the vendored
//! serde stand-ins for the exporters) that the engine crates — `kert-bayes`,
//! `kert-sim`, `kert-agents`, `kert-core`, `kert-bench` — thread through
//! their hot and failure paths:
//!
//! * **Counters** — monotonically increasing `u64`s (factor products,
//!   junction-tree messages, collection retries, fallback-ladder rungs).
//! * **Gauges** — last-written `f64`s (`ModelHealth` fresh fraction,
//!   per-node degradation state).
//! * **Histograms** — log₂-bucketed nanosecond distributions, fed by spans.
//! * **Spans** — monotonic-clock timings with parent/child nesting via a
//!   thread-local stack; every closed span records into the histogram named
//!   after it and, in JSONL mode, emits a [`TelemetryEvent`].
//! * **Traces** — per-request causal span trees ([`trace::TraceContext`])
//!   that move across threads, capture library spans while installed, and
//!   land in a bounded [`trace::FlightRecorder`]; exportable as Chrome
//!   trace-event JSON ([`chrome_trace_json`]) or JSONL events.
//!
//! ## Cost model
//!
//! Instrumentation must be invisible when nobody is looking. Every
//! recording entry point first reads one relaxed atomic (the global mode);
//! when telemetry is disabled that load-and-branch is the *entire* cost —
//! no allocation, no lock, no clock read. Enabled-mode counters are a
//! relaxed `fetch_add` on a handle cached in a per-call-site `OnceLock`, so
//! the registry mutex is touched once per call site, not per increment.
//!
//! ## Modes
//!
//! The `KERT_OBS` environment variable (read once, overridable with
//! [`set_mode`], which sets one of the first two) selects:
//!
//! | value | mode | behaviour |
//! |---|---|---|
//! | unset, `0`, `off` | [`ObsMode::Disabled`] | everything is a no-op |
//! | `1`, `on`, `metrics` | [`ObsMode::Metrics`] | counters/gauges/histograms/spans accumulate in the registry |
//! | `jsonl` | JSONL | metrics **plus** a JSONL event/span stream (`KERT_OBS_FILE` or stderr) |
//!
//! ## Exporters
//!
//! * [`prometheus_snapshot`] — Prometheus text exposition of the registry.
//! * the JSONL sink — one [`TelemetryEvent`] object per line, schema-stable
//!   (`serde` round-trip tested).
//! * [`TelemetrySnapshot`] — a serializable point-in-time registry dump
//!   that `kert-bench` embeds into `BENCH_perf.json`, so perf numbers ship
//!   with their explaining counters.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod chrome;
pub mod event;
pub mod export;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use chrome::{check_chrome_trace, chrome_trace_json, ChromeStats};
pub use event::{event, EventKind, TelemetryEvent};
pub use export::{flush, parse_prometheus, prometheus_snapshot};
pub use registry::{set_gauge, set_gauge_labeled, Counter, Histogram};
pub use snapshot::{reset, snapshot, HistogramSnapshot, TelemetrySnapshot};
pub use span::{span, Span};
pub use trace::{trace_events, FlightRecorder, SpanLink, SpanRecord, TraceContext, TraceTree};

/// How much telemetry the process records, as [`set_mode`] selects it (the
/// JSONL stream is selected by `KERT_OBS=jsonl` alone; see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Every instrumentation point is a no-op after one relaxed load.
    Disabled,
    /// Counters, gauges, histograms, and spans accumulate in the registry.
    Metrics,
}

const MODE_DISABLED: u8 = 0;
const MODE_METRICS: u8 = 1;
const MODE_JSONL: u8 = 2;
const MODE_UNINIT: u8 = u8::MAX;

/// Current mode, `MODE_UNINIT` until the first probe reads `KERT_OBS`.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

#[inline]
pub(crate) fn mode_raw() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m == MODE_UNINIT {
        init_mode_from_env()
    } else {
        m
    }
}

#[cold]
fn init_mode_from_env() -> u8 {
    let m = match std::env::var("KERT_OBS").ok().as_deref() {
        Some("1") | Some("on") | Some("metrics") | Some("counters") => MODE_METRICS,
        Some("jsonl") | Some("json") => MODE_JSONL,
        _ => MODE_DISABLED,
    };
    MODE.store(m, Ordering::Relaxed);
    m
}

/// Is any telemetry being recorded?
#[inline]
pub fn enabled() -> bool {
    mode_raw() >= MODE_METRICS
}

/// Is the JSONL event/span stream active?
#[inline]
pub fn jsonl_enabled() -> bool {
    mode_raw() == MODE_JSONL
}

/// Override the mode programmatically (benches toggle between disabled and
/// enabled runs; tests force [`ObsMode::Metrics`] regardless of the
/// environment). Takes effect for all subsequent instrumentation calls.
pub fn set_mode(mode: ObsMode) {
    let m = match mode {
        ObsMode::Disabled => MODE_DISABLED,
        ObsMode::Metrics => MODE_METRICS,
    };
    MODE.store(m, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The whole crate shares one global registry, so the unit tests here
    // serialize on a single lock and work with counter *deltas*.
    use std::sync::Mutex;
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    static C_LIB: Counter = Counter::new("test.lib.counter");

    #[test]
    fn disabled_mode_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_mode(ObsMode::Disabled);
        let before = C_LIB.value();
        C_LIB.incr();
        C_LIB.add(10);
        assert_eq!(C_LIB.value(), before, "disabled counter must not move");
        assert!(!enabled());
        assert!(!jsonl_enabled());
    }

    #[test]
    fn metrics_mode_accumulates() {
        let _g = TEST_LOCK.lock().unwrap();
        set_mode(ObsMode::Metrics);
        let before = C_LIB.value();
        C_LIB.add(3);
        C_LIB.incr();
        assert_eq!(C_LIB.value(), before + 4);
        assert!(enabled() && !jsonl_enabled());
        set_mode(ObsMode::Disabled);
    }
}
