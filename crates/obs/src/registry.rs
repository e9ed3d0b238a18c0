//! The global metric registry: counters, gauges, and histograms.
//!
//! The registry itself is a mutex-guarded set of name → handle maps, but
//! the mutex is only taken on *registration* (first touch of a name) and on
//! *export* (snapshot / Prometheus render). Recording goes through
//! `&'static` atomic handles — leaked once per distinct metric name — so a
//! hot loop bumping a counter performs one relaxed load (the mode gate),
//! one `OnceLock` read, and one relaxed `fetch_add`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log₂ buckets per histogram: bucket `i` holds samples whose
/// highest set bit is `i-1` (i.e. `2^(i-1) ≤ ns < 2^i`), bucket 0 holds
/// zeros. 48 buckets cover ~78 hours in nanoseconds.
pub(crate) const HIST_BUCKETS: usize = 48;

/// Shared storage behind a [`Histogram`] handle.
pub(crate) struct HistogramCore {
    pub(crate) count: AtomicU64,
    pub(crate) sum_ns: AtomicU64,
    pub(crate) max_ns: AtomicU64,
    pub(crate) buckets: Vec<AtomicU64>,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let idx = (u64::BITS - ns.leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Approximate quantile from the log₂ buckets: the geometric midpoint
    /// of the bucket containing the `q`-th sample. Zero when empty.
    pub(crate) fn approx_quantile(&self, q: f64) -> f64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                return 1.5 * lo; // midpoint of [2^(i-1), 2^i)
            }
        }
        self.max_ns.load(Ordering::Relaxed) as f64
    }
}

/// Name → handle maps; `BTreeMap` so every export walks in a deterministic
/// order.
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<String, &'static AtomicU64>,
    pub(crate) gauges: BTreeMap<String, &'static AtomicU64>,
    pub(crate) histograms: BTreeMap<String, &'static HistogramCore>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

pub(crate) fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    // The registry mutex guards only name→handle maps; no user code runs
    // under it, so poisoning is impossible in practice — recover regardless.
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

fn counter_handle(name: &str) -> &'static AtomicU64 {
    with_registry(|r| {
        if let Some(h) = r.counters.get(name) {
            return *h;
        }
        let h: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        r.counters.insert(name.to_string(), h);
        h
    })
}

fn gauge_handle(name: &str) -> &'static AtomicU64 {
    with_registry(|r| {
        if let Some(h) = r.gauges.get(name) {
            return *h;
        }
        let h: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0f64.to_bits())));
        r.gauges.insert(name.to_string(), h);
        h
    })
}

pub(crate) fn histogram_handle(name: &str) -> &'static HistogramCore {
    with_registry(|r| {
        if let Some(h) = r.histograms.get(name) {
            return *h;
        }
        let h: &'static HistogramCore = Box::leak(Box::new(HistogramCore::new()));
        r.histograms.insert(name.to_string(), h);
        h
    })
}

/// A named monotonic counter. Declare one `static` per call site; the
/// registry handle is resolved on first enabled increment and cached, so
/// two statics with the same name share one underlying cell.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl Counter {
    /// A counter handle for `name` (no registration until first use).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `n`. One relaxed load when telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| counter_handle(self.name))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 if the counter was never touched while enabled).
    pub fn value(&self) -> u64 {
        match self.cell.get() {
            Some(h) => h.load(Ordering::Relaxed),
            None => with_registry(|r| {
                r.counters
                    .get(self.name)
                    .map(|h| h.load(Ordering::Relaxed))
                    .unwrap_or(0)
            }),
        }
    }
}

/// Set a dynamically named gauge (e.g. built per window); this takes the
/// registry mutex on every call.
pub fn set_gauge(name: &str, value: f64) {
    if !crate::enabled() || !value.is_finite() {
        return;
    }
    gauge_handle(name).store(value.to_bits(), Ordering::Relaxed);
}

/// Set a gauge with Prometheus-style labels: `base{k="v",…}`. The base
/// name is sanitized for exposition up front, so the stored key renders
/// and parses as-is.
pub fn set_gauge_labeled(base: &str, labels: &[(&str, &str)], value: f64) {
    if !crate::enabled() || !value.is_finite() {
        return;
    }
    let mut name = crate::export::sanitize_metric_name(base);
    name.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            name.push(',');
        }
        name.push_str(&crate::export::sanitize_metric_name(k));
        name.push_str("=\"");
        // Escape per the exposition format (backslash, quote, newline)
        // so the value round-trips instead of being mangled.
        for c in v.chars() {
            match c {
                '\\' => name.push_str("\\\\"),
                '"' => name.push_str("\\\""),
                '\n' => name.push_str("\\n"),
                c => name.push(c),
            }
        }
        name.push('"');
    }
    name.push('}');
    set_gauge(&name, value);
}

/// A named nanosecond histogram. Spans feed these automatically; declare a
/// `static` handle to record non-span durations or sizes.
pub struct Histogram {
    name: &'static str,
    cell: OnceLock<&'static HistogramCore>,
}

impl Histogram {
    /// A histogram handle for `name` (no registration until first use).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Record one sample. One relaxed load when telemetry is disabled.
    #[inline]
    pub fn record(&self, ns: u64) {
        if !crate::enabled() {
            return;
        }
        self.cell
            .get_or_init(|| histogram_handle(self.name))
            .record(ns);
    }

    /// Total recorded samples (0 if never touched while enabled).
    pub fn count(&self) -> u64 {
        match self.cell.get() {
            Some(h) => h.count.load(Ordering::Relaxed),
            None => with_registry(|r| {
                r.histograms
                    .get(self.name)
                    .map(|h| h.count.load(Ordering::Relaxed))
                    .unwrap_or(0)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_mode(ObsMode::Metrics);
        let core = HistogramCore::new();
        for ns in [0u64, 1, 2, 3, 1000, 1_000_000] {
            core.record(ns);
        }
        assert_eq!(core.count.load(Ordering::Relaxed), 6);
        assert_eq!(core.sum_ns.load(Ordering::Relaxed), 1_001_006);
        assert_eq!(core.max_ns.load(Ordering::Relaxed), 1_000_000);
        // p0..p16 land in the low buckets; p99 must land near the max.
        assert!(core.approx_quantile(0.99) > 500_000.0);
        assert!(core.approx_quantile(0.01) < 2.0);
        crate::set_mode(ObsMode::Disabled);
    }

    #[test]
    fn same_name_shares_one_cell() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_mode(ObsMode::Metrics);
        static A: Counter = Counter::new("test.registry.shared");
        static B: Counter = Counter::new("test.registry.shared");
        let before = A.value();
        A.add(2);
        B.add(3);
        assert_eq!(A.value(), before + 5);
        assert_eq!(B.value(), before + 5);
        crate::set_mode(ObsMode::Disabled);
    }

    #[test]
    fn labeled_gauge_renders_prometheus_shape() {
        let _g = crate::tests::TEST_LOCK.lock().unwrap();
        crate::set_mode(ObsMode::Metrics);
        set_gauge_labeled("test.registry.node_source", &[("node", "3")], 2.0);
        let snap = crate::snapshot();
        let got = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "test_registry_node_source{node=\"3\"}");
        assert_eq!(got.map(|(_, v)| *v), Some(2.0));
        crate::set_mode(ObsMode::Disabled);
    }
}
