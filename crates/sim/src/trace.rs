//! Monitoring traces: what the instrumentation actually measured.
//!
//! Each completed request contributes one [`TraceRow`]: per-service elapsed
//! times (`X₁…X_n`, zero for services off the taken path) and the
//! end-to-end response time `D`. Conversion to a model-ready
//! [`Dataset`] puts `D` in the *last* column, the node-ordering convention
//! used across the workspace (service `s` ↔ column `s`, `D` ↔ column `n`).

use kert_bayes::Dataset;
use serde::{Deserialize, Serialize};

// One counter per completed request recorded anywhere in the process — the
// simulator's raw measurement throughput.
static OBS_TRACE_ROWS: kert_obs::Counter = kert_obs::Counter::new("sim.trace.rows");

/// One completed request's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Simulation time at which the request completed.
    pub completed_at: f64,
    /// Per-service elapsed times (wait + service; loop iterations
    /// accumulate; unvisited services are zero).
    pub elapsed: Vec<f64>,
    /// End-to-end response time.
    pub response_time: f64,
    /// Mean utilization observed on each monitored host while this request
    /// was served (empty when no host layout is configured).
    #[serde(default)]
    pub resources: Vec<f64>,
}

/// A sequence of completed-request measurements, completion-time ordered.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    n_services: usize,
    /// Names of the monitored shared resources (hosts), in column order.
    resource_names: Vec<String>,
    rows: Vec<TraceRow>,
}

impl Trace {
    /// An empty trace over `n_services` services, no resource columns.
    pub fn new(n_services: usize) -> Self {
        Trace {
            n_services,
            resource_names: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// An empty trace with shared-resource (host utilization) columns.
    pub fn with_resources(n_services: usize, resource_names: Vec<String>) -> Self {
        Trace {
            n_services,
            resource_names,
            rows: Vec::new(),
        }
    }

    /// Append a row (rows must arrive in completion order).
    pub fn push(&mut self, row: TraceRow) {
        debug_assert_eq!(row.elapsed.len(), self.n_services);
        debug_assert_eq!(row.resources.len(), self.resource_names.len());
        debug_assert!(self
            .rows
            .last()
            .is_none_or(|last| last.completed_at <= row.completed_at));
        OBS_TRACE_ROWS.incr();
        self.rows.push(row);
    }

    /// All rows.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no requests completed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Response-time column.
    pub fn response_times(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.response_time).collect()
    }

    /// Thin the trace to the monitoring cadence: keep the *last* completed
    /// request of each `t_data`-long interval — one reported data point per
    /// collection interval, as in the paper's `T_DATA` scheme.
    pub fn sample_every(&self, t_data: f64) -> Trace {
        assert!(t_data > 0.0, "T_DATA must be positive");
        let mut out = Trace::with_resources(self.n_services, self.resource_names.clone());
        let mut current_bucket: Option<(u64, TraceRow)> = None;
        for row in &self.rows {
            let bucket = (row.completed_at / t_data) as u64;
            match &mut current_bucket {
                Some((b, pending)) if *b == bucket => *pending = row.clone(),
                Some((b, pending)) => {
                    debug_assert!(*b < bucket);
                    out.rows.push(pending.clone());
                    current_bucket = Some((bucket, row.clone()));
                }
                None => current_bucket = Some((bucket, row.clone())),
            }
        }
        if let Some((_, pending)) = current_bucket {
            out.rows.push(pending);
        }
        out
    }

    /// Split into consecutive windows of `rows_per_window` rows — the
    /// per-construction-interval slices the monitoring agents report on.
    /// The final window may be shorter; it is kept only if non-empty.
    pub fn windows(&self, rows_per_window: usize) -> Vec<Trace> {
        assert!(rows_per_window > 0, "windows need at least one row");
        self.rows
            .chunks(rows_per_window)
            .map(|chunk| {
                let mut w = Trace::with_resources(self.n_services, self.resource_names.clone());
                w.rows.extend_from_slice(chunk);
                w
            })
            .collect()
    }

    /// Aggregate the trace into the §3.3 *timeout-count* metric: per
    /// `t_data`-long interval, count how many requests saw each service's
    /// elapsed time exceed its deadline (`deadlines[s]`), plus the
    /// end-to-end count `D = Σ Xᵢ` in the last column (each sub-transaction
    /// timeout is attributed to its service; the transaction-level counter
    /// is their sum, which is exactly the `f` the paper derives for this
    /// metric).
    ///
    /// Column names: `T1…Tn, D`. Resource columns are not produced (the
    /// count metric concerns transactions, not hosts).
    pub fn timeout_counts(&self, deadlines: &[f64], t_data: f64) -> Dataset {
        assert_eq!(deadlines.len(), self.n_services, "one deadline per service");
        assert!(t_data > 0.0, "T_DATA must be positive");
        let names: Vec<String> = (0..self.n_services)
            .map(|i| format!("T{}", i + 1))
            .chain(std::iter::once("D".to_string()))
            .collect();
        let mut ds = Dataset::new(names);
        let mut bucket: Option<u64> = None;
        let mut counts = vec![0.0; self.n_services + 1];
        for row in &self.rows {
            let b = (row.completed_at / t_data) as u64;
            if bucket.is_some_and(|cur| cur != b) {
                ds.push_row(counts.clone()).expect("fixed width");
                counts.fill(0.0);
            }
            bucket = Some(b);
            for (s, (&x, &dl)) in row.elapsed.iter().zip(deadlines.iter()).enumerate() {
                if x > dl {
                    counts[s] += 1.0;
                }
            }
            // End-to-end counter: total sub-transaction timeouts.
            counts[self.n_services] = counts[..self.n_services].iter().sum();
        }
        if bucket.is_some() {
            ds.push_row(counts).expect("fixed width");
        }
        ds
    }

    /// Like [`Trace::to_dataset`], but with multiplicative Gaussian
    /// measurement noise (`rel_noise` as a fraction, e.g. `0.02` = 2%) on
    /// every reading. Models the imprecision of code-instrumentation
    /// monitoring points — the paper's justification for the "leak" term
    /// of Eq. 4: with noisy measurements, `D` is no longer *exactly*
    /// `f(𝕏)`, so neither model family gets a degenerate deterministic
    /// column.
    pub fn to_noisy_dataset<R: rand::Rng + ?Sized>(
        &self,
        service_names: Option<&[String]>,
        rel_noise: f64,
        rng: &mut R,
    ) -> Dataset {
        assert!(rel_noise >= 0.0, "noise fraction must be non-negative");
        let clean = self.to_dataset(service_names);
        let mut out = Dataset::new(clean.names().to_vec());
        for r in 0..clean.rows() {
            let row: Vec<f64> = clean
                .row(r)
                .iter()
                .map(|&v| {
                    let noise = symmetric_normal(rng) * rel_noise * v.abs();
                    (v + noise).max(0.0)
                })
                .collect();
            out.push_row(row).expect("fixed width");
        }
        out
    }

    /// Convert to a model dataset: columns `X1..Xn`, then one column per
    /// monitored resource, then `D` (node order).
    pub fn to_dataset(&self, service_names: Option<&[String]>) -> Dataset {
        let mut names: Vec<String> = match service_names {
            Some(ns) => {
                assert_eq!(ns.len(), self.n_services, "name count mismatch");
                ns.to_vec()
            }
            None => (0..self.n_services)
                .map(|i| format!("X{}", i + 1))
                .collect(),
        };
        names.extend(self.resource_names.iter().cloned());
        names.push("D".to_string());
        let mut ds = Dataset::new(names);
        for row in &self.rows {
            let mut values = row.elapsed.clone();
            values.extend_from_slice(&row.resources);
            values.push(row.response_time);
            ds.push_row(values).expect("trace rows are rectangular");
        }
        ds
    }
}

/// A standard-normal draw (Box–Muller; unclamped, unlike
/// [`crate::dist::Dist::Normal`] which truncates at zero for delays).
fn symmetric_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: f64, elapsed: Vec<f64>, d: f64) -> TraceRow {
        TraceRow {
            completed_at: t,
            elapsed,
            response_time: d,
            resources: Vec::new(),
        }
    }

    fn demo() -> Trace {
        let mut t = Trace::new(2);
        t.push(row(1.0, vec![0.1, 0.2], 0.3));
        t.push(row(2.5, vec![0.2, 0.3], 0.5));
        t.push(row(2.9, vec![0.3, 0.1], 0.4));
        t.push(row(7.2, vec![0.5, 0.5], 1.0));
        t
    }

    #[test]
    fn columns_extract() {
        let t = demo();
        assert_eq!(t.len(), 4);
        assert_eq!(t.response_times(), vec![0.3, 0.5, 0.4, 1.0]);
        let elapsed_1: Vec<f64> = t.rows().iter().map(|r| r.elapsed[1]).collect();
        assert_eq!(elapsed_1, vec![0.2, 0.3, 0.1, 0.5]);
    }

    #[test]
    fn sample_every_keeps_last_of_each_interval() {
        let t = demo();
        // Intervals of 2s: [0,2) → t=1.0; [2,4) → t=2.9 (last); [6,8) → 7.2.
        let s = t.sample_every(2.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.rows()[0].completed_at, 1.0);
        assert_eq!(s.rows()[1].completed_at, 2.9);
        assert_eq!(s.rows()[2].completed_at, 7.2);
    }

    #[test]
    fn to_dataset_layout() {
        let t = demo();
        let ds = t.to_dataset(None);
        assert_eq!(ds.names(), &["X1", "X2", "D"]);
        assert_eq!(ds.rows(), 4);
        assert_eq!(ds.get(1, 2), 0.5);
        assert_eq!(ds.get(3, 0), 0.5);

        let named = t.to_dataset(Some(&["a".to_string(), "b".to_string()]));
        assert_eq!(named.names(), &["a", "b", "D"]);
    }

    #[test]
    fn timeout_counts_aggregate_per_interval() {
        // Deadlines 0.25 per service; rows at t=1.0, 2.5, 2.9 land in
        // intervals [0,2) and [2,4), t=7.2 in [6,8).
        let t = demo();
        let counts = t.timeout_counts(&[0.25, 0.25], 2.0);
        assert_eq!(counts.names(), &["T1", "T2", "D"]);
        assert_eq!(counts.rows(), 3);
        // Interval 1: row (0.1, 0.2) → no timeouts.
        assert_eq!(counts.row(0), &[0.0, 0.0, 0.0]);
        // Interval 2: rows (0.2,0.3) and (0.3,0.1): X1 over once (0.3),
        // X2 over once (0.3).
        assert_eq!(counts.row(1), &[1.0, 1.0, 2.0]);
        // Interval 3: (0.5, 0.5): both over.
        assert_eq!(counts.row(2), &[1.0, 1.0, 2.0]);
        // The count metric satisfies its own reduction: D = Σ Tᵢ.
        for r in 0..counts.rows() {
            let row = counts.row(r);
            assert_eq!(row[2], row[0] + row[1]);
        }
    }

    #[test]
    fn noisy_dataset_stays_close_and_nonnegative() {
        use rand::SeedableRng;
        let t = demo();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let noisy = t.to_noisy_dataset(None, 0.05, &mut rng);
        let clean = t.to_dataset(None);
        assert_eq!(noisy.rows(), clean.rows());
        for r in 0..clean.rows() {
            for c in 0..clean.columns() {
                let v = clean.get(r, c);
                let w = noisy.get(r, c);
                assert!(w >= 0.0);
                assert!((w - v).abs() <= 0.3 * v.abs() + 1e-12, "{w} vs {v}");
            }
        }
        // Zero noise reproduces the clean dataset exactly.
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(2);
        let same = t.to_noisy_dataset(None, 0.0, &mut rng2);
        for r in 0..clean.rows() {
            assert_eq!(same.row(r), clean.row(r));
        }
    }

    #[test]
    fn windows_partition_the_trace() {
        let t = demo();
        let ws = t.windows(3);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].len(), 3);
        assert_eq!(ws[1].len(), 1);
        assert_eq!(ws[1].rows()[0].completed_at, 7.2);
        // Exact division leaves no ragged tail.
        assert_eq!(t.windows(2).len(), 2);
        assert!(Trace::new(2).windows(5).is_empty());
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new(3);
        assert!(t.is_empty());
        assert_eq!(t.sample_every(1.0).len(), 0);
        assert_eq!(t.to_dataset(None).rows(), 0);
    }
}
