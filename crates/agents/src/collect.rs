//! Report collection for the management server: retry, backoff,
//! sanitization.
//!
//! The conventional runtime ([`crate::runtime::decentralized_learn`])
//! assumes every agent's local dataset is simply *there*. This module
//! models the lossy path in between: the server asks each agent for its
//! window report, retries bounded times on loss (with exponential backoff
//! accounted in simulated windows, never wall-clock sleeps), tolerates
//! bounded straggling, and drops the rows corruption poisoned. Each report
//! is self-contained (the node's own column plus its parents'), so a
//! partial batch is still fitted on its own and never realigned against
//! other agents' reports.

use kert_bayes::Dataset;
use kert_sim::{AgentReport, Delivery, FaultEvent, FaultInjector, MonitoringAgent, Trace};

// Collection-path telemetry: every fetch attempt, retransmission, and
// simulated window spent waiting (backoff + accepted straggle). Crash
// short-circuits count separately because they end a collection outright.
static OBS_FETCHES: kert_obs::Counter = kert_obs::Counter::new("agents.collect.fetches");
static OBS_RETRIES: kert_obs::Counter = kert_obs::Counter::new("agents.collect.retries");
static OBS_WAITED: kert_obs::Counter = kert_obs::Counter::new("agents.collect.waited_windows");
static OBS_CRASH_ABORTS: kert_obs::Counter = kert_obs::Counter::new("agents.collect.crash_aborts");

/// Where the server gets its per-agent window reports from.
///
/// Abstracting the source keeps the self-healing learner testable: tests
/// can script arbitrary delivery sequences without building a simulator.
pub trait ReportSource {
    /// Number of agents in the fleet.
    fn n_agents(&self) -> usize;

    /// One delivery attempt of `agent`'s report for `window`.
    fn fetch(&mut self, agent: usize, window: usize, attempt: usize)
        -> (Delivery, Vec<FaultEvent>);
}

/// A fleet of monitoring agents reporting trace windows through a
/// [`FaultInjector`].
///
/// Row ids are global: window `w` starts at the cumulative row count of
/// windows `0..w`, so every row of every report — truncated or straggling
/// ones included — names the request it measured.
pub struct FaultyFleet<'a> {
    agents: &'a [MonitoringAgent],
    windows: &'a [Trace],
    injector: &'a FaultInjector,
    /// `window_starts[w]` = global id of the first row of window `w`.
    window_starts: Vec<u64>,
}

impl<'a> FaultyFleet<'a> {
    /// Build a fleet over pre-sliced trace windows.
    pub fn new(
        agents: &'a [MonitoringAgent],
        windows: &'a [Trace],
        injector: &'a FaultInjector,
    ) -> Self {
        let mut window_starts = Vec::with_capacity(windows.len());
        let mut start = 0u64;
        for w in windows {
            window_starts.push(start);
            start += w.len() as u64;
        }
        FaultyFleet {
            agents,
            windows,
            injector,
            window_starts,
        }
    }
}

impl ReportSource for FaultyFleet<'_> {
    fn n_agents(&self) -> usize {
        self.agents.len()
    }

    fn fetch(
        &mut self,
        agent: usize,
        window: usize,
        attempt: usize,
    ) -> (Delivery, Vec<FaultEvent>) {
        if window >= self.windows.len() {
            return (Delivery::Missing, Vec::new());
        }
        let report =
            self.agents[agent].report_window(&self.windows[window], self.window_starts[window]);
        self.injector.deliver(agent, window, attempt, &report)
    }
}

/// Retry/backoff policy for one report collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions after the first attempt (so `max_retries + 1`
    /// attempts total).
    pub max_retries: usize,
    /// Maximum straggle (in windows) the server waits out; a report
    /// delayed longer counts as missing for this window.
    pub patience_windows: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            patience_windows: 1,
        }
    }
}

impl RetryPolicy {
    /// Simulated windows charged for the backoff after retry `attempt`.
    ///
    /// Exponential (`2^attempt`) but *saturating*: a pathological retry
    /// budget (or a caller looping attempts externally) must never wrap
    /// the `u64` simulated clock — it pins at `u64::MAX` instead.
    pub fn backoff_windows(attempt: usize) -> u64 {
        u32::try_from(attempt)
            .ok()
            .and_then(|a| 1u64.checked_shl(a))
            .unwrap_or(u64::MAX)
    }
}

/// Accounting for one collection: what it cost and what was observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectStats {
    /// Retransmissions performed (0 = first attempt succeeded).
    pub retries: usize,
    /// Simulated windows spent waiting (saturating backoff 2^i per retry,
    /// plus any accepted straggle) — saturating, never wrapping.
    pub waited_windows: u64,
    /// Every fault event seen across all attempts.
    pub faults: Vec<FaultEvent>,
}

/// Collect one agent's report for `window`, retrying on loss.
///
/// Deterministic: backoff is pure accounting in simulated windows (each
/// retry `i` costs `2^i` windows), never a wall-clock sleep, and each
/// attempt keys fresh randomness in the source.
pub fn collect_report(
    source: &mut dyn ReportSource,
    agent: usize,
    window: usize,
    policy: &RetryPolicy,
) -> (Option<AgentReport>, CollectStats) {
    let mut stats = CollectStats::default();
    for attempt in 0..=policy.max_retries {
        OBS_FETCHES.incr();
        let (delivery, events) = source.fetch(agent, window, attempt);
        let crashed = events.contains(&FaultEvent::Crashed);
        stats.faults.extend(events);
        match delivery {
            Delivery::Delivered(report) => return (Some(report), stats),
            Delivery::Delayed { windows, report } if windows <= policy.patience_windows => {
                stats.waited_windows = stats.waited_windows.saturating_add(windows as u64);
                OBS_WAITED.add(windows as u64);
                return (Some(report), stats);
            }
            Delivery::Delayed { .. } | Delivery::Missing => {
                if crashed {
                    // A crashed agent never answers; retrying is pointless.
                    OBS_CRASH_ABORTS.incr();
                    return (None, stats);
                }
                if attempt < policy.max_retries {
                    let backoff = RetryPolicy::backoff_windows(attempt);
                    stats.retries += 1;
                    stats.waited_windows = stats.waited_windows.saturating_add(backoff);
                    OBS_RETRIES.incr();
                    OBS_WAITED.add(backoff);
                }
            }
        }
    }
    (None, stats)
}

/// Drop rows containing any non-finite value; returns the number dropped.
///
/// Corruption poisons individual rows (NaN / missing readings); the rest
/// of the batch is still good data, so reconciliation salvages it instead
/// of discarding the report.
pub fn sanitize_report(report: &mut AgentReport) -> usize {
    let rows = report.data.rows();
    let keep: Vec<usize> = (0..rows)
        .filter(|&r| report.data.row(r).iter().all(|v| v.is_finite()))
        .collect();
    if keep.len() == rows {
        return 0;
    }
    let dropped = rows - keep.len();
    let mut data = Dataset::new(report.data.names().to_vec());
    let mut row_ids = Vec::with_capacity(keep.len());
    for &r in &keep {
        data.push_row(report.data.row(r).to_vec())
            .expect("sanitized rows keep the report's width");
        if let Some(&id) = report.row_ids.get(r) {
            row_ids.push(id);
        }
    }
    report.data = data;
    report.row_ids = row_ids;
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_sim::FaultPlan;
    use kert_sim::Trace;

    fn demo_windows(n_services: usize, windows: usize, rows: usize) -> Vec<Trace> {
        let mut t = Trace::new(n_services);
        for i in 0..(windows * rows) {
            t.push(kert_sim::trace::TraceRow {
                completed_at: i as f64,
                elapsed: (0..n_services)
                    .map(|s| 0.1 * (s + 1) as f64 + i as f64)
                    .collect(),
                response_time: 1.0,
                resources: Vec::new(),
            });
        }
        t.windows(rows)
    }

    fn demo_agents() -> Vec<MonitoringAgent> {
        vec![
            MonitoringAgent::new(0, vec![]),
            MonitoringAgent::new(1, vec![0]),
        ]
    }

    #[test]
    fn healthy_fleet_delivers_first_try_with_global_ids() {
        let agents = demo_agents();
        let windows = demo_windows(2, 3, 4);
        let injector = FaultInjector::healthy(2);
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        assert_eq!(fleet.windows.len(), 3);
        let (report, stats) = collect_report(&mut fleet, 1, 2, &RetryPolicy::default());
        let report = report.expect("healthy delivery");
        assert_eq!(report.row_ids, vec![8, 9, 10, 11]);
        assert_eq!(stats, CollectStats::default());
    }

    #[test]
    fn crash_short_circuits_retries() {
        let agents = demo_agents();
        let windows = demo_windows(2, 2, 4);
        let injector =
            FaultInjector::new(1, vec![FaultPlan::healthy(), FaultPlan::crash_at(0)]).unwrap();
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let (report, stats) = collect_report(&mut fleet, 1, 0, &RetryPolicy::default());
        assert!(report.is_none());
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.faults, vec![FaultEvent::Crashed]);
    }

    #[test]
    fn drops_are_retried_with_exponential_backoff() {
        struct Script {
            failures: usize,
            calls: usize,
        }
        impl ReportSource for Script {
            fn n_agents(&self) -> usize {
                1
            }
            fn fetch(
                &mut self,
                _agent: usize,
                _window: usize,
                attempt: usize,
            ) -> (Delivery, Vec<FaultEvent>) {
                self.calls += 1;
                if attempt < self.failures {
                    (Delivery::Missing, vec![FaultEvent::Dropped])
                } else {
                    let trace = demo_windows(2, 1, 3).remove(0);
                    let report = MonitoringAgent::new(1, vec![0]).report(&trace);
                    (Delivery::Delivered(report), Vec::new())
                }
            }
        }
        let mut source = Script {
            failures: 2,
            calls: 0,
        };
        let policy = RetryPolicy {
            max_retries: 2,
            patience_windows: 1,
        };
        let (report, stats) = collect_report(&mut source, 0, 0, &policy);
        assert!(report.is_some());
        assert_eq!(source.calls, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.waited_windows, 1 + 2); // 2^0 + 2^1
        assert_eq!(stats.faults, vec![FaultEvent::Dropped, FaultEvent::Dropped]);

        // Exhausted retries → None.
        let mut source = Script {
            failures: 5,
            calls: 0,
        };
        let (report, stats) = collect_report(&mut source, 0, 0, &policy);
        assert!(report.is_none());
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn backoff_saturates_instead_of_wrapping() {
        // Small attempts keep the exact exponential schedule…
        assert_eq!(RetryPolicy::backoff_windows(0), 1);
        assert_eq!(RetryPolicy::backoff_windows(10), 1024);
        assert_eq!(RetryPolicy::backoff_windows(63), 1 << 63);
        // …and anything that would overflow the u64 simulated clock pins
        // at the maximum rather than wrapping to a tiny (or zero) delay.
        assert_eq!(RetryPolicy::backoff_windows(64), u64::MAX);
        assert_eq!(RetryPolicy::backoff_windows(1_000_000), u64::MAX);
        assert_eq!(RetryPolicy::backoff_windows(usize::MAX), u64::MAX);

        // An absurd retry budget accumulates to saturation, not a wrap.
        struct AlwaysMissing;
        impl ReportSource for AlwaysMissing {
            fn n_agents(&self) -> usize {
                1
            }
            fn fetch(
                &mut self,
                _agent: usize,
                _window: usize,
                _attempt: usize,
            ) -> (Delivery, Vec<FaultEvent>) {
                (Delivery::Missing, vec![FaultEvent::Dropped])
            }
        }
        let policy = RetryPolicy {
            max_retries: 80,
            patience_windows: 0,
        };
        let (report, stats) = collect_report(&mut AlwaysMissing, 0, 0, &policy);
        assert!(report.is_none());
        assert_eq!(stats.retries, 80);
        assert_eq!(stats.waited_windows, u64::MAX);
    }

    #[test]
    fn straggler_within_patience_is_accepted() {
        let agents = demo_agents();
        let windows = demo_windows(2, 1, 4);
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_windows: 1,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(2, vec![FaultPlan::healthy(), plan]).unwrap();
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let (report, stats) = collect_report(&mut fleet, 1, 0, &RetryPolicy::default());
        assert!(report.is_some());
        assert_eq!(stats.waited_windows, 1);
        assert_eq!(stats.faults, vec![FaultEvent::Delayed { windows: 1 }]);
    }

    #[test]
    fn straggler_beyond_patience_counts_as_missing() {
        let agents = demo_agents();
        let windows = demo_windows(2, 1, 4);
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_windows: 5,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(2, vec![FaultPlan::healthy(), plan]).unwrap();
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let (report, stats) = collect_report(&mut fleet, 1, 0, &RetryPolicy::default());
        assert!(report.is_none());
        assert_eq!(stats.retries, 2);
        assert_eq!(
            stats.faults,
            vec![
                FaultEvent::Delayed { windows: 5 },
                FaultEvent::Delayed { windows: 5 },
                FaultEvent::Delayed { windows: 5 }
            ]
        );
    }

    #[test]
    fn sanitize_drops_only_poisoned_rows() {
        let trace = demo_windows(2, 1, 5).remove(0);
        let mut report = MonitoringAgent::new(1, vec![0]).report(&trace);
        // Poison rows 1 and 3.
        let mut data = Dataset::new(report.data.names().to_vec());
        for r in 0..report.data.rows() {
            let mut row = report.data.row(r).to_vec();
            if r == 1 {
                row[0] = f64::NAN;
            }
            if r == 3 {
                row[1] = f64::INFINITY;
            }
            data.push_row(row).unwrap();
        }
        report.data = data;
        let dropped = sanitize_report(&mut report);
        assert_eq!(dropped, 2);
        assert_eq!(report.data.rows(), 3);
        assert_eq!(report.row_ids, vec![0, 2, 4]);
        assert_eq!(sanitize_report(&mut report), 0);
    }
}
