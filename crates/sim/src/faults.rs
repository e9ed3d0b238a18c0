//! Deterministic, seeded fault injection on the agent → server report path.
//!
//! §5.1 lists "failure in the act of data reporting" as one of the normal
//! operating conditions an autonomic modeler must survive; related
//! diagnosis systems (ALPINE, belief-net bottleneck detection) treat noisy
//! and partial telemetry as the common case. This module perturbs
//! [`AgentReport`]s *before* they reach the management server according to
//! per-agent [`FaultPlan`]s:
//!
//! * **crash** — the agent dies at a window and never reports again;
//! * **drop** — each delivery attempt loses the whole report with
//!   probability `p` (retransmission may succeed);
//! * **delay** — the report straggles in `d` windows late;
//! * **corrupt** — individual rows are poisoned with `NaN` or gross
//!   outliers (broken instrumentation);
//! * **truncate** — only a prefix of the window's rows is shipped
//!   (partial batch).
//!
//! Every decision is drawn from an RNG keyed by
//! `(seed, agent, window, attempt)`, so a fault schedule is a pure
//! function of the plan — bitwise reproducible regardless of thread
//! scheduling or call order, and a retry (`attempt + 1`) sees fresh,
//! independent randomness like a real retransmission would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::monitor::AgentReport;
use crate::{Result, SimError};

// Injection telemetry: one counter per fault kind (counting *injections*,
// not attempts) plus a `sim.fault` JSONL event per injected fault so a
// fault sweep leaves an auditable event stream next to the ladder events
// the learner emits when it heals around them.
static OBS_DELIVERIES: kert_obs::Counter = kert_obs::Counter::new("sim.faults.deliveries");
static OBS_CRASHED: kert_obs::Counter = kert_obs::Counter::new("sim.faults.crashed");
static OBS_DROPPED: kert_obs::Counter = kert_obs::Counter::new("sim.faults.dropped");
static OBS_DELAYED: kert_obs::Counter = kert_obs::Counter::new("sim.faults.delayed");
static OBS_CORRUPTED: kert_obs::Counter = kert_obs::Counter::new("sim.faults.corrupted_rows");
static OBS_TRUNCATED: kert_obs::Counter = kert_obs::Counter::new("sim.faults.truncated");

impl FaultEvent {
    /// Stable lower-case name of the fault kind (telemetry label).
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultEvent::Crashed => "crashed",
            FaultEvent::Dropped => "dropped",
            FaultEvent::Delayed { .. } => "delayed",
            FaultEvent::CorruptedRows { .. } => "corrupted_rows",
            FaultEvent::Truncated { .. } => "truncated",
        }
    }
}

/// Count one injected fault and, in JSONL mode, emit a `sim.fault` event
/// keyed by the delivery-attempt coordinates.
fn record_fault(event: &FaultEvent, agent: usize, window: usize, attempt: usize) {
    let (counter, magnitude) = match event {
        FaultEvent::Crashed => (&OBS_CRASHED, 1.0),
        FaultEvent::Dropped => (&OBS_DROPPED, 1.0),
        FaultEvent::Delayed { windows } => (&OBS_DELAYED, *windows as f64),
        FaultEvent::CorruptedRows { rows } => (&OBS_CORRUPTED, *rows as f64),
        FaultEvent::Truncated { kept, .. } => (&OBS_TRUNCATED, *kept as f64),
    };
    counter.incr();
    if kert_obs::jsonl_enabled() {
        kert_obs::event(
            "sim.fault",
            magnitude,
            &[
                ("kind", event.kind_name()),
                ("agent", &agent.to_string()),
                ("window", &window.to_string()),
                ("attempt", &attempt.to_string()),
            ],
        );
    }
}

/// The fault behaviour of one monitoring agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Window index from which the agent is dead (inclusive). `None` =
    /// never crashes.
    pub crash_at_window: Option<usize>,
    /// Probability that a delivery attempt loses the whole report.
    pub drop_prob: f64,
    /// Probability that a delivered report straggles.
    pub delay_prob: f64,
    /// How many windows a straggling report is late.
    pub delay_windows: usize,
    /// Per-row probability of corruption (NaN or gross outlier).
    pub corrupt_prob: f64,
    /// Probability that a report is truncated to a prefix of its rows.
    pub truncate_prob: f64,
    /// Fraction of rows kept when truncation strikes (clamped to ≥ 1 row).
    pub truncate_keep: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::healthy()
    }
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn healthy() -> Self {
        FaultPlan {
            crash_at_window: None,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_windows: 0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            truncate_keep: 0.5,
        }
    }

    /// Crash the agent at window `k` (no reports from `k` on).
    pub fn crash_at(window: usize) -> Self {
        FaultPlan {
            crash_at_window: Some(window),
            ..FaultPlan::healthy()
        }
    }

    /// Validate probability ranges.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("delay_prob", self.delay_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("truncate_prob", self.truncate_prob),
            ("truncate_keep", self.truncate_keep),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::BadFaultPlan(format!("{name} = {p}")));
            }
        }
        Ok(())
    }

    /// Whether this plan can inject anything at all.
    pub fn is_healthy(&self) -> bool {
        self.crash_at_window.is_none()
            && self.drop_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.truncate_prob == 0.0
    }
}

/// What the injector did to one delivery attempt (for health accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The agent is crashed; nothing will ever arrive.
    Crashed,
    /// The report was lost in transit.
    Dropped,
    /// The report straggles this many windows late.
    Delayed {
        /// Lateness in windows.
        windows: usize,
    },
    /// Rows were poisoned with NaN/outlier values.
    CorruptedRows {
        /// Number of corrupted rows.
        rows: usize,
    },
    /// Only a prefix of the rows was shipped.
    Truncated {
        /// Rows that survived.
        kept: usize,
        /// Rows originally in the report.
        of: usize,
    },
}

/// Outcome of one delivery attempt.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// The (possibly perturbed) report arrived on time.
    Delivered(AgentReport),
    /// The report will arrive, but `windows` windows late.
    Delayed {
        /// Lateness in windows.
        windows: usize,
        /// The straggling (possibly perturbed) report.
        report: AgentReport,
    },
    /// Nothing arrived and nothing will (crash or loss).
    Missing,
}

/// Seeded fault injector for a fleet of agents.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    plans: Vec<FaultPlan>,
}

impl FaultInjector {
    /// Build an injector from per-agent plans (`plans[a]` for agent `a`).
    pub fn new(seed: u64, plans: Vec<FaultPlan>) -> Result<Self> {
        for plan in &plans {
            plan.validate()?;
        }
        Ok(FaultInjector { seed, plans })
    }

    /// An injector that perturbs nothing (useful as the zero of a sweep).
    pub fn healthy(n_agents: usize) -> Self {
        FaultInjector {
            seed: 0,
            plans: vec![FaultPlan::healthy(); n_agents],
        }
    }

    /// Perturb one delivery attempt of `agent`'s report for `window`.
    ///
    /// Deterministic in `(seed, agent, window, attempt)`: calling twice
    /// with the same key yields bitwise-identical outcomes.
    pub fn deliver(
        &self,
        agent: usize,
        window: usize,
        attempt: usize,
        report: &AgentReport,
    ) -> (Delivery, Vec<FaultEvent>) {
        OBS_DELIVERIES.incr();
        let plan = &self.plans[agent];
        if plan.crash_at_window.is_some_and(|k| window >= k) {
            let event = FaultEvent::Crashed;
            record_fault(&event, agent, window, attempt);
            return (Delivery::Missing, vec![event]);
        }
        if plan.is_healthy() {
            return (Delivery::Delivered(report.clone()), Vec::new());
        }
        let mut rng = StdRng::seed_from_u64(mix_key(
            self.seed,
            agent as u64,
            window as u64,
            attempt as u64,
        ));
        if rng.gen::<f64>() < plan.drop_prob {
            let event = FaultEvent::Dropped;
            record_fault(&event, agent, window, attempt);
            return (Delivery::Missing, vec![event]);
        }

        let mut events = Vec::new();
        let mut report = report.clone();

        // Truncation: ship only a prefix of the batch.
        if plan.truncate_prob > 0.0 && rng.gen::<f64>() < plan.truncate_prob {
            let rows = report.data.rows();
            let keep = ((rows as f64 * plan.truncate_keep).ceil() as usize).clamp(1, rows.max(1));
            if keep < rows {
                report = truncate_report(&report, keep);
                events.push(FaultEvent::Truncated {
                    kept: keep,
                    of: rows,
                });
            }
        }

        // Corruption: poison individual rows with NaN or gross outliers.
        if plan.corrupt_prob > 0.0 {
            let corrupted = corrupt_report(&mut report, plan.corrupt_prob, &mut rng);
            if corrupted > 0 {
                events.push(FaultEvent::CorruptedRows { rows: corrupted });
            }
        }

        if plan.delay_prob > 0.0 && rng.gen::<f64>() < plan.delay_prob {
            let windows = plan.delay_windows.max(1);
            events.push(FaultEvent::Delayed { windows });
            for event in &events {
                record_fault(event, agent, window, attempt);
            }
            return (Delivery::Delayed { windows, report }, events);
        }
        for event in &events {
            record_fault(event, agent, window, attempt);
        }
        (Delivery::Delivered(report), events)
    }
}

/// Keep the first `keep` rows of a report.
fn truncate_report(report: &AgentReport, keep: usize) -> AgentReport {
    let mut data = kert_bayes::Dataset::new(report.data.names().to_vec());
    for r in 0..keep {
        data.push_row(report.data.row(r).to_vec())
            .expect("truncated rows keep the report's width");
    }
    AgentReport {
        service: report.service,
        data,
        row_ids: report.row_ids.iter().take(keep).copied().collect(),
        values_received: report.values_received,
    }
}

/// Poison rows in place; returns the number of corrupted rows.
fn corrupt_report(report: &mut AgentReport, per_row_prob: f64, rng: &mut StdRng) -> usize {
    let rows = report.data.rows();
    let cols = report.data.columns();
    if rows == 0 || cols == 0 {
        return 0;
    }
    let mut rebuilt = kert_bayes::Dataset::new(report.data.names().to_vec());
    let mut corrupted = 0usize;
    for r in 0..rows {
        let mut row = report.data.row(r).to_vec();
        if rng.gen::<f64>() < per_row_prob {
            let col = rng.gen_range(0..cols);
            // Alternate between the two instrumentation pathologies: a
            // reading that never materialized (NaN) and a clock glitch
            // (gross outlier).
            row[col] = if rng.gen::<bool>() {
                f64::NAN
            } else {
                row[col].abs().max(1e-3) * 1e3
            };
            corrupted += 1;
        }
        rebuilt
            .push_row(row)
            .expect("corruption preserves the report's width");
    }
    report.data = rebuilt;
    corrupted
}

/// SplitMix64-style avalanche, used to key per-attempt RNG streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a `(seed, agent, window, attempt)` key into one RNG seed.
fn mix_key(seed: u64, agent: u64, window: u64, attempt: u64) -> u64 {
    let mut h = splitmix64(seed);
    h = splitmix64(h ^ agent);
    h = splitmix64(h ^ window.wrapping_mul(0x0000_0001_0000_001B));
    splitmix64(h ^ attempt.wrapping_mul(0x0000_0100_0000_01B3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitoringAgent;
    use crate::trace::{Trace, TraceRow};

    fn demo_report(rows: usize) -> AgentReport {
        let mut t = Trace::new(2);
        for i in 0..rows {
            t.push(TraceRow {
                completed_at: i as f64,
                elapsed: vec![0.1 + i as f64, 0.2 + i as f64],
                response_time: 0.3,
                resources: Vec::new(),
            });
        }
        MonitoringAgent::new(1, vec![0]).report(&t)
    }

    #[test]
    fn healthy_plan_is_identity() {
        let injector = FaultInjector::healthy(2);
        let report = demo_report(5);
        let (delivery, events) = injector.deliver(1, 0, 0, &report);
        assert!(events.is_empty());
        match delivery {
            Delivery::Delivered(r) => {
                assert_eq!(r.data.rows(), 5);
                assert_eq!(r.row_ids, report.row_ids);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_is_permanent_from_its_window() {
        let injector = FaultInjector::new(7, vec![FaultPlan::crash_at(2)]).unwrap();
        let report = demo_report(3);
        for window in 0..2 {
            assert!(matches!(
                injector.deliver(0, window, 0, &report).0,
                Delivery::Delivered(_)
            ));
        }
        for window in 2..6 {
            let (delivery, events) = injector.deliver(0, window, 0, &report);
            assert!(matches!(delivery, Delivery::Missing));
            assert_eq!(events, vec![FaultEvent::Crashed]);
        }
    }

    #[test]
    fn deliveries_are_deterministic_per_key_and_vary_across_attempts() {
        let plan = FaultPlan {
            drop_prob: 0.5,
            corrupt_prob: 0.3,
            truncate_prob: 0.3,
            delay_prob: 0.2,
            delay_windows: 1,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(11, vec![plan; 3]).unwrap();
        let report = demo_report(20);
        // Same key twice → bitwise-identical outcome.
        for agent in 0..3 {
            for window in 0..4 {
                for attempt in 0..3 {
                    let (a, ea) = injector.deliver(agent, window, attempt, &report);
                    let (b, eb) = injector.deliver(agent, window, attempt, &report);
                    assert_eq!(ea, eb);
                    match (a, b) {
                        (Delivery::Delivered(x), Delivery::Delivered(y)) => {
                            assert_eq!(x.row_ids, y.row_ids);
                            for r in 0..x.data.rows() {
                                for c in 0..x.data.columns() {
                                    let (xv, yv) = (x.data.get(r, c), y.data.get(r, c));
                                    assert!(xv == yv || (xv.is_nan() && yv.is_nan()));
                                }
                            }
                        }
                        (Delivery::Missing, Delivery::Missing) => {}
                        (
                            Delivery::Delayed { windows: wx, .. },
                            Delivery::Delayed { windows: wy, .. },
                        ) => assert_eq!(wx, wy),
                        other => panic!("outcomes diverged: {other:?}"),
                    }
                }
            }
        }
        // Different attempts must not all collapse onto one outcome: a
        // p=0.5 drop should both hit and miss somewhere over 24 attempts.
        let mut dropped = 0;
        let mut delivered = 0;
        for window in 0..8 {
            for attempt in 0..3 {
                match injector.deliver(0, window, attempt, &report).0 {
                    Delivery::Missing => dropped += 1,
                    _ => delivered += 1,
                }
            }
        }
        assert!(dropped > 0 && delivered > 0, "{dropped} vs {delivered}");
    }

    #[test]
    fn truncation_keeps_a_prefix_with_matching_ids() {
        let plan = FaultPlan {
            truncate_prob: 1.0,
            truncate_keep: 0.4,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(3, vec![plan]).unwrap();
        let report = demo_report(10);
        let (delivery, events) = injector.deliver(0, 0, 0, &report);
        let Delivery::Delivered(r) = delivery else {
            panic!("truncation still delivers");
        };
        assert_eq!(r.data.rows(), 4);
        assert_eq!(r.row_ids, (0..4).collect::<Vec<u64>>());
        assert_eq!(events, vec![FaultEvent::Truncated { kept: 4, of: 10 }]);
    }

    #[test]
    fn corruption_poisons_rows() {
        let plan = FaultPlan {
            corrupt_prob: 1.0,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(5, vec![plan]).unwrap();
        let report = demo_report(12);
        let (delivery, events) = injector.deliver(0, 0, 0, &report);
        let Delivery::Delivered(r) = delivery else {
            panic!("corruption still delivers");
        };
        assert_eq!(events, vec![FaultEvent::CorruptedRows { rows: 12 }]);
        // Every row carries either a NaN or a ×1000 outlier.
        for row in 0..r.data.rows() {
            let poisoned = (0..r.data.columns()).any(|c| {
                let v = r.data.get(row, c);
                v.is_nan() || v > 100.0
            });
            assert!(poisoned, "row {row} unpoisoned");
        }
    }

    #[test]
    fn delay_straggles_by_the_configured_windows() {
        let plan = FaultPlan {
            delay_prob: 1.0,
            delay_windows: 3,
            ..FaultPlan::healthy()
        };
        let injector = FaultInjector::new(9, vec![plan]).unwrap();
        let (delivery, events) = injector.deliver(0, 0, 0, &demo_report(4));
        match delivery {
            Delivery::Delayed { windows, report } => {
                assert_eq!(windows, 3);
                assert_eq!(report.data.rows(), 4);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(events, vec![FaultEvent::Delayed { windows: 3 }]);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let bad_drop = FaultPlan {
            drop_prob: 1.5,
            ..FaultPlan::healthy()
        };
        assert!(FaultInjector::new(0, vec![bad_drop]).is_err());
        let bad_keep = FaultPlan {
            truncate_keep: -0.1,
            ..FaultPlan::healthy()
        };
        assert!(FaultInjector::new(0, vec![bad_keep]).is_err());
        assert!(FaultPlan::healthy().validate().is_ok());
    }
}
