//! Fault sweep — degraded-mode accuracy vs fault rate.
//!
//! The robustness experiment the paper's §5.1 motivates but never runs:
//! keep the autonomic loop alive while the monitoring plane fails. Setup,
//! on the eDiaMoND test-bed:
//!
//! 1. **Bootstrap** under an *old* regime (the remote image locator `X₄`
//!    40% slower): a healthy window seeds the server's CPD cache and a
//!    clean model supplies the response-CPD noise σ.
//! 2. **The environment improves** (resource action on the remote site) —
//!    the cached `X₄` CPD is now obsolete.
//! 3. **Faults strike**: `X₄`'s agent crashes outright, and every other
//!    agent drops / corrupts / truncates / delays its report with
//!    probability scaled by the sweep's fault rate.
//! 4. The server **rebuilds resiliently**: fresh fits where reports
//!    arrive, the stale cache where they don't — construction always
//!    succeeds, with [`kert_core::KertBn::health`] recording the damage.
//!
//! The question per fault rate: how far off is the degraded model's own
//! estimate of `X₄` (the stale-CPD marginal), and how much of that error
//! does dComp recover by conditioning on the healthy observables and the
//! server-measured response time?

use kert_agents::CpdCache;
use kert_agents::FaultyFleet;
use kert_core::autonomic::compensate_degraded;
use kert_core::posterior::McOptions;
use kert_core::{query_posterior, ContinuousKertOptions, KertBn, ResilientKertOptions};
use kert_sim::monitor::agents_from_edges;
use kert_sim::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Environment, ScenarioOptions};

/// Fault rates swept (per-attempt drop probability of the healthy agents;
/// corruption/truncation/delay scale with it).
pub const FAULT_RATES: &[f64] = &[0.0, 0.2, 0.4, 0.6, 0.8, 0.95];
/// Rows per construction window.
pub const WINDOW_ROWS: usize = 300;
/// Rows of clean evaluation data per point.
pub const EVAL_ROWS: usize = 500;
/// The service whose agent crashes: X₄ = `image_locator_remote` = node 3.
pub const CRASHED_SERVICE: usize = 3;
/// How much slower X₄ was in the bootstrap (stale) regime.
pub const STALE_FACTOR: f64 = 1.4;

/// One point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepPoint {
    /// The injected fault rate.
    pub fault_rate: f64,
    /// Nodes whose CPD was freshly fit this window.
    pub fresh_nodes: usize,
    /// Nodes that fell back to the stale cache.
    pub stale_nodes: usize,
    /// Nodes that fell all the way to the prior.
    pub prior_nodes: usize,
    /// Fault events observed across all report paths.
    pub total_faults: usize,
    /// Retransmissions spent collecting reports.
    pub total_retries: usize,
    /// Rows dropped by reconciliation (NaN/outlier poisoning).
    pub rows_dropped: usize,
    /// Actual current mean elapsed time of the crashed service.
    pub x4_actual_mean: f64,
    /// |model marginal − actual|: the fallback-only estimate, resting on
    /// the obsolete stale CPD.
    pub x4_fallback_error: f64,
    /// |dComp posterior mean − actual|: the compensated estimate from
    /// healthy observables + response time.
    pub x4_dcomp_error: f64,
    /// Model accuracy `log₁₀ p(clean test | model)` — degrades with rate.
    pub accuracy: f64,
}

/// The committed sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultSweepResult {
    /// Master seed of the run.
    pub seed: u64,
    /// One point per fault rate.
    pub points: Vec<FaultSweepPoint>,
}

/// The per-agent fault plan at a sweep rate: the crashed agent never
/// reports; every other agent is lossy in all four modes.
fn sweep_plans(rate: f64) -> Vec<FaultPlan> {
    (0..6)
        .map(|agent| {
            if agent == CRASHED_SERVICE {
                FaultPlan::crash_at(0)
            } else {
                FaultPlan {
                    drop_prob: rate,
                    corrupt_prob: rate * 0.5,
                    truncate_prob: rate * 0.5,
                    truncate_keep: 0.5,
                    delay_prob: rate * 0.5,
                    delay_windows: 1,
                    ..FaultPlan::healthy()
                }
            }
        })
        .collect()
}

/// Run one sweep point.
fn run_point(rate: f64, seed: u64) -> FaultSweepPoint {
    // Old regime: the remote locator is slower.
    let mut env = Environment::ediamond(ScenarioOptions::default());
    env.scale_service(CRASHED_SERVICE, STALE_FACTOR);
    let mut sim_rng = StdRng::seed_from_u64(seed);
    let old_trace = env.system.run(WINDOW_ROWS, &mut sim_rng);

    // Bootstrap: a clean build supplies σ; a healthy resilient pass on the
    // old window seeds the cache (all nodes fresh, old-regime parameters).
    let boot = KertBn::build_continuous(
        &env.knowledge,
        &old_trace.to_dataset(None),
        ContinuousKertOptions::default(),
    )
    .expect("bootstrap build on clean data");
    let options = ResilientKertOptions {
        noise_sigma: boot.noise_sigma().unwrap_or(1e-3),
        ..Default::default()
    };
    let agents = agents_from_edges(6, &env.knowledge.upstream_edges);
    let mut cache = CpdCache::new(6);
    let boot_windows = old_trace.windows(WINDOW_ROWS);
    let healthy = FaultInjector::healthy(6);
    let mut boot_fleet = FaultyFleet::new(&agents, &boot_windows, &healthy);
    let seeded = KertBn::build_continuous_resilient(
        &env.knowledge,
        &mut boot_fleet,
        0,
        &mut cache,
        &options,
    )
    .expect("healthy resilient bootstrap");
    assert!(!seeded.is_degraded(), "bootstrap must be all-fresh");

    // The environment improves; the cached X4 CPD is now obsolete.
    env.scale_service(CRASHED_SERVICE, 1.0 / STALE_FACTOR);
    let fault_trace = env.system.run(WINDOW_ROWS, &mut sim_rng);
    let eval = env.system.run(EVAL_ROWS, &mut sim_rng).to_dataset(None);

    // Faulty rebuild on the current window.
    let fault_windows = fault_trace.windows(WINDOW_ROWS);
    let injector =
        FaultInjector::new(seed ^ 0xfa17, sweep_plans(rate)).expect("sweep plans are in range");
    let mut fleet = FaultyFleet::new(&agents, &fault_windows, &injector);
    let model =
        KertBn::build_continuous_resilient(&env.knowledge, &mut fleet, 0, &mut cache, &options)
            .expect("resilient build always succeeds");

    let health = model.health();
    let (fresh_nodes, stale_nodes, prior_nodes) = health.source_counts();
    let total_retries = health.nodes.iter().map(|h| h.retries).sum();
    let rows_dropped = health.nodes.iter().map(|h| h.rows_dropped).sum();

    // Fallback-only estimate: the degraded model's own X4 marginal.
    let x4_actual_mean = kert_linalg::stats::mean(&eval.column(CRASHED_SERVICE));
    let mc = McOptions::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let marginal =
        query_posterior(&model, &[], CRASHED_SERVICE, mc, &mut rng).expect("marginal query");
    let x4_fallback_error = (marginal.mean() - x4_actual_mean).abs();

    // Compensated estimate: dComp from the healthy observables (current
    // measurement means) plus the server-measured response time.
    let observed: Vec<(usize, f64)> = (0..7)
        .filter(|&c| c != CRASHED_SERVICE)
        .map(|c| (c, kert_linalg::stats::mean(&eval.column(c))))
        .collect();
    let comps = compensate_degraded(&model, &observed, mc, &mut rng).expect("compensation query");
    let x4_dcomp_error = comps
        .iter()
        .find(|c| c.service == CRASHED_SERVICE)
        .map(|c| (c.estimate() - x4_actual_mean).abs())
        .unwrap_or(x4_fallback_error);

    FaultSweepPoint {
        fault_rate: rate,
        fresh_nodes,
        stale_nodes,
        prior_nodes,
        total_faults: health.total_faults(),
        total_retries,
        rows_dropped,
        x4_actual_mean,
        x4_fallback_error,
        x4_dcomp_error,
        accuracy: model.accuracy(&eval).expect("accuracy on clean data"),
    }
}

/// Run the sweep at the given rates.
pub fn run_rates(rates: &[f64], seed: u64) -> FaultSweepResult {
    FaultSweepResult {
        seed,
        points: rates.iter().map(|&rate| run_point(rate, seed)).collect(),
    }
}

/// Run the full committed sweep.
pub fn run(seed: u64) -> FaultSweepResult {
    run_rates(FAULT_RATES, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcomp_recovers_the_crashed_node_better_than_the_stale_fallback() {
        // Two ends of the sweep, small eval: the compensated estimate must
        // beat the fallback-only marginal at both.
        let r = run_rates(&[0.0, 0.8], 2026);
        for p in &r.points {
            assert_eq!(p.stale_nodes + p.prior_nodes + p.fresh_nodes, 6);
            assert!(
                p.stale_nodes + p.prior_nodes >= 1,
                "the crashed node must be degraded at rate {}",
                p.fault_rate
            );
            assert!(
                p.x4_dcomp_error < p.x4_fallback_error,
                "rate {}: dComp error {} vs fallback error {}",
                p.fault_rate,
                p.x4_dcomp_error,
                p.x4_fallback_error
            );
            assert!(p.accuracy.is_finite());
        }
        // Higher fault rate → no more fresh nodes than the clean end.
        assert!(r.points[1].fresh_nodes <= r.points[0].fresh_nodes);
        assert!(r.points[1].total_faults > r.points[0].total_faults);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = run_rates(&[0.6], 7);
        let b = run_rates(&[0.6], 7);
        assert_eq!(a.points[0].fresh_nodes, b.points[0].fresh_nodes);
        assert_eq!(a.points[0].total_faults, b.points[0].total_faults);
        assert_eq!(
            a.points[0].x4_dcomp_error.to_bits(),
            b.points[0].x4_dcomp_error.to_bits()
        );
        assert_eq!(
            a.points[0].accuracy.to_bits(),
            b.points[0].accuracy.to_bits()
        );
    }
}
