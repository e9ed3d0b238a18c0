//! Closing the autonomic loop when the model itself is degraded.
//!
//! A resilient rebuild ([`KertBn::build_continuous_resilient`]) can leave
//! some nodes on stale or prior CPDs — exactly the "failure in the act of
//! data reporting" situation dComp (§5.1) was designed for. This module
//! routes around the damage: for every degraded service, estimate its
//! elapsed-time posterior from the *healthy* observables (and the
//! end-to-end response time, which the management server always measures
//! itself), instead of trusting the degraded node's own CPD marginal.

use rand::Rng;

use crate::dcomp::{dcomp_all, DCompOutcome};
use crate::kert::KertBn;
use crate::posterior::McOptions;
use crate::Result;
use kert_agents::CpdSource;

/// A dComp-based compensation for one degraded service.
#[derive(Debug, Clone)]
pub struct Compensation {
    /// The degraded service node.
    pub service: usize,
    /// Why it needed compensation (the ladder rung its CPD came from).
    pub source: CpdSource,
    /// The dComp query: prior (the degraded CPD's marginal) vs posterior
    /// given the healthy observables.
    pub outcome: DCompOutcome,
}

impl Compensation {
    /// The compensated estimate of the service's elapsed time.
    pub fn estimate(&self) -> f64 {
        self.outcome.posterior.mean()
    }
}

/// Estimate every degraded service's elapsed time from healthy evidence.
///
/// `observed` holds `(node, current mean)` pairs — typically each service's
/// measured mean plus the response-time node. Pairs whose node is itself
/// degraded are filtered out before conditioning: a stale node's "evidence"
/// would be the very data that failed to arrive. Returns one
/// [`Compensation`] per degraded service (empty when the model is healthy).
pub fn compensate_degraded<R: Rng + ?Sized>(
    model: &KertBn,
    observed: &[(usize, f64)],
    mc: McOptions,
    rng: &mut R,
) -> Result<Vec<Compensation>> {
    let degraded = model.degraded_services();
    let healthy_obs: Vec<(usize, f64)> = observed
        .iter()
        .copied()
        .filter(|(node, _)| !degraded.contains(node))
        .collect();
    // All degraded services share the same healthy evidence, so the whole
    // sweep is one batched dComp: discrete models read the model's
    // junction tree and propagate the evidence once for every service.
    let outcomes = dcomp_all(model, &healthy_obs, &degraded, mc, rng)?;
    degraded
        .into_iter()
        .zip(outcomes)
        .map(|(service, outcome)| {
            let source = model
                .health()
                .nodes
                .iter()
                .find(|h| h.node == service)
                .map(|h| h.source)
                .unwrap_or(CpdSource::Prior);
            Ok(Compensation {
                service,
                source,
                outcome,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::{ContinuousKertOptions, KertBn, ResilientKertOptions};
    use kert_agents::{CpdCache, FaultyFleet};
    use kert_bayes::Dataset;
    use kert_sim::monitor::agents_from_edges;
    use kert_sim::{Dist, FaultInjector, FaultPlan, ServiceConfig, SimOptions, SimSystem, Trace};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap, WorkflowKnowledge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rows: usize, seed: u64) -> (WorkflowKnowledge, Trace) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let means = [0.05, 0.05, 0.04, 0.35, 0.04, 0.10];
        let stations = means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.5 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = sys.run(rows, &mut rng);
        (knowledge, trace)
    }

    #[test]
    fn healthy_model_needs_no_compensation() {
        let (knowledge, trace) = setup(300, 41);
        let model = KertBn::build_continuous(
            &knowledge,
            &trace.to_dataset(None),
            ContinuousKertOptions::default(),
        )
        .unwrap();
        assert!(!model.is_degraded());
        let mut rng = StdRng::seed_from_u64(1);
        let comps = compensate_degraded(
            &model,
            &[(0, 0.05), (6, 0.6)],
            McOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert!(comps.is_empty());
    }

    #[test]
    fn crashed_node_is_compensated_from_healthy_observables() {
        let (knowledge, trace) = setup(400, 42);
        let agents = agents_from_edges(6, &knowledge.upstream_edges);
        let windows = trace.windows(200);
        // Agent 3 (the dominant remote locator) crashed from the start —
        // its CPD lands on the prior rung.
        let mut plans = vec![FaultPlan::healthy(); 6];
        plans[3] = FaultPlan::crash_at(0);
        let injector = FaultInjector::new(9, plans).unwrap();
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let mut cache = CpdCache::new(6);
        let model = KertBn::build_continuous_resilient(
            &knowledge,
            &mut fleet,
            0,
            &mut cache,
            &ResilientKertOptions::default(),
        )
        .unwrap();
        assert_eq!(model.degraded_services(), vec![3]);

        // Condition on a test request: every healthy service plus D.
        let probe = trace.to_dataset(None);
        let row = probe.row(probe.rows() - 1);
        let observed: Vec<(usize, f64)> = (0..7).filter(|&c| c != 3).map(|c| (c, row[c])).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let comps = compensate_degraded(&model, &observed, McOptions::default(), &mut rng).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].service, 3);
        assert_eq!(comps[0].source, CpdSource::Prior);
        // The prior rung knows nothing (mean 0); conditioning on healthy
        // observables must pull the estimate toward the actual value.
        assert!(
            comps[0].outcome.improvement_toward(row[3]) > 0.0,
            "prior mean {}, posterior mean {}, actual {}",
            comps[0].outcome.prior.mean(),
            comps[0].estimate(),
            row[3]
        );
    }

    #[test]
    fn degraded_evidence_is_filtered_out() {
        // Even if the caller passes evidence for the degraded node, the
        // compensation must not condition on it.
        let (knowledge, trace) = setup(400, 43);
        let agents = agents_from_edges(6, &knowledge.upstream_edges);
        let windows = trace.windows(200);
        let mut plans = vec![FaultPlan::healthy(); 6];
        plans[3] = FaultPlan::crash_at(0);
        let injector = FaultInjector::new(10, plans).unwrap();
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let mut cache = CpdCache::new(6);
        let model = KertBn::build_continuous_resilient(
            &knowledge,
            &mut fleet,
            0,
            &mut cache,
            &ResilientKertOptions::default(),
        )
        .unwrap();

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let base = vec![(0usize, 0.05), (6usize, 0.6)];
        let mut with_degraded = base.clone();
        with_degraded.push((3, 99.0)); // absurd value for the dead node
        let a = compensate_degraded(&model, &base, McOptions::default(), &mut rng_a).unwrap();
        let b =
            compensate_degraded(&model, &with_degraded, McOptions::default(), &mut rng_b).unwrap();
        assert!((a[0].estimate() - b[0].estimate()).abs() < 1e-12);
    }

    #[test]
    fn compensation_needs_a_dataset_shaped_like_the_trace() {
        // Guard: the probe row indexing above relies on the X1..X6,D layout.
        let (_, trace) = setup(50, 44);
        let d: Dataset = trace.to_dataset(None);
        assert_eq!(d.columns(), 7);
    }
}
