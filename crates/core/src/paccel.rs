//! pAccel — assessing the end-to-end impact of local acceleration (§5.2).
//!
//! Speeding up one service only helps end-to-end response time if that
//! service sits on the critical path; pAccel quantifies the benefit
//! *before* spending resources, by computing the posterior response-time
//! distribution `p(D | Z = E(z))` where `E(z)` is the predicted
//! elapsed-time mean of the accelerated service (e.g. 90% of its current
//! mean after a local resource action). The difference between prior and
//! projected distributions gauges the action's worth and guides autonomic
//! decisions.
//!
//! [`paccel_candidates`] is the one entry point (a single action is a batch
//! of one); a discrete model answers it off its own junction tree.

use rand::Rng;

use crate::kert::KertBn;
use crate::posterior::{continuous_posterior, McOptions, Posterior};
use crate::serve;
use crate::Result;

/// The result of a pAccel what-if query.
#[derive(Debug, Clone)]
pub struct PAccelOutcome {
    /// The accelerated service node.
    pub service: usize,
    /// The elapsed-time value the acceleration is predicted to achieve.
    pub predicted_elapsed: f64,
    /// Response-time distribution before the action (model marginal).
    pub prior_d: Posterior,
    /// Projected response-time distribution given the acceleration.
    pub projected_d: Posterior,
    /// True when the projection rests on a degraded model (stale/prior
    /// CPDs), from the model's health report.
    pub degraded: bool,
}

impl PAccelOutcome {
    /// Projected mean improvement in end-to-end response time.
    pub fn mean_improvement(&self) -> f64 {
        self.prior_d.mean() - self.projected_d.mean()
    }

    /// Projected reduction in `P(D > threshold)` — the SLA-centric view.
    pub fn violation_reduction(&self, threshold: f64) -> f64 {
        self.prior_d.exceedance(threshold) - self.projected_d.exceedance(threshold)
    }
}

/// Run pAccel: one projection of `D`'s distribution per
/// `(service, predicted_elapsed)` candidate, with that service's elapsed
/// time pinned — the form the autonomic planner consumes when ranking
/// acceleration actions. Each outcome carries the model's degraded flag.
/// Discrete models run all candidates over the model's junction tree (the
/// same verb a [`crate::serve::Session`] runs), sharing the prior and
/// re-propagating only each candidate's pin; continuous models run a
/// prior and a projection query per candidate, in that order.
pub fn paccel_candidates<R: Rng + ?Sized>(
    model: &KertBn,
    candidates: &[(usize, f64)],
    mc: McOptions,
    rng: &mut R,
) -> Result<Vec<PAccelOutcome>> {
    if model.discretizer().is_some() {
        return serve::answer_once(model, |tree, st| serve::paccel(model, tree, st, candidates));
    }
    let (network, d_node) = (model.network(), model.d_node());
    candidates
        .iter()
        .map(|&(service, predicted_elapsed)| {
            Ok(PAccelOutcome {
                service,
                predicted_elapsed,
                prior_d: continuous_posterior(network, &[], d_node, mc, rng)?,
                projected_d: continuous_posterior(
                    network,
                    &[(service, predicted_elapsed)],
                    d_node,
                    mc,
                    rng,
                )?,
                degraded: model.is_degraded(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::DiscreteKertOptions;
    use kert_bayes::Dataset;
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem, Trace};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap, WorkflowKnowledge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// eDiaMoND with a *dominant remote path*, so accelerating X4 (node 3)
    /// matters and accelerating X3 (node 2) does not — the §5.2 setup.
    fn setup(seed: u64) -> (WorkflowKnowledge, SimSystem, Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let means = [0.05, 0.05, 0.04, 0.40, 0.04, 0.10];
        let stations = means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.6 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let trace: Trace = sys.run(1_200, &mut rng);
        (knowledge, sys, trace.to_dataset(None))
    }

    #[test]
    fn projection_tracks_the_actually_accelerated_system() {
        // The Figure-7 experiment: project D with X4 at 90% of its mean,
        // then actually accelerate X4 in the simulator and compare.
        let (knowledge, mut sys, data) = setup(31);
        let model =
            KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap();

        let x4_col = data.column(3);
        let x4_mean = kert_linalg::stats::mean(&x4_col);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = paccel_candidates(
            &model,
            &[(3, 0.9 * x4_mean)],
            McOptions::default(),
            &mut rng,
        )
        .unwrap()
        .remove(0);

        // Ground truth: rerun the simulator with the remote locator's
        // service time reduced to 90%.
        sys.set_service_time(3, Dist::Erlang { k: 4, mean: 0.36 })
            .unwrap();
        let mut rng2 = StdRng::seed_from_u64(32);
        let after = sys.run(1_200, &mut rng2);
        let observed_mean = kert_linalg::stats::mean(&after.response_times());

        let projected = outcome.projected_d.mean();
        let prior = outcome.prior_d.mean();
        // The projection must approximate the observed accelerated mean
        // better than the prior does (Figure 7's claim).
        assert!(
            (projected - observed_mean).abs() < (prior - observed_mean).abs(),
            "projected {projected}, prior {prior}, observed {observed_mean}"
        );
        assert!(outcome.mean_improvement() > 0.0);
    }

    #[test]
    fn off_critical_path_acceleration_buys_little() {
        let (knowledge, _sys, data) = setup(33);
        let model =
            KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);

        // Accelerate the *local* locator (node 2, far off the critical
        // path) by 50%.
        let x3_mean = kert_linalg::stats::mean(&data.column(2));
        let local = paccel_candidates(
            &model,
            &[(2, 0.5 * x3_mean)],
            McOptions::default(),
            &mut rng,
        )
        .unwrap()
        .remove(0);

        // Accelerate the remote locator (node 3, the bottleneck) by 50%.
        let x4_mean = kert_linalg::stats::mean(&data.column(3));
        let remote = paccel_candidates(
            &model,
            &[(3, 0.5 * x4_mean)],
            McOptions::default(),
            &mut rng,
        )
        .unwrap()
        .remove(0);

        assert!(
            remote.mean_improvement() > local.mean_improvement() + 0.01,
            "remote {} vs local {}",
            remote.mean_improvement(),
            local.mean_improvement()
        );
    }

    #[test]
    fn violation_reduction_is_consistent_with_means() {
        let (knowledge, _sys, data) = setup(35);
        let model =
            KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let x4_mean = kert_linalg::stats::mean(&data.column(3));
        let outcome = paccel_candidates(
            &model,
            &[(3, 0.8 * x4_mean)],
            McOptions::default(),
            &mut rng,
        )
        .unwrap()
        .remove(0);
        let d_mean = outcome.prior_d.mean();
        // Reducing X4 should reduce the violation probability around the
        // centre of D's distribution.
        assert!(outcome.violation_reduction(d_mean) > -0.05);
    }
}
