//! dComp — compensating for missing performance data (§5.1).
//!
//! In large distributed systems some components go unobserved: missing
//! instrumentation, failed reporting, or deliberately reduced monitoring
//! overhead. dComp estimates the *unobservable* service's elapsed-time
//! distribution by conditioning the KERT-BN on the current measurement
//! means of the *observable* services (and the response time, when
//! available): `p(Y | 𝕆 = E(o))`. The paper's Figure 6 shows the posterior
//! shifting from an obsolete prior toward the true value while narrowing —
//! both properties are asserted by this module's tests.
//!
//! [`dcomp_all`] is the one entry point (a single hidden service is a batch
//! of one); a discrete model answers it off its own junction tree.

use rand::Rng;

use crate::kert::KertBn;
use crate::posterior::{continuous_posterior, McOptions, Posterior};
use crate::serve;
use crate::Result;

/// The result of a dComp query: prior and posterior of the hidden node.
#[derive(Debug, Clone)]
pub struct DCompOutcome {
    /// The unobservable node queried.
    pub target: usize,
    /// Marginal (prior) distribution of the target under the model.
    pub prior: Posterior,
    /// Posterior given the observations.
    pub posterior: Posterior,
}

impl DCompOutcome {
    /// How far the posterior mean moved from the prior mean toward
    /// `actual` — positive values mean the observations improved the
    /// estimate (Figure 6's "shifted toward the actual elapsed time").
    pub fn improvement_toward(&self, actual: f64) -> f64 {
        (self.prior.mean() - actual).abs() - (self.posterior.mean() - actual).abs()
    }

    /// Whether conditioning sharpened the estimate (Figure 6's
    /// "more deterministic and precise with a narrower shape").
    pub fn narrowed(&self) -> bool {
        self.posterior.variance() < self.prior.variance()
    }
}

/// Run dComp: prior and posterior of every `target` under one shared
/// evidence set.
///
/// `observed` holds `(node, current mean)` pairs — typically every
/// *observable* service plus the end-to-end response time node. Raw values
/// are passed; discrete models bin them internally. Discrete models answer
/// every query off the model's junction tree, compiled once per model
/// version (the same verb a [`crate::serve::Session`] runs); continuous
/// models run a prior and a posterior query per target, in that order.
pub fn dcomp_all<R: Rng + ?Sized>(
    model: &KertBn,
    observed: &[(usize, f64)],
    targets: &[usize],
    mc: McOptions,
    rng: &mut R,
) -> Result<Vec<DCompOutcome>> {
    if model.discretizer().is_some() {
        return serve::answer_once(model, |tree, st| {
            serve::dcomp(model, tree, st, observed, targets)
        });
    }
    let network = model.network();
    targets
        .iter()
        .map(|&target| {
            Ok(DCompOutcome {
                target,
                prior: continuous_posterior(network, &[], target, mc, rng)?,
                posterior: continuous_posterior(network, observed, target, mc, rng)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::DiscreteKertOptions;
    use kert_bayes::Dataset;
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap, WorkflowKnowledge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rows: usize, seed: u64) -> (WorkflowKnowledge, Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        // Dominant remote path (as in the paper's test-bed, where the
        // remote hospital link is the slow leg): with the critical path
        // running through X4, observing D is informative about X4.
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
        (knowledge, trace.to_dataset(None))
    }

    #[test]
    fn posterior_moves_toward_the_actual_value_and_narrows() {
        // The Figure-6 experiment: hide X4 (image_locator_remote, node 3),
        // observe everything else at a particular request's values, and
        // check the posterior against that request's actual X4.
        let (knowledge, data) = setup(1_000, 21);
        let (train, probe) = data.split_at(900);
        let model =
            KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();

        let target = 3; // X4 in paper numbering
        let mut prior_abs_err = 0.0;
        let mut post_abs_err = 0.0;
        let mut narrowings = 0usize;
        let mut rng = StdRng::seed_from_u64(7);
        let n_probe = 20.min(probe.rows());
        for r in 0..n_probe {
            let row = probe.row(r);
            let observed: Vec<(usize, f64)> = (0..7)
                .filter(|&c| c != target)
                .map(|c| (c, row[c]))
                .collect();
            let outcome = dcomp_all(&model, &observed, &[target], McOptions::default(), &mut rng)
                .unwrap()
                .remove(0);
            prior_abs_err += (outcome.prior.mean() - row[target]).abs();
            post_abs_err += (outcome.posterior.mean() - row[target]).abs();
            if outcome.narrowed() {
                narrowings += 1;
            }
        }
        // Aggregate over probes: the posterior must track the actual value
        // better than the prior, and usually be sharper (Figure 6's
        // "shifted toward the actual value", "narrower shape").
        assert!(
            post_abs_err < prior_abs_err,
            "posterior error {post_abs_err} vs prior error {prior_abs_err}"
        );
        assert!(narrowings * 2 > n_probe, "{narrowings}/{n_probe}");
    }

    #[test]
    fn prior_equals_posterior_without_observations() {
        let (knowledge, data) = setup(400, 22);
        let model =
            KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = dcomp_all(&model, &[], &[2], McOptions::default(), &mut rng)
            .unwrap()
            .remove(0);
        assert!((outcome.prior.mean() - outcome.posterior.mean()).abs() < 1e-9);
    }

    #[test]
    fn improvement_metric_signs() {
        let out = DCompOutcome {
            target: 0,
            prior: Posterior::Gaussian {
                mean: 0.0,
                variance: 4.0,
            },
            posterior: Posterior::Gaussian {
                mean: 0.9,
                variance: 1.0,
            },
        };
        // Actual value 1.0: posterior is closer → positive improvement.
        assert!(out.improvement_toward(1.0) > 0.0);
        // Actual value −1.0: posterior moved away → negative.
        assert!(out.improvement_toward(-1.0) < 0.0);
        assert!(out.narrowed());
    }
}
