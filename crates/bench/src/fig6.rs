//! Figure 6 — dComp: posterior vs prior of an unobservable service.
//!
//! Paper setting (§5.1): the eDiaMoND test-bed, discrete KERT-BN trained on
//! 1200 points (`K = 10, α = 120`). `X₄` (the remote image locator) is
//! unobservable; its *prior* comes from historical measurements that have
//! gone stale (the environment changed since). dComp conditions on the
//! current measurement means of the observable services and the response
//! time, and the posterior should (a) shift toward the actual current
//! elapsed time and (b) narrow.
//!
//! The staleness is reproduced faithfully: the model is trained on data
//! from an *older* configuration in which `X₄` was slower; the probe
//! observations come from the current (improved) system.

use kert_core::posterior::McOptions;
use kert_core::{dcomp_all, DiscreteKertOptions, KertBn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Environment, ScenarioOptions};

/// Training points (§5: `K · α = 1200`).
pub const TRAIN_SIZE: usize = 1200;
/// The unobservable service: X₄ = `image_locator_remote` = node 3.
pub const HIDDEN_SERVICE: usize = 3;

/// The Figure-6 result: prior and posterior distributions of `X₄`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Bin representative values (elapsed-time midpoints).
    pub support: Vec<f64>,
    /// Prior probability of each bin.
    pub prior: Vec<f64>,
    /// Posterior probability of each bin.
    pub posterior: Vec<f64>,
    /// Prior mean.
    pub prior_mean: f64,
    /// Posterior mean.
    pub posterior_mean: f64,
    /// Actual current mean elapsed time of the hidden service.
    pub actual_mean: f64,
    /// Prior std-dev.
    pub prior_sd: f64,
    /// Posterior std-dev.
    pub posterior_sd: f64,
}

/// Run the Figure-6 experiment.
pub fn run(seed: u64) -> Fig6Result {
    // Stale training data: the remote locator used to be 40% slower.
    let mut env = Environment::ediamond(ScenarioOptions::default());
    env.scale_service(HIDDEN_SERVICE, 1.4);
    let (train, _) = env.datasets(TRAIN_SIZE, 1, seed);
    let model = KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default())
        .expect("discrete KERT-BN builds");

    // The environment then improved (resource action on the remote site).
    env.scale_service(HIDDEN_SERVICE, 1.0 / 1.4);
    let (current, _) = env.datasets(300, 1, seed ^ 0xbeef);

    // Observables: every node except the hidden one, at current means.
    let observed: Vec<(usize, f64)> = (0..7)
        .filter(|&c| c != HIDDEN_SERVICE)
        .map(|c| (c, kert_linalg::stats::mean(&current.column(c))))
        .collect();
    let actual_mean = kert_linalg::stats::mean(&current.column(HIDDEN_SERVICE));

    let mut rng = StdRng::seed_from_u64(seed ^ 0x600d);
    let outcome = dcomp_all(
        &model,
        &observed,
        &[HIDDEN_SERVICE],
        McOptions::default(),
        &mut rng,
    )
    .expect("dComp runs on the discrete model")
    .remove(0);

    let (support, prior, posterior) = match (&outcome.prior, &outcome.posterior) {
        (
            kert_core::Posterior::Discrete {
                support,
                probs: prior,
                ..
            },
            kert_core::Posterior::Discrete { probs: post, .. },
        ) => (support.clone(), prior.clone(), post.clone()),
        _ => unreachable!("discrete model yields discrete posteriors"),
    };
    Fig6Result {
        prior_mean: outcome.prior.mean(),
        posterior_mean: outcome.posterior.mean(),
        prior_sd: outcome.prior.std_dev(),
        posterior_sd: outcome.posterior.std_dev(),
        actual_mean,
        support,
        prior,
        posterior,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_shifts_toward_actual_and_narrows() {
        let r = run(2026);
        // Figure 6's two visual claims.
        assert!(
            (r.posterior_mean - r.actual_mean).abs() < (r.prior_mean - r.actual_mean).abs(),
            "posterior {} should be closer to actual {} than prior {}",
            r.posterior_mean,
            r.actual_mean,
            r.prior_mean
        );
        assert!(
            r.posterior_sd < r.prior_sd,
            "posterior sd {} should be below prior sd {}",
            r.posterior_sd,
            r.prior_sd
        );
        // Distributions are proper.
        assert!((r.prior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((r.posterior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
