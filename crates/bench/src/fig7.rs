//! Figure 7 — pAccel: projected vs observed response time after
//! accelerating `X₄`.
//!
//! Paper setting (§5.2): with the discrete KERT-BN of the test-bed,
//! compute the posterior response-time distribution given `X₄` reduced to
//! about 90% of its current mean (a local resource action), then compare
//! with the *actual* response-time distribution measured after the action.
//! The projection should approximate the observed improved mean well —
//! much better than the unaccelerated prior does.

use kert_core::posterior::McOptions;
use kert_core::{paccel_candidates, DiscreteKertOptions, KertBn};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Environment, ScenarioOptions};

/// Training points (§5: 1200).
pub const TRAIN_SIZE: usize = 1200;
/// The accelerated service: X₄ = node 3.
pub const ACCELERATED_SERVICE: usize = 3;
/// Acceleration factor (paper: "reduced to about 90% of what it was").
pub const FACTOR: f64 = 0.9;

/// The Figure-7 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Grid of response-time values for the plotted densities.
    pub grid: Vec<f64>,
    /// Model prior density of `D` (before acceleration) on the grid.
    pub prior_density: Vec<f64>,
    /// Projected density of `D` given the acceleration, on the grid.
    pub projected_density: Vec<f64>,
    /// Observed density of `D` after actually accelerating, on the grid.
    pub observed_density: Vec<f64>,
    /// Prior mean response time.
    pub prior_mean: f64,
    /// Projected mean response time.
    pub projected_mean: f64,
    /// Observed mean response time after the action.
    pub observed_mean: f64,
}

/// Run the Figure-7 experiment.
pub fn run(seed: u64) -> Fig7Result {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(TRAIN_SIZE, 1, seed);
    let model = KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default())
        .expect("discrete KERT-BN builds");

    // What-if projection: X₄ at 90% of its current mean.
    let x4_mean = kert_linalg::stats::mean(&train.column(ACCELERATED_SERVICE));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ac1);
    let outcome = paccel_candidates(
        &model,
        &[(ACCELERATED_SERVICE, FACTOR * x4_mean)],
        McOptions::default(),
        &mut rng,
    )
    .expect("pAccel runs on the discrete model")
    .remove(0);

    // Ground truth: actually perform the resource action and measure.
    env.scale_service(ACCELERATED_SERVICE, FACTOR);
    let (after, _) = env.datasets(TRAIN_SIZE, 1, seed ^ 0x0b5e);
    let observed: Vec<f64> = after.column(model.d_node());
    let observed_mean = kert_linalg::stats::mean(&observed);

    // Common plotting grid covering all three distributions.
    let d_train = train.column(model.d_node());
    let (lo1, hi1) = kert_linalg::stats::min_max(&d_train);
    let (lo2, hi2) = kert_linalg::stats::min_max(&observed);
    let (lo, hi) = (lo1.min(lo2), hi1.max(hi2));
    let bins = 24;
    let (grid, prior_density) = outcome.prior_d.density_on_grid(lo, hi, bins);
    let (_, projected_density) = outcome.projected_d.density_on_grid(lo, hi, bins);
    let observed_density = empirical_density(&observed, lo, hi, bins);

    Fig7Result {
        grid,
        prior_density,
        projected_density,
        observed_density,
        prior_mean: outcome.prior_d.mean(),
        projected_mean: outcome.projected_d.mean(),
        observed_mean,
    }
}

/// Normalized histogram of samples on an equal-width grid.
pub fn empirical_density(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
    let width = (hi - lo) / bins as f64;
    let mut mass = vec![0.0; bins];
    for &v in samples {
        if v < lo || v > hi {
            continue;
        }
        let b = (((v - lo) / width) as usize).min(bins - 1);
        mass[b] += 1.0;
    }
    let z: f64 = mass.iter().sum();
    if z > 0.0 {
        for m in &mut mass {
            *m /= z;
        }
    }
    mass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_approximates_the_observed_accelerated_mean() {
        let r = run(77);
        // Figure 7's claim: the posterior approximates the actual improved
        // response-time mean better than the prior.
        assert!(
            (r.projected_mean - r.observed_mean).abs() < (r.prior_mean - r.observed_mean).abs(),
            "projected {} vs observed {} (prior {})",
            r.projected_mean,
            r.observed_mean,
            r.prior_mean
        );
        // Acceleration helps: projection predicts an improvement.
        assert!(r.projected_mean <= r.prior_mean);
        // Densities are normalized.
        for d in [&r.prior_density, &r.projected_density, &r.observed_density] {
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_density_bins_and_normalizes() {
        let d = empirical_density(&[0.5, 1.5, 1.6, 9.0], 0.0, 2.0, 2);
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d[1] - 2.0 / 3.0).abs() < 1e-12);
    }
}
