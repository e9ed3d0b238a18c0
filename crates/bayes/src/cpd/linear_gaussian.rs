//! Conditional linear-Gaussian CPDs.
//!
//! `X ~ N(b₀ + Σₖ bₖ·parentₖ, σ²)` — the continuous CPD family the paper
//! uses for its §4 simulation study ("continuous KERT-BN and NRT-BN models
//! with Gaussian CPDs"). Few parameters, so it converges from small
//! training windows; that is exactly the property the paper exploits in
//! fast-changing environments.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{BayesError, Result};

const LN_2PI: f64 = 1.8378770664093453;

/// Variance floor: measured elapsed times have at least microsecond-scale
/// jitter; a zero variance (constant training column) would make the
/// density improper.
pub const VARIANCE_FLOOR: f64 = 1e-9;

/// The parameter checks shared by [`LinearGaussianCpd::new`] and
/// load-time validation.
fn check_params(n_parents: usize, n_coeffs: usize, variance: f64) -> Result<()> {
    if n_parents != n_coeffs {
        return Err(BayesError::InvalidCpd(format!(
            "{} parents but {} coefficients",
            n_parents, n_coeffs
        )));
    }
    if !variance.is_finite() || variance < 0.0 {
        return Err(BayesError::InvalidCpd(format!(
            "invalid variance {variance}"
        )));
    }
    Ok(())
}

/// A conditional linear-Gaussian distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearGaussianCpd {
    child: usize,
    parents: Vec<usize>,
    intercept: f64,
    /// Regression coefficients aligned with `parents`.
    coeffs: Vec<f64>,
    variance: f64,
}

impl LinearGaussianCpd {
    /// Build from explicit parameters. The variance is floored at
    /// [`VARIANCE_FLOOR`].
    pub fn new(
        child: usize,
        parents: Vec<usize>,
        intercept: f64,
        coeffs: Vec<f64>,
        variance: f64,
    ) -> Result<Self> {
        check_params(parents.len(), coeffs.len(), variance)?;
        Ok(LinearGaussianCpd {
            child,
            parents,
            intercept,
            coeffs,
            variance: variance.max(VARIANCE_FLOOR),
        })
    }

    /// Re-run [`LinearGaussianCpd::new`]'s checks on a CPD that bypassed
    /// it (a deserialized one), changing nothing.
    pub(crate) fn validate(&self) -> Result<()> {
        check_params(self.parents.len(), self.coeffs.len(), self.variance)
    }

    /// A root Gaussian `N(mean, variance)` with no parents.
    pub fn root(child: usize, mean: f64, variance: f64) -> Self {
        LinearGaussianCpd {
            child,
            parents: Vec::new(),
            intercept: mean,
            coeffs: Vec::new(),
            variance: variance.max(VARIANCE_FLOOR),
        }
    }

    /// Node index of the child.
    pub fn child(&self) -> usize {
        self.child
    }

    /// Sorted parent node indices.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// Intercept `b₀`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Coefficients aligned with `parents()`.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Residual variance `σ²`.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Conditional mean `b₀ + Σ bₖ·parentₖ`.
    pub fn mean_given(&self, parent_values: &[f64]) -> f64 {
        debug_assert_eq!(parent_values.len(), self.coeffs.len());
        self.intercept
            + self
                .coeffs
                .iter()
                .zip(parent_values.iter())
                .map(|(&b, &v)| b * v)
                .sum::<f64>()
    }

    /// Log density of `child_value` given parent values.
    pub fn log_prob(&self, child_value: f64, parent_values: &[f64]) -> f64 {
        let mu = self.mean_given(parent_values);
        let d = child_value - mu;
        -0.5 * (LN_2PI + self.variance.ln() + d * d / self.variance)
    }

    /// Sample from the conditional distribution (Box–Muller transform; two
    /// uniforms per draw, no caching so the CPD stays immutable/`Sync`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, parent_values: &[f64]) -> f64 {
        self.mean_given(parent_values) + self.variance.sqrt() * standard_normal(rng)
    }

    /// Free parameters: intercept + one coefficient per parent + variance.
    pub fn parameter_count(&self) -> usize {
        self.coeffs.len() + 2
    }
}

/// A standard-normal draw via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 = 0 which would take ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_given_is_linear() {
        let cpd = LinearGaussianCpd::new(2, vec![0, 1], 1.0, vec![2.0, -0.5], 0.25).unwrap();
        assert_eq!(cpd.mean_given(&[3.0, 4.0]), 1.0 + 6.0 - 2.0);
    }

    #[test]
    fn log_prob_matches_normal_density() {
        let cpd = LinearGaussianCpd::root(0, 5.0, 4.0);
        let x = 6.0;
        let expect = -0.5 * ((2.0 * std::f64::consts::PI * 4.0).ln() + (x - 5.0_f64).powi(2) / 4.0);
        assert!((cpd.log_prob(x, &[]) - expect).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_is_floored() {
        let cpd = LinearGaussianCpd::root(0, 1.0, 0.0);
        assert!(cpd.variance() >= VARIANCE_FLOOR);
        assert!(cpd.log_prob(1.0, &[]).is_finite());
    }

    #[test]
    fn mismatched_coeffs_rejected() {
        assert!(LinearGaussianCpd::new(0, vec![1], 0.0, vec![], 1.0).is_err());
        assert!(LinearGaussianCpd::new(0, vec![], 0.0, vec![], f64::NAN).is_err());
    }

    #[test]
    fn samples_have_expected_moments() {
        let cpd = LinearGaussianCpd::new(1, vec![0], 10.0, vec![3.0], 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| cpd.sample(&mut rng, &[2.0])).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 16.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn parameter_count() {
        let cpd = LinearGaussianCpd::new(3, vec![0, 1, 2], 0.0, vec![1.0; 3], 1.0).unwrap();
        assert_eq!(cpd.parameter_count(), 5);
    }
}
