//! Multivariate normal distributions: density, marginalization, exact
//! conditioning, and a sampling transform.
//!
//! A linear-Gaussian Bayesian network is jointly Gaussian; every inference
//! the paper performs on continuous KERT-BNs (data-fitting likelihood,
//! dComp posteriors, pAccel projections) is an operation on one
//! `MultivariateNormal`. Conditioning uses the Schur-complement formulas
//!
//! ```text
//! μ_{a|b} = μ_a + Σ_ab Σ_bb⁻¹ (x_b − μ_b)
//! Σ_{a|b} = Σ_aa − Σ_ab Σ_bb⁻¹ Σ_ba
//! ```
//!
//! solved through a Cholesky factor of `Σ_bb` (never forming an explicit
//! inverse).
//!
//! The crate carries no RNG dependency: sampling is exposed as a transform
//! from caller-provided i.i.d. standard normals, keeping seeding policy in
//! the layers above.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

const LN_2PI: f64 = 1.8378770664093453; // ln(2π)

/// An `n`-dimensional Gaussian `N(μ, Σ)`.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    cov: Matrix,
    /// Cached Cholesky factor of Σ (lazy would complicate sharing; the
    /// constructor cost is negligible at these sizes).
    chol: Cholesky,
}

impl MultivariateNormal {
    /// Construct from a mean vector and covariance matrix.
    ///
    /// The covariance is symmetrized and, when numerically semidefinite (a
    /// routine occurrence for covariances estimated from tiny training
    /// windows), rescued with diagonal jitter.
    pub fn new(mean: Vec<f64>, mut cov: Matrix) -> Result<Self> {
        if cov.rows() != mean.len() || cov.cols() != mean.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "mvn: mean dim {} vs covariance {}x{}",
                mean.len(),
                cov.rows(),
                cov.cols()
            )));
        }
        cov.symmetrize();
        let chol = Cholesky::factor_with_jitter(&cov)?;
        Ok(MultivariateNormal { mean, cov, chol })
    }

    /// Dimension `n`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Covariance matrix.
    pub fn cov(&self) -> &Matrix {
        &self.cov
    }

    /// Log-density `ln N(x; μ, Σ)`.
    pub fn log_pdf(&self, x: &[f64]) -> Result<f64> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "mvn log_pdf: dim {n} vs point {}",
                x.len()
            )));
        }
        let centered: Vec<f64> = x.iter().zip(self.mean.iter()).map(|(a, m)| a - m).collect();
        // Mahalanobis distance via the forward solve: ‖L⁻¹(x−μ)‖².
        let w = self.chol.forward_solve(centered)?;
        let maha: f64 = w.iter().map(|v| v * v).sum();
        Ok(-0.5 * (n as f64 * LN_2PI + self.chol.log_det() + maha))
    }

    /// Condition on exact observations: `p(rest | components[obs_idx] = obs_val)`.
    ///
    /// Returns the posterior over the *unobserved* components in their
    /// original relative order, along with that index order.
    pub fn condition(&self, obs_idx: &[usize], obs_val: &[f64]) -> Result<ConditionedGaussian> {
        if obs_idx.len() != obs_val.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "mvn condition: {} indices vs {} values",
                obs_idx.len(),
                obs_val.len()
            )));
        }
        let n = self.dim();
        let observed: std::collections::HashSet<usize> = obs_idx.iter().copied().collect();
        if observed.len() != obs_idx.len() {
            return Err(LinalgError::ShapeMismatch(
                "mvn condition: duplicate observation indices".into(),
            ));
        }
        let free: Vec<usize> = (0..n).filter(|i| !observed.contains(i)).collect();
        if free.is_empty() {
            return Err(LinalgError::ShapeMismatch(
                "mvn condition: all components observed".into(),
            ));
        }

        let sigma_bb = self.cov.submatrix(obs_idx, obs_idx);
        let sigma_ab = self.cov.submatrix(&free, obs_idx);
        let sigma_aa = self.cov.submatrix(&free, &free);
        let ch_bb = Cholesky::factor_with_jitter(&sigma_bb)?;

        // delta = x_b − μ_b ; w = Σ_bb⁻¹ δ
        let delta: Vec<f64> = obs_idx
            .iter()
            .zip(obs_val.iter())
            .map(|(&i, &v)| v - self.mean[i])
            .collect();
        let w = ch_bb.solve(delta)?;

        // μ_{a|b} = μ_a + Σ_ab w
        let shift = sigma_ab.mul_vec(&w)?;
        let mean: Vec<f64> = free
            .iter()
            .zip(shift.iter())
            .map(|(&i, s)| self.mean[i] + s)
            .collect();

        // Σ_{a|b} = Σ_aa − Σ_ab Σ_bb⁻¹ Σ_ba, via K = Σ_bb⁻¹ Σ_ba.
        let sigma_ba = sigma_ab.transpose();
        let k = ch_bb.solve_matrix(&sigma_ba)?;
        let reduction = sigma_ab.mul(&k)?;
        let cov = sigma_aa.sub(&reduction)?;

        Ok(ConditionedGaussian {
            free_indices: free,
            dist: MultivariateNormal::new(mean, cov)?,
        })
    }
}

/// Posterior produced by [`MultivariateNormal::condition`].
#[derive(Debug, Clone)]
pub struct ConditionedGaussian {
    /// Original indices of the unobserved components, ascending.
    pub free_indices: Vec<usize>,
    /// Posterior distribution over those components, in the same order.
    pub dist: MultivariateNormal,
}

impl ConditionedGaussian {
    /// Posterior mean of the original component `orig_idx`, if unobserved.
    pub fn mean_of(&self, orig_idx: usize) -> Option<f64> {
        self.pos(orig_idx).map(|p| self.dist.mean()[p])
    }

    /// Posterior variance of the original component `orig_idx`, if unobserved.
    pub fn variance_of(&self, orig_idx: usize) -> Option<f64> {
        self.pos(orig_idx).map(|p| self.dist.cov().get(p, p))
    }

    fn pos(&self, orig_idx: usize) -> Option<usize> {
        self.free_indices.iter().position(|&i| i == orig_idx)
    }
}

/// Gaussian conditioning on raw `(mean, covariance)` data through an LU
/// factorization of `Σ_bb` — the same Schur-complement formulas as
/// [`MultivariateNormal::condition`], reached by a *different*
/// factorization with no code shared beyond the matrix type.
///
/// Exists for the conformance layer: an oracle that conditions through the
/// very Cholesky it is meant to check would be circular. Returns
/// `(free_indices, posterior_mean, posterior_cov)` over the unobserved
/// components, in ascending original index order.
pub fn condition_dense(
    mean: &[f64],
    cov: &Matrix,
    obs_idx: &[usize],
    obs_val: &[f64],
) -> Result<(Vec<usize>, Vec<f64>, Matrix)> {
    let n = mean.len();
    if cov.rows() != n || cov.cols() != n {
        return Err(LinalgError::ShapeMismatch(format!(
            "condition_dense: mean dim {n} vs covariance {}x{}",
            cov.rows(),
            cov.cols()
        )));
    }
    if obs_idx.len() != obs_val.len() {
        return Err(LinalgError::ShapeMismatch(format!(
            "condition_dense: {} indices vs {} values",
            obs_idx.len(),
            obs_val.len()
        )));
    }
    let observed: std::collections::HashSet<usize> = obs_idx.iter().copied().collect();
    if observed.len() != obs_idx.len() || obs_idx.iter().any(|&i| i >= n) {
        return Err(LinalgError::ShapeMismatch(
            "condition_dense: duplicate or out-of-range observation indices".into(),
        ));
    }
    let free: Vec<usize> = (0..n).filter(|i| !observed.contains(i)).collect();
    if free.is_empty() {
        return Err(LinalgError::ShapeMismatch(
            "condition_dense: all components observed".into(),
        ));
    }

    let sigma_bb = cov.submatrix(obs_idx, obs_idx);
    let sigma_ab = cov.submatrix(&free, obs_idx);
    let sigma_aa = cov.submatrix(&free, &free);
    let lu = crate::lu::Lu::factor(&sigma_bb)?;

    let delta: Vec<f64> = obs_idx
        .iter()
        .zip(obs_val.iter())
        .map(|(&i, &v)| v - mean[i])
        .collect();
    let w = lu.solve(&delta)?;
    let shift = sigma_ab.mul_vec(&w)?;
    let post_mean: Vec<f64> = free
        .iter()
        .zip(shift.iter())
        .map(|(&i, s)| mean[i] + s)
        .collect();

    // Σ_{a|b} = Σ_aa − Σ_ab Σ_bb⁻¹ Σ_ba, with Σ_bb⁻¹ from the LU.
    let k = lu.inverse()?.mul(&cov.submatrix(obs_idx, &free))?;
    let mut post_cov = sigma_aa.sub(&sigma_ab.mul(&k)?)?;
    post_cov.symmetrize();
    Ok((free, post_mean, post_cov))
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7 — ample for threshold-violation
/// probabilities quoted to two digits).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Standard normal CDF `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_mvn() -> MultivariateNormal {
        // 2-D with correlation 0.6.
        let mean = vec![1.0, -2.0];
        let cov = Matrix::from_rows(&[&[4.0, 2.4], &[2.4, 4.0]]).unwrap();
        MultivariateNormal::new(mean, cov).unwrap()
    }

    #[test]
    fn log_pdf_matches_univariate_formula() {
        let mvn = MultivariateNormal::new(vec![2.0], Matrix::from_diag(&[9.0])).unwrap();
        let x = 3.5;
        let expect = -0.5 * ((2.0 * std::f64::consts::PI * 9.0).ln() + (x - 2.0_f64).powi(2) / 9.0);
        let got = mvn.log_pdf(&[x]).unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn log_pdf_peaks_at_mean() {
        let mvn = demo_mvn();
        let at_mean = mvn.log_pdf(&[1.0, -2.0]).unwrap();
        let off = mvn.log_pdf(&[2.0, -1.0]).unwrap();
        assert!(at_mean > off);
    }

    #[test]
    fn conditioning_matches_textbook_bivariate_result() {
        // For bivariate N with ρ: E[a|b] = μ_a + ρ σ_a/σ_b (b−μ_b),
        // Var[a|b] = σ_a²(1−ρ²).
        let mvn = demo_mvn();
        let rho: f64 = 0.6;
        let post = mvn.condition(&[1], &[0.0]).unwrap();
        let expect_mean = 1.0 + rho * (2.0 / 2.0) * (0.0 - (-2.0));
        let expect_var = 4.0 * (1.0 - rho * rho);
        assert!((post.mean_of(0).unwrap() - expect_mean).abs() < 1e-9);
        assert!((post.variance_of(0).unwrap() - expect_var).abs() < 1e-6);
    }

    #[test]
    fn conditioning_reduces_variance() {
        let mvn = demo_mvn();
        let post = mvn.condition(&[1], &[5.0]).unwrap();
        assert!(post.variance_of(0).unwrap() < mvn.cov().get(0, 0));
    }

    #[test]
    fn conditioning_on_independent_component_changes_nothing() {
        let cov = Matrix::from_diag(&[1.0, 2.0]);
        let mvn = MultivariateNormal::new(vec![3.0, 4.0], cov).unwrap();
        let post = mvn.condition(&[1], &[100.0]).unwrap();
        assert!((post.mean_of(0).unwrap() - 3.0).abs() < 1e-9);
        assert!((post.variance_of(0).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn erfc_gives_calibrated_normal_tails() {
        // P(Z > t) = erfc(t / √2) / 2.
        let tail = |t: f64| 0.5 * erfc(t / std::f64::consts::SQRT_2);
        assert!((tail(0.0) - 0.5).abs() < 1e-7);
        assert!((tail(1.6449) - 0.05).abs() < 1e-4);
    }

    #[test]
    fn erfc_symmetry_and_limits() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-12);
        assert!(erfc(6.0) < 1e-15);
    }

    #[test]
    fn condition_rejects_duplicates_and_full_observation() {
        let mvn = demo_mvn();
        assert!(mvn.condition(&[0, 0], &[1.0, 1.0]).is_err());
        assert!(mvn.condition(&[0, 1], &[1.0, 1.0]).is_err());
    }
}
