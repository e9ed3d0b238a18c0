//! Linear least squares.
//!
//! Conditional linear-Gaussian CPD learning fits
//! `X_i ≈ b₀ + Σ_k b_k · parent_k` by ordinary least squares. Designs here
//! are tall and very narrow (rows = training points, cols = |parents| + 1 ≤
//! a handful), so the normal-equations route (`XᵀX β = Xᵀy`) with a Cholesky
//! solve is both the fastest and a perfectly stable choice; a ridge fallback
//! covers the collinear/degenerate cases that small training windows produce.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Result of a least-squares fit.
#[derive(Debug, Clone)]
pub struct LstsqFit {
    /// Coefficient vector `β` (length = number of design columns).
    pub coeffs: Vec<f64>,
    /// Unbiased residual variance `‖y − Xβ‖² / (rows − cols)`, or
    /// `‖y − Xβ‖² / rows` when the system is (near-)saturated.
    pub residual_variance: f64,
}

/// Ordinary least squares: minimize `‖y − Xβ‖²`.
///
/// Falls back to [`ridge_lstsq`] with a tiny penalty when `XᵀX` is singular
/// (e.g. constant parent columns in a short training window), so callers
/// always get *a* usable fit from degenerate data rather than an error.
pub fn lstsq(x: &Matrix, y: &[f64]) -> Result<LstsqFit> {
    if x.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch(format!(
            "lstsq: design {}x{} vs {} responses",
            x.rows(),
            x.cols(),
            y.len()
        )));
    }
    match solve_normal_equations(x, y, 0.0) {
        Ok(fit) => Ok(fit),
        Err(_) => {
            // Scale-aware tiny ridge: enough to regularize exact collinearity
            // while perturbing well-posed coefficients negligibly.
            let scale = column_norm_scale(x);
            ridge_lstsq(x, y, 1e-8 * scale.max(1.0))
        }
    }
}

/// Ridge regression: minimize `‖y − Xβ‖² + λ‖β‖²`.
pub fn ridge_lstsq(x: &Matrix, y: &[f64], lambda: f64) -> Result<LstsqFit> {
    if x.rows() != y.len() {
        return Err(LinalgError::ShapeMismatch(format!(
            "ridge_lstsq: design {}x{} vs {} responses",
            x.rows(),
            x.cols(),
            y.len()
        )));
    }
    solve_normal_equations(x, y, lambda)
}

/// Average squared column norm, used to scale the fallback ridge penalty.
fn column_norm_scale(x: &Matrix) -> f64 {
    let p = x.cols();
    if p == 0 || x.rows() == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    for r in 0..x.rows() {
        for &v in x.row(r) {
            total += v * v;
        }
    }
    total / p as f64
}

fn solve_normal_equations(x: &Matrix, y: &[f64], lambda: f64) -> Result<LstsqFit> {
    let n = x.rows();
    let p = x.cols();
    // Gram matrix XᵀX (p×p) and moment vector Xᵀy, assembled in one pass
    // over the rows so the design is streamed once.
    let mut gram = Matrix::zeros(p, p);
    let mut xty = vec![0.0; p];
    for r in 0..n {
        let row = x.row(r);
        let yr = y[r];
        for i in 0..p {
            let xi = row[i];
            if xi == 0.0 {
                continue;
            }
            xty[i] += xi * yr;
            for j in 0..=i {
                gram.add_at(i, j, xi * row[j]);
            }
        }
    }
    // Mirror the lower triangle and apply the ridge.
    for i in 0..p {
        for j in (i + 1)..p {
            let v = gram.get(j, i);
            gram.set(i, j, v);
        }
        gram.add_at(i, i, lambda);
    }
    let ch = Cholesky::factor(&gram)?;
    let coeffs = ch.solve(xty)?;

    // Residual sum of squares in a second streaming pass.
    let mut rss = 0.0;
    for r in 0..n {
        let pred = crate::matrix::dot(x.row(r), &coeffs);
        let e = y[r] - pred;
        rss += e * e;
    }
    let dof = n.saturating_sub(p);
    let residual_variance = if dof > 0 {
        rss / dof as f64
    } else if n > 0 {
        rss / n as f64
    } else {
        0.0
    };
    Ok(LstsqFit {
        coeffs,
        residual_variance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Design with intercept column and one regressor.
    fn simple_design(xs: &[f64]) -> Matrix {
        let mut data = Vec::with_capacity(xs.len() * 2);
        for &x in xs {
            data.push(1.0);
            data.push(x);
        }
        Matrix::from_vec(xs.len(), 2, data).unwrap()
    }

    #[test]
    fn exact_line_is_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let design = simple_design(&xs);
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 + 2.0 * x).collect();
        let fit = lstsq(&design, &y).unwrap();
        assert!((fit.coeffs[0] - 3.0).abs() < 1e-12);
        assert!((fit.coeffs[1] - 2.0).abs() < 1e-12);
        assert!(fit.residual_variance < 1e-20);
    }

    #[test]
    fn noisy_line_coefficients_are_close() {
        // Deterministic "noise" pattern keeps the test reproducible.
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let noise = |i: usize| if i.is_multiple_of(2) { 0.05 } else { -0.05 };
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 1.0 + 0.5 * x + noise(i))
            .collect();
        let fit = lstsq(&simple_design(&xs), &y).unwrap();
        assert!((fit.coeffs[0] - 1.0).abs() < 0.05, "{:?}", fit.coeffs);
        assert!((fit.coeffs[1] - 0.5).abs() < 0.05, "{:?}", fit.coeffs);
        assert!(fit.residual_variance > 0.0);
    }

    #[test]
    fn collinear_design_falls_back_to_ridge() {
        // Two identical columns: XᵀX singular, plain Cholesky would fail.
        let n = 10;
        let mut data = Vec::new();
        for i in 0..n {
            let v = i as f64;
            data.extend_from_slice(&[v, v]);
        }
        let x = Matrix::from_vec(n, 2, data).unwrap();
        let y: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let fit = lstsq(&x, &y).unwrap();
        // The ridge splits the coefficient mass between the twin columns;
        // their sum must still reproduce the slope.
        let slope = fit.coeffs[0] + fit.coeffs[1];
        assert!((slope - 2.0).abs() < 1e-3, "slope={slope}");
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let design = simple_design(&xs);
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 + 2.0 * x).collect();
        let plain = lstsq(&design, &y).unwrap();
        let ridge = ridge_lstsq(&design, &y, 100.0).unwrap();
        assert!(ridge.coeffs[1].abs() < plain.coeffs[1].abs());
    }

    #[test]
    fn shape_mismatch_reported() {
        let x = Matrix::zeros(3, 2);
        assert!(lstsq(&x, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn saturated_fit_uses_rows_for_variance() {
        // rows == cols: dof = 0 path.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let y = [1.0, 3.0];
        let fit = lstsq(&x, &y).unwrap();
        assert!(fit.residual_variance >= 0.0);
        assert!((fit.coeffs[0] - 1.0).abs() < 1e-9);
        assert!((fit.coeffs[1] - 2.0).abs() < 1e-9);
    }
}
