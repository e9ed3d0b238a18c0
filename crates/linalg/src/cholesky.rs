//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Gaussian Bayesian-network inference reduces to conditioning multivariate
//! normals, whose covariance matrices are SPD; Cholesky (`Σ = L·Lᵀ`) gives us
//! solves and log-determinants, in `O(n³/3)` for factorization and `O(n²)`
//! per solve.

use crate::matrix::{dot, Matrix};
use crate::{LinalgError, Result, EPS};

/// The lower-triangular Cholesky factor `L` of an SPD matrix `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read (the caller may leave garbage
    /// above the diagonal). Fails with [`LinalgError::NotPositiveDefinite`]
    /// if a pivot falls below [`EPS`].
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky: matrix is {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                // s = A[i][j] - Σ_{k<j} L[i][k]·L[j][k]
                let li = &l.row(i)[..j];
                let lj = &l.row(j)[..j];
                let s = a.get(i, j) - dot(li, lj);
                if i == j {
                    if s <= EPS {
                        return Err(LinalgError::NotPositiveDefinite { index: i, pivot: s });
                    }
                    l.set(i, j, s.sqrt());
                } else {
                    l.set(i, j, s / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factor after adding `jitter` to the diagonal; used as a fallback when
    /// a covariance matrix estimated from few samples is numerically
    /// semidefinite. Tries exponentially growing jitter up to `1e-2·trace/n`.
    pub fn factor_with_jitter(a: &Matrix) -> Result<Self> {
        match Self::factor(a) {
            Ok(c) => Ok(c),
            Err(_) => {
                let n = a.rows().max(1);
                let scale = (a.trace().abs() / n as f64).max(1.0);
                let mut jitter = scale * 1e-10;
                for _ in 0..9 {
                    let mut aj = a.clone();
                    for i in 0..a.rows() {
                        aj.add_at(i, i, jitter);
                    }
                    if let Ok(c) = Self::factor(&aj) {
                        return Ok(c);
                    }
                    jitter *= 10.0;
                }
                Self::factor(a) // return the original error
            }
        }
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` via forward/back substitution. `b` is consumed as the
    /// working buffer and returned as the solution.
    pub fn solve(&self, mut b: Vec<f64>) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky solve: dim {n} vs rhs {}",
                b.len()
            )));
        }
        // Forward: L y = b
        for i in 0..n {
            let li = &self.l.row(i)[..i];
            let s = dot(li, &b[..i]);
            b[i] = (b[i] - s) / self.l.get(i, i);
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= self.l.get(k, i) * b[k];
            }
            b[i] = s / self.l.get(i, i);
        }
        Ok(b)
    }

    /// Solve `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky solve_matrix: dim {n} vs rhs {}x{}",
                b.rows(),
                b.cols()
            )));
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let x = self.solve(b.col(c))?;
            for (r, v) in x.into_iter().enumerate() {
                out.set(r, c, v);
            }
        }
        Ok(out)
    }

    /// `log |A| = 2 Σ log L[i][i]`; needed by multivariate-normal log-pdfs.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Forward solve only: `L y = b`. Exposed for the Mahalanobis-distance
    /// shortcut `‖L⁻¹(x-μ)‖²` in the MVN log-pdf.
    pub fn forward_solve(&self, mut b: Vec<f64>) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky forward_solve: dim {n} vs rhs {}",
                b.len()
            )));
        }
        for i in 0..n {
            let li = &self.l.row(i)[..i];
            let s = dot(li, &b[..i]);
            b[i] = (b[i] - s) / self.l.get(i, i);
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ·B + I for B with distinct entries — guaranteed SPD.
        Matrix::from_rows(&[&[5.0, 2.0, 1.0], &[2.0, 6.0, 2.5], &[1.0, 2.5, 4.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.l().mul(&ch.l().transpose()).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(b).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn solving_against_the_identity_inverts() {
        let a = spd3();
        let inv = Cholesky::factor(&a)
            .unwrap()
            .solve_matrix(&Matrix::identity(3))
            .unwrap();
        let eye = a.mul(&inv).unwrap();
        assert!(eye.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn log_det_matches_lu_det() {
        let a = spd3();
        let ld = Cholesky::factor(&a).unwrap().log_det();
        let det = crate::lu::Lu::factor(&a).unwrap().det();
        assert!((ld - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: vvᵀ with v = (1, 2) is PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        assert!(Cholesky::factor_with_jitter(&a).is_ok());
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let ch = Cholesky::factor(&spd3()).unwrap();
        assert!(ch.solve(vec![1.0, 2.0]).is_err());
    }
}
