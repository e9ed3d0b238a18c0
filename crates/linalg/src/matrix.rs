//! Row-major dense matrix.
//!
//! A deliberately small surface: construction, element access, the algebra
//! needed by Gaussian-network learning and inference (multiply, transpose,
//! add, scale, submatrix extraction), and symmetric helpers. Everything is
//! `f64`; the matrices in this workspace never exceed a few hundred rows, so
//! no blocking or SIMD heroics are warranted — contiguous row-major storage
//! plus tight loops lets LLVM vectorize the hot `mul` kernel on its own.

use crate::{LinalgError, Result};

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// Returns a shape error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "from_vec: {rows}x{cols} needs {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build a matrix from nested row slices (handy in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LinalgError::ShapeMismatch(format!(
                    "from_rows: row {i} has {} columns, expected {c}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Matrix::from_vec(r, c, data)
    }

    /// Build a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` to element `(r, c)`.
    #[inline]
    pub fn add_at(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Borrow a row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow a row mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy a column out into a fresh `Vec`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the classic i-k-j loop order so the innermost loop streams both
    /// the output row and the `rhs` row contiguously.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "mul: {}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "mul_vec: {}x{} * {}",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = dot(row, v);
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(&self, rhs: &Matrix, op: &str, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Extract the submatrix with the given row and column index sets
    /// (in the order given; duplicates are allowed).
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (i, &r) in row_idx.iter().enumerate() {
            for (j, &c) in col_idx.iter().enumerate() {
                out.data[i * col_idx.len() + j] = self.get(r, c);
            }
        }
        out
    }

    /// Symmetrize in place: `A ← (A + Aᵀ) / 2`. Useful to scrub the tiny
    /// asymmetries accumulated while assembling covariance matrices.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let n = self.rows;
        for r in 0..n {
            for c in (r + 1)..n {
                let m = 0.5 * (self.data[r * n + c] + self.data[c * n + r]);
                self.data[r * n + c] = m;
                self.data[c * n + r] = m;
            }
        }
    }

    /// Maximum absolute difference against another matrix of the same shape.
    /// Panics on shape mismatch (test helper).
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self.get(i, i)).sum()
    }
}

/// Dot product of two equal-length slices. The single hottest kernel in the
/// crate; kept free-standing so both `Matrix` and the factorizations share
/// one autovectorized implementation.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
        let i3 = Matrix::identity(3);
        assert_eq!(i3.mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn mul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.mul(&b), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]).unwrap();
        let v = [3.0, 4.0];
        let got = a.mul_vec(&v).unwrap();
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn submatrix_picks_requested_entries() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[10.0, 11.0, 12.0], &[20.0, 21.0, 22.0]])
            .unwrap();
        let s = a.submatrix(&[2, 0], &[1]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 1);
        assert_eq!(s.get(0, 0), 21.0);
        assert_eq!(s.get(1, 0), 1.0);
    }

    #[test]
    fn symmetrize_averages_off_diagonal() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]).unwrap();
        a.symmetrize();
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let r: &[&[f64]] = &[&[1.0, 2.0], &[3.0]];
        assert!(Matrix::from_rows(r).is_err());
    }

    #[test]
    fn diag_and_trace() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5, -0.5], &[1.5, 2.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-15);
    }
}
