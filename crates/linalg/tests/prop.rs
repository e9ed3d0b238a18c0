//! Property-based tests for the linear-algebra kernel.

#![allow(clippy::needless_range_loop)] // index loops over coupled structures

use kert_linalg::{Cholesky, Lu, Matrix, MultivariateNormal};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with entries in [-5, 5].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

/// Strategy: an SPD matrix `BᵀB + I` of dimension `n`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |b| {
        let mut a = b.transpose().mul(&b).unwrap();
        for i in 0..n {
            a.add_at(i, i, 1.0);
        }
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_multiplication_distributes_over_addition(
        a in matrix(3, 4),
        b in matrix(4, 2),
        c in matrix(4, 2),
    ) {
        let left = a.mul(&b.add(&c).unwrap()).unwrap();
        let right = a.mul(&b).unwrap().add(&a.mul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn transpose_reverses_products(a in matrix(3, 4), b in matrix(4, 2)) {
        let lhs = a.mul(&b).unwrap().transpose();
        let rhs = b.transpose().mul(&a.transpose()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn cholesky_factors_reconstruct(a in spd(4)) {
        let ch = Cholesky::factor(&a).unwrap();
        let back = ch.l().mul(&ch.l().transpose()).unwrap();
        prop_assert!(back.max_abs_diff(&a) < 1e-8 * (1.0 + a.trace().abs()));
    }

    #[test]
    fn cholesky_solves_are_true_solutions(a in spd(4), x in proptest::collection::vec(-3.0f64..3.0, 4)) {
        let b = a.mul_vec(&x).unwrap();
        let solved = Cholesky::factor(&a).unwrap().solve(b).unwrap();
        for (got, want) in solved.iter().zip(x.iter()) {
            prop_assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn lu_det_is_multiplicative(a in spd(3), b in spd(3)) {
        let det_a = Lu::factor(&a).unwrap().det();
        let det_b = Lu::factor(&b).unwrap().det();
        let det_ab = Lu::factor(&a.mul(&b).unwrap()).unwrap().det();
        prop_assert!(
            (det_ab - det_a * det_b).abs() < 1e-6 * (1.0 + det_ab.abs()),
            "{det_ab} vs {}",
            det_a * det_b
        );
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_design(
        data in proptest::collection::vec(-4.0f64..4.0, 12 * 2),
        y in proptest::collection::vec(-4.0f64..4.0, 12),
    ) {
        let x = Matrix::from_vec(12, 2, data).unwrap();
        let fit = kert_linalg::lstsq(&x, &y).unwrap();
        // Normal equations: Xᵀ(y − Xβ) ≈ 0.
        for c in 0..2 {
            let mut dot = 0.0;
            for r in 0..12 {
                let pred: f64 = (0..2).map(|k| x.get(r, k) * fit.coeffs[k]).sum();
                dot += x.get(r, c) * (y[r] - pred);
            }
            prop_assert!(dot.abs() < 1e-6, "column {c}: {dot}");
        }
    }

    #[test]
    fn mvn_log_pdf_is_maximal_at_the_mean(
        cov in spd(3),
        mean in proptest::collection::vec(-2.0f64..2.0, 3),
        offset in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        prop_assume!(offset.iter().any(|&o| o.abs() > 1e-3));
        let mvn = MultivariateNormal::new(mean.clone(), cov).unwrap();
        let at_mean = mvn.log_pdf(&mean).unwrap();
        let shifted: Vec<f64> = mean.iter().zip(offset.iter()).map(|(m, o)| m + o).collect();
        prop_assert!(at_mean >= mvn.log_pdf(&shifted).unwrap());
    }

    #[test]
    fn mvn_conditioning_never_increases_variance(
        cov in spd(3),
        mean in proptest::collection::vec(-2.0f64..2.0, 3),
        obs in -3.0f64..3.0,
    ) {
        let mvn = MultivariateNormal::new(mean, cov).unwrap();
        let prior_var_0 = mvn.cov().get(0, 0);
        let post = mvn.condition(&[2], &[obs]).unwrap();
        let post_var_0 = post.variance_of(0).unwrap();
        prop_assert!(post_var_0 <= prior_var_0 + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(
        mut xs in proptest::collection::vec(-100.0f64..100.0, 1..40),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        xs.retain(|x| x.is_finite());
        prop_assume!(!xs.is_empty());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(
            kert_linalg::stats::quantile(&xs, lo) <= kert_linalg::stats::quantile(&xs, hi)
        );
    }
}
