//! Tolerance vocabulary for float comparisons across the test suite.
//!
//! Exact `==` on floats and unwrapped `partial_cmp` are silent-failure
//! surfaces: they pass today because two code paths happen to round the
//! same way, then break (or worse, keep passing vacuously) under the next
//! refactor. Everything here compares with explicit tolerances and says
//! *how far off* a failure was.

/// True when `a` and `b` agree to `tol`, measured relative to the larger
/// magnitude once that magnitude exceeds 1 (so `tol` reads as an absolute
/// tolerance near zero and a relative one for large values).
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        // Covers equal infinities and exact hits.
        return true;
    }
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

/// Relative error `|a − b| / max(|a|, |b|)`, zero when both are zero.
pub fn rel_err(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        return 0.0;
    }
    (a - b).abs() / scale
}

/// Largest absolute elementwise difference of two equal-length slices.
///
/// Panics on length mismatch — a dimension mismatch is a structural bug,
/// not a numerical one.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "max_abs_diff: {} vs {} entries",
        a.len(),
        b.len()
    );
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Assert two `f64` expressions agree; optional third argument overrides
/// the default tolerance of `1e-9` (see [`close`] for its semantics).
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr $(,)?) => {
        $crate::assert_close!($a, $b, 1e-9)
    };
    ($a:expr, $b:expr, $tol:expr $(,)?) => {{
        let (a, b): (f64, f64) = ($a, $b);
        assert!(
            $crate::tolerance::close(a, b, $tol),
            "assert_close!({} ≈ {}) failed: |Δ| = {:e}, tol = {:e}",
            a,
            b,
            (a - b).abs(),
            $tol
        );
    }};
}

/// Assert two probability vectors (or any equal-length slices) agree
/// elementwise; optional third argument overrides the default tolerance
/// of `1e-9` on the largest absolute difference.
#[macro_export]
macro_rules! assert_dist_close {
    ($a:expr, $b:expr $(,)?) => {
        $crate::assert_dist_close!($a, $b, 1e-9)
    };
    ($a:expr, $b:expr, $tol:expr $(,)?) => {{
        let a: &[f64] = &$a;
        let b: &[f64] = &$b;
        let d = $crate::tolerance::max_abs_diff(a, b);
        assert!(
            d <= $tol,
            "assert_dist_close! failed: max |Δ| = {:e}, tol = {:e}\n  left: {:?}\n right: {:?}",
            d,
            $tol,
            a,
            b
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_is_absolute_near_zero_and_relative_at_scale() {
        assert!(close(0.0, 5e-10, 1e-9));
        assert!(!close(0.0, 5e-9, 1e-9));
        assert!(close(1e12, 1e12 + 1.0, 1e-9));
        assert!(!close(1e12, 1e12 + 1e4, 1e-9));
        assert!(close(f64::INFINITY, f64::INFINITY, 1e-9));
    }

    #[test]
    fn rel_err_basics() {
        assert_close!(rel_err(2.0, 1.0), 0.5);
        assert_close!(rel_err(0.0, 0.0), 0.0);
        assert_close!(rel_err(-1.0, 1.0), 2.0);
    }

    #[test]
    fn macros_accept_custom_tolerances() {
        assert_close!(1.0, 1.0 + 1e-10);
        assert_close!(1.0, 1.05, 0.1);
        assert_dist_close!([0.5, 0.5], [0.5, 0.5 + 1e-12]);
        let (sampled, exact) = (vec![0.4, 0.6], vec![0.42, 0.58]);
        assert_dist_close!(sampled, exact, 0.05);
    }

    #[test]
    #[should_panic(expected = "assert_close!")]
    fn assert_close_fires() {
        assert_close!(1.0, 1.1);
    }

    #[test]
    #[should_panic(expected = "assert_dist_close!")]
    fn assert_dist_close_fires() {
        assert_dist_close!([0.5, 0.5], [0.6, 0.4]);
    }
}
