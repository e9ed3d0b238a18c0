//! Special functions: `ln Γ` (Lanczos) and log-factorials.
//!
//! The K2/Bayesian-Dirichlet structure score is a ratio of Gamma functions
//! (Cooper & Herskovits 1992, Eq. 11); stable Rust has no `ln_gamma`, so we
//! carry a Lanczos approximation accurate to ~1e-13 relative error over the
//! arguments that occur here (positive reals).

/// Lanczos coefficients for g = 7, n = 9 (Numerical Recipes flavor).
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the Gamma function for `x > 0`.
///
/// Panics in debug builds on non-positive input (callers in this workspace
/// only ever pass counts + positive Dirichlet pseudo-counts).
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps precision for small arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = LANCZOS_COEF[0];
    let t = x + LANCZOS_G + 0.5;
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(n!)` for integer `n`.
pub fn ln_factorial(n: usize) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let got = ln_gamma((i + 1) as f64);
            assert!(
                (got - f.ln()).abs() < 1e-11,
                "Γ({}) mismatch: {got} vs {}",
                i + 1,
                f.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        let got = ln_gamma(0.5);
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((got - want).abs() < 1e-11);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.7, 1.3, 4.2, 25.0, 333.3] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10, "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn ln_factorial_small_values() {
        assert!(ln_factorial(0).abs() < 1e-12);
        assert!((ln_factorial(5) - 120.0_f64.ln()).abs() < 1e-11);
    }
}
