//! Service-time and inter-arrival distributions.
//!
//! Hand-rolled on top of `rand`'s uniform source (the offline dependency
//! set has no `rand_distr`): exponential via inverse CDF, normal via
//! Box–Muller, log-normal by exponentiation, Erlang as a sum of
//! exponentials, plus deterministic and uniform. All sampling is
//! reproducible through the caller's seeded RNG.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// A non-negative continuous distribution for delays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always exactly `value`.
    Deterministic {
        /// The constant delay.
        value: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (≥ 0).
        lo: f64,
        /// Upper bound (> lo).
        hi: f64,
    },
    /// Exponential with the given mean (`rate = 1/mean`).
    Exponential {
        /// Mean delay.
        mean: f64,
    },
    /// Erlang-`k`: sum of `k` i.i.d. exponentials; mean is the *total* mean.
    Erlang {
        /// Shape (number of stages, ≥ 1).
        k: u32,
        /// Mean of the sum.
        mean: f64,
    },
    /// Normal truncated at zero (resampled-free: negative draws clamp to 0;
    /// fine for μ ≫ σ service times).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Log-normal given the *underlying* normal's μ and σ.
    LogNormal {
        /// Mean of ln X.
        mu: f64,
        /// Std-dev of ln X.
        sigma: f64,
    },
    /// Weibull with shape `k` and scale `lambda` (k < 1: heavy tail,
    /// k = 1: exponential, k > 1: wear-out). Common for Grid job services.
    Weibull {
        /// Shape parameter (> 0).
        k: f64,
        /// Scale parameter (> 0).
        lambda: f64,
    },
    /// Pareto (Lomax-style, shifted to start at `scale`): heavy-tailed
    /// service times with tail index `alpha` (> 1 for a finite mean).
    Pareto {
        /// Minimum value / scale (> 0).
        scale: f64,
        /// Tail index (> 1).
        alpha: f64,
    },
}

impl Dist {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        let ok = match *self {
            Dist::Deterministic { value } => value >= 0.0 && value.is_finite(),
            Dist::Uniform { lo, hi } => lo >= 0.0 && hi > lo && hi.is_finite(),
            Dist::Exponential { mean } => mean > 0.0 && mean.is_finite(),
            Dist::Erlang { k, mean } => k >= 1 && mean > 0.0 && mean.is_finite(),
            Dist::Normal { mean, std_dev } => {
                mean >= 0.0 && std_dev >= 0.0 && mean.is_finite() && std_dev.is_finite()
            }
            Dist::LogNormal { mu, sigma } => mu.is_finite() && sigma >= 0.0 && sigma.is_finite(),
            Dist::Weibull { k, lambda } => {
                k > 0.0 && lambda > 0.0 && k.is_finite() && lambda.is_finite()
            }
            Dist::Pareto { scale, alpha } => {
                scale > 0.0 && alpha > 1.0 && scale.is_finite() && alpha.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::BadDistribution(format!("{self:?}")))
        }
    }

    /// Draw one sample (always ≥ 0).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => rng.gen_range(lo..hi),
            Dist::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -mean * u.ln()
            }
            Dist::Erlang { k, mean } => {
                let stage_mean = mean / k as f64;
                (0..k)
                    .map(|_| {
                        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                        -stage_mean * u.ln()
                    })
                    .sum()
            }
            Dist::Normal { mean, std_dev } => (mean + std_dev * box_muller(rng)).max(0.0),
            Dist::LogNormal { mu, sigma } => (mu + sigma * box_muller(rng)).exp(),
            Dist::Weibull { k, lambda } => {
                // Inverse CDF: λ·(−ln U)^{1/k}.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                lambda * (-u.ln()).powf(1.0 / k)
            }
            Dist::Pareto { scale, alpha } => {
                // Inverse CDF: scale · U^{−1/α}.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                scale * u.powf(-1.0 / alpha)
            }
        }
    }
}

fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Theoretical mean of `d` (the truncated normal's clamp bias is ignored —
    /// negligible for μ ≫ σ, the regime service times live in).
    fn theoretical_mean(d: Dist) -> f64 {
        match d {
            Dist::Deterministic { value } => value,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { mean } | Dist::Erlang { mean, .. } => mean,
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
            Dist::Weibull { k, lambda } => lambda * gamma_1_plus(1.0 / k),
            Dist::Pareto { scale, alpha } => scale * alpha / (alpha - 1.0),
        }
    }

    /// Γ(1 + x) via the Lanczos `ln Γ` in kert-bayes would add a dependency
    /// cycle; a Stirling-series approximation is ample for the Weibull mean
    /// (x ∈ (0, ~5] here, relative error < 1e-6).
    fn gamma_1_plus(x: f64) -> f64 {
        // Use Γ(1+x) = x·Γ(x) with a Lanczos-lite rational fit on [1, 2].
        // Shift x+1 into [1, 2) by the recurrence Γ(z+1) = z·Γ(z).
        let mut z = 1.0 + x;
        let mut factor = 1.0;
        while z > 2.0 {
            z -= 1.0;
            factor *= z;
        }
        // Minimax-style polynomial for Γ(z) on [1, 2] (Abramowitz & Stegun
        // 6.1.36, |ε| ≤ 3e-7).
        let t = z - 1.0;
        let g = 1.0
            + t * (-0.577191652
                + t * (0.988205891
                    + t * (-0.897056937
                        + t * (0.918206857
                            + t * (-0.756704078
                                + t * (0.482199394 + t * (-0.193527818 + t * 0.035868343)))))));
        factor * g
    }

    fn sample_mean(d: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn sample_means_match_theory() {
        let cases = [
            Dist::Deterministic { value: 3.0 },
            Dist::Uniform { lo: 1.0, hi: 5.0 },
            Dist::Exponential { mean: 2.0 },
            Dist::Erlang { k: 4, mean: 2.0 },
            Dist::Normal {
                mean: 10.0,
                std_dev: 1.0,
            },
            Dist::LogNormal {
                mu: 0.0,
                sigma: 0.5,
            },
            Dist::Weibull {
                k: 2.0,
                lambda: 3.0,
            },
            Dist::Pareto {
                scale: 1.0,
                alpha: 3.0,
            },
        ];
        for (i, d) in cases.into_iter().enumerate() {
            let m = sample_mean(d, 100_000, 100 + i as u64);
            let want = theoretical_mean(d);
            assert!(
                (m - want).abs() < 0.03 * want.max(1.0),
                "{d:?}: {m} vs {want}"
            );
        }
    }

    #[test]
    fn samples_are_nonnegative() {
        let d = Dist::Normal {
            mean: 0.5,
            std_dev: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn erlang_has_lower_variance_than_exponential() {
        let ex = Dist::Exponential { mean: 2.0 };
        let er = Dist::Erlang { k: 8, mean: 2.0 };
        let var = |d: Dist, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
            kert_linalg::stats::variance(&xs)
        };
        assert!(var(er, 1) < var(ex, 1) * 0.5);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        // k = 1 ⇒ Exp(λ): compare empirical CDF at the mean.
        let w = Dist::Weibull {
            k: 1.0,
            lambda: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(77);
        let below = (0..50_000).filter(|_| w.sample(&mut rng) < 2.0).count();
        let frac = below as f64 / 50_000.0;
        let expect = 1.0 - (-1.0f64).exp(); // P(X < mean) for Exp
        assert!((frac - expect).abs() < 0.01, "{frac} vs {expect}");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let p = Dist::Pareto {
            scale: 1.0,
            alpha: 1.5,
        };
        let e = Dist::Exponential { mean: 3.0 }; // same mean
        let far = |d: Dist, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100_000).filter(|_| d.sample(&mut rng) > 30.0).count()
        };
        assert!(far(p, 5) > 10 * far(e, 5).max(1));
    }

    #[test]
    fn gamma_helper_matches_known_values() {
        // Γ(1.5) = √π/2 ≈ 0.886227; Γ(2) = 1; Γ(3) = 2.
        assert!((gamma_1_plus(0.5) - 0.886_226_925).abs() < 1e-5);
        assert!((gamma_1_plus(1.0) - 1.0).abs() < 1e-5);
        assert!((gamma_1_plus(2.0) - 2.0).abs() < 1e-5);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Dist::Exponential { mean: 0.0 }.validate().is_err());
        assert!(Dist::Weibull {
            k: 0.0,
            lambda: 1.0
        }
        .validate()
        .is_err());
        assert!(Dist::Pareto {
            scale: 1.0,
            alpha: 1.0
        }
        .validate()
        .is_err());
        assert!(Dist::Uniform { lo: 5.0, hi: 1.0 }.validate().is_err());
        assert!(Dist::Erlang { k: 0, mean: 1.0 }.validate().is_err());
        assert!(Dist::Deterministic { value: -1.0 }.validate().is_err());
        assert!(Dist::Normal {
            mean: 1.0,
            std_dev: 0.1
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn deterministic_is_exact() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Dist::Deterministic { value: 7.5 }.sample(&mut rng), 7.5);
    }
}
