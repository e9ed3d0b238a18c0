//! Threshold-violation probabilities and the relative error ε (Eq. 5).
//!
//! "What is the probability that response time will exceed the
//! threshold(s)?" is the assessment autonomic software actually consumes;
//! §5.3 compares the model families on
//!
//! ```text
//! ε = |P_bn(D > h) − P_real(D > h)| / P_real(D > h)
//! ```
//!
//! computed across a sweep of thresholds (Figure 8).

use rand::Rng;

use crate::kert::KertBn;
use crate::posterior::{continuous_posterior, McOptions};
use crate::serve;
use crate::{CoreError, Result};

/// A model-based violation assessment, annotated with the model's health.
///
/// Autonomic software acting on `probability` needs to know when the
/// number rests on stale or prior CPDs — a degraded assessment may warrant
/// wider safety margins or deferring irreversible actions.
#[derive(Debug, Clone)]
pub struct ViolationAssessment {
    /// The threshold `h` assessed.
    pub threshold: f64,
    /// Model posterior `P(D > h | evidence)`.
    pub probability: f64,
    /// True if any CPD in the model came from the stale or prior rung.
    pub degraded: bool,
    /// The degraded service nodes (empty when healthy).
    pub degraded_services: Vec<usize>,
}

/// Assess `P(D > h | evidence)` under `model` for every threshold `h`,
/// flagging degraded mode from the model's health report. One posterior
/// serves the whole sweep: discrete models read it off the model's
/// junction tree (the same verb a [`crate::serve::Session`] runs);
/// continuous models run one posterior query.
pub fn assess_violation_sweep<R: Rng + ?Sized>(
    model: &KertBn,
    evidence: &[(usize, f64)],
    thresholds: &[f64],
    mc: McOptions,
    rng: &mut R,
) -> Result<Vec<ViolationAssessment>> {
    let probs: Vec<f64> = if model.discretizer().is_some() {
        serve::answer_once(model, |tree, st| {
            serve::violation_sweep(model, tree, st, evidence, thresholds)
        })?
    } else {
        let posterior = continuous_posterior(model.network(), evidence, model.d_node(), mc, rng)?;
        thresholds
            .iter()
            .map(|&h| posterior.exceedance(h))
            .collect()
    };
    let degraded = model.is_degraded();
    let degraded_services = model.degraded_services();
    Ok(thresholds
        .iter()
        .zip(probs)
        .map(|(&threshold, probability)| ViolationAssessment {
            threshold,
            probability,
            degraded,
            degraded_services: degraded_services.clone(),
        })
        .collect())
}

/// Empirical `P(D > h)` from observed response times.
pub fn empirical_violation_probability(response_times: &[f64], threshold: f64) -> f64 {
    if response_times.is_empty() {
        return 0.0;
    }
    let count = response_times.iter().filter(|&&d| d > threshold).count();
    count as f64 / response_times.len() as f64
}

/// Relative threshold-violation-probability error (Eq. 5). Fails when the
/// real probability is zero (the metric is undefined there; pick
/// thresholds inside the observed range).
pub fn relative_violation_error(p_model: f64, p_real: f64) -> Result<f64> {
    if p_real <= 0.0 {
        return Err(CoreError::BadRequest(
            "relative violation error undefined for P_real = 0".into(),
        ));
    }
    Ok((p_model - p_real).abs() / p_real)
}

/// Evenly spaced thresholds covering the central mass of observed response
/// times (from the `lo_q` to the `hi_q` quantile) — a reasonable default
/// for Figure 8's six-threshold sweep.
pub fn default_thresholds(real_d: &[f64], count: usize, lo_q: f64, hi_q: f64) -> Vec<f64> {
    assert!(count >= 1);
    let lo = kert_linalg::stats::quantile(real_d, lo_q);
    let hi = kert_linalg::stats::quantile(real_d, hi_q);
    if count == 1 {
        return vec![0.5 * (lo + hi)];
    }
    (0..count)
        .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_probability_counts_strict_exceedances() {
        let d = [1.0, 2.0, 3.0, 4.0];
        kert_conformance::assert_close!(empirical_violation_probability(&d, 2.0), 0.5);
        kert_conformance::assert_close!(empirical_violation_probability(&d, 0.0), 1.0);
        kert_conformance::assert_close!(empirical_violation_probability(&d, 4.0), 0.0, 1e-12);
        kert_conformance::assert_close!(empirical_violation_probability(&[], 1.0), 0.0, 1e-12);
    }

    #[test]
    fn relative_error_formula() {
        assert!((relative_violation_error(0.12, 0.10).unwrap() - 0.2).abs() < 1e-12);
        kert_conformance::assert_close!(relative_violation_error(0.10, 0.10).unwrap(), 0.0, 1e-12);
        assert!(relative_violation_error(0.1, 0.0).is_err());
    }

    #[test]
    fn default_thresholds_span_quantiles() {
        let d: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let ths = default_thresholds(&d, 6, 0.1, 0.9);
        assert_eq!(ths.len(), 6);
        assert!((ths[0] - 10.0).abs() < 1e-9);
        assert!((ths[5] - 90.0).abs() < 1e-9);
        for w in ths.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(default_thresholds(&d, 1, 0.0, 1.0), vec![50.0]);
    }
}
