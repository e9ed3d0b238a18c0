//! Figure 8 — relative threshold-violation error, KERT-BN vs NRT-BN.
//!
//! Paper setting (§5.3): both models are trained on 1200 test-bed points;
//! NRT-BN gets the luxury treatment — K2 re-run with many random orderings
//! (time allows, since the test-bed is small) keeping the best structure.
//! Both then project the response-time distribution after accelerating
//! `X₄`, and are scored on
//! `ε = |P_bn(D > h) − P_real(D > h)| / P_real(D > h)` against the real
//! post-acceleration measurements, across six thresholds.

use kert_core::posterior::shifted_posterior;
use kert_core::violation::{
    default_thresholds, empirical_violation_probability, relative_violation_error,
};
use kert_core::{DiscreteKertOptions, KertBn, NrtBn, NrtOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Environment, ScenarioOptions};

/// Training points (§5: 1200).
pub const TRAIN_SIZE: usize = 1200;
/// The accelerated service: X₄ = node 3.
pub const ACCELERATED_SERVICE: usize = 3;
/// Acceleration factor.
pub const FACTOR: f64 = 0.9;
/// Number of thresholds (paper: six).
pub const N_THRESHOLDS: usize = 6;
/// K2 random-ordering restarts for the optimized NRT-BN.
pub const NRT_RESTARTS: usize = 10;
/// States per variable. Finer than the core default: violation
/// probabilities are tail integrals, where discretization error dominates;
/// 1200 training points support 10 bins comfortably.
pub const BINS: usize = 10;

/// One threshold's errors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Point {
    /// The response-time threshold `h`.
    pub threshold: f64,
    /// Real `P(D > h)` after the acceleration.
    pub p_real: f64,
    /// KERT-BN's projected `P(D > h)`.
    pub p_kert: f64,
    /// NRT-BN's projected `P(D > h)`.
    pub p_nrt: f64,
    /// ε for KERT-BN.
    pub kert_error: f64,
    /// ε for NRT-BN.
    pub nrt_error: f64,
}

/// Run the Figure-8 experiment.
pub fn run(seed: u64) -> Vec<Fig8Point> {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(TRAIN_SIZE, 1, seed);

    let kert = KertBn::build_discrete(
        &env.knowledge,
        &train,
        DiscreteKertOptions {
            bins: BINS,
            ..Default::default()
        },
    )
    .expect("discrete KERT-BN builds");
    let mut nrt_rng = StdRng::seed_from_u64(seed ^ 0x41);
    let nrt = NrtBn::build_discrete(
        &train,
        NrtOptions {
            restarts: NRT_RESTARTS,
            bins: BINS,
            ..Default::default()
        },
        &mut nrt_rng,
    )
    .expect("discrete NRT-BN builds");

    // Projected D given the acceleration, from each model: the what-if is a
    // *distribution shift* of X₄ (every request gets faster), so project
    // with X₄'s scaled empirical distribution rather than conditioning at a
    // single point — point evidence would collapse X₄'s variability and
    // squeeze both projections far below the real spread.
    let accelerated_x4: Vec<f64> = train
        .column(ACCELERATED_SERVICE)
        .iter()
        .map(|&v| FACTOR * v)
        .collect();
    let d_node = kert.d_node();
    let kert_post = shifted_posterior(&kert, ACCELERATED_SERVICE, &accelerated_x4, d_node)
        .expect("KERT-BN posterior");
    let nrt_post = shifted_posterior(&nrt, ACCELERATED_SERVICE, &accelerated_x4, d_node)
        .expect("NRT-BN posterior");

    // Real distribution after actually accelerating.
    env.scale_service(ACCELERATED_SERVICE, FACTOR);
    let (after, _) = env.datasets(TRAIN_SIZE, 1, seed ^ 0x43);
    let real_d = after.column(d_node);

    // Thresholds spanning the central mass of the real distribution.
    let thresholds = default_thresholds(&real_d, N_THRESHOLDS, 0.15, 0.85);
    thresholds
        .into_iter()
        .map(|h| {
            // Floored above zero, so Eq. 5 is always defined here.
            let p_real = empirical_violation_probability(&real_d, h).max(1e-6);
            let eq5 = |p: f64| relative_violation_error(p, p_real).expect("P_real > 0");
            let p_kert = kert_post.exceedance(h);
            let p_nrt = nrt_post.exceedance(h);
            Fig8Point {
                threshold: h,
                p_real,
                p_kert,
                p_nrt,
                kert_error: eq5(p_kert),
                nrt_error: eq5(p_nrt),
            }
        })
        .collect()
}

/// Mean ε across thresholds (summary statistic for assertions).
pub fn mean_errors(points: &[Fig8Point]) -> (f64, f64) {
    let n = points.len().max(1) as f64;
    (
        points.iter().map(|p| p.kert_error).sum::<f64>() / n,
        points.iter().map(|p| p.nrt_error).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kert_violation_error_matches_luxury_nrt_without_search() {
        let points = run(2024);
        assert_eq!(points.len(), N_THRESHOLDS);
        let (kert_err, nrt_err) = mean_errors(&points);
        // The paper's claim: the generated model is as accurate as the
        // exhaustively searched one at a fraction of the construction cost
        // (KERT does zero score evaluations; NRT runs K2 ten times). With
        // the distribution-shift projection both land within a few percent
        // of the real violation probabilities; require KERT to stay in that
        // regime and within 25% of NRT's error, rather than demanding it
        // win a coin-flip-sized gap.
        assert!(
            kert_err < 0.10,
            "mean ε: kert {kert_err} not in the accurate regime"
        );
        assert!(
            kert_err < nrt_err * 1.25 + 0.01,
            "mean ε: kert {kert_err} vs nrt {nrt_err}"
        );
        for p in &points {
            assert!(p.p_real > 0.0 && p.p_real <= 1.0);
            assert!(p.kert_error.is_finite() && p.nrt_error.is_finite());
        }
    }
}
