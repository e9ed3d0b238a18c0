//! The differential conformance sweeps: every fast inference path against
//! the matching exact oracle over randomized instances.
//!
//! The master seed is taken from `KERT_CONF_SEED` (default 1) so CI can
//! fan the same suite out over several seeds without recompiling.

use kert_conformance::{
    check_degraded_compensation, check_nrt_tree, run_continuous_differential,
    run_discrete_differential,
};

fn conf_seed() -> u64 {
    std::env::var("KERT_CONF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Stride-kernel VE (three heuristics, plain and pruned), the naive
/// greedy reference, and the compiled junction tree all match the
/// joint-enumeration oracle to 1e-9 on random discrete networks.
#[test]
fn discrete_fast_paths_match_enumeration_oracle() {
    let report = run_discrete_differential(conf_seed(), 25).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.instances, 25);
    assert!(
        report.worst_gap <= 1e-9,
        "worst probability gap {:e}",
        report.worst_gap
    );
}

/// dComp, pAccel, and the Eq.-5 violation probability, through the
/// production entry points on continuous models (the Cholesky
/// joint-conditioning path), agree with the structural-equation Gaussian
/// oracle to ≤1e-9 relative error on 100 random exactly-solvable
/// instances; each instance's discrete companion also gates the compiled
/// junction tree (≤1e-9), through `dcomp_all`'s one-shot serve path,
/// against the enumeration oracle, and its `query_posterior` and
/// `shifted_posterior` against variable elimination.
#[test]
fn continuous_fast_paths_match_gaussian_oracle_on_100_instances() {
    let report = run_continuous_differential(conf_seed(), 100).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.instances, 100);
    assert!(
        report.worst_rel_err <= 1e-9,
        "worst posterior-mean relative error {:e}",
        report.worst_rel_err
    );
}

/// A discrete NRT-BN answers `query_posterior` and `shifted_posterior`
/// off its own junction tree within 1e-9 of variable elimination.
#[test]
fn nrt_tree_matches_variable_elimination() {
    let worst = check_nrt_tree(conf_seed()).unwrap_or_else(|e| panic!("{e}"));
    assert!(worst <= 1e-9, "worst probability gap {worst:e}");
}

/// Degraded-mode compensation (crashed agent, resilient rebuild) matches
/// the Gaussian oracle conditioned on the degraded network itself.
#[test]
fn degraded_compensation_matches_oracle() {
    let seed = conf_seed();
    for offset in 0..3u64 {
        check_degraded_compensation(seed.wrapping_mul(31).wrapping_add(offset))
            .unwrap_or_else(|e| panic!("seed offset {offset}: {e}"));
    }
}
