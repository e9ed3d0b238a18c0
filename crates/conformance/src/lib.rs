//! # kert-conformance — oracles and differential gates for every fast path
//!
//! The workspace has three exact answer-producing inference paths —
//! stride-kernel variable elimination (plain/pruned, three ordering
//! heuristics), the compiled junction tree, and joint-Gaussian
//! conditioning — plus the dComp / pAccel / Eq.-5 pipeline built on them.
//! This crate proves they agree with ground truth:
//!
//! * [`enumeration`] — a dense joint-enumeration oracle for discrete
//!   networks: exact marginals/conditionals by brute-force summation over
//!   the full joint table, built only on [`kert_bayes::BayesianNetwork::log_joint`]
//!   (per-CPD log-probabilities), none of the factor machinery under test.
//! * [`gaussian`] — a closed-form linear-Gaussian oracle: the joint normal
//!   implied by a continuous KERT-BN assembled through the structural
//!   -equation form `X = b₀ + B·X + ε` (LU solve, not the topological
//!   recursion of `kert_bayes::joint`), conditioned through an LU Schur
//!   complement (not the Cholesky fast path).
//! * [`gen`] — deterministic instance generators: random exactly-solvable
//!   KERT environments (sequential workflows → linear-Gaussian networks)
//!   and random small discrete networks with strictly positive CPTs.
//! * [`differential`] — the runner: drive every fast path through the
//!   public production entry points (`dcomp_all`, `paccel_candidates`,
//!   `assess_violation_sweep`, `query_posterior`, `shifted_posterior`)
//!   and compare against the matching oracle — enumeration, the Gaussian
//!   oracle, or variable elimination, which production no longer runs;
//!   a CPD-perturbation hook proving the gate is live.
//! * [`tolerance`] — the comparison vocabulary shared by the whole test
//!   suite: [`assert_close!`] and [`assert_dist_close!`].

pub mod differential;
pub mod enumeration;
pub mod gaussian;
pub mod gen;
pub mod tolerance;

pub use differential::{
    check_degraded_compensation, check_discrete_instance, check_nrt_tree, perturb_tabular_cpd,
    run_continuous_differential, run_discrete_differential, shifted_posterior_oracle,
    ContinuousReport, DiscreteReport,
};
pub use enumeration::EnumerationOracle;
pub use gaussian::GaussianOracle;
pub use gen::{
    random_discrete_network, random_discrete_query, random_linear_instance, LinearInstance,
};
pub use tolerance::{close, max_abs_diff, rel_err};
