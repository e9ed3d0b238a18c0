//! # kert-core — Knowledge-Enhanced Response Time Bayesian Networks
//!
//! The primary contribution of *"Efficient Statistical Performance Modeling
//! for Autonomic, Service-Oriented Systems"* (Zhang, Bivens, Rezek,
//! IPPS 2007), reproduced in Rust:
//!
//! * [`kert`] — **KERT-BN** construction: structure from workflow +
//!   resource-sharing knowledge (no structure learning), the response-time
//!   CPD generated from the workflow-derived deterministic function with
//!   leak (Eq. 4), and the remaining per-service CPDs learned from data —
//!   centralized or decentralized. Continuous (linear-Gaussian) and
//!   discrete variants, as in §4 and §5 respectively.
//! * [`nrt`] — **NRT-BN**, the learned-from-scratch baseline: K2 structure
//!   learning (optionally with random-order restarts) plus full parameter
//!   learning.
//! * [`posterior`] — unified posterior queries over either model family
//!   (exact Gaussian conditioning, discrete variable elimination, or
//!   likelihood weighting for nonlinear continuous nets).
//! * [`serve`] — the discrete query facade: one calibrated junction tree
//!   compiled once, many concurrent [`serve::Session`]s, each with its
//!   own propagation state, answering dComp/pAccel/violation queries by
//!   incremental evidence propagation (what the `kertd` daemon is built
//!   on; each of its workers holds one session).
//! * [`dcomp`] — **dComp**: estimate an unobservable service's elapsed-time
//!   distribution from the observable services (§5.1).
//! * [`paccel`] — **pAccel**: project the end-to-end response-time
//!   distribution after accelerating one service (§5.2).
//! * [`violation`] — threshold-violation probabilities and the relative
//!   error ε of Eq. 5 (§5.3).
//! * [`autonomic`] — degraded-mode compensation: when a resilient rebuild
//!   left nodes on stale/prior CPDs, route dComp from the healthy
//!   observables to recover their elapsed-time estimates.
//! * [`report`] — model-construction cost accounting shared by both
//!   families (what Figures 3–5 plot).

pub mod autonomic;
pub mod dcomp;
pub mod kert;
pub mod nrt;
pub mod paccel;
pub mod persist;
pub mod posterior;
pub mod report;
pub mod serve;
pub mod streaming;
pub mod violation;

pub use autonomic::{compensate_degraded, Compensation};
pub use dcomp::{dcomp, dcomp_all, dcomp_via, DCompOutcome};
pub use kert::{
    ContinuousKertOptions, DiscreteKertOptions, KertBn, ParamLearning, ResilientKertOptions,
};
pub use nrt::{NrtBn, NrtOptions};
pub use paccel::{paccel, paccel_candidates, paccel_model, paccel_via, PAccelOutcome};
pub use persist::{ModelKind, SavedModel};
pub use posterior::{query_posterior, query_posterior_via, shifted_posterior, Engine, Posterior};
pub use report::BuildReport;
pub use serve::{Session, SharedKert};
pub use streaming::{CpdUpdate, RefreshOutcome, RefreshSummary, StreamingWindow};
pub use violation::{
    assess_violation, assess_violation_sweep, empirical_violation_probability,
    relative_violation_error, violation_probability_via, ViolationAssessment,
};

/// Errors from model construction and application routines.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Propagated Bayesian-network error.
    Bayes(String),
    /// Propagated agent-runtime error.
    Agents(String),
    /// The request contradicts the model (unknown node, wrong family…).
    BadRequest(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Bayes(msg) => write!(f, "bayes: {msg}"),
            CoreError::Agents(msg) => write!(f, "agents: {msg}"),
            CoreError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<kert_bayes::BayesError> for CoreError {
    fn from(e: kert_bayes::BayesError) -> Self {
        CoreError::Bayes(e.to_string())
    }
}

impl From<kert_agents::AgentError> for CoreError {
    fn from(e: kert_agents::AgentError) -> Self {
        CoreError::Agents(e.to_string())
    }
}

impl From<kert_linalg::LinalgError> for CoreError {
    fn from(e: kert_linalg::LinalgError) -> Self {
        CoreError::Bayes(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
