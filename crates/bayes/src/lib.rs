//! # kert-bayes — a Bayesian-network engine for performance modeling
//!
//! This crate re-implements, in Rust, the slice of the Matlab Bayes Net
//! Toolbox that the IPPS'07 KERT-BN paper relied on — and the pieces BNT
//! lacked (nonlinear deterministic CPDs with `max`, which forced the paper's
//! authors to fall back to discrete models in their test-bed section).
//!
//! Contents:
//! * [`graph`] — DAGs with cycle detection and topological order.
//! * [`variable`] — discrete / continuous variable metadata.
//! * [`dataset`] — column-labelled datasets, continuous and discrete views.
//! * [`expr`] — deterministic response-time expressions (`+`, `max`,
//!   mixtures) used by workflow-derived CPDs.
//! * [`cpd`] — conditional probability distributions: tabular (discrete),
//!   linear-Gaussian, and deterministic-with-leak (Eq. 4 of the paper).
//! * [`network`] — the [`BayesianNetwork`]: validation, ancestral sampling,
//!   log-likelihood scoring (the paper's "data-fitting accuracy").
//! * [`joint`] — exact joint-Gaussian reduction of linear networks.
//! * [`learn`] — MLE/Bayesian parameter learning, decomposable scores
//!   (K2 marginal likelihood, Gaussian BIC), and the K2 structure
//!   learning algorithm (Cooper & Herskovits 1992) with random restarts.
//! * [`infer`] — exact discrete inference by variable elimination plus
//!   Monte-Carlo (likelihood weighting) inference for hybrid networks.
//! * [`discretize`] — equal-frequency discretization.
//! * [`special`] — `ln Γ` and friends.
//!
//! Design notes: all randomness flows through caller-supplied
//! `rand::Rng` handles so experiments are reproducible; structures are
//! `Send + Sync` (CPDs use `Arc` internally) so the decentralized learning
//! runtime can learn node CPDs on worker threads without cloning datasets.

pub mod compile;
pub mod cpd;
pub mod dataset;
pub mod discretize;
pub mod dot;
pub mod expr;
pub mod graph;
pub mod infer;
pub mod joint;
pub mod learn;
pub mod network;
pub mod special;
pub mod variable;

pub use compile::{JtState, JunctionTree};
pub use cpd::{Cpd, DeterministicCpd, LinearGaussianCpd, TabularCpd};
pub use dataset::Dataset;
pub use expr::Expr;
pub use graph::Dag;
pub use network::BayesianNetwork;
pub use variable::{Variable, VariableKind};

/// Errors surfaced by model construction, learning, and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// Adding an edge would create a directed cycle.
    CycleDetected { from: usize, to: usize },
    /// A node/variable index was out of range.
    InvalidNode(usize),
    /// A CPD disagrees with the graph or the variable schema.
    InvalidCpd(String),
    /// The dataset is unusable for the requested operation.
    InvalidData(String),
    /// Numerical failure bubbled up from linear algebra.
    Numerical(String),
    /// A dense table would need more bytes than one allocation can hold
    /// (`isize::MAX`).
    TableTooLarge {
        /// Variables in the table's scope.
        vars: usize,
        /// Entries the table would hold (a float: the count can pass
        /// `usize::MAX`).
        entries: f64,
    },
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::CycleDetected { from, to } => {
                write!(f, "edge {from} -> {to} would create a cycle")
            }
            BayesError::InvalidNode(i) => write!(f, "invalid node index {i}"),
            BayesError::InvalidCpd(msg) => write!(f, "invalid CPD: {msg}"),
            BayesError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            BayesError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            BayesError::TableTooLarge { vars, entries } => write!(
                f,
                "a table over {vars} variables needs {entries:.3e} entries ({:.3e} bytes); \
                 one allocation holds at most {} bytes",
                entries * std::mem::size_of::<f64>() as f64,
                isize::MAX
            ),
        }
    }
}

impl std::error::Error for BayesError {}

impl From<kert_linalg::LinalgError> for BayesError {
    fn from(e: kert_linalg::LinalgError) -> Self {
        BayesError::Numerical(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BayesError>;
