//! # kert-agents — decentralized parameter learning (§3.4 of the paper)
//!
//! The CPD of node `i` depends only on the columns `{i} ∪ Φ(i)` — so it can
//! be learned *where the data lives*: on the monitoring agent of service
//! `i`, which already receives its parents' measurements piggybacked on
//! application traffic. All agents compute concurrently; the management
//! server only assembles the finished CPDs into the network. The effective
//! learning latency is therefore the **maximum** of per-node learning
//! times, versus the **sum** paid by a centralized learner — the comparison
//! of the paper's Figure 5.
//!
//! Modules:
//! * [`local`] — fit a node's CPD from an agent-local dataset (own +
//!   parent columns), remapping indices between local and network views.
//! * [`runtime`] — the concurrent execution: a scoped worker pool
//!   plays the agent fleet, one learning task per node, with per-task
//!   timing; plus the sequential centralized reference path.
//! * [`scheduler`] — the periodic reconstruction scheme of §2:
//!   `T_CON = α_model · T_DATA`, sliding window `W = K · T_CON`.
//! * [`collect`] — the lossy server-side data plane: fetch each agent's
//!   report with bounded retry/backoff (simulated time) and drop the rows
//!   corruption poisoned.
//! * [`health`] — per-node [`ModelHealth`] accounting for resilient
//!   rebuilds: which fallback rung produced each CPD and why.
//!
//! Every learning path here fits CPDs in batch. The incremental `T_CON`
//! refresh over a sliding window of sufficient statistics lives in
//! `kert_core::streaming`.

pub mod collect;
pub mod health;
pub mod local;
pub mod runtime;
pub mod scheduler;

pub use collect::{
    collect_report, sanitize_report, CollectStats, FaultyFleet, ReportSource, RetryPolicy,
};
pub use health::{CpdSource, ModelHealth, NodeHealth};
pub use local::{fit_node_from_local, LocalDataset};
pub use runtime::{
    centralized_learn, decentralized_learn, publish_health_gauges, resilient_decentralized_learn,
    CentralizedResult, CpdCache, DecentralizedResult, LearnOptions, PriorSpec, ResilientOptions,
    ResilientResult,
};
pub use scheduler::{CumulativeUpdater, ModelSchedule, ReconstructionWindow};

/// Errors from the decentralized runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentError {
    /// A learning task failed; carries the node and the underlying error.
    LearnFailed {
        /// Node whose CPD could not be learned.
        node: usize,
        /// Stringified cause.
        cause: String,
    },
    /// Local dataset columns don't match the node's parent set.
    BadLocalData(String),
    /// Schedule parameters out of range.
    BadSchedule(String),
    /// A runtime invariant was broken (poisoned lock, missing task slot).
    Internal(String),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::LearnFailed { node, cause } => {
                write!(f, "learning CPD for node {node} failed: {cause}")
            }
            AgentError::BadLocalData(msg) => write!(f, "bad local dataset: {msg}"),
            AgentError::BadSchedule(msg) => write!(f, "bad schedule: {msg}"),
            AgentError::Internal(msg) => write!(f, "internal runtime error: {msg}"),
        }
    }
}

impl std::error::Error for AgentError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AgentError>;
