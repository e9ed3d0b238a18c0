//! # kert-sim — a discrete-event simulator for service-oriented systems
//!
//! The paper evaluates KERT-BN against (a) a Matlab simulation of
//! service-oriented environments and (b) the eDiaMoND Grid test-bed.
//! Neither is available, so this crate supplies the substitute: a
//! discrete-event simulation in which
//!
//! * each service is a **multi-server FIFO queueing station** with a
//!   configurable service-time distribution ([`service`], [`dist`]);
//! * user requests arrive in an **open Poisson workload** and traverse the
//!   workflow — sequences, fork/join parallels, probabilistic choices and
//!   loops — exactly as `kert-workflow` describes ([`request`], [`engine`],
//!   [`system`]);
//! * **monitoring points** measure per-service elapsed time (queue wait +
//!   service) per request; agents batch and report them every `T_DATA`
//!   ([`monitor`]), producing the datasets the models train on ([`trace`]).
//!
//! Queueing (rather than i.i.d. delays) matters: it makes a service's
//! elapsed time genuinely depend on its upstream neighbour's throughput,
//! which is the "bottleneck shift" phenomenon the KERT-BN structure encodes
//! via immediate-upstream edges.

pub mod dist;
pub mod engine;
pub mod faults;
pub mod monitor;
pub mod request;
pub mod resources;
pub mod service;
pub mod system;
pub mod trace;

pub use dist::Dist;
pub use faults::{Delivery, FaultEvent, FaultInjector, FaultPlan};
pub use monitor::{AgentReport, MonitoringAgent};
pub use resources::{Host, HostLayout};
pub use service::ServiceConfig;
pub use system::{SimOptions, SimSystem};
pub use trace::Trace;

/// Errors from simulator configuration and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Configuration inconsistent with the workflow (service counts, ids).
    BadConfig(String),
    /// A distribution parameter was invalid.
    BadDistribution(String),
    /// A fault-injection plan was out of range.
    BadFaultPlan(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadConfig(msg) => write!(f, "bad simulator config: {msg}"),
            SimError::BadDistribution(msg) => write!(f, "bad distribution: {msg}"),
            SimError::BadFaultPlan(msg) => write!(f, "bad fault plan: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
