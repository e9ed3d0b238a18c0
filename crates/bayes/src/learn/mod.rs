//! Learning: parameters (MLE / Bayesian-Dirichlet) and structure (K2).
//!
//! The split mirrors the paper's cost analysis:
//! * **parameter learning** ([`mle`]) is per-node and cheap when parent
//!   sets are small — and embarrassingly parallel across nodes, which is
//!   what `kert-agents` exploits for decentralized learning;
//! * **structure learning** ([`k2`]) is the expensive phase that KERT-BN
//!   skips entirely by deriving the DAG from workflow knowledge, while the
//!   NRT-BN baseline must pay it; scores live in [`score`].

//! * **incremental learning** ([`incremental`]) converts the sliding-window
//!   relearn into an O(delta) sufficient-statistics update, equivalence-
//!   gated against the batch path.

pub mod incremental;
pub mod k2;
pub mod mle;
pub mod score;

pub use incremental::{cpd_movement, StreamingLearner};
pub use k2::{k2_search, k2_with_random_restarts, K2Options, K2Result};
pub use mle::{fit_all_parameters, fit_linear_gaussian, fit_tabular, ParamOptions};
pub use score::{family_score, FamilyScore};
