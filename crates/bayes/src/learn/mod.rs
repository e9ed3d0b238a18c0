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
