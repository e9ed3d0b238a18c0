//! Inference: exact (discrete variable elimination) and Monte-Carlo
//! (likelihood weighting for hybrid/nonlinear networks).
//!
//! The paper's two applications map directly:
//! * **dComp** — posterior of an unobservable service's elapsed time given
//!   the observable ones (+ response time): a conditional query.
//! * **pAccel** — posterior of the end-to-end response time given an
//!   intervention-style observation of one service: the same machinery.
//!
//! On discrete networks both are answered exactly by the compiled
//! junction tree in [`crate::compile`]. [`ve`] serves three jobs only:
//! the min-fill elimination order compilation triangulates with, the
//! barren-node pruning ablation, and the exact reference the tree is
//! tested against. On continuous networks with `max` CPDs (which Matlab
//! BNT could not express) queries run through [`sampling`]; on linear
//! continuous networks `crate::joint` conditioning is exact and cheaper.

pub mod factor;
pub mod sampling;
pub mod ve;

pub use ve::{
    posterior_marginal, posterior_marginal_pruned, posterior_marginal_pruned_with,
    posterior_marginal_with, EliminationHeuristic, Evidence,
};
