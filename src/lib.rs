//! # kert-bn — Efficient Statistical Performance Modeling for Autonomic,
//! Service-Oriented Systems
//!
//! A Rust reproduction of Zhang, Bivens & Rezek (IPPS 2007): Bayesian-
//! network response-time models whose structure and heavyweight CPD come
//! from *domain knowledge* (workflow + resource sharing) instead of
//! expensive structure learning, with the remaining per-service CPDs
//! learned from monitoring data — optionally *decentralized* across the
//! services' own monitoring agents.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `kert-linalg` | dense matrices, Cholesky/LU, least squares, multivariate normals |
//! | [`bayes`] | `kert-bayes` | the Bayesian-network engine: CPDs, K2, inference, discretization |
//! | [`workflow`] | `kert-workflow` | workflow constructs, Cardoso reduction, structure derivation |
//! | [`sim`] | `kert-sim` | discrete-event service-system simulator, monitoring agents, fault injection |
//! | [`agents`] | `kert-agents` | decentralized parameter learning, self-healing fallback ladder, scheduling |
//! | [`model`] | `kert-core` | KERT-BN, the NRT-BN baseline, dComp, pAccel, degraded-mode compensation |
//! | [`obs`] | `kert-obs` | spans, counters, gauges, histograms; JSONL + Prometheus exporters |
//! | [`serving`] | `kertd` | the model-serving daemon: framed JSON/TCP protocol, coalescing workers, blocking client |
//!
//! ## Quickstart
//!
//! ```
//! use kert_bn::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. Domain knowledge: the paper's eDiaMoND workflow.
//! let workflow = ediamond_workflow();
//! let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();
//!
//! // 2. Monitoring data from the (simulated) environment.
//! let stations: Vec<ServiceConfig> = (0..6)
//!     .map(|_| ServiceConfig::single(Dist::Exponential { mean: 0.05 }))
//!     .collect();
//! let mut system = SimSystem::new(&workflow, stations, SimOptions::default()).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let train = system.run(300, &mut rng).to_dataset(None);
//!
//! // 3. Build the knowledge-enhanced model: no structure learning, and
//! //    P(D | X) generated from the workflow.
//! let model = KertBn::build_continuous(&knowledge, &train, Default::default()).unwrap();
//! assert_eq!(model.network().len(), 7);
//! assert_eq!(model.report().score_evaluations, 0); // no structure search
//! ```

pub use kert_agents as agents;
pub use kert_bayes as bayes;
pub use kert_core as model;
pub use kert_linalg as linalg;
pub use kert_obs as obs;
pub use kert_sim as sim;
pub use kert_workflow as workflow;
pub use kertd as serving;

/// The names most programs need, in one import.
pub mod prelude {
    pub use kert_agents::{
        CpdSource, FaultyFleet, ModelHealth, ModelSchedule, ReconstructionWindow,
    };
    pub use kert_bayes::{BayesianNetwork, Dataset, Expr};
    pub use kert_core::{
        assess_violation_sweep, compensate_degraded, dcomp_all, paccel_candidates,
        ContinuousKertOptions, DiscreteKertOptions, KertBn, NrtBn, NrtOptions, ParamLearning,
        Posterior, ResilientKertOptions,
    };
    pub use kert_sim::{
        Dist, FaultInjector, FaultPlan, ServiceConfig, SimOptions, SimSystem, Trace,
    };
    pub use kert_workflow::{
        derive_structure, ediamond_workflow, LoopSpec, ResourceMap, Workflow, WorkflowKnowledge,
    };
}
