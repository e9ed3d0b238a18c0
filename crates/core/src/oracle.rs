//! The variable-elimination oracle: dComp, pAccel and the Eq. 5 violation
//! probability answered by per-query VE over a bare network.
//!
//! Production never calls this module: every discrete answer comes off a
//! model's compiled junction tree ([`crate::serve`]). It exists only as
//! the exact reference that tests and the repository benchmark's
//! `control-loop` check compare the tree against. ROADMAP item 2 moves
//! that check onto `kert_bayes::infer::ve` directly and deletes this
//! module; until then `mc` and `rng` are accepted and ignored, so the
//! signatures stay those of the benchmark's imports.

use kert_bayes::discretize::Discretizer;
use kert_bayes::infer::ve::{self, EliminationHeuristic};
use kert_bayes::BayesianNetwork;
use rand::Rng;

use crate::dcomp::DCompOutcome;
use crate::paccel::PAccelOutcome;
use crate::posterior::{check_query, discrete_posterior, McOptions, Posterior};
use crate::{CoreError, Result};

/// The oracle's engine: exact variable elimination over the full factor
/// set with the given ordering heuristic.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// VE with this elimination-ordering heuristic (discrete models only).
    VariableElimination(EliminationHeuristic),
}

/// Posterior of `target` given raw measurement `evidence`, binned through
/// `discretizer`, by variable elimination. The refusals are those of the
/// production path.
fn ve_posterior(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    evidence: &[(usize, f64)],
    target: usize,
    engine: Engine,
) -> Result<Posterior> {
    check_query(network, evidence, target)?;
    let disc = discretizer.ok_or_else(|| {
        CoreError::BadRequest("variable elimination requires a discretized model".into())
    })?;
    let Engine::VariableElimination(heuristic) = engine;
    let ev: ve::Evidence = evidence
        .iter()
        .map(|&(node, value)| (node, disc.column(node).state(value)))
        .collect();
    let probs = ve::posterior_marginal_with(network, target, &ev, heuristic)?;
    Ok(discrete_posterior(disc, target, probs))
}

/// dComp by VE: prior and posterior of `target` given `observed`.
pub fn dcomp_via<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    observed: &[(usize, f64)],
    target: usize,
    engine: Engine,
    _mc: McOptions,
    _rng: &mut R,
) -> Result<DCompOutcome> {
    Ok(DCompOutcome {
        target,
        prior: ve_posterior(network, discretizer, &[], target, engine)?,
        posterior: ve_posterior(network, discretizer, observed, target, engine)?,
    })
}

/// pAccel by VE: `D`'s prior and its projection with `service` pinned to
/// `predicted_elapsed`. `degraded` is always false: a bare network carries
/// no health report.
#[allow(clippy::too_many_arguments)]
pub fn paccel_via<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    d_node: usize,
    service: usize,
    predicted_elapsed: f64,
    engine: Engine,
    _mc: McOptions,
    _rng: &mut R,
) -> Result<PAccelOutcome> {
    let evidence = [(service, predicted_elapsed)];
    Ok(PAccelOutcome {
        service,
        predicted_elapsed,
        prior_d: ve_posterior(network, discretizer, &[], d_node, engine)?,
        projected_d: ve_posterior(network, discretizer, &evidence, d_node, engine)?,
        degraded: false,
    })
}

/// `P(target > threshold | evidence)` by VE.
#[allow(clippy::too_many_arguments)]
pub fn violation_probability_via<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    evidence: &[(usize, f64)],
    target: usize,
    threshold: f64,
    engine: Engine,
    _mc: McOptions,
    _rng: &mut R,
) -> Result<f64> {
    Ok(ve_posterior(network, discretizer, evidence, target, engine)?.exceedance(threshold))
}
