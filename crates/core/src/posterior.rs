//! Unified posterior queries over any constructed response-time model.
//!
//! Both paper applications (dComp, pAccel) reduce to one operation: the
//! posterior distribution of one node given point observations of others.
//! Three inference engines serve it, picked automatically:
//!
//! * **discrete** networks → exact variable elimination (the §5 path);
//! * **linear continuous** networks → exact joint-Gaussian conditioning;
//! * **nonlinear continuous** networks (`max` in the response CPD) →
//!   likelihood weighting — the case Matlab BNT could not handle.

use kert_bayes::discretize::Discretizer;
use kert_bayes::infer::gibbs::{gibbs_posterior_chains, GibbsOptions};
use kert_bayes::infer::sampling::{likelihood_weighting, LwOptions};
use kert_bayes::infer::ve;
use kert_bayes::joint;
use kert_bayes::BayesianNetwork;
use rand::Rng;

use crate::{CoreError, Result};

/// A one-dimensional posterior in whichever form inference produced.
#[derive(Debug, Clone)]
pub enum Posterior {
    /// Exact Gaussian posterior (linear continuous networks).
    Gaussian {
        /// Posterior mean.
        mean: f64,
        /// Posterior variance.
        variance: f64,
    },
    /// Exact discrete posterior over bin representatives.
    Discrete {
        /// Representative value of each state (within-bin training means).
        support: Vec<f64>,
        /// Probability of each state (sums to 1).
        probs: Vec<f64>,
        /// Value interval covered by each state, when the producing
        /// discretizer is known. Enables within-bin interpolation for tail
        /// probabilities instead of the all-or-nothing midpoint rule.
        bounds: Option<Vec<(f64, f64)>>,
    },
    /// Weighted Monte-Carlo posterior (nonlinear continuous networks).
    Samples {
        /// Sample values of the target node, ascending.
        values: Vec<f64>,
        /// Normalized weights aligned with `values` (sum to 1).
        weights: Vec<f64>,
    },
}

impl Posterior {
    /// Posterior mean.
    pub fn mean(&self) -> f64 {
        match self {
            Posterior::Gaussian { mean, .. } => *mean,
            Posterior::Discrete { support, probs, .. } => {
                support.iter().zip(probs.iter()).map(|(&v, &p)| v * p).sum()
            }
            Posterior::Samples { values, weights } => values
                .iter()
                .zip(weights.iter())
                .map(|(&v, &w)| v * w)
                .sum(),
        }
    }

    /// Posterior variance.
    pub fn variance(&self) -> f64 {
        match self {
            Posterior::Gaussian { variance, .. } => *variance,
            Posterior::Discrete { support, probs, .. } => {
                let m = self.mean();
                support
                    .iter()
                    .zip(probs.iter())
                    .map(|(&v, &p)| p * (v - m) * (v - m))
                    .sum()
            }
            Posterior::Samples { values, weights } => {
                let m = self.mean();
                values
                    .iter()
                    .zip(weights.iter())
                    .map(|(&v, &w)| w * (v - m) * (v - m))
                    .sum()
            }
        }
    }

    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().max(0.0).sqrt()
    }

    /// `P(target > threshold)` under the posterior. Discrete posteriors
    /// with known bin bounds spread each bin's mass uniformly over its
    /// interval and integrate the part above the threshold; without bounds
    /// they fall back to the midpoint rule (a bin counts if its
    /// representative exceeds the threshold), whose error is a whole bin's
    /// mass in the worst case.
    pub fn exceedance(&self, threshold: f64) -> f64 {
        match self {
            Posterior::Gaussian { mean, variance } => {
                let sd = variance.max(0.0).sqrt();
                if sd <= 0.0 {
                    return if *mean > threshold { 1.0 } else { 0.0 };
                }
                let z = (threshold - mean) / (sd * std::f64::consts::SQRT_2);
                0.5 * kert_linalg::mvn::erfc(z)
            }
            Posterior::Discrete {
                support: _,
                probs,
                bounds: Some(bounds),
            } => bounds
                .iter()
                .zip(probs.iter())
                .map(|(&(lo, hi), &p)| {
                    if threshold <= lo {
                        p
                    } else if threshold >= hi {
                        0.0
                    } else {
                        p * (hi - threshold) / (hi - lo)
                    }
                })
                .sum::<f64>()
                .max(0.0),
            Posterior::Discrete {
                support,
                probs,
                bounds: None,
            } => support
                .iter()
                .zip(probs.iter())
                .filter(|(&v, _)| v > threshold)
                .map(|(_, &p)| p)
                .sum(),
            Posterior::Samples { values, weights } => values
                .iter()
                .zip(weights.iter())
                .filter(|(&v, _)| v > threshold)
                .map(|(_, &w)| w)
                .sum(),
        }
    }

    /// Probability mass over `bins` equal-width intervals between `lo` and
    /// `hi` — a plotting aid (Figures 6–7 draw distributions).
    pub fn density_on_grid(&self, lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<f64>) {
        assert!(bins >= 1 && hi > lo);
        let width = (hi - lo) / bins as f64;
        let centers: Vec<f64> = (0..bins).map(|b| lo + width * (b as f64 + 0.5)).collect();
        let mut mass = vec![0.0; bins];
        let clamp_bin = |v: f64| -> Option<usize> {
            if v < lo || v > hi {
                return None;
            }
            Some((((v - lo) / width) as usize).min(bins - 1))
        };
        match self {
            Posterior::Gaussian { mean, variance } => {
                let sd = variance.max(1e-300).sqrt();
                for (c, m) in centers.iter().zip(mass.iter_mut()) {
                    let z = (c - mean) / sd;
                    *m = (-0.5 * z * z).exp();
                }
                let z: f64 = mass.iter().sum();
                if z > 0.0 {
                    for m in &mut mass {
                        *m /= z;
                    }
                }
            }
            Posterior::Discrete { support, probs, .. } => {
                for (&v, &p) in support.iter().zip(probs.iter()) {
                    if let Some(b) = clamp_bin(v) {
                        mass[b] += p;
                    }
                }
            }
            Posterior::Samples { values, weights } => {
                for (&v, &w) in values.iter().zip(weights.iter()) {
                    if let Some(b) = clamp_bin(v) {
                        mass[b] += w;
                    }
                }
            }
        }
        (centers, mass)
    }
}

/// Interventional posterior for discrete models: the marginal of `target`
/// after the *distribution* of `service` is replaced by the empirical
/// distribution of `shifted_values` (binned through the model's own
/// discretizer):
///
/// ```text
/// P(target) = Σ_s w_s · P(target | service = s),   w_s = #{v ∈ shifted : bin(v) = s} / #shifted
/// ```
///
/// Point conditioning (`query_posterior` with one observed value) answers
/// "what if we *observe* the service at exactly v" and collapses the
/// service's variability, which makes projected response-time distributions
/// far too narrow. This query answers the what-if actually posed by pAccel —
/// "what if the service's elapsed time followed this new distribution" —
/// and keeps the variance.
pub fn shifted_posterior(
    network: &BayesianNetwork,
    discretizer: &Discretizer,
    service: usize,
    shifted_values: &[f64],
    target: usize,
) -> Result<Posterior> {
    if target >= network.len() {
        return Err(CoreError::BadRequest(format!("no node {target}")));
    }
    if service >= network.len() {
        return Err(CoreError::BadRequest(format!("no service node {service}")));
    }
    if service == target {
        return Err(CoreError::BadRequest(format!(
            "node {service} is both target and shifted service"
        )));
    }
    if shifted_values.is_empty() {
        return Err(CoreError::BadRequest(
            "no values for the shifted service distribution".into(),
        ));
    }
    let service_bins = discretizer.column(service).bins();
    let mut weights = vec![0.0f64; service_bins];
    for &v in shifted_values {
        weights[discretizer.column(service).state(v)] += 1.0;
    }
    let total = shifted_values.len() as f64;

    let column = discretizer.column(target);
    let mut probs = vec![0.0f64; column.bins()];
    for (s, &w) in weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let mut ev = ve::Evidence::new();
        ev.insert(service, s);
        let conditional = ve::posterior_marginal(network, target, &ev)?;
        for (p, &c) in probs.iter_mut().zip(conditional.iter()) {
            *p += (w / total) * c;
        }
    }
    let support = column.midpoints.clone();
    let bounds = (0..column.bins()).map(|s| column.bounds(s)).collect();
    Ok(Posterior::Discrete {
        support,
        probs,
        bounds: Some(bounds),
    })
}

/// Monte-Carlo budget for the likelihood-weighting fallback.
#[derive(Debug, Clone, Copy)]
pub struct McOptions {
    /// Number of weighted samples.
    pub samples: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions { samples: 20_000 }
    }
}

/// Explicit inference-engine selection for [`query_posterior_via`].
///
/// [`query_posterior`] picks the engine automatically from the model
/// family; the conformance layer instead needs to drive *every* fast path
/// through the same public entry point the autonomic loop uses, so each
/// engine can be pinned and compared against the matching oracle.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// The automatic dispatch of [`query_posterior`].
    Auto,
    /// Exact variable elimination over the full factor set with the given
    /// ordering heuristic (discrete models only).
    VariableElimination(ve::EliminationHeuristic),
    /// Exact variable elimination with barren-node pruning (discrete
    /// models only).
    PrunedVariableElimination(ve::EliminationHeuristic),
    /// The pre-optimization greedy-ordering VE over the naive factor
    /// kernels (discrete models only).
    NaiveVariableElimination,
    /// Compiled junction-tree propagation (discrete models only): moralize,
    /// triangulate with min-fill, calibrate by Shafer-Shenoy message
    /// passing, read the marginal off the target's home clique. Exact, and
    /// the engine behind [`crate::serve::SharedKert`].
    JunctionTree,
    /// Multi-chain Gibbs sampling (discrete models only); deterministic
    /// per `base_seed`.
    Gibbs {
        /// Per-chain sweep budget.
        options: GibbsOptions,
        /// Number of independent chains pooled.
        chains: usize,
        /// Master seed the chain seeds are spread from.
        base_seed: u64,
    },
    /// Exact joint-Gaussian conditioning (linear continuous models only).
    GaussianConditioning,
    /// Likelihood weighting (continuous models).
    LikelihoodWeighting,
}

/// Refuse a non-finite evidence value. A discretizer would clamp `±inf`
/// into an edge bin and send `NaN` to bin 0, so without this check a
/// malformed measurement comes back as a confident posterior.
pub(crate) fn check_evidence_value(node: usize, value: f64) -> Result<()> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(CoreError::BadRequest(format!(
            "evidence value {value} on node {node} is not finite"
        )))
    }
}

pub(crate) fn check_query(
    network: &BayesianNetwork,
    evidence: &[(usize, f64)],
    target: usize,
) -> Result<()> {
    if target >= network.len() {
        return Err(CoreError::BadRequest(format!("no node {target}")));
    }
    for &(node, value) in evidence {
        if node >= network.len() {
            return Err(CoreError::BadRequest(format!("no evidence node {node}")));
        }
        if node == target {
            return Err(CoreError::BadRequest(format!(
                "node {node} is both target and evidence"
            )));
        }
        check_evidence_value(node, value)?;
    }
    Ok(())
}

/// Bin raw evidence values through the model's discretizer.
fn binned_evidence(disc: &Discretizer, evidence: &[(usize, f64)]) -> ve::Evidence {
    let mut ev = ve::Evidence::new();
    for &(node, value) in evidence {
        ev.insert(node, disc.column(node).state(value));
    }
    ev
}

/// Wrap a VE/Gibbs probability vector as a [`Posterior::Discrete`] over
/// the target's bin representatives.
pub(crate) fn discrete_posterior(disc: &Discretizer, target: usize, probs: Vec<f64>) -> Posterior {
    let column = disc.column(target);
    let support = column.midpoints.clone();
    let bounds = (0..column.bins()).map(|s| column.bounds(s)).collect();
    Posterior::Discrete {
        support,
        probs,
        bounds: Some(bounds),
    }
}

/// [`query_posterior`] with the inference engine pinned instead of chosen
/// automatically. Engines that do not apply to the model family (e.g. VE
/// on a continuous model) return `BadRequest`.
pub fn query_posterior_via<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    evidence: &[(usize, f64)],
    target: usize,
    engine: Engine,
    mc: McOptions,
    rng: &mut R,
) -> Result<Posterior> {
    check_query(network, evidence, target)?;
    fn need_disc(d: Option<&Discretizer>) -> Result<&Discretizer> {
        d.ok_or_else(|| {
            CoreError::BadRequest("discrete engine requires a discretized model".into())
        })
    }
    match engine {
        Engine::Auto => query_posterior(network, discretizer, evidence, target, mc, rng),
        Engine::VariableElimination(h) => {
            let disc = need_disc(discretizer)?;
            let ev = binned_evidence(disc, evidence);
            let probs = ve::posterior_marginal_with(network, target, &ev, h)?;
            Ok(discrete_posterior(disc, target, probs))
        }
        Engine::PrunedVariableElimination(h) => {
            let disc = need_disc(discretizer)?;
            let ev = binned_evidence(disc, evidence);
            let probs = ve::posterior_marginal_pruned_with(network, target, &ev, h)?;
            Ok(discrete_posterior(disc, target, probs))
        }
        Engine::NaiveVariableElimination => {
            let disc = need_disc(discretizer)?;
            let ev = binned_evidence(disc, evidence);
            let probs = ve::naive::posterior_marginal(network, target, &ev)?;
            Ok(discrete_posterior(disc, target, probs))
        }
        Engine::JunctionTree => {
            let disc = need_disc(discretizer)?;
            let ev = binned_evidence(disc, evidence);
            let tree = kert_bayes::compile::JunctionTree::compile(network)?;
            let mut state = tree.new_state();
            // Deterministic entry order regardless of HashMap iteration.
            let mut pins: Vec<(usize, usize)> = ev.iter().map(|(&n, &s)| (n, s)).collect();
            pins.sort_unstable();
            for (node, s) in pins {
                tree.set_evidence(&mut state, node, s)?;
            }
            let probs = tree.marginal(&mut state, target)?;
            Ok(discrete_posterior(disc, target, probs))
        }
        Engine::Gibbs {
            options,
            chains,
            base_seed,
        } => {
            let disc = need_disc(discretizer)?;
            let ev = binned_evidence(disc, evidence);
            let probs = gibbs_posterior_chains(network, target, &ev, options, chains, base_seed)?;
            Ok(discrete_posterior(disc, target, probs))
        }
        Engine::GaussianConditioning => {
            if !joint::is_linear_gaussian(network) {
                return Err(CoreError::BadRequest(
                    "Gaussian conditioning requires a linear-Gaussian model".into(),
                ));
            }
            let mvn = joint::to_joint_gaussian(network)?;
            if evidence.is_empty() {
                return Ok(Posterior::Gaussian {
                    mean: mvn.mean()[target],
                    variance: mvn.cov().get(target, target),
                });
            }
            let idx: Vec<usize> = evidence.iter().map(|&(n, _)| n).collect();
            let vals: Vec<f64> = evidence.iter().map(|&(_, v)| v).collect();
            let cond = mvn.condition(&idx, &vals)?;
            let mean = cond
                .mean_of(target)
                .ok_or_else(|| CoreError::BadRequest(format!("target {target} was observed")))?;
            let variance = cond.variance_of(target).expect("checked above");
            Ok(Posterior::Gaussian { mean, variance })
        }
        Engine::LikelihoodWeighting => {
            if discretizer.is_some() {
                return Err(CoreError::BadRequest(
                    "likelihood weighting runs on continuous models".into(),
                ));
            }
            lw_posterior(network, evidence, target, mc, rng)
        }
    }
}

fn lw_posterior<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    evidence: &[(usize, f64)],
    target: usize,
    mc: McOptions,
    rng: &mut R,
) -> Result<Posterior> {
    let ev: std::collections::HashMap<usize, f64> = evidence.iter().copied().collect();
    let samples = likelihood_weighting(
        network,
        &ev,
        LwOptions {
            samples: mc.samples,
        },
        rng,
    )?;
    let total = samples.total_weight();
    if total <= 0.0 {
        return Err(CoreError::BadRequest(
            "evidence has zero likelihood under the model; check the observed values".into(),
        ));
    }
    // Extract the target column with normalized weights, sorted by value.
    let mut pairs: Vec<(f64, f64)> = samples
        .iter_node(target)
        .map(|(v, w)| (v, w / total))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (values, weights) = pairs.into_iter().unzip();
    Ok(Posterior::Samples { values, weights })
}

/// Posterior of `target` given point observations `evidence` (raw
/// measurement values; discrete models bin them internally).
pub fn query_posterior<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
    evidence: &[(usize, f64)],
    target: usize,
    mc: McOptions,
    rng: &mut R,
) -> Result<Posterior> {
    check_query(network, evidence, target)?;

    if let Some(disc) = discretizer {
        // Discrete path: exact variable elimination.
        let ev = binned_evidence(disc, evidence);
        let probs = ve::posterior_marginal(network, target, &ev)?;
        return Ok(discrete_posterior(disc, target, probs));
    }

    if joint::is_linear_gaussian(network) {
        // Exact Gaussian conditioning.
        let mvn = joint::to_joint_gaussian(network)?;
        if evidence.is_empty() {
            return Ok(Posterior::Gaussian {
                mean: mvn.mean()[target],
                variance: mvn.cov().get(target, target),
            });
        }
        let idx: Vec<usize> = evidence.iter().map(|&(n, _)| n).collect();
        let vals: Vec<f64> = evidence.iter().map(|&(_, v)| v).collect();
        let cond = mvn.condition(&idx, &vals)?;
        let mean = cond
            .mean_of(target)
            .ok_or_else(|| CoreError::BadRequest(format!("target {target} was observed")))?;
        let variance = cond.variance_of(target).expect("checked above");
        return Ok(Posterior::Gaussian { mean, variance });
    }

    // Nonlinear continuous: likelihood weighting.
    lw_posterior(network, evidence, target, mc, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_bayes::cpd::{Cpd, DetNoise, DeterministicCpd, LinearGaussianCpd};
    use kert_bayes::{Dag, Expr, Variable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_chain() -> BayesianNetwork {
        let vars = vec![Variable::continuous("a"), Variable::continuous("b")];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        BayesianNetwork::new(
            vars,
            dag,
            vec![
                Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0)),
                Cpd::LinearGaussian(
                    LinearGaussianCpd::new(1, vec![0], 0.0, vec![1.0], 1.0).unwrap(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn linear_path_matches_textbook_posterior() {
        let bn = linear_chain();
        let mut rng = StdRng::seed_from_u64(1);
        let post =
            query_posterior(&bn, None, &[(1, 2.0)], 0, McOptions::default(), &mut rng).unwrap();
        // Posterior: N(1, 0.5).
        assert!((post.mean() - 1.0).abs() < 1e-9);
        assert!((post.variance() - 0.5).abs() < 1e-6);
        assert!(matches!(post, Posterior::Gaussian { .. }));
    }

    #[test]
    fn nonlinear_path_uses_sampling() {
        let vars = vec![
            Variable::continuous("a"),
            Variable::continuous("b"),
            Variable::continuous("d"),
        ];
        let mut dag = Dag::new(3);
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 2).unwrap();
        let det = DeterministicCpd::from_network_expr(
            2,
            &Expr::Max(vec![Expr::Var(0), Expr::Var(1)]),
            DetNoise::Gaussian { sigma: 0.2 },
        )
        .unwrap();
        let bn = BayesianNetwork::new(
            vars,
            dag,
            vec![
                Cpd::LinearGaussian(LinearGaussianCpd::root(0, 3.0, 0.5)),
                Cpd::LinearGaussian(LinearGaussianCpd::root(1, 3.0, 0.5)),
                Cpd::Deterministic(det),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let post =
            query_posterior(&bn, None, &[], 2, McOptions { samples: 30_000 }, &mut rng).unwrap();
        assert!(matches!(post, Posterior::Samples { .. }));
        // E[max(A,B)] for two N(3, 0.5): 3 + σ/√π ≈ 3.399.
        let expect = 3.0 + (0.5f64).sqrt() / std::f64::consts::PI.sqrt();
        assert!((post.mean() - expect).abs() < 0.05, "{}", post.mean());
        // Exceedance decreasing in threshold.
        assert!(post.exceedance(2.0) > post.exceedance(4.0));
    }

    #[test]
    fn evidence_validation() {
        let bn = linear_chain();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(
            query_posterior(&bn, None, &[(0, 1.0)], 0, McOptions::default(), &mut rng).is_err()
        );
        assert!(
            query_posterior(&bn, None, &[(9, 1.0)], 0, McOptions::default(), &mut rng).is_err()
        );
        assert!(query_posterior(&bn, None, &[], 9, McOptions::default(), &mut rng).is_err());
    }

    #[test]
    fn posterior_moments_and_exceedance_consistency() {
        let g = Posterior::Gaussian {
            mean: 10.0,
            variance: 4.0,
        };
        kert_conformance::assert_close!(g.mean(), 10.0);
        kert_conformance::assert_close!(g.std_dev(), 2.0);
        assert!((g.exceedance(10.0) - 0.5).abs() < 1e-7);

        let d = Posterior::Discrete {
            support: vec![1.0, 3.0, 5.0],
            probs: vec![0.2, 0.5, 0.3],
            bounds: None,
        };
        assert!((d.mean() - (0.2 + 1.5 + 1.5)).abs() < 1e-12);
        assert!((d.exceedance(2.0) - 0.8).abs() < 1e-12);
        assert!((d.exceedance(5.0) - 0.0).abs() < 1e-12);

        // With bin bounds, tail mass interpolates within the straddled bin.
        let db = Posterior::Discrete {
            support: vec![1.0, 3.0, 5.0],
            probs: vec![0.2, 0.5, 0.3],
            bounds: Some(vec![(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]),
        };
        assert!((db.exceedance(0.0) - 1.0).abs() < 1e-12);
        // Threshold 3 splits the middle bin in half: 0.25 + 0.3.
        assert!((db.exceedance(3.0) - 0.55).abs() < 1e-12);
        assert!((db.exceedance(6.0) - 0.0).abs() < 1e-12);

        let s = Posterior::Samples {
            values: vec![1.0, 2.0, 3.0],
            weights: vec![0.25, 0.5, 0.25],
        };
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.variance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_grid_sums_to_captured_mass() {
        let d = Posterior::Discrete {
            support: vec![1.0, 3.0, 5.0],
            probs: vec![0.2, 0.5, 0.3],
            bounds: None,
        };
        let (centers, mass) = d.density_on_grid(0.0, 6.0, 6);
        assert_eq!(centers.len(), 6);
        assert!((mass.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
