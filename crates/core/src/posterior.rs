//! Unified posterior queries over any constructed response-time model.
//!
//! Both paper applications (dComp, pAccel) reduce to one operation: the
//! posterior distribution of one node given point observations of others.
//! [`query_posterior`] answers it for either model family
//! ([`ResponseTimeModel`]), picking the engine from the model:
//!
//! * **discrete** models → the model's own compiled junction tree, through
//!   the same verb a [`crate::serve::Session`] runs (the §5 path);
//! * **linear continuous** models → exact joint-Gaussian conditioning;
//! * **nonlinear continuous** models (`max` in the response CPD) →
//!   likelihood weighting — the case Matlab BNT could not handle.
//!
//! Variable elimination answers no query here; it survives as the
//! reference in [`crate::oracle`].

use std::sync::OnceLock;

use kert_bayes::compile::JunctionTree;
use kert_bayes::discretize::Discretizer;
use kert_bayes::infer::sampling::{likelihood_weighting, LwOptions};
use kert_bayes::joint;
use kert_bayes::BayesianNetwork;
use rand::Rng;

use crate::serve;
use crate::{CoreError, Result};

/// A constructed response-time model as the query entry points read it:
/// its network, the discretizer of a discrete model, and (sealed) its own
/// junction tree, compiled on first use. [`crate::KertBn`] and
/// [`crate::NrtBn`] implement it, so each question has one entry point
/// for both families.
pub trait ResponseTimeModel: sealed::Compiled {
    /// The network.
    fn network(&self) -> &BayesianNetwork;
    /// The discretizer, for discrete models.
    fn discretizer(&self) -> Option<&Discretizer>;
}

pub(crate) mod sealed {
    /// A model's junction tree. Sealed, so the tree stays crate-private
    /// and only this crate's models implement
    /// [`super::ResponseTimeModel`].
    pub trait Compiled {
        /// The junction tree of the current network, compiled on first
        /// use ([`super::compile_once`]); `BadRequest` for a continuous
        /// model.
        fn compiled_tree(&self) -> crate::Result<&kert_bayes::compile::JunctionTree>;
    }
}

/// The tree in `cell`, compiling `network` into it on first use and
/// sharing it with every later query until the owner empties the cell.
/// Requires a discrete model (propagation runs over tabular factors);
/// continuous models get `BadRequest`.
pub(crate) fn compile_once<'t>(
    cell: &'t OnceLock<JunctionTree>,
    network: &BayesianNetwork,
    discretizer: Option<&Discretizer>,
) -> Result<&'t JunctionTree> {
    if discretizer.is_none() {
        return Err(CoreError::BadRequest(
            "junction-tree compilation requires a discrete model".into(),
        ));
    }
    if let Some(tree) = cell.get() {
        return Ok(tree);
    }
    // Two racing first uses may both compile; one tree is kept, and the
    // two are identical.
    let tree = JunctionTree::compile(network)?;
    Ok(cell.get_or_init(|| tree))
}

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
/// and keeps the variance. Each conditional is one pin and one marginal
/// read on the model's tree.
pub fn shifted_posterior<M: ResponseTimeModel>(
    model: &M,
    service: usize,
    shifted_values: &[f64],
    target: usize,
) -> Result<Posterior> {
    let network = model.network();
    let discretizer = model.discretizer().ok_or_else(|| {
        CoreError::BadRequest("a shifted posterior requires a discrete model".into())
    })?;
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
        check_evidence_value(service, v)?;
        weights[discretizer.column(service).state(v)] += 1.0;
    }
    let total = shifted_values.len() as f64;

    let mut probs = vec![0.0f64; discretizer.column(target).bins()];
    serve::answer_once(model, |tree, st| {
        for (s, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            tree.set_evidence(st, &[(service, s)])?;
            let conditional = tree.marginal(st, target)?;
            for (p, &c) in probs.iter_mut().zip(conditional.iter()) {
                *p += (w / total) * c;
            }
        }
        Ok(())
    })?;
    Ok(discrete_posterior(discretizer, target, probs))
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

/// Refuse a node listed twice: engines that keep the last pin and engines
/// that sort their pins would otherwise answer the same request
/// differently.
pub(crate) fn duplicate_node(node: usize) -> CoreError {
    CoreError::BadRequest(format!("evidence lists node {node} more than once"))
}

pub(crate) fn check_query(
    network: &BayesianNetwork,
    evidence: &[(usize, f64)],
    target: usize,
) -> Result<()> {
    if target >= network.len() {
        return Err(CoreError::BadRequest(format!("no node {target}")));
    }
    for (i, &(node, value)) in evidence.iter().enumerate() {
        if node >= network.len() {
            return Err(CoreError::BadRequest(format!("no evidence node {node}")));
        }
        if node == target {
            return Err(CoreError::BadRequest(format!(
                "node {node} is both target and evidence"
            )));
        }
        if evidence[..i].iter().any(|&(seen, _)| seen == node) {
            return Err(duplicate_node(node));
        }
        check_evidence_value(node, value)?;
    }
    Ok(())
}

/// Wrap a VE/junction-tree probability vector as a [`Posterior::Discrete`]
/// over the target's bin representatives.
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

/// Posterior of `target` given point observations `evidence` (raw
/// measurement values; discrete models bin them internally). Discrete
/// models answer off their compiled junction tree; continuous ones by
/// Gaussian conditioning when linear, likelihood weighting (`mc`, `rng`)
/// otherwise.
pub fn query_posterior<M: ResponseTimeModel, R: Rng + ?Sized>(
    model: &M,
    evidence: &[(usize, f64)],
    target: usize,
    mc: McOptions,
    rng: &mut R,
) -> Result<Posterior> {
    if model.discretizer().is_some() {
        let mut group = serve::answer_once(model, |tree, st| {
            serve::posterior_group(model, tree, st, evidence, &[target])
        })?;
        return Ok(group.remove(0));
    }
    continuous_posterior(model.network(), evidence, target, mc, rng)
}

/// Posterior of `target` on a continuous network: exact Gaussian
/// conditioning when it is linear, likelihood weighting otherwise.
pub(crate) fn continuous_posterior<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    evidence: &[(usize, f64)],
    target: usize,
    mc: McOptions,
    rng: &mut R,
) -> Result<Posterior> {
    check_query(network, evidence, target)?;
    if joint::is_linear_gaussian(network) {
        gaussian_posterior(network, evidence, target)
    } else {
        lw_posterior(network, evidence, target, mc, rng)
    }
}

/// Exact joint-Gaussian conditioning of a linear-Gaussian network.
fn gaussian_posterior(
    network: &BayesianNetwork,
    evidence: &[(usize, f64)],
    target: usize,
) -> Result<Posterior> {
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

/// Likelihood weighting over a continuous network.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::{DiscreteKertOptions, KertBn};
    use crate::nrt::NrtBn;
    use kert_bayes::cpd::{Cpd, DetNoise, DeterministicCpd, LinearGaussianCpd};
    use kert_bayes::{Dag, Expr, Variable};
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn discrete_model() -> KertBn {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let stations = [0.05, 0.05, 0.04, 0.35, 0.04, 0.10]
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect();
        let options = SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.5 },
            warmup: 50,
        };
        let mut sys = SimSystem::new(&wf, stations, options).unwrap();
        let data = sys
            .run(400, &mut StdRng::seed_from_u64(71))
            .to_dataset(None);
        KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap()
    }

    /// A bare continuous network as a model, its last node as `D`.
    fn continuous(network: BayesianNetwork) -> NrtBn {
        let d_node = network.len() - 1;
        NrtBn::from_parts(network, d_node, None)
    }

    fn linear_chain() -> NrtBn {
        let vars = vec![Variable::continuous("a"), Variable::continuous("b")];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        continuous(
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
            .unwrap(),
        )
    }

    #[test]
    fn linear_path_matches_textbook_posterior() {
        let bn = linear_chain();
        let mut rng = StdRng::seed_from_u64(1);
        let post = query_posterior(&bn, &[(1, 2.0)], 0, McOptions::default(), &mut rng).unwrap();
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
        let bn = continuous(
            BayesianNetwork::new(
                vars,
                dag,
                vec![
                    Cpd::LinearGaussian(LinearGaussianCpd::root(0, 3.0, 0.5)),
                    Cpd::LinearGaussian(LinearGaussianCpd::root(1, 3.0, 0.5)),
                    Cpd::Deterministic(det),
                ],
            )
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let post = query_posterior(&bn, &[], 2, McOptions { samples: 30_000 }, &mut rng).unwrap();
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
        assert!(query_posterior(&bn, &[(0, 1.0)], 0, McOptions::default(), &mut rng).is_err());
        assert!(query_posterior(&bn, &[(9, 1.0)], 0, McOptions::default(), &mut rng).is_err());
        assert!(query_posterior(&bn, &[], 9, McOptions::default(), &mut rng).is_err());
    }

    /// A node listed twice is refused on discrete and continuous models
    /// alike, whichever value comes last.
    #[test]
    fn duplicate_evidence_is_refused() {
        let mc = McOptions::default();
        let mut rng = StdRng::seed_from_u64(6);
        let refused = |r: Result<Posterior>| matches!(r, Err(CoreError::BadRequest(_)));
        let model = discrete_model();
        for evidence in [[(0usize, 0.01), (0, 0.2)], [(0, 0.2), (0, 0.01)]] {
            assert!(refused(query_posterior(&model, &evidence, 3, mc, &mut rng)));
        }
        let bn = linear_chain();
        let evidence = [(1usize, 2.0), (1, -2.0)];
        assert!(refused(query_posterior(&bn, &evidence, 0, mc, &mut rng)));
    }

    #[test]
    fn shifted_posterior_refuses_non_finite_values() {
        let model = discrete_model();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                shifted_posterior(&model, 3, &[0.3, bad], 6),
                Err(CoreError::BadRequest(_))
            ));
        }
        assert!(shifted_posterior(&model, 3, &[0.3, 0.2], 6).is_ok());
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
