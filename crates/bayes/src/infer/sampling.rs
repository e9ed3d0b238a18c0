//! Monte-Carlo inference: likelihood weighting.
//!
//! Handles the cases exact methods cannot: hybrid networks and continuous
//! networks whose response-time CPD contains `max` (non-linear, so no joint
//! Gaussian exists). Evidence nodes are clamped to their observed values
//! and contribute their likelihood to the sample weight; all other nodes
//! are ancestrally sampled.
//!
//! This is the capability gap the paper hit with Matlab BNT ("BNT does not
//! support non-linear deterministic CPDs that contain maximum
//! relationships", §5) — closing it lets the Rust reproduction run dComp
//! and pAccel on *continuous* KERT-BNs too.

use std::collections::HashMap;

use rand::Rng;

use crate::network::BayesianNetwork;
use crate::{BayesError, Result};

/// Options for likelihood weighting.
#[derive(Debug, Clone, Copy)]
pub struct LwOptions {
    /// Number of weighted samples to draw.
    pub samples: usize,
}

impl Default for LwOptions {
    fn default() -> Self {
        LwOptions { samples: 10_000 }
    }
}

/// Weighted sample set over all network nodes.
#[derive(Debug, Clone)]
pub struct WeightedSamples {
    /// `values[s][i]` = value of node `i` in sample `s`.
    values: Vec<Vec<f64>>,
    /// Unnormalized weights aligned with `values`.
    weights: Vec<f64>,
}

impl WeightedSamples {
    /// Sum of weights (zero means the evidence was impossible under the
    /// model for every draw — increase `samples` or check the evidence).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Iterate `(value, unnormalized_weight)` pairs for one node.
    pub fn iter_node(&self, node: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .zip(self.weights.iter())
            .map(move |(v, &w)| (v[node], w))
    }
}

/// Run likelihood weighting with the given evidence (node → observed value;
/// discrete evidence passes the state index as `f64`).
pub fn likelihood_weighting<R: Rng + ?Sized>(
    network: &BayesianNetwork,
    evidence: &HashMap<usize, f64>,
    options: LwOptions,
    rng: &mut R,
) -> Result<WeightedSamples> {
    let n = network.len();
    for &node in evidence.keys() {
        if node >= n {
            return Err(BayesError::InvalidNode(node));
        }
    }
    if options.samples == 0 {
        return Err(BayesError::InvalidData("zero samples requested".into()));
    }

    let mut values = Vec::with_capacity(options.samples);
    let mut weights = Vec::with_capacity(options.samples);
    let mut row = vec![0.0; n];
    let mut parent_buf: Vec<f64> = Vec::with_capacity(8);

    for _ in 0..options.samples {
        let mut log_w = 0.0;
        for &i in network.topological_order() {
            let cpd = network.cpd(i);
            parent_buf.clear();
            parent_buf.extend(cpd.parents().iter().map(|&p| row[p]));
            match evidence.get(&i) {
                Some(&obs) => {
                    row[i] = obs;
                    log_w += cpd.log_prob(obs, &parent_buf);
                }
                None => {
                    row[i] = cpd.sample(rng, &parent_buf);
                }
            }
        }
        values.push(row.clone());
        weights.push(log_w.exp());
    }

    Ok(WeightedSamples { values, weights })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{Cpd, DetNoise, DeterministicCpd, LinearGaussianCpd, TabularCpd};
    use crate::expr::Expr;
    use crate::graph::Dag;
    use crate::infer::ve::{posterior_marginal, Evidence};
    use crate::variable::Variable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Weighted posterior mean of `node`.
    fn mean(s: &WeightedSamples, node: usize) -> f64 {
        s.iter_node(node).map(|(v, w)| w * v).sum::<f64>() / s.total_weight()
    }

    /// Weighted posterior variance of `node`.
    fn variance(s: &WeightedSamples, node: usize) -> f64 {
        let m = mean(s, node);
        s.iter_node(node)
            .map(|(v, w)| w * (v - m) * (v - m))
            .sum::<f64>()
            / s.total_weight()
    }

    fn two_node_discrete() -> BayesianNetwork {
        let vars = vec![Variable::discrete("a", 2), Variable::discrete("b", 2)];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.3, 0.7]).unwrap()),
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 2, vec![2], vec![0.9, 0.1, 0.2, 0.8]).unwrap(),
            ),
        ];
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    #[test]
    fn matches_exact_inference_on_discrete_network() {
        let bn = two_node_discrete();
        let mut ev_exact = Evidence::new();
        ev_exact.insert(1, 1);
        let exact = posterior_marginal(&bn, 0, &ev_exact).unwrap();

        let mut ev = HashMap::new();
        ev.insert(1, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let samples =
            likelihood_weighting(&bn, &ev, LwOptions { samples: 50_000 }, &mut rng).unwrap();
        // P(A=1 | B=1) from weighted samples.
        let p1 = mean(&samples, 0); // states are 0/1, so the mean is P(A=1).
        assert!((p1 - exact[1]).abs() < 0.01, "{p1} vs {}", exact[1]);
    }

    #[test]
    fn gaussian_posterior_matches_exact_conditioning() {
        // X0 ~ N(0, 1); X1 = X0 + N(0, 1). Condition on X1 = 2:
        // exact posterior: N(1, 0.5).
        let vars = vec![Variable::continuous("x0"), Variable::continuous("x1")];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::new(1, vec![0], 0.0, vec![1.0], 1.0).unwrap()),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let mut ev = HashMap::new();
        ev.insert(1, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let s = likelihood_weighting(&bn, &ev, LwOptions { samples: 100_000 }, &mut rng).unwrap();
        assert!((mean(&s, 0) - 1.0).abs() < 0.02, "mean={}", mean(&s, 0));
        assert!(
            (variance(&s, 0) - 0.5).abs() < 0.02,
            "var={}",
            variance(&s, 0)
        );
        // Effective sample size (Σw)²/Σw²: the weights are not degenerate.
        let sw2: f64 = s.weights.iter().map(|w| w * w).sum();
        assert!(s.total_weight().powi(2) / sw2 > 1_000.0);
    }

    #[test]
    fn max_network_posterior_is_reachable() {
        // D = max(X0, X1) + noise; observing D high should raise both
        // parents' posteriors above their priors.
        let vars = vec![
            Variable::continuous("x0"),
            Variable::continuous("x1"),
            Variable::continuous("d"),
        ];
        let mut dag = Dag::new(3);
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 2).unwrap();
        let det = DeterministicCpd::from_network_expr(
            2,
            &Expr::Max(vec![Expr::Var(0), Expr::Var(1)]),
            DetNoise::Gaussian { sigma: 0.3 },
        )
        .unwrap();
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 5.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::root(1, 5.0, 1.0)),
            Cpd::Deterministic(det),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let mut ev = HashMap::new();
        ev.insert(2, 8.0);
        let mut rng = StdRng::seed_from_u64(12);
        let s = likelihood_weighting(&bn, &ev, LwOptions { samples: 50_000 }, &mut rng).unwrap();
        assert!(mean(&s, 0) > 5.0);
        assert!(mean(&s, 1) > 5.0);
        // At least one parent must be near 8 — check via the max of means
        // being clearly above the prior.
        assert!(mean(&s, 0).max(mean(&s, 1)) > 6.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let bn = two_node_discrete();
        let mut rng = StdRng::seed_from_u64(1);
        let mut bad_ev = HashMap::new();
        bad_ev.insert(42, 0.0);
        assert!(likelihood_weighting(&bn, &bad_ev, LwOptions::default(), &mut rng).is_err());
        assert!(
            likelihood_weighting(&bn, &HashMap::new(), LwOptions { samples: 0 }, &mut rng).is_err()
        );
    }
}
