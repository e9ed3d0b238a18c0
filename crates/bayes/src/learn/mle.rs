//! Parameter learning: fit one node's CPD from data.
//!
//! The unit of work is deliberately *per node*: the sufficient statistics of
//! `P(Xᵢ | Φ(Xᵢ))` involve only the child column and its parents' columns
//! (the "data locality" observation of the paper's §3.4 that enables
//! decentralized learning). `kert-agents` calls [`fit_tabular`] /
//! [`fit_linear_gaussian`] on worker threads with per-service datasets;
//! centralized learning just loops over nodes.

use std::collections::HashMap;

use kert_linalg::Matrix;

use crate::cpd::{config_count, Cpd, LinearGaussianCpd, TabularCpd};
use crate::dataset::Dataset;
use crate::graph::Dag;
use crate::variable::{Variable, VariableKind};
use crate::{BayesError, Result};

/// Options for parameter learning.
#[derive(Debug, Clone, Copy)]
pub struct ParamOptions {
    /// Symmetric Dirichlet pseudo-count for tabular CPDs (`0` = plain MLE).
    pub dirichlet_alpha: f64,
}

impl Default for ParamOptions {
    fn default() -> Self {
        // A light BDeu-style prior keeps unseen configurations proper
        // without visibly biasing well-observed cells.
        ParamOptions {
            dirichlet_alpha: 1.0,
        }
    }
}

/// Fit a tabular CPD `P(child | parents)` by (smoothed) maximum likelihood.
///
/// `cards[i]` must give the cardinality of *network node* `i`. Columns of
/// `data` are in node order and hold state indices. Counting is sparse
/// (hash map keyed by parent configuration) so the cost is
/// `O(rows · |parents|)` plus the size of the final table — the table
/// itself is `O(mⁿ)`, which is the exponential blow-up the paper's Eq. 4
/// avoids for the response-time node.
pub fn fit_tabular(
    child: usize,
    parents: &[usize],
    data: &Dataset,
    cards: &[usize],
    options: ParamOptions,
) -> Result<TabularCpd> {
    let card = *cards.get(child).ok_or(BayesError::InvalidNode(child))?;
    let parent_cards: Vec<usize> = parents
        .iter()
        .map(|&p| cards.get(p).copied().ok_or(BayesError::InvalidNode(p)))
        .collect::<Result<_>>()?;
    let configs = config_count(&parent_cards);
    // Sparse counting first; dense table only at the end.
    let mut sparse: HashMap<usize, Vec<f64>> = HashMap::new();
    for r in 0..data.rows() {
        let row = data.row(r);
        let mut idx = 0usize;
        for (&p, &pc) in parents.iter().zip(parent_cards.iter()) {
            let s = row[p] as usize;
            if s >= pc {
                return Err(BayesError::InvalidData(format!(
                    "row {r}: node {p} state {s} exceeds cardinality {pc}"
                )));
            }
            idx = idx * pc + s;
        }
        let child_state = row[child] as usize;
        if child_state >= card {
            return Err(BayesError::InvalidData(format!(
                "row {r}: child state {child_state} exceeds cardinality {card}"
            )));
        }
        sparse.entry(idx).or_insert_with(|| vec![0.0; card])[child_state] += 1.0;
    }
    let mut counts = vec![0.0; configs * card];
    for (idx, row_counts) in sparse {
        counts[idx * card..(idx + 1) * card].copy_from_slice(&row_counts);
    }
    TabularCpd::from_counts(
        child,
        parents.to_vec(),
        card,
        parent_cards,
        &counts,
        options.dirichlet_alpha,
    )
}

/// Fit a conditional linear-Gaussian CPD by least squares (intercept plus
/// one coefficient per parent; residual variance from the fit).
pub fn fit_linear_gaussian(
    child: usize,
    parents: &[usize],
    data: &Dataset,
) -> Result<LinearGaussianCpd> {
    let n = data.rows();
    if n == 0 {
        return Err(BayesError::InvalidData(
            "cannot fit a Gaussian CPD on an empty dataset".into(),
        ));
    }
    // Relative variance floor: a residual variance below one-millionth of
    // the child's mean square is treated as numerically degenerate (e.g. a
    // near-constant training window); without it a single off-window test
    // point produces astronomically bad likelihoods instead of merely poor
    // ones.
    let child_col = data.column(child);
    let mean_sq = child_col.iter().map(|&v| v * v).sum::<f64>() / child_col.len().max(1) as f64;
    let var_floor = mean_sq * 1e-6;
    if parents.is_empty() {
        let mean = kert_linalg::stats::mean(&child_col);
        let var = kert_linalg::stats::variance(&child_col);
        return LinearGaussianCpd::new(child, Vec::new(), mean, Vec::new(), var.max(var_floor));
    }
    // Design: [1, parent values…] per row.
    let p = parents.len() + 1;
    let mut design = Vec::with_capacity(n * p);
    let mut y = Vec::with_capacity(n);
    for r in 0..n {
        let row = data.row(r);
        design.push(1.0);
        design.extend(parents.iter().map(|&pi| row[pi]));
        y.push(row[child]);
    }
    let design = Matrix::from_vec(n, p, design).map_err(BayesError::from)?;
    let fit = kert_linalg::lstsq(&design, &y).map_err(BayesError::from)?;
    let intercept = fit.coeffs[0];
    let coeffs = fit.coeffs[1..].to_vec();
    LinearGaussianCpd::new(
        child,
        parents.to_vec(),
        intercept,
        coeffs,
        fit.residual_variance.max(var_floor),
    )
}

/// Fit every node's CPD for a given structure, choosing the family from the
/// variable kind, one node after another on the caller's thread.
///
/// This is NRT-BN's parameter phase, and the batch oracle that the
/// streaming learner and the control loop's refit are checked against.
/// Figure 5's centralized/decentralized comparison runs through
/// `kert_agents::{centralized_learn, decentralized_learn}` instead.
pub fn fit_all_parameters(
    variables: &[Variable],
    dag: &Dag,
    data: &Dataset,
    options: ParamOptions,
) -> Result<Vec<Cpd>> {
    if data.columns() != variables.len() {
        return Err(BayesError::InvalidData(format!(
            "dataset has {} columns for {} variables",
            data.columns(),
            variables.len()
        )));
    }
    let cards: Vec<usize> = variables
        .iter()
        .map(|v| v.cardinality().unwrap_or(0))
        .collect();
    (0..variables.len())
        .map(|i| fit_node(i, variables, dag.parents(i), data, &cards, options))
        .collect()
}

/// Fit a single node's CPD (family chosen from the variable kind). Exposed
/// separately because decentralized learning runs exactly one of these per
/// monitoring agent.
pub fn fit_node(
    node: usize,
    variables: &[Variable],
    parents: &[usize],
    data: &Dataset,
    cards: &[usize],
    options: ParamOptions,
) -> Result<Cpd> {
    match variables[node].kind {
        VariableKind::Discrete { .. } => {
            fit_tabular(node, parents, data, cards, options).map(Cpd::Tabular)
        }
        VariableKind::Continuous => {
            fit_linear_gaussian(node, parents, data).map(Cpd::LinearGaussian)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::BayesianNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tabular_fit_recovers_frequencies() {
        // child 1 depends on parent 0 (both binary).
        let data = Dataset::from_rows(
            vec!["p".into(), "c".into()],
            vec![
                vec![0.0, 0.0],
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![1.0, 1.0],
                vec![1.0, 1.0],
                vec![1.0, 0.0],
            ],
        )
        .unwrap();
        let cpd = fit_tabular(
            1,
            &[0],
            &data,
            &[2, 2],
            ParamOptions {
                dirichlet_alpha: 0.0,
            },
        )
        .unwrap();
        assert!((cpd.prob(0, &[0]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cpd.prob(1, &[1]) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn tabular_fit_validates_states() {
        let data = Dataset::from_rows(vec!["p".into(), "c".into()], vec![vec![5.0, 0.0]]).unwrap();
        assert!(fit_tabular(1, &[0], &data, &[2, 2], ParamOptions::default()).is_err());
        let data2 = Dataset::from_rows(vec!["p".into(), "c".into()], vec![vec![0.0, 9.0]]).unwrap();
        assert!(fit_tabular(1, &[0], &data2, &[2, 2], ParamOptions::default()).is_err());
    }

    #[test]
    fn gaussian_fit_recovers_regression() {
        // c = 2 + 3·p with small deterministic ripple.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let p = i as f64 * 0.25;
                let noise = if i % 2 == 0 { 0.01 } else { -0.01 };
                vec![p, 2.0 + 3.0 * p + noise]
            })
            .collect();
        let data = Dataset::from_rows(vec!["p".into(), "c".into()], rows).unwrap();
        let cpd = fit_linear_gaussian(1, &[0], &data).unwrap();
        assert!((cpd.intercept() - 2.0).abs() < 0.01);
        assert!((cpd.coeffs()[0] - 3.0).abs() < 0.01);
        assert!(cpd.variance() < 0.001);
    }

    #[test]
    fn gaussian_root_fit_uses_moments() {
        let data =
            Dataset::from_rows(vec!["x".into()], vec![vec![1.0], vec![3.0], vec![5.0]]).unwrap();
        let cpd = fit_linear_gaussian(0, &[], &data).unwrap();
        assert!((cpd.intercept() - 3.0).abs() < 1e-12);
        assert!((cpd.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let data = Dataset::new(vec!["x".into()]);
        assert!(fit_linear_gaussian(0, &[], &data).is_err());
    }

    #[test]
    fn fit_all_parameters_learns_a_consistent_network() {
        // Generate from a known 3-node linear-Gaussian chain, relearn, and
        // check the relearned model scores the data about as well.
        use crate::cpd::LinearGaussianCpd as LG;
        let vars = vec![
            Variable::continuous("a"),
            Variable::continuous("b"),
            Variable::continuous("c"),
        ];
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(1, 2).unwrap();
        let gen = BayesianNetwork::new(
            vars.clone(),
            dag.clone(),
            vec![
                Cpd::LinearGaussian(LG::root(0, 5.0, 1.0)),
                Cpd::LinearGaussian(LG::new(1, vec![0], 1.0, vec![2.0], 0.5).unwrap()),
                Cpd::LinearGaussian(LG::new(2, vec![1], -1.0, vec![0.5], 0.25).unwrap()),
            ],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let train = gen.sample_dataset(&mut rng, 2_000);
        let test = gen.sample_dataset(&mut rng, 500);

        let cpds = fit_all_parameters(&vars, &dag, &train, ParamOptions::default()).unwrap();
        let learned = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let ll_learned = learned.log_likelihood(&test).unwrap();
        let ll_true = gen.log_likelihood(&test).unwrap();
        // Learned model should be within 1% of the generating model.
        assert!(
            (ll_learned - ll_true).abs() < 0.01 * ll_true.abs(),
            "learned {ll_learned} vs true {ll_true}"
        );
    }

    #[test]
    fn fit_all_rejects_schema_mismatch() {
        let vars = vec![Variable::continuous("a")];
        let dag = Dag::new(1);
        let data = Dataset::new(vec!["a".into(), "b".into()]);
        assert!(fit_all_parameters(&vars, &dag, &data, ParamOptions::default()).is_err());
    }

    #[test]
    fn dirichlet_smoothing_fills_unseen_configs() {
        let data = Dataset::from_rows(
            vec!["p".into(), "c".into()],
            vec![vec![0.0, 0.0], vec![0.0, 1.0]],
        )
        .unwrap();
        let cpd = fit_tabular(
            1,
            &[0],
            &data,
            &[2, 2],
            ParamOptions {
                dirichlet_alpha: 1.0,
            },
        )
        .unwrap();
        // Parent config 1 never observed → uniform from the prior.
        assert!((cpd.prob(0, &[1]) - 0.5).abs() < 1e-12);
    }
}
