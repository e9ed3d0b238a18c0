//! The Bayesian network proper: variables + DAG + one CPD per node.
//!
//! Provides validation (CPDs must agree with the graph and the variable
//! schema), ancestral sampling, and the paper's accuracy metric —
//! `log₁₀ p(TestData | BN)` — computed as the sum of per-node CPD
//! log-probabilities over test rows (exact, since the joint factorizes per
//! Eq. 3).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cpd::Cpd;
use crate::dataset::Dataset;
use crate::graph::Dag;
use crate::variable::{Variable, VariableKind};
use crate::{BayesError, Result};

/// A fully specified Bayesian network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayesianNetwork {
    variables: Vec<Variable>,
    dag: Dag,
    /// One CPD per node, indexed by node.
    cpds: Vec<Cpd>,
    /// Topological order cached at construction.
    topo: Vec<usize>,
}

impl BayesianNetwork {
    /// Assemble and validate a network.
    ///
    /// Checks performed:
    /// * one CPD per node, `cpds[i].child() == i`;
    /// * each CPD's parent list equals the DAG's parent list for that node;
    /// * CPD family matches the variable kind (tabular/deterministic-discrete
    ///   for discrete variables, linear-Gaussian/deterministic-Gaussian for
    ///   continuous ones);
    /// * tabular cardinalities match the schema.
    pub fn new(variables: Vec<Variable>, dag: Dag, mut cpds: Vec<Cpd>) -> Result<Self> {
        let n = variables.len();
        if dag.len() != n {
            return Err(BayesError::InvalidCpd(format!(
                "{n} variables but DAG has {} nodes",
                dag.len()
            )));
        }
        if cpds.len() != n {
            return Err(BayesError::InvalidCpd(format!(
                "{n} variables but {} CPDs",
                cpds.len()
            )));
        }
        cpds.sort_by_key(Cpd::child);
        for (i, cpd) in cpds.iter().enumerate() {
            if cpd.child() != i {
                return Err(BayesError::InvalidCpd(format!(
                    "missing or duplicate CPD for node {i}"
                )));
            }
            if cpd.parents() != dag.parents(i) {
                return Err(BayesError::InvalidCpd(format!(
                    "CPD for node {i} has parents {:?}, DAG says {:?}",
                    cpd.parents(),
                    dag.parents(i)
                )));
            }
            Self::check_family(&variables, i, cpd)?;
        }
        let topo = dag.topological_order();
        Ok(BayesianNetwork {
            variables,
            dag,
            cpds,
            topo,
        })
    }

    /// Re-run every construction check on a network that bypassed the
    /// constructors (a deserialized one), changing no value: the DAG is
    /// rebuilt edge by edge (refusing out-of-range nodes and cycles, and
    /// recomputing the topological order), [`BayesianNetwork::new`]'s
    /// family checks run, and each CPD passes its own constructor's checks
    /// (a CPT's rows must already sum to 1; nothing is renormalized).
    pub fn validated(self) -> Result<Self> {
        let BayesianNetwork {
            variables,
            dag,
            cpds,
            ..
        } = self;
        let mut rebuilt = Dag::new(dag.len());
        for child in 0..dag.len() {
            for &parent in dag.parents(child) {
                rebuilt.add_edge(parent, child)?;
            }
        }
        let network = BayesianNetwork::new(variables, rebuilt, cpds)?;
        for cpd in &network.cpds {
            match cpd {
                Cpd::Tabular(t) => t.validate()?,
                Cpd::LinearGaussian(g) => g.validate()?,
                Cpd::Deterministic(d) => d.validate(&network.variables)?,
            }
        }
        Ok(network)
    }

    fn check_family(variables: &[Variable], i: usize, cpd: &Cpd) -> Result<()> {
        let kind = variables[i].kind;
        match (cpd, kind) {
            (Cpd::Tabular(t), VariableKind::Discrete { cardinality }) => {
                if t.cardinality() != cardinality {
                    return Err(BayesError::InvalidCpd(format!(
                        "node {i}: CPT cardinality {} vs schema {cardinality}",
                        t.cardinality()
                    )));
                }
                for (&p, &pc) in t.parents().iter().zip(t.parent_cards().iter()) {
                    match variables[p].kind {
                        VariableKind::Discrete { cardinality } if cardinality == pc => {}
                        _ => {
                            return Err(BayesError::InvalidCpd(format!(
                                "node {i}: parent {p} cardinality mismatch"
                            )))
                        }
                    }
                }
                Ok(())
            }
            (Cpd::LinearGaussian(_), VariableKind::Continuous) => Ok(()),
            (Cpd::Deterministic(d), VariableKind::Continuous) => match d.noise() {
                crate::cpd::DetNoise::Gaussian { .. } => Ok(()),
                _ => Err(BayesError::InvalidCpd(format!(
                    "node {i}: discrete deterministic CPD on continuous variable"
                ))),
            },
            (Cpd::Deterministic(d), VariableKind::Discrete { cardinality }) => match d.noise() {
                crate::cpd::DetNoise::Discrete { card, .. } if *card == cardinality => Ok(()),
                crate::cpd::DetNoise::Discrete { card, .. } => Err(BayesError::InvalidCpd(
                    format!("node {i}: deterministic card {card} vs schema {cardinality}"),
                )),
                _ => Err(BayesError::InvalidCpd(format!(
                    "node {i}: Gaussian deterministic CPD on discrete variable"
                ))),
            },
            _ => Err(BayesError::InvalidCpd(format!(
                "node {i}: CPD family does not match variable kind"
            ))),
        }
    }

    /// Replace node `i`'s CPD in place, re-running the same family
    /// validation as construction. The DAG is immutable, so the new CPD's
    /// parent list must match the existing structure — this is the
    /// sliding-window refresh path, where only parameters move.
    pub fn set_cpd(&mut self, i: usize, cpd: Cpd) -> Result<()> {
        if i >= self.variables.len() {
            return Err(BayesError::InvalidNode(i));
        }
        if cpd.child() != i {
            return Err(BayesError::InvalidCpd(format!(
                "set_cpd({i}) given a CPD for child {}",
                cpd.child()
            )));
        }
        if cpd.parents() != self.dag.parents(i) {
            return Err(BayesError::InvalidCpd(format!(
                "CPD for node {i} has parents {:?}, DAG says {:?}",
                cpd.parents(),
                self.dag.parents(i)
            )));
        }
        Self::check_family(&self.variables, i, &cpd)?;
        self.cpds[i] = cpd;
        Ok(())
    }

    /// Variables in node order.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.variables.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty()
    }

    /// The structure.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The CPD of node `i`.
    pub fn cpd(&self, i: usize) -> &Cpd {
        &self.cpds[i]
    }

    /// All CPDs in node order.
    pub fn cpds(&self) -> &[Cpd] {
        &self.cpds
    }

    /// Cached topological order.
    pub fn topological_order(&self) -> &[usize] {
        &self.topo
    }

    /// Log-likelihood (natural log) of a full-assignment dataset whose
    /// columns are in node order.
    pub fn log_likelihood(&self, data: &Dataset) -> Result<f64> {
        if data.columns() != self.len() {
            return Err(BayesError::InvalidData(format!(
                "dataset has {} columns, network has {} nodes",
                data.columns(),
                self.len()
            )));
        }
        let mut total = 0.0;
        let mut parent_buf: Vec<f64> = Vec::with_capacity(8);
        for r in 0..data.rows() {
            let row = data.row(r);
            for (i, cpd) in self.cpds.iter().enumerate() {
                parent_buf.clear();
                parent_buf.extend(cpd.parents().iter().map(|&p| row[p]));
                total += cpd.log_prob(row[i], &parent_buf);
            }
        }
        Ok(total)
    }

    /// Log-probability (natural log) of one full assignment, `row[i]` being
    /// the value of node `i` — the per-row factorized sum of Eq. 3.
    ///
    /// This is the oracle hook the conformance crate's joint-enumeration
    /// oracle sums over: it touches only per-CPD `log_prob`, none of the
    /// factor-kernel or VE machinery under test.
    pub fn log_joint(&self, row: &[f64]) -> Result<f64> {
        if row.len() != self.len() {
            return Err(BayesError::InvalidData(format!(
                "assignment has {} values, network has {} nodes",
                row.len(),
                self.len()
            )));
        }
        let mut total = 0.0;
        let mut parent_buf: Vec<f64> = Vec::with_capacity(8);
        for (i, cpd) in self.cpds.iter().enumerate() {
            parent_buf.clear();
            parent_buf.extend(cpd.parents().iter().map(|&p| row[p]));
            total += cpd.log_prob(row[i], &parent_buf);
        }
        Ok(total)
    }

    /// The paper's data-fitting accuracy metric: `log₁₀ p(TestData | BN)`.
    pub fn log10_likelihood(&self, data: &Dataset) -> Result<f64> {
        Ok(self.log_likelihood(data)? / std::f64::consts::LN_10)
    }

    /// Draw one full assignment by ancestral sampling; `out[i]` is the value
    /// of node `i`.
    pub fn sample_row<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut values = vec![0.0; self.len()];
        let mut parent_buf: Vec<f64> = Vec::with_capacity(8);
        for &i in &self.topo {
            let cpd = &self.cpds[i];
            parent_buf.clear();
            parent_buf.extend(cpd.parents().iter().map(|&p| values[p]));
            values[i] = cpd.sample(rng, &parent_buf);
        }
        values
    }

    /// Draw a dataset of `rows` ancestral samples with columns in node order
    /// named after the variables.
    pub fn sample_dataset<R: Rng + ?Sized>(&self, rng: &mut R, rows: usize) -> Dataset {
        let names = self.variables.iter().map(|v| v.name.clone()).collect();
        let mut ds = Dataset::new(names);
        for _ in 0..rows {
            ds.push_row(self.sample_row(rng))
                .expect("sample_row produces rows of the right width");
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{LinearGaussianCpd, TabularCpd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// X0 ~ N(10, 1); X1 = N(2·X0, 0.25)
    fn chain_gaussian() -> BayesianNetwork {
        let vars = vec![Variable::continuous("X0"), Variable::continuous("X1")];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 10.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::new(1, vec![0], 0.0, vec![2.0], 0.25).unwrap()),
        ];
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    #[test]
    fn construction_validates_parents() {
        let vars = vec![Variable::continuous("a"), Variable::continuous("b")];
        let dag = Dag::new(2); // no edges
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::new(1, vec![0], 0.0, vec![1.0], 1.0).unwrap()),
        ];
        assert!(matches!(
            BayesianNetwork::new(vars, dag, cpds),
            Err(BayesError::InvalidCpd(_))
        ));
    }

    #[test]
    fn construction_validates_family() {
        let vars = vec![Variable::discrete("a", 2)];
        let dag = Dag::new(1);
        let cpds = vec![Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0))];
        assert!(BayesianNetwork::new(vars, dag, cpds).is_err());
    }

    #[test]
    fn construction_validates_cardinality() {
        let vars = vec![Variable::discrete("a", 3)];
        let dag = Dag::new(1);
        let cpds = vec![Cpd::Tabular(TabularCpd::uniform(0, vec![], 2, vec![]))];
        assert!(BayesianNetwork::new(vars, dag, cpds).is_err());
    }

    #[test]
    fn cpds_are_sorted_by_child() {
        let vars = vec![Variable::continuous("a"), Variable::continuous("b")];
        let dag = Dag::new(2);
        // Deliberately out of order.
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(1, 5.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 3.0, 1.0)),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        assert_eq!(bn.cpd(0).child(), 0);
        assert_eq!(bn.cpd(1).child(), 1);
    }

    #[test]
    fn sampling_follows_the_chain() {
        let bn = chain_gaussian();
        let mut rng = StdRng::seed_from_u64(3);
        let ds = bn.sample_dataset(&mut rng, 20_000);
        let x0 = ds.column(0);
        let x1 = ds.column(1);
        let m0 = kert_linalg::stats::mean(&x0);
        let m1 = kert_linalg::stats::mean(&x1);
        assert!((m0 - 10.0).abs() < 0.05, "m0={m0}");
        assert!((m1 - 20.0).abs() < 0.1, "m1={m1}");
        // Strong correlation through the edge.
        assert!(kert_linalg::stats::correlation(&x0, &x1) > 0.9);
    }

    #[test]
    fn log_likelihood_prefers_the_generating_model() {
        let bn = chain_gaussian();
        let mut rng = StdRng::seed_from_u64(9);
        let data = bn.sample_dataset(&mut rng, 500);

        // A wrong model: independent nodes with off means.
        let vars = vec![Variable::continuous("X0"), Variable::continuous("X1")];
        let dag = Dag::new(2);
        let wrong = BayesianNetwork::new(
            vars,
            dag,
            vec![
                Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0)),
                Cpd::LinearGaussian(LinearGaussianCpd::root(1, 0.0, 1.0)),
            ],
        )
        .unwrap();

        let ll_true = bn.log_likelihood(&data).unwrap();
        let ll_wrong = wrong.log_likelihood(&data).unwrap();
        assert!(ll_true > ll_wrong);
        // log10 version is a rescale.
        let l10 = bn.log10_likelihood(&data).unwrap();
        assert!((l10 - ll_true / std::f64::consts::LN_10).abs() < 1e-9);
    }

    #[test]
    fn log_likelihood_rejects_wrong_width() {
        let bn = chain_gaussian();
        let ds = Dataset::new(vec!["only".into()]);
        assert!(bn.log_likelihood(&ds).is_err());
    }

    #[test]
    fn discrete_network_samples_valid_states() {
        let vars = vec![Variable::discrete("a", 2), Variable::discrete("b", 3)];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.3, 0.7]).unwrap()),
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 3, vec![2], vec![0.1, 0.2, 0.7, 0.5, 0.25, 0.25])
                    .unwrap(),
            ),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let row = bn.sample_row(&mut rng);
            assert!(row[0] == 0.0 || row[0] == 1.0);
            assert!(row[1] >= 0.0 && row[1] <= 2.0 && row[1].fract() == 0.0);
        }
    }
}
