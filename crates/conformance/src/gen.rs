//! Deterministic instance generators for the differential harness.
//!
//! Two families:
//!
//! * **Exactly solvable KERT environments** — sequential-only random
//!   workflows (`GenOptions::sequential_only`) simulated through the bench
//!   scenario machinery, then built into real KERT-BNs with the production
//!   constructors. The continuous build is linear-Gaussian (the
//!   [`crate::gaussian::GaussianOracle`] family); the discrete companion
//!   keeps a small enough state space for the enumeration oracle.
//! * **Random discrete networks** — arbitrary small DAGs with strictly
//!   positive random CPTs: feasible for enumeration, and unconstrained by
//!   workflow structure so elimination orderings and pruning see varied
//!   shapes.

use kert_bayes::cpd::{Cpd, TabularCpd};
use kert_bayes::{BayesianNetwork, Dag, Variable};
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_core::{ContinuousKertOptions, DiscreteKertOptions, KertBn};
use kert_workflow::GenOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A continuous linear-Gaussian KERT instance with its discrete companion
/// built on the same training window, plus one held-out probe row for
/// evidence values.
pub struct LinearInstance {
    /// Continuous KERT-BN (linear-Gaussian by construction).
    pub continuous: KertBn,
    /// Discrete KERT-BN on the same data, 3 bins per node — small enough
    /// for the enumeration oracle.
    pub discrete: KertBn,
    /// Number of services (`D` is node `n_services`).
    pub n_services: usize,
    /// One held-out row (`X1…Xn, D`) supplying realistic evidence values.
    pub probe: Vec<f64>,
}

/// Build one exactly-solvable instance, fully determined by `seed`:
/// 3–5 services, sequential workflow, 90 training rows.
pub fn random_linear_instance(seed: u64) -> LinearInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_services = rng.gen_range(3..=5);
    let options = ScenarioOptions {
        gen: GenOptions::sequential_only(),
        ..ScenarioOptions::default()
    };
    let mut env = Environment::random(n_services, options, seed);
    let (train, probe_set) = env.datasets(90, 1, seed ^ 0x5eed_0001);
    let continuous =
        KertBn::build_continuous(&env.knowledge, &train, ContinuousKertOptions::default())
            .expect("sequential environments build cleanly");
    let discrete = KertBn::build_discrete(
        &env.knowledge,
        &train,
        DiscreteKertOptions {
            bins: 3,
            ..DiscreteKertOptions::default()
        },
    )
    .expect("discrete build on the same window");
    LinearInstance {
        continuous,
        discrete,
        n_services,
        probe: probe_set.row(0).to_vec(),
    }
}

/// Random small discrete network, fully determined by `seed`: 4–7 nodes,
/// cardinalities 2–3, each earlier node a parent with probability 0.4
/// (capped at 3 parents), CPT entries drawn from `[0.2, 1)` and
/// normalized — strictly positive everywhere, so no evidence has zero
/// mass.
pub fn random_discrete_network(seed: u64) -> BayesianNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..=7);
    let cards: Vec<usize> = (0..n).map(|_| rng.gen_range(2..=3)).collect();
    let mut dag = Dag::new(n);
    let mut cpds = Vec::with_capacity(n);
    for child in 0..n {
        let mut parents: Vec<usize> = (0..child).filter(|_| rng.gen::<f64>() < 0.4).collect();
        parents.truncate(3);
        for &p in &parents {
            dag.add_edge(p, child).expect("edges follow node order");
        }
        let parent_cards: Vec<usize> = parents.iter().map(|&p| cards[p]).collect();
        let configs: usize = parent_cards.iter().product::<usize>().max(1);
        let mut table = Vec::with_capacity(configs * cards[child]);
        for _ in 0..configs {
            let mut row: Vec<f64> = (0..cards[child]).map(|_| rng.gen_range(0.2..1.0)).collect();
            let total: f64 = row.iter().sum();
            for v in &mut row {
                *v /= total;
            }
            table.extend(row);
        }
        cpds.push(Cpd::Tabular(
            TabularCpd::new(child, parents, cards[child], parent_cards, table)
                .expect("generated tables are valid"),
        ));
    }
    let vars: Vec<Variable> = cards
        .iter()
        .enumerate()
        .map(|(i, &c)| Variable::discrete(format!("V{i}"), c))
        .collect();
    BayesianNetwork::new(vars, dag, cpds).expect("generated networks are valid")
}

/// A random query against a discrete network: a target node plus evidence
/// on a random subset of the remaining nodes (each with probability 0.35).
pub fn random_discrete_query(
    network: &BayesianNetwork,
    seed: u64,
) -> (usize, std::collections::HashMap<usize, usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let n = network.len();
    let target = rng.gen_range(0..n);
    let mut evidence = std::collections::HashMap::new();
    for (node, v) in network.variables().iter().enumerate() {
        if node == target || rng.gen::<f64>() >= 0.35 {
            continue;
        }
        let card = match v.kind {
            kert_bayes::VariableKind::Discrete { cardinality } => cardinality,
            kert_bayes::VariableKind::Continuous => continue,
        };
        evidence.insert(node, rng.gen_range(0..card));
    }
    (target, evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_bayes::joint::is_linear_gaussian;

    #[test]
    fn linear_instances_are_linear_gaussian_and_deterministic() {
        let a = random_linear_instance(11);
        assert!(is_linear_gaussian(a.continuous.network()));
        assert_eq!(a.probe.len(), a.n_services + 1);
        assert!(a.discrete.discretizer().is_some());
        let b = random_linear_instance(11);
        assert_eq!(a.n_services, b.n_services);
        assert_eq!(a.probe, b.probe);
    }

    #[test]
    fn discrete_networks_are_valid_and_deterministic() {
        let a = random_discrete_network(5);
        let b = random_discrete_network(5);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.cpd(i).parents(), b.cpd(i).parents());
        }
        // Strictly positive CPTs.
        for cpd in a.cpds() {
            if let Cpd::Tabular(t) = cpd {
                assert!(t.table().iter().all(|&p| p > 0.0));
            }
        }
    }

    #[test]
    fn queries_stay_in_range() {
        for seed in 0..10 {
            let net = random_discrete_network(seed);
            let (target, evidence) = random_discrete_query(&net, seed);
            assert!(target < net.len());
            assert!(!evidence.contains_key(&target));
        }
    }
}
