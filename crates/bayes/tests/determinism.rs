//! Determinism guarantees for the one parallel learning path in this
//! crate, K2's random restarts.
//!
//! Parallel restarts promise results that are *identical* — bitwise, not
//! approximately — across runs and across worker counts: every ordering is
//! drawn from the caller's RNG before any thread starts, and the argmax
//! over restarts happens in restart order after the parallel section.

use kert_bayes::learn::k2::{k2_with_random_restarts, K2Options};
use kert_bayes::{BayesianNetwork, Cpd, Dag, TabularCpd, Variable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sprinkler() -> BayesianNetwork {
    let vars = vec![
        Variable::discrete("cloudy", 2),
        Variable::discrete("sprinkler", 2),
        Variable::discrete("rain", 2),
        Variable::discrete("wet", 2),
    ];
    let mut dag = Dag::new(4);
    dag.add_edge(0, 1).unwrap();
    dag.add_edge(0, 2).unwrap();
    dag.add_edge(1, 3).unwrap();
    dag.add_edge(2, 3).unwrap();
    let cpds = vec![
        Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.5]).unwrap()),
        Cpd::Tabular(TabularCpd::new(1, vec![0], 2, vec![2], vec![0.5, 0.5, 0.9, 0.1]).unwrap()),
        Cpd::Tabular(TabularCpd::new(2, vec![0], 2, vec![2], vec![0.8, 0.2, 0.2, 0.8]).unwrap()),
        Cpd::Tabular(
            TabularCpd::new(
                3,
                vec![1, 2],
                2,
                vec![2, 2],
                vec![0.95, 0.05, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99],
            )
            .unwrap(),
        ),
    ];
    BayesianNetwork::new(vars, dag, cpds).unwrap()
}

#[test]
fn parallel_k2_restarts_are_bitwise_reproducible() {
    let bn = sprinkler();
    let mut rng = StdRng::seed_from_u64(99);
    let data = bn.sample_dataset(&mut rng, 400);
    let cards = [2usize, 2, 2, 2];

    let mut rng_a = StdRng::seed_from_u64(5);
    let a = k2_with_random_restarts(&data, &cards, K2Options::default(), 8, &mut rng_a).unwrap();
    let mut rng_b = StdRng::seed_from_u64(5);
    let b = k2_with_random_restarts(&data, &cards, K2Options::default(), 8, &mut rng_b).unwrap();

    assert_eq!(a.total_score.to_bits(), b.total_score.to_bits());
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(format!("{:?}", a.dag), format!("{:?}", b.dag));
}

#[test]
fn k2_score_cache_saves_work_across_restarts() {
    let bn = sprinkler();
    let mut rng = StdRng::seed_from_u64(3);
    let data = bn.sample_dataset(&mut rng, 300);
    let mut rng2 = StdRng::seed_from_u64(7);
    let r =
        k2_with_random_restarts(&data, &[2, 2, 2, 2], K2Options::default(), 12, &mut rng2).unwrap();
    assert!(
        r.cache_misses < r.evaluations,
        "12 restarts over 4 nodes must repeat families: {} misses / {} lookups",
        r.cache_misses,
        r.evaluations
    );
}
