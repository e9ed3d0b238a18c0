//! Integration: the decentralized learning plane — agents, local
//! datasets, concurrent learning — produces exactly the model the
//! centralized path produces. Its latency (the max of per-node learning
//! times against their sum) is measured by `benches/learning.rs` in
//! `kert-bench`, from one pass's per-node times.

use kert_bn::agents::runtime::{
    centralized_learn, decentralized_learn, slice_local_datasets, LearnOptions,
};
use kert_bn::agents::LocalDataset;
use kert_bn::bayes::cpd::Cpd;
use kert_bn::bayes::{Dag, Variable};
use kert_bn::prelude::*;
use kert_bn::sim::monitor::agents_from_edges;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn environment(n: usize, seed: u64) -> (WorkflowKnowledge, kert_bn::sim::Trace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let workflow = kert_bn::workflow::random_workflow(
        n,
        kert_bn::workflow::GenOptions {
            choice_prob: 0.0,
            loop_prob: 0.0,
            ..Default::default()
        },
        &mut rng,
    );
    let knowledge = derive_structure(&workflow, n, &ResourceMap::new()).unwrap();
    let stations: Vec<ServiceConfig> = (0..n)
        .map(|_| ServiceConfig::single(Dist::Erlang { k: 4, mean: 0.03 }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.1 },
            warmup: 50,
        },
    )
    .unwrap();
    let trace = system.run(400, &mut rng);
    (knowledge, trace)
}

/// The agent-report path (what monitoring agents would actually hold) and
/// the server-slice path (projection of the central dataset) must agree.
#[test]
fn agent_reports_equal_server_side_slices() {
    let (knowledge, trace) = environment(15, 1);
    let n = knowledge.n_services;
    let agents = agents_from_edges(n, &knowledge.upstream_edges);
    let central = trace.to_dataset(None);

    let mut dag = Dag::new(n);
    for &(a, b) in &knowledge.upstream_edges {
        dag.add_edge(a, b).unwrap();
    }
    let service_data = central.project(&(0..n).collect::<Vec<_>>()).unwrap();
    let slices = slice_local_datasets(&dag, &service_data).unwrap();

    for (agent, slice) in agents.iter().zip(slices.iter()) {
        let report = agent.report(&trace);
        assert_eq!(agent.service(), slice.node);
        assert_eq!(agent.parents(), slice.parents.as_slice());
        assert_eq!(report.data.rows(), slice.data.rows());
        for r in 0..report.data.rows() {
            assert_eq!(report.data.row(r), slice.data.row(r));
        }
    }
}

#[test]
fn decentralized_and_centralized_agree_bit_for_bit() {
    let (knowledge, trace) = environment(20, 2);
    let n = knowledge.n_services;
    let variables: Vec<Variable> = (0..n)
        .map(|i| Variable::continuous(format!("X{}", i + 1)))
        .collect();
    let agents = agents_from_edges(n, &knowledge.upstream_edges);
    let locals: Vec<LocalDataset> = agents
        .iter()
        .map(|a| LocalDataset {
            node: a.service(),
            parents: a.parents().to_vec(),
            data: a.report(&trace).data,
        })
        .collect();

    let dec = decentralized_learn(&variables, &locals, LearnOptions::default()).unwrap();
    let cen = centralized_learn(&variables, &locals, LearnOptions::default()).unwrap();
    assert_eq!(dec.cpds.len(), cen.cpds.len());
    for (d, c) in dec.cpds.iter().zip(cen.cpds.iter()) {
        let (Cpd::LinearGaussian(d), Cpd::LinearGaussian(c)) = (d, c) else {
            panic!("continuous nodes fit Gaussian CPDs");
        };
        assert_eq!(d.child(), c.child());
        assert_eq!(d.parents(), c.parents());
        assert_eq!(d.intercept(), c.intercept());
        assert_eq!(d.coeffs(), c.coeffs());
        assert_eq!(d.variance(), c.variance());
    }
    // Each latency derives from its own run's per-node times. Comparing
    // the two across runs would race the host's scheduler.
    let slowest = dec.node_times.iter().copied().max().unwrap();
    assert_eq!(dec.decentralized_time, slowest);
    let sum: Duration = cen.node_times.iter().sum();
    assert_eq!(cen.centralized_time, sum);
}

#[test]
fn decentralized_built_model_scores_identically() {
    let (knowledge, trace) = environment(10, 3);
    let data = trace.to_dataset(None);
    let central =
        KertBn::build_continuous(&knowledge, &data, ContinuousKertOptions::default()).unwrap();
    let distributed = KertBn::build_continuous(
        &knowledge,
        &data,
        ContinuousKertOptions {
            learning: ParamLearning::Decentralized { workers: Some(4) },
            ..Default::default()
        },
    )
    .unwrap();
    let a = central.accuracy(&data).unwrap();
    let b = distributed.accuracy(&data).unwrap();
    assert_eq!(a, b, "identical parameters must score identically");
}
