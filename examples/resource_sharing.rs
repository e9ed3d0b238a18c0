//! Resource sharing (§3.2's second knowledge source): services on the same
//! host are coupled through its utilization, and the KERT-BN models the
//! shared resource as a node whose parents are the sharing services.
//!
//! The payoff demonstrated here: when the remote `ogsa_dai` service goes
//! unobserved, knowing the *database host's utilization* sharpens the
//! dComp estimate beyond what the service measurements alone provide —
//! evidence on a common child couples its parents (explaining away).
//!
//! Run with: `cargo run --release --example resource_sharing`

use kert_bn::model::posterior::{query_posterior, McOptions};
use kert_bn::model::DiscreteKertOptions;
use kert_bn::prelude::*;
use kert_bn::sim::HostLayout;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HIDDEN: usize = 5; // ogsa_dai_remote

fn main() {
    let workflow = ediamond_workflow();
    // The two database wrappers share the federated database host; the two
    // locators share the index host.
    let layout = HostLayout::new(
        vec![
            ("db_host".into(), vec![4, 5]),
            ("index_host".into(), vec![2, 3]),
        ],
        6,
    )
    .expect("valid layout");
    let knowledge =
        derive_structure(&workflow, 6, &layout.to_resource_map()).expect("valid workflow");

    let means = [0.05, 0.05, 0.04, 0.15, 0.06, 0.20];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let mut system = SimSystem::with_hosts(
        &workflow,
        stations,
        layout,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.4 },
            warmup: 100,
        },
    )
    .expect("valid configuration");

    let mut rng = StdRng::seed_from_u64(88);
    let train = system.run(1_500, &mut rng).to_dataset(None);
    println!(
        "Dataset columns: {:?}\n",
        train.names().iter().map(String::as_str).collect::<Vec<_>>()
    );

    let model =
        KertBn::build_discrete_with_resources(&knowledge, &train, DiscreteKertOptions::default())
            .expect("model builds");
    println!(
        "KERT-BN with resource nodes: {} nodes; db_host's parents = {:?} (the sharing \
         services, as §3.2 prescribes).\n",
        model.network().len(),
        model.network().dag().parents(6)
    );

    // The remote DB goes unobserved; fresh data provides the evidence.
    let probe = system.run(300, &mut rng).to_dataset(None);
    let actual = kert_linalg::stats::mean(&probe.column(HIDDEN));
    let mean_of = |c: usize| kert_linalg::stats::mean(&probe.column(c));

    // Evidence WITHOUT the resource columns (services + D only).
    let service_evidence: Vec<(usize, f64)> = [0usize, 1, 2, 3, 4, 8]
        .iter()
        .map(|&c| (c, mean_of(c)))
        .collect();
    // Evidence WITH the host utilizations added.
    let mut full_evidence = service_evidence.clone();
    full_evidence.push((6, mean_of(6))); // db_host
    full_evidence.push((7, mean_of(7))); // index_host

    let mut q_rng = StdRng::seed_from_u64(9);
    let without = query_posterior(
        &model,
        &service_evidence,
        HIDDEN,
        McOptions::default(),
        &mut q_rng,
    )
    .expect("inference runs");
    let with = query_posterior(
        &model,
        &full_evidence,
        HIDDEN,
        McOptions::default(),
        &mut q_rng,
    )
    .expect("inference runs");

    println!("dComp estimate of the unobserved ogsa_dai_remote elapsed time:");
    println!("  actual mean                     : {actual:.4} s");
    println!(
        "  posterior without host evidence : {:.4} s (sd {:.4}, error {:.4})",
        without.mean(),
        without.std_dev(),
        (without.mean() - actual).abs()
    );
    println!(
        "  posterior with host evidence    : {:.4} s (sd {:.4}, error {:.4})",
        with.mean(),
        with.std_dev(),
        (with.mean() - actual).abs()
    );
    println!(
        "\nObserving the shared resource {} the estimate — the coupling the resource node \
         exists to expose.",
        if (with.mean() - actual).abs() <= (without.mean() - actual).abs() {
            "tightens"
        } else {
            "does not tighten (in this draw)"
        }
    );
}
