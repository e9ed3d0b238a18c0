//! dComp in action (§5.1 of the paper): estimating an unobservable
//! service's performance from the observable ones.
//!
//! Scenario: the remote hospital's monitoring agent stops reporting (a
//! common failure in federated Grids). The model, trained when data was
//! still flowing, is conditioned on the current measurements of the other
//! services plus the end-to-end response time, and produces a posterior
//! estimate of the silent service's elapsed time — which we compare to the
//! ground truth the simulator knows.
//!
//! Run with: `cargo run --release --example ediamond_dcomp`

use kert_bn::model::posterior::McOptions;
use kert_bn::model::{dcomp_all, DiscreteKertOptions};
use kert_bn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HIDDEN: usize = 3; // image_locator_remote — the silent agent

fn main() {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();

    // Deployment with a slow remote path.
    let means = [0.05, 0.05, 0.04, 0.30, 0.05, 0.12];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.7 },
            warmup: 100,
        },
    )
    .unwrap();

    // Train a discrete KERT-BN on 1200 points (the paper's §5 setting).
    let mut rng = StdRng::seed_from_u64(99);
    let train = system.run(1200, &mut rng).to_dataset(None);
    let model = KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default())
        .expect("model builds");
    println!(
        "Discrete KERT-BN trained on {} points in {:?}.\n",
        train.rows(),
        model.report().total()
    );

    // The remote agent goes silent; current data keeps flowing for the
    // others. Take the current measurement means E(o) as evidence.
    let current = system.run(200, &mut rng).to_dataset(None);
    let observed: Vec<(usize, f64)> = (0..7)
        .filter(|&c| c != HIDDEN)
        .map(|c| (c, kert_linalg::stats::mean(&current.column(c))))
        .collect();
    let actual = kert_linalg::stats::mean(&current.column(HIDDEN));

    let mut q_rng = StdRng::seed_from_u64(5);
    let outcome = dcomp_all(
        &model,
        &observed,
        &[HIDDEN],
        McOptions::default(),
        &mut q_rng,
    )
    .expect("dComp runs")
    .remove(0);

    println!("Service gone silent: image_locator_remote (X4)");
    println!("  evidence: current means of the 5 observable services + D");
    println!(
        "  prior      : mean {:.4} s, sd {:.4}",
        outcome.prior.mean(),
        outcome.prior.std_dev()
    );
    println!(
        "  posterior  : mean {:.4} s, sd {:.4}",
        outcome.posterior.mean(),
        outcome.posterior.std_dev()
    );
    println!("  actual     : mean {actual:.4} s (simulator ground truth)");
    println!(
        "\nPosterior {} the prior (narrower: {}), improvement toward actual: {:+.4} s",
        if outcome.improvement_toward(actual) > 0.0 {
            "beats"
        } else {
            "does not beat"
        },
        outcome.narrowed(),
        outcome.improvement_toward(actual)
    );

    if let (
        Posterior::Discrete {
            support,
            probs: prior,
            ..
        },
        Posterior::Discrete { probs, .. },
    ) = (&outcome.prior, &outcome.posterior)
    {
        println!("\n  {:>10}  {:>8}  {:>10}", "x4 (s)", "prior", "posterior");
        for ((v, p), q) in support.iter().zip(prior.iter()).zip(probs.iter()) {
            println!("  {v:>10.4}  {p:>8.3}  {q:>10.3}");
        }
    }
}
