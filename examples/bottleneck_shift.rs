//! Bottleneck shift (§3.2 of the paper): the phenomenon the
//! immediate-upstream edges exist to capture.
//!
//! A workload surge at the front of the eDiaMoND pipeline propagates
//! downstream: queueing couples each service's elapsed time to its
//! upstream neighbour's throughput, moving the system bottleneck without
//! any service-time distribution changing. The KERT-BN, reconstructed on
//! fresh data, tracks the shift; the model built before the surge — the
//! "expired" model the paper's periodic scheme replaces — does not.
//!
//! Run with: `cargo run --release --example bottleneck_shift`

use kert_bn::model::posterior::{query_posterior, McOptions};
use kert_bn::model::DiscreteKertOptions;
use kert_bn::prelude::*;
use kert_bn::workflow::EDIAMOND_SERVICES;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(knowledge: &WorkflowKnowledge, data: &kert_bn::bayes::Dataset) -> KertBn {
    KertBn::build_discrete(knowledge, data, DiscreteKertOptions::default()).expect("builds")
}

fn main() {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();
    let means = [0.06, 0.05, 0.04, 0.12, 0.05, 0.10];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();

    // Calm period: inter-arrival 0.5 s (utilization ≈ 24% at the worst
    // station).
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.5 },
            warmup: 100,
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let calm = system.run(1_000, &mut rng).to_dataset(None);
    let calm_model = build(&knowledge, &calm);

    // Surge: arrivals triple. No service got slower — but queues build,
    // most at the highest-utilization station, and elapsed times there
    // balloon.
    let mut surged = SimSystem::new(
        &workflow,
        means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect(),
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.155 },
            warmup: 100,
        },
    )
    .unwrap();
    let surge = surged.run(1_000, &mut rng).to_dataset(None);
    let surge_model = build(&knowledge, &surge);

    println!("Mean elapsed time per service (s):\n");
    println!(
        "  {:<24} {:>8} {:>8} {:>8}",
        "service", "calm", "surge", "×"
    );
    #[allow(clippy::needless_range_loop)] // s indexes columns and names alike
    for s in 0..6 {
        let a = kert_linalg::stats::mean(&calm.column(s));
        let b = kert_linalg::stats::mean(&surge.column(s));
        println!(
            "  {:<24} {a:>8.4} {b:>8.4} {:>7.1}x",
            EDIAMOND_SERVICES[s],
            b / a
        );
    }
    let d_calm = kert_linalg::stats::mean(&calm.column(6));
    let d_surge = kert_linalg::stats::mean(&surge.column(6));
    println!(
        "  {:<24} {d_calm:>8.4} {d_surge:>8.4} {:>7.1}x",
        "D (end-to-end)",
        d_surge / d_calm
    );

    // The stale model misjudges the new regime; the reconstructed one
    // tracks it — the reason the paper rebuilds models every T_CON.
    let mut q_rng = StdRng::seed_from_u64(4);
    let stale = query_posterior(&calm_model, &[], 6, McOptions::default(), &mut q_rng).unwrap();
    let fresh = query_posterior(&surge_model, &[], 6, McOptions::default(), &mut q_rng).unwrap();
    println!(
        "\nExpected D under the surge: actual {d_surge:.3} s — stale model says {:.3} s, \
         reconstructed model says {:.3} s.",
        stale.mean(),
        fresh.mean()
    );
    println!(
        "Stale-model error {:.3} s vs fresh-model error {:.3} s: out-of-date information \
         \"lingers in the updated model and adversely impacts its accuracy\" (§2).",
        (stale.mean() - d_surge).abs(),
        (fresh.mean() - d_surge).abs()
    );
}
