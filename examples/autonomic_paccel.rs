//! pAccel in action (§5.2 of the paper): where should the autonomic
//! manager spend its acceleration budget?
//!
//! The manager considers accelerating each of the six eDiaMoND services by
//! 20% and uses pAccel to project the end-to-end benefit of each action
//! *before* committing resources — then actually applies the best one in
//! the simulator and verifies the projection.
//!
//! Run with: `cargo run --release --example autonomic_paccel`

use kert_bn::model::posterior::McOptions;
use kert_bn::model::{paccel_candidates, DiscreteKertOptions};
use kert_bn::prelude::*;
use kert_bn::workflow::EDIAMOND_SERVICES;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();

    // Remote path dominant: accelerating the local path should be useless.
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

    let mut rng = StdRng::seed_from_u64(404);
    let train = system.run(1200, &mut rng).to_dataset(None);
    let model = KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default())
        .expect("model builds");

    // Project every candidate action: each service 20% faster.
    println!("pAccel projections for a 20% acceleration of each service:\n");
    println!(
        "  {:<24} {:>12} {:>16}",
        "service", "proj. Δmean", "Δ P(D > 0.8s)"
    );
    let mut q_rng = StdRng::seed_from_u64(17);
    let mut best: Option<(usize, f64)> = None;
    #[allow(clippy::needless_range_loop)] // s indexes train columns, names, and means alike
    for s in 0..6 {
        let mean_s = kert_linalg::stats::mean(&train.column(s));
        let outcome = paccel_candidates(
            &model,
            &[(s, 0.8 * mean_s)],
            McOptions::default(),
            &mut q_rng,
        )
        .expect("pAccel runs")
        .remove(0);
        let gain = outcome.mean_improvement();
        println!(
            "  {:<24} {:>10.4} s {:>16.3}",
            EDIAMOND_SERVICES[s],
            gain,
            outcome.violation_reduction(0.8)
        );
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((s, gain));
        }
    }
    let (winner, projected_gain) = best.expect("six candidates");
    println!(
        "\nBest candidate: {} (projected mean improvement {:.4} s)",
        EDIAMOND_SERVICES[winner], projected_gain
    );

    // Apply the action for real and verify.
    let d_before = kert_linalg::stats::mean(&train.column(model.d_node()));
    system
        .set_service_time(
            winner,
            Dist::Erlang {
                k: 4,
                mean: 0.8 * means[winner],
            },
        )
        .expect("service exists");
    let after = system.run(1200, &mut rng).to_dataset(None);
    let d_after = kert_linalg::stats::mean(&after.column(model.d_node()));
    println!(
        "Applied in the simulator: mean D {:.4} s → {:.4} s (actual gain {:.4} s).",
        d_before,
        d_after,
        d_before - d_after
    );
    println!(
        "Projection error: {:.4} s — pAccel ranked the action without touching production.",
        (projected_gain - (d_before - d_after)).abs()
    );
}
