//! The timeout-count metric of §3.3: the same KERT-BN machinery applied to
//! a different transaction-oriented metric, with `f` switching from
//! `+`/`max` composition to a plain sum (`D = Σ Xᵢ`).
//!
//! Per collection interval, each monitoring point counts its service's
//! sub-transactions that exceeded their deadline; the end-to-end counter is
//! their sum. The knowledge-enhanced model needs no learning at all for
//! the count CPD — and conditioning it answers questions like "if the
//! remote locator produces 5 timeouts this interval, how many end-to-end
//! timeouts should operations expect?".
//!
//! Run with: `cargo run --release --example timeout_counts`

use kert_bn::model::posterior::{query_posterior, McOptions};
use kert_bn::model::{DiscreteKertOptions, KertBn};
use kert_bn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();

    let means = [0.05, 0.05, 0.04, 0.20, 0.06, 0.12];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 2, mean: m }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.35 },
            warmup: 100,
        },
    )
    .unwrap();

    // Per-service deadlines: a bit above each mean, so timeouts are the
    // tail events operations care about.
    let deadlines = [0.08, 0.08, 0.07, 0.35, 0.10, 0.22];
    let mut rng = StdRng::seed_from_u64(31);
    let trace = system.run(6_000, &mut rng);
    let counts = trace.timeout_counts(&deadlines, 2.0);
    println!(
        "Aggregated {} requests into {} collection intervals of timeout counts.",
        trace.len(),
        counts.rows()
    );
    println!(
        "Count-metric reduction from the workflow: D = {} (counts add across services).\n",
        knowledge
            .count_expr
            .display_with(&|i| format!("T{}", i + 1))
    );

    // The identity D = Σ Tᵢ holds row by row — Eq. 4 with l = 0 again.
    for r in 0..counts.rows() {
        let row = counts.row(r);
        let sum: f64 = row[..6].iter().sum();
        assert_eq!(sum, row[6]);
    }
    println!("Verified D = Σ Tᵢ on every interval (the §3.3 mapping).");

    // Build the knowledge-enhanced count model (discrete — counts are
    // small integers).
    let count_expr = knowledge.count_expr.clone();
    let model = KertBn::build_discrete_metric(
        &knowledge,
        &count_expr,
        &counts,
        DiscreteKertOptions {
            bins: 6,
            ..Default::default()
        },
    )
    .expect("count model builds");
    println!(
        "Count KERT-BN built in {:?} with zero structure-learning cost.\n",
        model.report().total()
    );

    // Operations question: the remote locator (T4) reports a bad interval.
    let t4 = counts.column(3);
    let bad_t4 = kert_linalg::stats::quantile(&t4, 0.95);
    let mut q_rng = StdRng::seed_from_u64(12);
    let baseline = query_posterior(
        &model,
        &[],
        model.d_node(),
        McOptions::default(),
        &mut q_rng,
    )
    .unwrap();
    let degraded = query_posterior(
        &model,
        &[(3, bad_t4)],
        model.d_node(),
        McOptions::default(),
        &mut q_rng,
    )
    .unwrap();
    println!("Expected end-to-end timeout count per interval:");
    println!("  normal operation              : {:.2}", baseline.mean());
    println!(
        "  given T4 at its 95th percentile ({bad_t4:.0}): {:.2}",
        degraded.mean()
    );
    println!(
        "\nThe count posterior shifts by {:+.2} timeouts — the early-warning signal an \
         autonomic manager would alarm on.",
        degraded.mean() - baseline.mean()
    );
}
