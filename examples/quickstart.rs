//! Quickstart: build a KERT-BN for the paper's eDiaMoND scenario and ask
//! it the questions an autonomic manager would ask.
//!
//! Run with: `cargo run --release --example quickstart`

use kert_bn::model::posterior::{query_posterior, McOptions};
use kert_bn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // ── 1. Domain knowledge ────────────────────────────────────────────
    // The eDiaMoND mammogram-retrieval workflow (Figure 1 of the paper):
    // image_list → work_list → (locator+dai local ∥ locator+dai remote).
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new())
        .expect("the eDiaMoND workflow is valid");

    println!("Workflow-derived deterministic response-time function (Eq. 4):");
    println!(
        "  D = {}",
        knowledge
            .response_expr
            .display_with(&|i| kert_bn::workflow::EDIAMOND_SERVICES[i].to_string())
    );
    println!("Immediate-upstream edges: {:?}\n", knowledge.upstream_edges);

    // ── 2. Monitoring data ─────────────────────────────────────────────
    // A simulated deployment: each service is a queueing station; the
    // remote path is slower. 600 monitored requests.
    let means = [0.05, 0.05, 0.04, 0.25, 0.05, 0.12];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.6 },
            warmup: 100,
        },
    )
    .expect("valid configuration");
    let mut rng = StdRng::seed_from_u64(2026);
    let trace = system.run(700, &mut rng);
    let data = trace.to_dataset(None);
    let (train, test) = data.split_at(600);
    println!(
        "Collected {} training and {} test points from the monitoring agents.",
        train.rows(),
        test.rows()
    );

    // ── 3. Build the knowledge-enhanced model ──────────────────────────
    let model = KertBn::build_continuous(&knowledge, &train, ContinuousKertOptions::default())
        .expect("model builds");
    println!(
        "KERT-BN built in {:?} (structure {:?} — no structure learning; parameters {:?}).",
        model.report().total(),
        model.report().structure_time,
        model.report().parameter_time,
    );
    println!(
        "Data-fitting accuracy on held-out data: log10 p(test) = {:.1}\n",
        model.accuracy(&test).expect("finite")
    );

    // ── 4. Ask autonomic questions ─────────────────────────────────────
    // "What response time should we expect, and how likely is an SLA
    // breach at 1 second?"
    let mut q_rng = StdRng::seed_from_u64(1);
    let d_posterior = query_posterior(
        &model,
        &[],
        model.d_node(),
        McOptions::default(),
        &mut q_rng,
    )
    .expect("inference runs");
    println!(
        "Expected end-to-end response time: {:.3} s (sd {:.3})",
        d_posterior.mean(),
        d_posterior.std_dev()
    );
    println!(
        "P(response time > 1.0 s) = {:.3}",
        d_posterior.exceedance(1.0)
    );

    // "If the remote locator's elapsed time rises to 0.5 s, what happens
    // end-to-end?" (conditioning, the dComp/pAccel building block)
    let what_if = query_posterior(
        &model,
        &[(3, 0.5)],
        model.d_node(),
        McOptions::default(),
        &mut q_rng,
    )
    .expect("inference runs");
    println!(
        "Given image_locator_remote at 0.5 s: expected D = {:.3} s, P(D > 1.0) = {:.3}",
        what_if.mean(),
        what_if.exceedance(1.0)
    );
}
