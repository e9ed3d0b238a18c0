//! Liveness of the differential gates: a seeded fault in a CPD must make
//! the oracle comparison fail. A harness that cannot catch a planted bug
//! proves nothing when it passes.

use std::collections::HashMap;

use kert_bayes::infer::ve;
use kert_conformance::{check_discrete_instance, perturb_tabular_cpd, EnumerationOracle};

/// Perturbing one CPT entry by 0.15 drives the fast path visibly away from
/// the clean network's oracle — far beyond the 1e-9 gate — while the same
/// gate stays clean on the unperturbed network.
#[test]
fn seeded_cpd_fault_fails_the_oracle_comparison() {
    let clean = kert_conformance::random_discrete_network(7);
    let evidence = HashMap::new();

    // Sanity: the clean network passes the full differential gate.
    let gap = check_discrete_instance(&clean, 0, &evidence, 1e-9)
        .unwrap_or_else(|e| panic!("clean network must pass: {e}"));
    assert!(gap <= 1e-9);

    // Seed the fault: node 0's prior CPT gets one entry bumped by 0.15.
    let bad = perturb_tabular_cpd(&clean, 0, 0.15).expect("node 0 is tabular");
    let oracle = EnumerationOracle::new(&clean).expect("discrete network");
    let exact = oracle
        .posterior_marginal(&clean, 0, &evidence)
        .expect("oracle runs");
    let fast = ve::posterior_marginal(&bad, 0, &evidence).expect("VE runs");
    let fault_gap = fast
        .iter()
        .zip(exact.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        fault_gap > 1e-2,
        "a 0.15 CPT perturbation must be visible; gap was {fault_gap:e}"
    );

    // And the fault propagates: a downstream node's posterior moves too,
    // so the differential sweep would catch the bug from any query angle
    // with a child of node 0.
    let child = (1..clean.len()).find(|&c| clean.cpd(c).parents().contains(&0));
    if let Some(child) = child {
        let exact_child = oracle
            .posterior_marginal(&clean, child, &evidence)
            .expect("oracle runs");
        let fast_child = ve::posterior_marginal(&bad, child, &evidence).expect("VE runs");
        let child_gap = fast_child
            .iter()
            .zip(exact_child.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(child_gap > 1e-9, "fault must propagate to children");
    }
}
