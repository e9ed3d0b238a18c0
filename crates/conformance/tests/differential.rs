//! The differential conformance sweeps: every fast inference path against
//! the matching exact oracle over randomized instances.
//!
//! The master seed is taken from `KERT_CONF_SEED` (default 1) so CI can
//! fan the same suite out over several seeds without recompiling.

use kert_conformance::{
    check_degraded_compensation, check_nrt_tree, run_continuous_differential,
    run_discrete_differential,
};

fn conf_seed() -> u64 {
    std::env::var("KERT_CONF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Stride-kernel VE (three heuristics, plain and pruned), the naive
/// greedy reference, and the compiled junction tree all match the
/// joint-enumeration oracle to 1e-9 on random discrete networks.
#[test]
fn discrete_fast_paths_match_enumeration_oracle() {
    let report = run_discrete_differential(conf_seed(), 25).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.instances, 25);
    assert!(
        report.worst_gap <= 1e-9,
        "worst probability gap {:e}",
        report.worst_gap
    );
}

/// dComp, pAccel, and the Eq.-5 violation probability, through the
/// production entry points on continuous models (the Cholesky
/// joint-conditioning path), agree with the structural-equation Gaussian
/// oracle to ≤1e-9 relative error on 100 random exactly-solvable
/// instances; each instance's discrete companion also gates the compiled
/// junction tree (≤1e-9), through `dcomp_all`'s one-shot serve path,
/// against the enumeration oracle, and its `query_posterior` and
/// `shifted_posterior` against variable elimination.
#[test]
fn continuous_fast_paths_match_gaussian_oracle_on_100_instances() {
    let report = run_continuous_differential(conf_seed(), 100).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.instances, 100);
    assert!(
        report.worst_rel_err <= 1e-9,
        "worst posterior-mean relative error {:e}",
        report.worst_rel_err
    );
}

/// A discrete NRT-BN answers `query_posterior` and `shifted_posterior`
/// off its own junction tree within 1e-9 of variable elimination.
#[test]
fn nrt_tree_matches_variable_elimination() {
    let worst = check_nrt_tree(conf_seed()).unwrap_or_else(|e| panic!("{e}"));
    assert!(worst <= 1e-9, "worst probability gap {worst:e}");
}

/// Degraded-mode compensation (crashed agent, resilient rebuild) matches
/// the Gaussian oracle conditioned on the degraded network itself.
#[test]
fn degraded_compensation_matches_oracle() {
    let seed = conf_seed();
    for offset in 0..3u64 {
        check_degraded_compensation(seed.wrapping_mul(31).wrapping_add(offset))
            .unwrap_or_else(|e| panic!("seed offset {offset}: {e}"));
    }
}

/// Eq. 4 as a lookup on a tree that passes messages: the resource-aware
/// discrete KERT-BN of kert-core's
/// `resource_aware_model_has_resource_nodes_with_sharing_parents` (eDiaMoND,
/// two hosts). `D` (node 8) is in no clique; its parents, the six
/// services, form its home clique, and the two resource cliques hang off
/// it, so evidence on `D` travels as messages. Every marginal matches
/// variable elimination, which tabulates `D`, to 1e-12: with no pins, with
/// `D` pinned, and with `D` and a resource pinned.
#[test]
fn resource_aware_tree_keeps_d_out_of_every_clique() {
    use kert_bayes::compile::JunctionTree;
    use kert_bayes::infer::ve::{posterior_marginal, Evidence};
    use kert_core::{DiscreteKertOptions, KertBn};
    use kert_sim::{Dist, HostLayout, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let wf = ediamond_workflow();
    let layout = HostLayout::new(
        vec![
            ("db_host".into(), vec![4, 5]),
            ("web_host".into(), vec![0, 1]),
        ],
        6,
    )
    .unwrap();
    let knowledge = derive_structure(&wf, 6, &layout.to_resource_map()).unwrap();
    let stations = (0..6)
        .map(|_| ServiceConfig::single(Dist::Erlang { k: 4, mean: 0.05 }))
        .collect();
    let mut sys = SimSystem::with_hosts(
        &wf,
        stations,
        layout,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.3 },
            warmup: 50,
        },
    )
    .unwrap();
    let data = sys
        .run(500, &mut StdRng::seed_from_u64(50))
        .to_dataset(None);
    let model =
        KertBn::build_discrete_with_resources(&knowledge, &data, DiscreteKertOptions::default())
            .unwrap();
    let (bn, d) = (model.network(), model.d_node());
    assert_eq!(d, 8);

    let tree = JunctionTree::compile(bn).unwrap();
    let scopes: Vec<&[usize]> = (0..tree.n_cliques())
        .map(|i| tree.clique_scope(i))
        .collect();
    assert_eq!(
        scopes,
        [&[4, 5, 6][..], &[0, 1, 7], &[0, 1, 2, 3, 4, 5]],
        "D's parents form its home clique; the resource cliques hang off it"
    );
    assert_eq!(tree.width(), 5);

    let mut st = tree.new_state();
    for pins in [&[][..], &[(d, 2)], &[(6, 1), (d, 3)]] {
        tree.set_evidence(&mut st, pins).unwrap();
        let ev: Evidence = pins.iter().copied().collect();
        for target in (0..bn.len()).filter(|t| !ev.contains_key(t)) {
            let got = tree.marginal(&mut st, target).unwrap();
            let want = posterior_marginal(bn, target, &ev).unwrap();
            let gap = kert_conformance::max_abs_diff(&got, &want);
            assert!(
                gap <= 1e-12,
                "pins {pins:?}, target {target}: |Δ| = {gap:e}\n tree: {got:?}\n VE: {want:?}"
            );
        }
    }
}
