//! The differential runner: every fast inference path against the
//! matching oracle, driven through the same public entry points the
//! autonomic loop uses.
//!
//! * Discrete: stride-kernel VE (plain and pruned, all three ordering
//!   heuristics), the naive greedy VE, and the compiled junction tree
//!   against the joint-enumeration oracle at `1e-9`.
//! * Continuous: the Cholesky joint-conditioning path (both the automatic
//!   dispatch and the pinned engine) and the dComp/pAccel/Eq.-5 entry
//!   points against the closed-form [`GaussianOracle`] at ≤1e-9 relative
//!   error on posterior means.
//! * Degraded mode: a resilient rebuild with a crashed agent, its
//!   compensation posteriors checked against the Gaussian oracle built on
//!   the *degraded* network itself.
//! * Liveness: [`perturb_tabular_cpd`] plants a seeded fault so tests can
//!   prove the comparison actually fails when a distribution is wrong.

use std::collections::HashMap;

use kert_agents::{CpdCache, FaultyFleet};
use kert_bayes::cpd::{Cpd, TabularCpd};
use kert_bayes::infer::ve::{self, EliminationHeuristic};
use kert_bayes::BayesianNetwork;
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_core::posterior::McOptions;
use kert_core::{
    compensate_degraded, dcomp_all, dcomp_via, paccel_via, violation_probability_via,
    ContinuousKertOptions, Engine, KertBn, Posterior, ResilientKertOptions,
};
use kert_sim::monitor::agents_from_edges;
use kert_sim::{FaultInjector, FaultPlan};
use kert_workflow::GenOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::enumeration::EnumerationOracle;
use crate::gaussian::GaussianOracle;
use crate::gen;
use crate::tolerance::{max_abs_diff, rel_err};

/// Every deterministic discrete fast path, labeled for failure reports.
fn discrete_fast_paths(
    network: &BayesianNetwork,
    target: usize,
    evidence: &HashMap<usize, usize>,
) -> Result<Vec<(&'static str, Vec<f64>)>, String> {
    let heuristics = [
        ("min-fill", EliminationHeuristic::MinFill),
        ("min-degree", EliminationHeuristic::MinDegree),
        ("sequential", EliminationHeuristic::Sequential),
    ];
    let mut out = Vec::new();
    for (name, h) in heuristics {
        out.push((
            name,
            ve::posterior_marginal_with(network, target, evidence, h)
                .map_err(|e| format!("ve/{name}: {e}"))?,
        ));
    }
    for (name, h) in heuristics {
        let label: &'static str = match name {
            "min-fill" => "pruned/min-fill",
            "min-degree" => "pruned/min-degree",
            _ => "pruned/sequential",
        };
        out.push((
            label,
            ve::posterior_marginal_pruned_with(network, target, evidence, h)
                .map_err(|e| format!("{label}: {e}"))?,
        ));
    }
    out.push((
        "naive",
        ve::naive::posterior_marginal(network, target, evidence)
            .map_err(|e| format!("naive: {e}"))?,
    ));
    out.push(("junction-tree", {
        let tree = kert_bayes::compile::JunctionTree::compile(network)
            .map_err(|e| format!("junction-tree: {e}"))?;
        let mut state = tree.new_state();
        let pins: Vec<(usize, usize)> = evidence.iter().map(|(&n, &s)| (n, s)).collect();
        tree.set_evidence(&mut state, &pins)
            .map_err(|e| format!("junction-tree: {e}"))?;
        tree.marginal(&mut state, target)
            .map_err(|e| format!("junction-tree: {e}"))?
    }));
    Ok(out)
}

/// Check one discrete query: every deterministic fast path must match the
/// enumeration oracle within `tol` (largest absolute probability gap).
/// Returns the worst gap observed across paths.
pub fn check_discrete_instance(
    network: &BayesianNetwork,
    target: usize,
    evidence: &HashMap<usize, usize>,
    tol: f64,
) -> Result<f64, String> {
    let oracle = EnumerationOracle::new(network)?;
    let exact = oracle.posterior_marginal(network, target, evidence)?;
    let mut worst = 0.0_f64;
    for (label, probs) in discrete_fast_paths(network, target, evidence)? {
        if probs.len() != exact.len() {
            return Err(format!(
                "{label}: {} states vs oracle's {}",
                probs.len(),
                exact.len()
            ));
        }
        let gap = max_abs_diff(&probs, &exact);
        if gap > tol {
            return Err(format!(
                "{label} disagrees with enumeration oracle: max |Δ| = {gap:e} > {tol:e}\n \
                 fast: {probs:?}\n exact: {exact:?}"
            ));
        }
        worst = worst.max(gap);
    }
    Ok(worst)
}

/// Summary of a discrete differential sweep.
#[derive(Debug, Clone, Copy)]
pub struct DiscreteReport {
    /// Random instances checked.
    pub instances: usize,
    /// Worst deterministic-path probability gap observed.
    pub worst_gap: f64,
}

/// Sweep `instances` random discrete networks/queries from `seed`.
pub fn run_discrete_differential(seed: u64, instances: usize) -> Result<DiscreteReport, String> {
    let mut worst = 0.0_f64;
    for i in 0..instances {
        let inst_seed = seed.wrapping_mul(10_007).wrapping_add(i as u64);
        let network = gen::random_discrete_network(inst_seed);
        let (target, evidence) = gen::random_discrete_query(&network, inst_seed);
        let gap = check_discrete_instance(&network, target, &evidence, 1e-9)
            .map_err(|e| format!("instance {i} (seed {inst_seed}): {e}"))?;
        worst = worst.max(gap);
    }
    Ok(DiscreteReport {
        instances,
        worst_gap: worst,
    })
}

/// Summary of a continuous differential sweep.
#[derive(Debug, Clone, Copy)]
pub struct ContinuousReport {
    /// Random instances checked.
    pub instances: usize,
    /// Worst relative error of any fast-path posterior mean vs the oracle.
    pub worst_rel_err: f64,
}

fn gaussian_moments(p: &Posterior) -> Result<(f64, f64), String> {
    match p {
        Posterior::Gaussian { mean, variance } => Ok((*mean, *variance)),
        other => Err(format!("expected a Gaussian posterior, got {other:?}")),
    }
}

fn check_moments(
    label: &str,
    fast: (f64, f64),
    exact: (f64, f64),
    worst: &mut f64,
) -> Result<(), String> {
    let mean_err = rel_err(fast.0, exact.0);
    if mean_err > 1e-9 {
        return Err(format!(
            "{label}: posterior mean {:.12e} vs oracle {:.12e} (rel err {mean_err:e})",
            fast.0, exact.0
        ));
    }
    // Variances sit near the σ² floor, so gate them with the mixed
    // absolute/relative `close` semantics instead of pure relative error.
    if !crate::tolerance::close(fast.1, exact.1, 1e-9) {
        return Err(format!(
            "{label}: posterior variance {:.12e} vs oracle {:.12e}",
            fast.1, exact.1
        ));
    }
    *worst = worst.max(mean_err);
    Ok(())
}

/// Sweep `instances` exactly-solvable KERT instances from `seed`. For each:
///
/// * dComp posteriors (prior + conditioned) through the pinned
///   Gaussian-conditioning engine *and* the automatic dispatch, vs the
///   structural-equation oracle, at ≤1e-9 relative error on means;
/// * pAccel projections and the Eq.-5 violation probability likewise;
/// * the compiled junction tree on the discrete companion model against
///   the enumeration oracle at ≤1e-9 absolute probability gap.
pub fn run_continuous_differential(
    seed: u64,
    instances: usize,
) -> Result<ContinuousReport, String> {
    let mut worst = 0.0_f64;
    for i in 0..instances {
        let inst_seed = seed.wrapping_mul(7_919).wrapping_add(i as u64);
        let inst = gen::random_linear_instance(inst_seed);
        let network = inst.continuous.network();
        let d_node = inst.continuous.d_node();
        let oracle = GaussianOracle::from_network(network)
            .map_err(|e| format!("instance {i} (seed {inst_seed}): oracle: {e}"))?;
        let mut rng = StdRng::seed_from_u64(inst_seed ^ 0xdead);
        let mc = McOptions::default();

        // dComp: hide service 0, observe every other column of the probe.
        let target = 0usize;
        let observed: Vec<(usize, f64)> = (0..=inst.n_services)
            .filter(|&c| c != target)
            .map(|c| (c, inst.probe[c]))
            .collect();
        let (exact_prior, exact_post) = oracle
            .dcomp(&observed, target)
            .map_err(|e| format!("instance {i}: {e}"))?;
        for engine in [Engine::GaussianConditioning, Engine::Auto] {
            let label = format!("instance {i} dComp via {engine:?}");
            let outcome = dcomp_via(network, None, &observed, target, engine, mc, &mut rng)
                .map_err(|e| format!("{label}: {e}"))?;
            check_moments(
                &label,
                gaussian_moments(&outcome.prior)?,
                exact_prior,
                &mut worst,
            )?;
            check_moments(
                &label,
                gaussian_moments(&outcome.posterior)?,
                exact_post,
                &mut worst,
            )?;
        }

        // pAccel: accelerate the slowest service to 85% of its probe value.
        let service = 1usize.min(inst.n_services - 1);
        let predicted = 0.85 * inst.probe[service].max(1e-6);
        let (exact_prior_d, exact_proj_d) = oracle
            .paccel(d_node, service, predicted)
            .map_err(|e| format!("instance {i}: {e}"))?;
        let label = format!("instance {i} pAccel");
        let outcome = paccel_via(
            network,
            None,
            d_node,
            service,
            predicted,
            Engine::GaussianConditioning,
            mc,
            &mut rng,
        )
        .map_err(|e| format!("{label}: {e}"))?;
        check_moments(
            &label,
            gaussian_moments(&outcome.prior_d)?,
            exact_prior_d,
            &mut worst,
        )?;
        check_moments(
            &label,
            gaussian_moments(&outcome.projected_d)?,
            exact_proj_d,
            &mut worst,
        )?;

        // Eq. 5: violation probability at the prior mean of D.
        let threshold = exact_prior_d.0;
        let fast_p = violation_probability_via(
            network,
            None,
            &[(service, predicted)],
            d_node,
            threshold,
            Engine::GaussianConditioning,
            mc,
            &mut rng,
        )
        .map_err(|e| format!("instance {i} violation: {e}"))?;
        let exact_p = oracle
            .violation_probability(&[(service, predicted)], d_node, threshold)
            .map_err(|e| format!("instance {i}: {e}"))?;
        // erfc vs the oracle's cdf share the same approximation; the gate
        // here is the conditioning that feeds them.
        if rel_err(fast_p, exact_p) > 1e-9 {
            return Err(format!(
                "instance {i} violation probability {fast_p:e} vs oracle {exact_p:e}"
            ));
        }
        worst = worst.max(rel_err(fast_p, exact_p));

        // The discrete companion, against the enumeration oracle.
        let disc_net = inst.discrete.network();
        let disc = inst
            .discrete
            .discretizer()
            .expect("discrete models carry a discretizer");
        let mut ev = ve::Evidence::new();
        for &(node, value) in &observed {
            ev.insert(node, disc.column(node).state(value));
        }
        let enum_oracle = EnumerationOracle::new(disc_net)?;
        let exact_probs = enum_oracle
            .posterior_marginal(disc_net, target, &ev)
            .map_err(|e| format!("instance {i} discrete oracle: {e}"))?;

        // The compiled junction tree is exact — gate it at 1e-9 against
        // the enumeration oracle through the production one-shot path:
        // `dcomp_all` compiles a fresh tree and runs the serve verb on it.
        let jt = dcomp_all(&inst.discrete, &observed, &[target], mc, &mut rng)
            .map_err(|e| format!("instance {i} junction-tree: {e}"))?;
        let Posterior::Discrete {
            probs: jt_probs, ..
        } = &jt[0].posterior
        else {
            return Err(format!(
                "instance {i}: junction tree returned a non-discrete posterior"
            ));
        };
        let jt_gap = max_abs_diff(jt_probs, &exact_probs);
        if jt_gap > 1e-9 {
            return Err(format!(
                "instance {i} (seed {inst_seed}) junction tree disagrees with \
                 enumeration oracle: max |Δ| = {jt_gap:e} > 1e-9"
            ));
        }
        worst = worst.max(jt_gap);
    }
    Ok(ContinuousReport {
        instances,
        worst_rel_err: worst,
    })
}

/// Degraded-mode conformance: bootstrap a sequential environment, crash
/// one agent, rebuild resiliently, then check the compensation posterior
/// for the crashed service against the Gaussian oracle built on the
/// degraded network itself.
pub fn check_degraded_compensation(seed: u64) -> Result<(), String> {
    const N: usize = 4;
    const WINDOW: usize = 120;
    const CRASHED: usize = 1;

    let options = ScenarioOptions {
        gen: GenOptions::sequential_only(),
        ..ScenarioOptions::default()
    };
    let mut env = Environment::random(N, options, seed);
    let mut sim_rng = StdRng::seed_from_u64(seed ^ 0xfade);
    let boot_trace = env.system.run(WINDOW, &mut sim_rng);

    let boot = KertBn::build_continuous(
        &env.knowledge,
        &boot_trace.to_dataset(None),
        ContinuousKertOptions::default(),
    )
    .map_err(|e| format!("bootstrap build: {e}"))?;
    let resilient_options = ResilientKertOptions {
        noise_sigma: boot.noise_sigma().unwrap_or(1e-3),
        ..Default::default()
    };
    let agents = agents_from_edges(N, &env.knowledge.upstream_edges);
    let mut cache = CpdCache::new(N);
    let boot_windows = boot_trace.windows(WINDOW);
    let healthy = FaultInjector::healthy(N);
    let mut boot_fleet = FaultyFleet::new(&agents, &boot_windows, &healthy);
    let seeded = KertBn::build_continuous_resilient(
        &env.knowledge,
        &mut boot_fleet,
        0,
        &mut cache,
        &resilient_options,
    )
    .map_err(|e| format!("healthy resilient bootstrap: {e}"))?;
    if seeded.is_degraded() {
        return Err("bootstrap must be all-fresh".into());
    }

    // Crash one agent and rebuild on a fresh window.
    let crash_trace = env.system.run(WINDOW, &mut sim_rng);
    let plans: Vec<FaultPlan> = (0..N)
        .map(|a| {
            if a == CRASHED {
                FaultPlan::crash_at(0)
            } else {
                FaultPlan::healthy()
            }
        })
        .collect();
    let injector = FaultInjector::new(seed ^ 0xfa17, plans).map_err(|e| format!("plans: {e}"))?;
    let crash_windows = crash_trace.windows(WINDOW);
    let mut fleet = FaultyFleet::new(&agents, &crash_windows, &injector);
    let model = KertBn::build_continuous_resilient(
        &env.knowledge,
        &mut fleet,
        0,
        &mut cache,
        &resilient_options,
    )
    .map_err(|e| format!("degraded rebuild: {e}"))?;
    if !model.degraded_services().contains(&CRASHED) {
        return Err(format!(
            "service {CRASHED} should be degraded, health: {:?}",
            model.degraded_services()
        ));
    }

    // The compensation posterior must equal the oracle's conditioning of
    // the degraded network on the same healthy evidence.
    let eval = env.system.run(200, &mut sim_rng).to_dataset(None);
    let observed: Vec<(usize, f64)> = (0..=N)
        .filter(|&c| c != CRASHED)
        .map(|c| (c, kert_linalg::stats::mean(&eval.column(c))))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let comps = compensate_degraded(&model, &observed, McOptions::default(), &mut rng)
        .map_err(|e| format!("compensation: {e}"))?;
    let comp = comps
        .iter()
        .find(|c| c.service == CRASHED)
        .ok_or("no compensation entry for the crashed service")?;
    let oracle = GaussianOracle::from_network(model.network())?;
    let (exact_prior, exact_post) = oracle.dcomp(&observed, CRASHED)?;
    let mut worst = 0.0;
    check_moments(
        "degraded prior",
        gaussian_moments(&comp.outcome.prior)?,
        exact_prior,
        &mut worst,
    )?;
    check_moments(
        "degraded posterior",
        gaussian_moments(&comp.outcome.posterior)?,
        exact_post,
        &mut worst,
    )?;
    Ok(())
}

/// Return a copy of `network` with one entry of `node`'s CPT perturbed by
/// `delta` (renormalized over its parent-configuration row) — the seeded
/// fault used to prove the differential gate is live. `node` must carry a
/// tabular CPD.
pub fn perturb_tabular_cpd(
    network: &BayesianNetwork,
    node: usize,
    delta: f64,
) -> Result<BayesianNetwork, String> {
    let Cpd::Tabular(t) = network.cpd(node) else {
        return Err(format!("node {node} does not carry a tabular CPD"));
    };
    let card = t.cardinality();
    let mut table = t.table().to_vec();
    table[0] += delta;
    let row_sum: f64 = table[..card].iter().sum();
    for v in &mut table[..card] {
        *v /= row_sum;
    }
    let perturbed = TabularCpd::new(
        node,
        t.parents().to_vec(),
        card,
        t.parent_cards().to_vec(),
        table,
    )
    .map_err(|e| format!("perturbed table: {e}"))?;
    let cpds: Vec<Cpd> = network
        .cpds()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if i == node {
                Cpd::Tabular(perturbed.clone())
            } else {
                c.clone()
            }
        })
        .collect();
    BayesianNetwork::new(network.variables().to_vec(), network.dag().clone(), cpds)
        .map_err(|e| format!("rebuild: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_discrete_sweep_is_clean() {
        let report = run_discrete_differential(42, 4).unwrap();
        assert_eq!(report.instances, 4);
        assert!(report.worst_gap <= 1e-9);
    }

    #[test]
    fn perturbation_changes_the_distribution() {
        let net = gen::random_discrete_network(3);
        let bad = perturb_tabular_cpd(&net, 0, 0.2).unwrap();
        let Cpd::Tabular(a) = net.cpd(0) else {
            unreachable!()
        };
        let Cpd::Tabular(b) = bad.cpd(0) else {
            unreachable!()
        };
        assert!(max_abs_diff(a.table(), b.table()) > 0.01);
        let sum: f64 = b.table()[..b.cardinality()].iter().sum();
        crate::assert_close!(sum, 1.0);
    }
}
