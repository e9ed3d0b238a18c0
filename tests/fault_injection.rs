//! Integration: the fault-injection harness end to end through the
//! facade. Any seeded fault plan — up to every agent but one crashed —
//! yields a complete model with honest health metadata, bitwise
//! reproducibly, without panicking.
//!
//! `KERT_FAULT_SEED=n` re-runs the suite under a different seed (the CI
//! robustness job sweeps several).

use kert_bn::agents::runtime::{CpdCache, ResilientOptions};
use kert_bn::agents::{CpdSource, FaultyFleet, RetryPolicy};
use kert_bn::model::posterior::McOptions;
use kert_bn::model::{
    assess_violation_sweep, compensate_degraded, paccel_candidates, query_posterior,
    ResilientKertOptions,
};
use kert_bn::prelude::*;
use kert_bn::sim::monitor::agents_from_edges;
use kert_bn::sim::{FaultInjector, FaultPlan, MonitoringAgent};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 6;

fn seed() -> u64 {
    std::env::var("KERT_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The eDiaMoND test-bed: knowledge, monitoring fleet, and windowed traces.
fn environment(
    rows: usize,
    windows: usize,
    seed: u64,
) -> (WorkflowKnowledge, Vec<MonitoringAgent>, Vec<Trace>) {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, N, &ResourceMap::new()).unwrap();
    let stations: Vec<ServiceConfig> = [0.05, 0.05, 0.04, 0.30, 0.05, 0.12]
        .iter()
        .map(|&mean| ServiceConfig::single(Dist::Erlang { k: 4, mean }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.8 },
            warmup: 50,
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = system.run(rows * windows, &mut rng);
    let agents = agents_from_edges(N, &knowledge.upstream_edges);
    (knowledge, agents, trace.windows(rows))
}

fn resilient_build(
    knowledge: &WorkflowKnowledge,
    agents: &[MonitoringAgent],
    windows: &[Trace],
    injector: &FaultInjector,
    window: usize,
    cache: &mut CpdCache,
) -> KertBn {
    let mut fleet = FaultyFleet::new(agents, windows, injector);
    KertBn::build_continuous_resilient(
        knowledge,
        &mut fleet,
        window,
        cache,
        &ResilientKertOptions::default(),
    )
    .expect("resilient construction must always succeed")
}

#[test]
fn all_but_one_agent_crashed_still_yields_a_complete_model() {
    let (knowledge, agents, windows) = environment(120, 1, seed());
    let plans: Vec<FaultPlan> = (0..N)
        .map(|a| {
            if a == 0 {
                FaultPlan::healthy()
            } else {
                FaultPlan::crash_at(0)
            }
        })
        .collect();
    let injector = FaultInjector::new(seed(), plans).unwrap();
    let mut cache = CpdCache::new(N);
    let model = resilient_build(&knowledge, &agents, &windows, &injector, 0, &mut cache);

    // Complete network: all services plus the response node, every CPD set.
    assert_eq!(model.network().len(), N + 1);
    let eval = windows[0].to_dataset(None);
    assert!(model.accuracy(&eval).unwrap().is_finite());

    // Honest health: the one surviving node is fresh, the rest ran the
    // ladder down to the prior (cold cache), and the model says so.
    let health = model.health();
    assert_eq!(health.nodes[0].source, CpdSource::Fresh);
    for h in &health.nodes[1..] {
        assert_eq!(h.source, CpdSource::Prior);
        assert!(h
            .faults
            .iter()
            .any(|f| matches!(f, kert_bn::sim::FaultEvent::Crashed)));
    }
    assert!(model.is_degraded());
    assert_eq!(model.degraded_services(), (1..N).collect::<Vec<_>>());

    // The autonomic surfaces carry the degradation flag.
    let mc = McOptions::default();
    let mut rng = StdRng::seed_from_u64(seed());
    let assessment = assess_violation_sweep(&model, &[], &[1.0], mc, &mut rng)
        .unwrap()
        .remove(0);
    assert!(assessment.degraded);
    assert_eq!(assessment.degraded_services, (1..N).collect::<Vec<_>>());
    assert!(assessment.probability.is_finite());
    let pa = paccel_candidates(&model, &[(0, 0.01)], mc, &mut rng)
        .unwrap()
        .remove(0);
    assert!(pa.degraded);
}

#[test]
fn crashed_node_estimates_are_compensated_from_healthy_observables() {
    let (knowledge, agents, windows) = environment(200, 2, seed());
    // Bootstrap a warm cache from a healthy window, then crash agent 3.
    let healthy = FaultInjector::healthy(N);
    let mut cache = CpdCache::new(N);
    resilient_build(&knowledge, &agents, &windows, &healthy, 0, &mut cache);

    let mut plans = vec![FaultPlan::healthy(); N];
    plans[3] = FaultPlan::crash_at(0);
    let injector = FaultInjector::new(seed(), plans).unwrap();
    let model = resilient_build(&knowledge, &agents, &windows, &injector, 1, &mut cache);
    assert_eq!(model.degraded_services(), vec![3]);

    let eval = windows[1].to_dataset(None);
    let observed: Vec<(usize, f64)> = (0..=N)
        .filter(|&c| c != 3)
        .map(|c| {
            let col = eval.column(c);
            (c, col.iter().sum::<f64>() / col.len() as f64)
        })
        .collect();
    let mc = McOptions::default();
    let mut rng = StdRng::seed_from_u64(seed() ^ 0xd0);
    let comps = compensate_degraded(&model, &observed, mc, &mut rng).unwrap();
    assert_eq!(comps.len(), 1);
    assert_eq!(comps[0].service, 3);
    assert!(matches!(comps[0].source, CpdSource::Stale { .. }));

    // The compensated estimate must land closer to the actual mean than
    // the degraded model's own marginal.
    let actual = {
        let col = eval.column(3);
        col.iter().sum::<f64>() / col.len() as f64
    };
    let marginal = query_posterior(&model, &[], 3, mc, &mut rng)
        .unwrap()
        .mean();
    assert!(
        (comps[0].estimate() - actual).abs() <= (marginal - actual).abs(),
        "dComp {} vs marginal {} (actual {actual})",
        comps[0].estimate(),
        marginal
    );
}

#[test]
fn resilient_builds_are_bitwise_deterministic() {
    let (knowledge, agents, windows) = environment(100, 2, seed());
    let plans = vec![
        FaultPlan {
            drop_prob: 0.6,
            corrupt_prob: 0.4,
            truncate_prob: 0.3,
            truncate_keep: 0.5,
            delay_prob: 0.3,
            delay_windows: 2,
            ..FaultPlan::healthy()
        };
        N
    ];
    let injector = FaultInjector::new(seed(), plans).unwrap();
    let build_twice = || {
        let mut cache = CpdCache::new(N);
        let m0 = resilient_build(&knowledge, &agents, &windows, &injector, 0, &mut cache);
        let m1 = resilient_build(&knowledge, &agents, &windows, &injector, 1, &mut cache);
        (
            serde_json::to_string(m0.network()).unwrap(),
            serde_json::to_string(m1.network()).unwrap(),
            m0.health().clone(),
            m1.health().clone(),
        )
    };
    let a = build_twice();
    let b = build_twice();
    assert_eq!(a.0, b.0, "window-0 networks must match bitwise");
    assert_eq!(a.1, b.1, "window-1 networks must match bitwise");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}

#[test]
fn seeded_sweep_never_panics_and_always_returns_a_model() {
    let (knowledge, agents, windows) = environment(60, 2, seed());
    let mut cache = CpdCache::new(N);
    for (i, &rate) in [0.0, 0.3, 0.6, 0.9, 1.0].iter().enumerate() {
        let plans: Vec<FaultPlan> = (0..N)
            .map(|a| {
                if a % 3 == 2 && rate > 0.5 {
                    FaultPlan::crash_at(i)
                } else {
                    FaultPlan {
                        drop_prob: rate,
                        corrupt_prob: rate,
                        truncate_prob: rate,
                        truncate_keep: 0.25,
                        delay_prob: rate,
                        delay_windows: 1 + i,
                        ..FaultPlan::healthy()
                    }
                }
            })
            .collect();
        let injector = FaultInjector::new(seed().wrapping_add(i as u64), plans).unwrap();
        for w in 0..windows.len() {
            let model = resilient_build(&knowledge, &agents, &windows, &injector, w, &mut cache);
            assert_eq!(model.network().len(), N + 1);
            assert_eq!(model.health().nodes.len(), N);
            // Health accounting is exhaustive: every node is classified.
            let (fresh, stale, prior) = model.health().source_counts();
            assert_eq!(fresh + stale + prior, N);
        }
    }
    // A retry policy with zero patience must also terminate cleanly.
    let strict = ResilientOptions {
        retry: RetryPolicy {
            max_retries: 0,
            patience_windows: 0,
        },
        ..Default::default()
    };
    let injector = FaultInjector::new(
        seed(),
        vec![
            FaultPlan {
                delay_prob: 1.0,
                delay_windows: 1,
                ..FaultPlan::healthy()
            };
            N
        ],
    )
    .unwrap();
    let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
    let model = KertBn::build_continuous_resilient(
        &knowledge,
        &mut fleet,
        0,
        &mut CpdCache::new(N),
        &ResilientKertOptions {
            resilient: strict,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(model.is_degraded());
}
