//! Integration: the periodic reconstruction scheme tracks a changing
//! environment — the operational argument of the paper's §2.

use kert_bn::agents::{ModelSchedule, ReconstructionWindow};
use kert_bn::model::{DiscreteKertOptions, KertBn};
use kert_bn::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ediamond_system(x4_mean: f64) -> (WorkflowKnowledge, SimSystem) {
    let workflow = ediamond_workflow();
    let knowledge = derive_structure(&workflow, 6, &ResourceMap::new()).unwrap();
    let means = [0.05, 0.05, 0.04, x4_mean, 0.05, 0.10];
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.6 },
            warmup: 50,
        },
    )
    .unwrap();
    (knowledge, system)
}

#[test]
fn sliding_window_rebuilds_track_an_environment_change() {
    let (knowledge, mut system) = ediamond_system(0.30);
    let schedule = ModelSchedule {
        t_data: 10.0,
        alpha_model: 60,
        k: 2,
    };
    let names: Vec<String> = (0..6)
        .map(|i| format!("X{}", i + 1))
        .chain(std::iter::once("D".into()))
        .collect();
    let mut window = ReconstructionWindow::new(schedule, names).unwrap();
    let mut rng = StdRng::seed_from_u64(9);

    // Phase 1: two reconstruction cycles in the slow-remote regime.
    let mut models: Vec<KertBn> = Vec::new();
    for _ in 0..(2 * schedule.alpha_model) {
        let batch = system.run(1, &mut rng).to_dataset(None);
        if let Some(train) = window.push_interval(&batch).unwrap() {
            models.push(
                KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap(),
            );
        }
    }
    assert_eq!(models.len(), 2);
    let stale = models.pop().unwrap();

    // Phase 2: the remote site is upgraded (X4 twice as fast); the window
    // slides over the new regime for two more cycles.
    system
        .set_service_time(3, Dist::Erlang { k: 4, mean: 0.15 })
        .unwrap();
    let mut fresh = None;
    for _ in 0..(2 * schedule.alpha_model) {
        let batch = system.run(1, &mut rng).to_dataset(None);
        if let Some(train) = window.push_interval(&batch).unwrap() {
            fresh = Some(
                KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap(),
            );
        }
    }
    let fresh = fresh.expect("two more reconstructions happened");
    assert_eq!(window.rebuilds(), 4);

    // Score both on brand-new data from the current regime. Discrete
    // models with different bin edges are not comparable by likelihood
    // (different event spaces), so compare what the autonomic manager
    // consumes: the predicted mean response time against the actual one.
    let probe = system.run(150, &mut rng).to_dataset(None);
    let actual_d = kert_bn::linalg::stats::mean(&probe.column(6));
    let mut q_rng = StdRng::seed_from_u64(11);
    let predict = |m: &KertBn, rng: &mut StdRng| {
        kert_bn::model::posterior::query_posterior(
            m,
            &[],
            6,
            kert_bn::model::posterior::McOptions::default(),
            rng,
        )
        .unwrap()
        .mean()
    };
    let err_fresh = (predict(&fresh, &mut q_rng) - actual_d).abs();
    let err_stale = (predict(&stale, &mut q_rng) - actual_d).abs();
    assert!(
        err_fresh < err_stale,
        "fresh error {err_fresh} must beat stale error {err_stale} on current data \
         (actual D mean {actual_d})"
    );
}

#[test]
fn reconstruction_remains_feasible_at_the_schedule() {
    // Eq. 2's feasibility requirement: T_build ≤ T_CON. Trivially true on
    // modern hardware for KERT-BN — which is exactly the paper's point.
    let (knowledge, mut system) = ediamond_system(0.20);
    let schedule = ModelSchedule::simulation_section(12);
    let mut rng = StdRng::seed_from_u64(10);
    let train = system
        .run(schedule.points_per_window(), &mut rng)
        .to_dataset(None);
    let model = KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();
    assert!(schedule.is_feasible(model.report().total_secs()));
}
