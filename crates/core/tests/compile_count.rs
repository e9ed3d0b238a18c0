//! One junction-tree compile per model version. A control tick refreshes
//! the model from its window and then asks the violation sweep, dComp and
//! pAccel of it; the three share the tree the model compiles on first use,
//! and asking again before the next refresh compiles nothing.
//!
//! This is its own test binary because it reads the process-wide
//! `bayes.jt.compiles` counter: any other test compiling a tree in
//! parallel would move it.

use kert_bayes::learn::mle::ParamOptions;
use kert_core::posterior::McOptions;
use kert_core::{
    assess_violation_sweep, dcomp_all, paccel_candidates, DiscreteKertOptions, KertBn,
    StreamingWindow,
};
use kert_obs::ObsMode;
use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compiles() -> u64 {
    kert_obs::snapshot().counter("bayes.jt.compiles")
}

#[test]
fn a_control_tick_compiles_once_and_a_repeat_compiles_nothing() {
    let wf = ediamond_workflow();
    let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
    let stations = (0..6)
        .map(|i| {
            ServiceConfig::single(Dist::Erlang {
                k: 4,
                mean: 0.04 + 0.01 * i as f64,
            })
        })
        .collect();
    let mut sys = SimSystem::new(
        &wf,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 0.5 },
            warmup: 50,
        },
    )
    .unwrap();
    let data = sys.run(750, &mut StdRng::seed_from_u64(3)).to_dataset(None);
    let (train, stream) = data.split_at(600);
    let mut model =
        KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();
    let mut window = StreamingWindow::new(&model, 600, ParamOptions::default()).unwrap();
    window.extend(&train).unwrap();

    kert_obs::set_mode(ObsMode::Metrics);
    let mc = McOptions::default();
    let mut rng = StdRng::seed_from_u64(0);
    let mut ask = |model: &KertBn, row: &[f64]| {
        let evidence = [(0, row[0]), (1, row[1])];
        let observed = [(0, row[0]), (1, row[1]), (6, row[6])];
        assess_violation_sweep(model, &evidence, &[0.4, 0.6, 0.9], mc, &mut rng).unwrap();
        dcomp_all(model, &observed, &[2, 3, 4, 5], mc, &mut rng).unwrap();
        paccel_candidates(model, &[(3, 0.15), (5, 0.06)], mc, &mut rng).unwrap();
    };
    for tick in 0..3 {
        let before = compiles();
        for r in tick * 50..(tick + 1) * 50 {
            window.push_row(stream.row(r)).unwrap();
        }
        model.refresh_from_window(&mut window).unwrap();
        let row = stream.row(tick * 50 + 49);
        ask(&model, row);
        assert_eq!(compiles() - before, 1, "tick {tick}");
        let again = compiles();
        ask(&model, row);
        assert_eq!(
            compiles() - again,
            0,
            "tick {tick}: unchanged model recompiled"
        );
    }
}
