//! Telemetry overhead: the same hot paths timed with `kert-obs` disabled
//! and enabled, merged into `BENCH_perf.json` as the `obs_overhead`
//! section.
//!
//! Two representative workloads bracket the instrumentation cost:
//!
//! * `jt/calibrated_marginal` — the steady-state inference read, where a
//!   disabled probe must cost one relaxed load + branch (the committed
//!   baseline this run must stay within 2% of);
//! * `learning/decentralized_pool_40` — the per-window rebuild, whose
//!   spans and per-node histogram records sit outside the per-row math.
//!
//! The run finishes by committing a [`TelemetrySnapshot`] of the registry
//! (the metrics-mode benches just exercised every probe) as the
//! `telemetry` section, so the perf artifact carries the counters that
//! explain its numbers.

use kert_agents::health::ModelHealth;
use kert_agents::runtime::{
    decentralized_learn, publish_health_gauges, slice_local_datasets, LearnOptions,
};
use kert_bayes::compile::JunctionTree;
use kert_bayes::infer::ve::Evidence;
use kert_bayes::{Dag, Variable};
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_bench::timing::{bench, merge_bench_perf, BenchResult};
use kert_core::{DiscreteKertOptions, KertBn};
use kert_obs::ObsMode;
use serde::Value;
use std::hint::black_box;

/// `(disabled_ns, enabled_ns, overhead-as-fraction)` JSON object.
fn overhead_entry(disabled: &BenchResult, enabled: &BenchResult) -> Value {
    Value::Map(vec![
        ("disabled_ns".into(), Value::Num(disabled.median_ns)),
        ("enabled_ns".into(), Value::Num(enabled.median_ns)),
        (
            "overhead".into(),
            Value::Num(enabled.median_ns / disabled.median_ns - 1.0),
        ),
    ])
}

fn main() {
    println!("== telemetry overhead ==");

    // Steady-state junction-tree marginal on the discrete eDiaMoND model,
    // identical to the committed `jt_calibrated_marginal_ns` workload.
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(1200, 1, 1);
    let model =
        KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default()).unwrap();
    let bn = model.network();
    let d_node = model.d_node();
    let mut evidence = Evidence::new();
    evidence.insert(0, 2);
    evidence.insert(1, 2);
    evidence.insert(d_node, 4);
    let tree = JunctionTree::compile(bn).unwrap();
    let mut state = tree.new_state();
    let pins: Vec<(usize, usize)> = evidence.iter().map(|(&n, &s)| (n, s)).collect();
    tree.set_evidence(&mut state, &pins).unwrap();
    tree.marginal(&mut state, 3).unwrap(); // calibrate once

    // Decentralized rebuild at 40 services, identical to the committed
    // `decentralized_learn_ns` workload.
    let mut learn_env = Environment::random(40, ScenarioOptions::default(), 21);
    let (learn_train, _) = learn_env.datasets(1080, 1, 21 ^ 1);
    let service_data = learn_train.project(&(0..40).collect::<Vec<_>>()).unwrap();
    let mut dag = Dag::new(40);
    for &(a, b) in &learn_env.knowledge.upstream_edges {
        dag.add_edge(a, b).unwrap();
    }
    let variables: Vec<Variable> = (0..40)
        .map(|i| Variable::continuous(format!("X{}", i + 1)))
        .collect();
    let locals = slice_local_datasets(&dag, &service_data).unwrap();

    kert_obs::set_mode(ObsMode::Disabled);
    let jt_disabled = bench("jt_marginal/obs_disabled", || {
        tree.marginal(black_box(&mut state), 3).unwrap()
    });
    let learn_disabled = bench("decentralized_learn/obs_disabled", || {
        decentralized_learn(
            black_box(&variables),
            black_box(&locals),
            LearnOptions::default(),
        )
        .unwrap()
    });

    kert_obs::set_mode(ObsMode::Metrics);
    kert_obs::reset();
    let jt_enabled = bench("jt_marginal/obs_metrics", || {
        tree.marginal(black_box(&mut state), 3).unwrap()
    });
    let learn_enabled = bench("decentralized_learn/obs_metrics", || {
        decentralized_learn(
            black_box(&variables),
            black_box(&locals),
            LearnOptions::default(),
        )
        .unwrap()
    });
    // The metrics-mode learn just rebuilt all 40 CPDs from fresh fits, but
    // gauges are only published by the resilient rebuild path — surface the
    // equivalent all-fresh report here so the committed snapshot carries the
    // ModelHealth gauges, not an empty array.
    let health = ModelHealth::all_fresh(variables.len(), locals[0].data.rows());
    publish_health_gauges(&health);
    let snap = kert_obs::snapshot();
    kert_obs::set_mode(ObsMode::Disabled);

    println!(
        "jt marginal overhead: {:+.2}%, decentralized learn overhead: {:+.2}%",
        (jt_enabled.median_ns / jt_disabled.median_ns - 1.0) * 100.0,
        (learn_enabled.median_ns / learn_disabled.median_ns - 1.0) * 100.0,
    );

    merge_bench_perf(
        "obs_overhead",
        Value::Map(vec![
            (
                "jt_calibrated_marginal".into(),
                overhead_entry(&jt_disabled, &jt_enabled),
            ),
            (
                "decentralized_learn".into(),
                overhead_entry(&learn_disabled, &learn_enabled),
            ),
            (
                "note".into(),
                Value::Str(
                    "overhead = enabled/disabled - 1 on the same workload; the disabled \
                     numbers are the ones comparable to the inference/learning sections"
                        .into(),
                ),
            ),
        ]),
    );

    // Commit the registry the metrics-mode benches populated: every probe
    // on these two paths fired thousands of times, so the snapshot is a
    // census of the instrumentation, not noise.
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    let value = serde_json::value_from_str(&json).expect("snapshot JSON parses");
    merge_bench_perf("telemetry", value);
}
