//! The autonomic loop under observation: faults injected, models healed,
//! every layer reporting telemetry.
//!
//! This example drives the whole paper pipeline — simulate the eDiaMoND
//! test bed, rebuild the model per window through a faulty monitoring
//! fleet (exercising all three fallback-ladder rungs: fresh, stale,
//! prior), then answer dComp and violation-sweep queries on a compiled
//! discrete model — with `kert-obs` instrumentation enabled throughout.
//! At the end it prints the Prometheus-style scrape snapshot and a
//! counter digest.
//!
//! Run with: `cargo run --release --example observed_autonomic`
//!
//! Set `KERT_OBS=jsonl` (optionally with `KERT_OBS_FILE=events.jsonl`) to
//! additionally stream every span and event as JSON lines, and
//! `KERT_OBS_PROM=snapshot.prom` to save the scrape snapshot — the
//! formats `kertctl telemetry --jsonl/--prom` validates.

use kert_bn::agents::runtime::CpdCache;
use kert_bn::model::{DiscreteKertOptions, KertBn, ResilientKertOptions, SharedKert};
use kert_bn::prelude::*;
use kert_bn::sim::monitor::agents_from_edges;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 6;

fn main() {
    // Honour KERT_OBS from the environment; default to counters/spans so a
    // bare `cargo run` still ends with a populated snapshot.
    if !kert_bn::obs::enabled() {
        kert_bn::obs::set_mode(kert_bn::obs::ObsMode::Metrics);
    }

    // --- Environment: eDiaMoND workflow, simulated fleet, trace windows.
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
            warmup: 100,
        },
    )
    .unwrap();
    let seed: u64 = std::env::var("KERT_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(11);
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = system.run(2 * 200, &mut rng);
    let windows = trace.windows(200);
    let agents = agents_from_edges(N, &knowledge.upstream_edges);

    // --- Fault plan chosen to walk every ladder rung by window 1:
    //   * agents 0..4 stay healthy            -> fresh fits;
    //   * agent 4 crashes at window 1         -> fresh, then stale (warm cache);
    //   * agent 5 is dead from the start      -> prior (cache never warms).
    let mut plans = vec![FaultPlan::healthy(); N];
    plans[4] = FaultPlan::crash_at(1);
    plans[5] = FaultPlan::crash_at(0);
    let injector = FaultInjector::new(seed, plans).unwrap();

    println!("== resilient rebuilds under injected faults ==");
    let mut cache = CpdCache::new(N);
    for window in 0..windows.len() {
        let mut fleet = FaultyFleet::new(&agents, &windows, &injector);
        let model = KertBn::build_continuous_resilient(
            &knowledge,
            &mut fleet,
            window,
            &mut cache,
            &ResilientKertOptions::default(),
        )
        .expect("resilient construction always yields a model");
        let health = model.health();
        let (fresh, stale, prior) = health.source_counts();
        println!(
            "window {window}: fresh {fresh}, stale {stale}, prior {prior} \
             (fresh fraction {:.2}, faults seen {})",
            health.fresh_fraction(),
            health.total_faults()
        );
    }

    // --- Compiled autonomic queries on a clean discrete model: batched
    // dComp over the unobservables and a violation sweep, all through one
    // session on the junction tree (watch the jt.* counters).
    let train = system.run(1200, &mut rng).to_dataset(None);
    let model = KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default())
        .expect("discrete model builds");
    let d_node = model.d_node();
    let engine = SharedKert::new(model).expect("discrete model compiles");
    let mut session = engine.session();

    let current = system.run(150, &mut rng).to_dataset(None);
    let observed: Vec<(usize, f64)> = [0usize, 1, 2, 6]
        .iter()
        .map(|&c| (c, kert_bn::linalg::stats::mean(&current.column(c))))
        .collect();
    let targets = [3usize, 4, 5];
    println!("\n== batched dComp over the unobservable services ==");
    for out in session.dcomp(&observed, &targets).unwrap() {
        println!(
            "X{}: prior mean {:.4} s -> posterior mean {:.4} s",
            out.target + 1,
            out.prior.mean(),
            out.posterior.mean()
        );
    }

    let thresholds = [0.4, 0.6, 0.8, 1.0, 1.2];
    // D itself cannot be evidence when sweeping P(D > h).
    let sweep_evidence: Vec<(usize, f64)> = observed
        .iter()
        .copied()
        .filter(|&(node, _)| node != d_node)
        .collect();
    let probs = session
        .violation_sweep(&sweep_evidence, &thresholds)
        .unwrap();
    println!("\n== violation sweep P(D > h | evidence) ==");
    for (h, p) in thresholds.iter().zip(&probs) {
        println!("h = {h:.1} s: {p:.4}");
    }

    // --- Telemetry out: Prometheus snapshot plus a digest of the counters
    // that tell this run's story.
    kert_bn::obs::flush();
    let snap = kert_bn::obs::snapshot();
    println!("\n== telemetry digest ==");
    for name in [
        "sim.trace.rows",
        "sim.faults.crashed",
        "agents.collect.fetches",
        "agents.collect.retries",
        "agents.ladder.fresh",
        "agents.ladder.stale",
        "agents.ladder.prior",
        "bayes.jt.compiles",
        "bayes.jt.marginals",
        "bayes.jt.messages.calibrate",
        "bayes.jt.messages.incremental",
        "bayes.factor.products",
        "bayes.ws.pool_hits",
    ] {
        println!("{name:<34} {}", snap.counter(name));
    }
    if let Some(h) = snap.histogram("jt.marginal") {
        println!(
            "jt.marginal span: {} samples, p50 ~{:.0} ns, max {} ns",
            h.count, h.p50_ns, h.max_ns
        );
    }

    println!("\n== prometheus snapshot ==");
    let prom = kert_bn::obs::prometheus_snapshot();
    print!("{prom}");
    if let Ok(path) = std::env::var("KERT_OBS_PROM") {
        std::fs::write(&path, &prom).expect("prometheus snapshot written");
        eprintln!("prometheus snapshot saved to {path}");
    }
}
