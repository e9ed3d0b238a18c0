//! Serving-daemon benchmarks, merged into `BENCH_perf.json` as the
//! `serving` section.
//!
//! Four measurements:
//!
//! 1. **Coalesced vs sequential 10-way dComp (the headline gate)** — a
//!    real TCP daemon under a hot-query load: 10 concurrent clients all
//!    asking for the same single-target dComp (the dashboard-fan-out
//!    case). With folding off (`max_batch: 1`), every request pays its
//!    own prior + posterior propagation; with it on, a worker folds the
//!    requests queued behind the one it is computing into one group,
//!    dedups the identical work item, computes it once and fans the
//!    answer out. Responses are bitwise identical either way
//!    (conformance-gated). The acceptance gates are ≥5× simulated and
//!    ≥1.5× wall clock.
//! 2. **Shared-evidence fold** — engine-side: 10 *distinct* targets
//!    sharing one evidence set, answered one-by-one vs as one group
//!    (evidence propagated once). Smaller win: on KERT models the D
//!    clique spans every service, so a marginal read costs a comparable
//!    table sweep to a propagation.
//! 3. **End-to-end daemon throughput** — 8 client threads firing mixed
//!    posterior queries; requests/second plus client-observed p50/p99.
//! 4. **Wire overhead** — one in-process engine call vs the same query
//!    through connect/frame/serve/parse.

use std::time::{Duration, Instant};

use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_bench::timing::{bench, format_ns, merge_bench_perf, quick_mode};
use kert_core::serve::SharedKert;
use kert_core::{DiscreteKertOptions, KertBn, Posterior};
use kertd::protocol::{Request, Response, WireDcomp};
use kertd::server::{serve, ServeConfig};
use kertd::Client;
use serde::Value;
use std::hint::black_box;

fn build_model() -> KertBn {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(1200, 1, 1);
    KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default()).unwrap()
}

fn dbits(p: &Posterior) -> Vec<u64> {
    match p {
        Posterior::Discrete { probs, .. } => probs.iter().map(|v| v.to_bits()).collect(),
        other => panic!("expected discrete posterior, got {other:?}"),
    }
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank] as f64
}

/// Wall-clock for `clients` threads each sending `request` to `addr`
/// `rounds` times over one connection. A barrier re-synchronizes the
/// threads before every round so each round really is a `clients`-way
/// concurrent burst (the load the gate is defined over), not a drifted
/// trickle.
fn hot_query_wall(
    addr: std::net::SocketAddr,
    request: &Request,
    clients: usize,
    rounds: usize,
) -> Duration {
    let barrier = std::sync::Barrier::new(clients);
    std::thread::scope(|s| {
        let conns: Vec<Client> = (0..clients)
            .map(|_| Client::connect_retry(addr, Duration::from_secs(5)).unwrap())
            .collect();
        let started = Instant::now();
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut client| {
                let request = request.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    for _ in 0..rounds {
                        barrier.wait();
                        let resp = client.request(&request).unwrap();
                        assert!(
                            matches!(resp, Response::Dcomp { .. }),
                            "hot-query load got {resp:?}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        started.elapsed()
    })
}

fn main() {
    println!("== kertd serving benchmarks ==");
    let shared = SharedKert::new(build_model()).unwrap();
    let evidence = vec![(0usize, 0.05), (1, 0.06)];

    // --- 1. Hot-query coalescing gate: 10-way concurrent dComp -----------
    // The load: 10 concurrent clients all asking for the same dComp (the
    // natural one — decompose D over every unobserved service, what a
    // dashboard or autonomic controller asks after each control period).
    //
    // The *simulated* speedup is compute-only and host-independent.
    // It times the worker's two actual code paths — uncoalesced, each of
    // the 10 requests pays its own full dComp; coalesced, the batch
    // dedups the identical work item, computes it once, and fans the
    // serialized answer out to all 10 — without the scheduler/socket
    // wakeup noise of the TCP path, which is reported separately below
    // as the end-to-end wall-clock number.
    let clients = 10usize;
    let hot_targets: Vec<usize> = vec![2, 3, 4, 5];
    let hot_request = Request::Dcomp {
        observed: evidence.clone(),
        targets: hot_targets.clone(),
    };

    let per_request = bench("hot_dcomp_10way/uncoalesced_per_request", || {
        let mut session = shared.session();
        black_box(session.dcomp(black_box(&evidence), &hot_targets).unwrap());
    });
    let batch_of_10 = bench("hot_dcomp_10way/coalesced_batch", || {
        // What answer_group does for 10 identical folded requests:
        // dedup leaves one work item, computed once...
        let mut session = shared.session();
        let outcomes = session.dcomp(black_box(&evidence), &hot_targets).unwrap();
        // ...then the answer is converted and fanned out per requester.
        let wires: Vec<WireDcomp> = outcomes
            .iter()
            .map(|o| WireDcomp::from_outcome(o).unwrap())
            .collect();
        let responses: Vec<Response> = (0..clients)
            .map(|_| Response::Dcomp {
                outcomes: wires.clone(),
            })
            .collect();
        black_box(responses);
    });
    let simulated_speedup = clients as f64 * per_request.median_ns / batch_of_10.median_ns;
    println!("hot-query 10-way dComp simulated speedup: {simulated_speedup:.2}×");
    // The ≥5× figure is the acceptance gate recorded for the driver; fail
    // loudly here if it regresses. (Quick mode's tiny sample counts are
    // too noisy to gate on.)
    assert!(
        simulated_speedup >= 5.0 || quick_mode(),
        "10-way coalesced dComp simulated speedup fell to {simulated_speedup:.2}× (gate: ≥5×)"
    );

    // The same load end-to-end over TCP, single worker both times so the
    // comparison isolates coalescing from thread-level parallelism. The
    // worker never waits for a batch: each burst's first request runs
    // alone, and the other nine fold in behind it.
    let rounds = if quick_mode() { 10usize } else { 60 };
    let trials = if quick_mode() { 2usize } else { 3 };
    let mut walls = [Duration::ZERO; 2];
    for (slot, max_batch) in [1, clients].into_iter().enumerate() {
        let handle = serve(
            SharedKert::new(build_model()).unwrap(),
            ServeConfig {
                workers: 1,
                max_batch,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        // Best of `trials` runs: one-sided scheduler noise only ever
        // slows a trial down.
        walls[slot] = (0..trials)
            .map(|_| hot_query_wall(handle.addr(), &hot_request, clients, rounds))
            .min()
            .unwrap();
        let mut control = Client::connect(handle.addr()).unwrap();
        control.stop().unwrap();
        handle.wait();
    }
    let [wall_seq, wall_coal] = walls;
    let total = (clients * rounds) as f64;
    let wall_speedup = wall_seq.as_secs_f64() / wall_coal.as_secs_f64();
    println!(
        "hot-query dcomp over TCP ({clients} clients × {rounds} rounds): \
         uncoalesced {} / req, coalesced {} / req — {wall_speedup:.2}× wall speedup",
        format_ns(wall_seq.as_nanos() as f64 / total),
        format_ns(wall_coal.as_nanos() as f64 / total),
    );
    assert!(
        wall_speedup >= 1.5 || quick_mode(),
        "10-way coalesced dComp wall speedup fell to {wall_speedup:.2}× (gate: ≥1.5×)"
    );

    // --- 2. Shared-evidence fold: 10 distinct targets, engine-side -------
    let targets: Vec<usize> = (0..10).map(|i| 2 + (i % 5)).collect();
    {
        // Bitwise sanity before timing: folding must be invisible.
        let mut session = shared.session();
        let grouped = session.dcomp(&evidence, &targets).unwrap();
        for (i, &t) in targets.iter().enumerate() {
            let single = session.dcomp(&evidence, &[t]).unwrap();
            assert_eq!(dbits(&single[0].posterior), dbits(&grouped[i].posterior));
            assert_eq!(dbits(&single[0].prior), dbits(&grouped[i].prior));
        }
    }
    let sequential = bench("dcomp_10way/sequential", || {
        let mut session = shared.session();
        for &t in &targets {
            black_box(session.dcomp(black_box(&evidence), &[t]).unwrap());
        }
    });
    let grouped = bench("dcomp_10way/grouped", || {
        let mut session = shared.session();
        black_box(
            session
                .dcomp(black_box(&evidence), black_box(&targets))
                .unwrap(),
        );
    });
    let fold_speedup = sequential.median_ns / grouped.median_ns;
    println!("shared-evidence fold speedup: {fold_speedup:.2}×");

    // --- 3. End-to-end daemon throughput over TCP -------------------------
    let handle = serve(
        SharedKert::new(build_model()).unwrap(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let tput_clients = 8usize;
    let per_client = if quick_mode() { 25usize } else { 250 };
    let request = Request::Posterior {
        evidence: evidence.clone(),
        target: 6,
    };
    let started = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..tput_clients)
            .map(|_| {
                let request = request.clone();
                s.spawn(move || {
                    let mut client = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                    (0..per_client)
                        .map(|_| {
                            let t0 = Instant::now();
                            let resp = client.request(&request).unwrap();
                            assert!(matches!(resp, Response::Posterior(_)));
                            t0.elapsed().as_nanos() as u64
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = started.elapsed();
    let total_requests = tput_clients * per_client;
    let throughput_rps = total_requests as f64 / wall.as_secs_f64();
    latencies_ns.sort_unstable();
    let p50 = percentile(&latencies_ns, 0.50);
    let p99 = percentile(&latencies_ns, 0.99);
    println!(
        "daemon throughput: {throughput_rps:.0} req/s over {tput_clients} clients \
         (p50 {}, p99 {})",
        format_ns(p50),
        format_ns(p99)
    );

    let mut control = Client::connect(addr).unwrap();
    let status = match control.status().unwrap() {
        Response::Status(s) => s,
        other => panic!("expected Status, got {other:?}"),
    };
    assert_eq!(status.served_posterior as usize, total_requests);
    control.stop().unwrap();
    handle.wait();

    // --- 4. Wire overhead: in-process call vs the same query over TCP ----
    let direct = bench("posterior/in_process", || {
        let mut session = shared.session();
        black_box(session.posterior_group(black_box(&evidence), &[6]).unwrap());
    });
    let handle = serve(
        SharedKert::new(build_model()).unwrap(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let over_wire = bench("posterior/over_tcp", || {
        black_box(client.request(black_box(&request)).unwrap());
    });
    client.stop().unwrap();
    handle.wait();

    merge_bench_perf(
        "serving",
        Value::Map(vec![
            (
                "hot_query_dcomp_10way".into(),
                Value::Map(vec![
                    ("clients".into(), Value::Num(clients as f64)),
                    (
                        "uncoalesced_per_request_ns".into(),
                        Value::Num(per_request.median_ns),
                    ),
                    (
                        "coalesced_batch_ns".into(),
                        Value::Num(batch_of_10.median_ns),
                    ),
                    ("simulated_speedup".into(), Value::Num(simulated_speedup)),
                    (
                        "wall_uncoalesced_per_req_ns".into(),
                        Value::Num(wall_seq.as_nanos() as f64 / total),
                    ),
                    (
                        "wall_coalesced_per_req_ns".into(),
                        Value::Num(wall_coal.as_nanos() as f64 / total),
                    ),
                    ("wall_speedup".into(), Value::Num(wall_speedup)),
                    (
                        "note".into(),
                        Value::Str(
                            "10 clients concurrently asking the same dComp (every \
                             unobserved service). simulated_speedup is compute-only and \
                             host-independent: 10× the worker's per-request dComp vs one \
                             deduped batch computation + fan-out; acceptance gate ≥5×. \
                             The wall_* rows are the same load end-to-end over loopback \
                             TCP with one worker (max_batch 1 vs 10; gate ≥1.5×), where each \
                             burst's first request runs alone before the rest fold in and \
                             per-round thread and socket wakeups dilute the win. \
                             Bitwise-identical responses either way (conformance-gated)."
                                .into(),
                        ),
                    ),
                ]),
            ),
            (
                "shared_evidence_fold_10way".into(),
                Value::Map(vec![
                    ("sequential_ns".into(), Value::Num(sequential.median_ns)),
                    ("grouped_ns".into(), Value::Num(grouped.median_ns)),
                    ("speedup".into(), Value::Num(fold_speedup)),
                    (
                        "note".into(),
                        Value::Str(
                            "10 distinct-target dComps sharing one evidence set, engine-side: \
                             one-by-one vs one group (evidence propagated once). The win is \
                             bounded on KERT models because D's clique spans every service, \
                             so a marginal read sweeps a comparable table to a propagation."
                                .into(),
                        ),
                    ),
                ]),
            ),
            (
                "daemon_tcp".into(),
                Value::Map(vec![
                    ("clients".into(), Value::Num(tput_clients as f64)),
                    ("requests".into(), Value::Num(total_requests as f64)),
                    ("workers".into(), Value::Num(4.0)),
                    ("throughput_rps".into(), Value::Num(throughput_rps)),
                    ("latency_p50_ns".into(), Value::Num(p50)),
                    ("latency_p99_ns".into(), Value::Num(p99)),
                ]),
            ),
            (
                "wire_overhead".into(),
                Value::Map(vec![
                    ("in_process_ns".into(), Value::Num(direct.median_ns)),
                    ("over_tcp_ns".into(), Value::Num(over_wire.median_ns)),
                    (
                        "overhead_ns".into(),
                        Value::Num(over_wire.median_ns - direct.median_ns),
                    ),
                ]),
            ),
        ]),
    );
}
