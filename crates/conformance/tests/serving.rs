//! Serving-vs-direct differential gates: the kertd daemon against the
//! in-process compiled engine it wraps.
//!
//! Equivalence contract (the serving PR's headline): every response the
//! daemon produces — posterior, dComp, pAccel, violation — is **bitwise
//! identical** to the same query answered by a direct
//! [`Session`](kert_core::serve::Session) call,
//! *whatever* the worker count or fold cap (`max_batch`). Coalescing
//! only regroups pure marginal reads against identical evidence, and
//! the vendored JSON layer prints `f64`s with shortest-round-trip
//! formatting, so even the serialized wire bytes must match exactly.
//!
//! The master seed comes from `KERT_CONF_SEED` (default 1); CI fans the
//! suite over seeds 1–3.

use std::time::Duration;

use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_core::serve::SharedKert;
use kert_core::{DiscreteKertOptions, KertBn};
use kert_workflow::GenOptions;
use kertd::protocol::{encode, Request, Response, WireDcomp, WirePaccel, WirePosterior};
use kertd::server::{serve, ServeConfig};
use kertd::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn conf_seed() -> u64 {
    std::env::var("KERT_CONF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A random discrete KERT model (sequential workflows keep node indices
/// easy to reason about: services `0..n`, D last).
fn build_model(seed: u64) -> KertBn {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_services = rng.gen_range(4..=6);
    let options = ScenarioOptions {
        gen: GenOptions::sequential_only(),
        ..ScenarioOptions::default()
    };
    let mut env = Environment::random(n_services, options, seed);
    let (train, _) = env.datasets(700, 1, seed ^ 0x005e_4411);
    KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default()).unwrap()
}

/// A seed-derived batch of mixed-verb requests. Every posterior/dcomp
/// pair shares one of two evidence sets so coalescing has something to
/// fold; targets stay off the evidence nodes.
fn request_batch(model: &KertBn, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c_u64);
    let d = model.d_node();
    let evidence_sets: Vec<Vec<(usize, f64)>> = (0..2)
        .map(|_| {
            // Pin the first two services with plausible raw elapsed
            // times; binning clamps, so any positive value is valid.
            (0..2).map(|svc| (svc, rng.gen_range(0.01..0.50))).collect()
        })
        .collect();
    let free_targets: Vec<usize> = (2..=d).collect();

    let mut requests = Vec::new();
    for i in 0..12 {
        let evidence = evidence_sets[i % 2].clone();
        let target = free_targets[i % free_targets.len()];
        match i % 4 {
            0 => requests.push(Request::Posterior { evidence, target }),
            1 => requests.push(Request::Dcomp {
                observed: evidence,
                targets: free_targets[..free_targets.len() - 1].to_vec(),
            }),
            2 => requests.push(Request::Paccel {
                candidates: vec![
                    (0, rng.gen_range(0.01..0.30)),
                    (1, rng.gen_range(0.01..0.30)),
                ],
            }),
            _ => requests.push(Request::Violation {
                evidence,
                thresholds: vec![rng.gen_range(0.2..0.6), rng.gen_range(0.6..1.2)],
            }),
        }
    }
    requests
}

/// The direct-engine oracle: answer `request` with one in-process
/// [`Session`](kert_core::serve::Session) and serialize exactly as the
/// daemon would.
fn direct_answer(engine: &SharedKert, request: &Request) -> String {
    let mut session = engine.session();
    let response = match request {
        Request::Posterior { evidence, target } => {
            let p = session.posterior_group(evidence, &[*target]).unwrap();
            Response::Posterior(WirePosterior::from_posterior(&p[0]).unwrap())
        }
        Request::Dcomp { observed, targets } => Response::Dcomp {
            outcomes: session
                .dcomp(observed, targets)
                .unwrap()
                .iter()
                .map(|o| WireDcomp::from_outcome(o).unwrap())
                .collect(),
        },
        Request::Paccel { candidates } => Response::Paccel {
            outcomes: session
                .paccel(candidates)
                .unwrap()
                .iter()
                .map(|o| WirePaccel::from_outcome(o).unwrap())
                .collect(),
        },
        Request::Violation {
            evidence,
            thresholds,
        } => Response::Violation {
            probabilities: session.violation_sweep(evidence, thresholds).unwrap(),
        },
        other => panic!("not a query: {other:?}"),
    };
    String::from_utf8(encode(&response).unwrap()).unwrap()
}

/// The headline gate: the same concurrent request batch against four
/// daemon configurations — {1, 4} workers × folding {off, on}
/// (`max_batch` 1 and 64) — must produce wire bytes identical to the
/// direct engine, request for request.
#[test]
fn daemon_wire_bytes_match_direct_engine_across_workers_and_fold_caps() {
    let seed = conf_seed();
    let engine = SharedKert::new(build_model(seed)).unwrap();
    let requests = request_batch(engine.model(), seed);
    let expected: Vec<String> = requests.iter().map(|r| direct_answer(&engine, r)).collect();

    for workers in [1usize, 4] {
        for max_batch in [1usize, 64] {
            // Model construction is fully seeded, so rebuilding from the
            // same seed yields the identical model for each daemon.
            let handle = serve(
                SharedKert::new(build_model(seed)).unwrap(),
                ServeConfig {
                    workers,
                    max_batch,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let addr = handle.addr();

            let got: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = requests
                    .iter()
                    .map(|request| {
                        s.spawn(move || {
                            let mut client =
                                Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
                            let response = client.request(request).unwrap();
                            String::from_utf8(encode(&response).unwrap()).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    g, e,
                    "request {i} diverged from the direct engine under \
                     {workers} workers / max batch {max_batch} (seed {seed})"
                );
            }

            let mut client = Client::connect(addr).unwrap();
            assert_eq!(client.stop().unwrap(), Response::Stopping);
            handle.wait();
        }
    }
}

/// Repeating the same query through one long-lived connection must be
/// deterministic: a worker's session, reused for every request it
/// answers, can never bleed one request's evidence into the next.
#[test]
fn repeated_queries_over_one_connection_are_deterministic() {
    let seed = conf_seed();
    let model = build_model(seed);
    let requests = request_batch(&model, seed ^ 1);
    let handle = serve(SharedKert::new(model).unwrap(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for request in &requests {
        let first = encode(&client.request(request).unwrap()).unwrap();
        for _ in 0..3 {
            let again = encode(&client.request(request).unwrap()).unwrap();
            assert_eq!(again, first, "non-deterministic reply for {request:?}");
        }
    }
    client.stop().unwrap();
    handle.wait();
}
