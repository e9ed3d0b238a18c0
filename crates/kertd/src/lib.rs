//! # kertd — a high-throughput serving daemon for KERT-BN models
//!
//! The paper's autonomic queries (dComp, pAccel, violation probability)
//! were built for a control loop asking questions of its own in-process
//! model. `kertd` turns that engine into a *service*: a long-running
//! daemon that loads a persisted model, compiles the junction tree
//! **once**, and answers queries from many concurrent clients over a
//! length-prefixed JSON/TCP protocol — all `std`, no async runtime.
//!
//! Three ideas carry the throughput:
//!
//! 1. **Shared-core sessions** ([`kert_core::serve::SharedKert`]): the
//!    calibrated tree is compiled once and read by every worker; each
//!    worker holds one session (its own propagation state) for its whole
//!    life, so the expensive part is paid once per process, not per
//!    request.
//! 2. **Request coalescing** ([`server`]): a free worker takes the head
//!    of the queue and folds in every request already queued behind it
//!    with the same evidence — evidence is propagated once, then one
//!    marginal read per folded request. This is the in-process
//!    batch-dComp amortization, surfaced at the wire. Workers never wait
//!    for a batch to form: an idle daemon answers each request at once,
//!    and batches grow with the backlog.
//! 3. **Admission control**: a bounded queue sheds excess load with a
//!    typed `Overloaded` response instead of buffering without bound,
//!    and `Stop` drains every admitted query before acknowledging.
//!
//! Responses are **bitwise identical** to direct [`kert_core`] calls,
//! invariant across worker counts and fold caps — the vendored
//! JSON layer prints `f64`s with shortest-round-trip formatting, so
//! even the wire hop preserves bits. The conformance suite gates this.
//!
//! | module | role |
//! |---|---|
//! | [`frame`] | length-prefixed framing over a byte stream |
//! | [`protocol`] | request/response vocabulary (serde enums) |
//! | [`server`] | acceptor, admission queue, coalescing workers |
//! | [`client`] | minimal blocking client (used by `kertctl`) |
//! | [`drill`] | deterministic virtual-clock replay of the trace pipeline |

pub mod client;
pub mod drill;
pub mod frame;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use drill::{run_trace_drill, scripted_requests, DrillConfig};
pub use protocol::{
    ErrorKind, Request, Response, StatusInfo, WireDcomp, WireError, WirePaccel, WirePosterior,
};
pub use server::{serve, ServeConfig, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use kert_core::serve::SharedKert;
    use kert_core::{DiscreteKertOptions, KertBn, Posterior};
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap, WorkflowKnowledge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::SocketAddr;
    use std::thread::Scope;
    use std::time::{Duration, Instant};

    fn setup(rows: usize, seed: u64) -> (WorkflowKnowledge, kert_bayes::Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let means = [0.05, 0.05, 0.04, 0.35, 0.04, 0.10];
        let stations = means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
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
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = sys.run(rows, &mut rng);
        (knowledge, trace.to_dataset(None))
    }

    fn discrete_model() -> KertBn {
        let (knowledge, data) = setup(600, 61);
        KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap()
    }

    fn start(config: ServeConfig) -> ServerHandle {
        serve(SharedKert::new(discrete_model()).unwrap(), config).unwrap()
    }

    fn status(client: &mut Client) -> StatusInfo {
        match client.status().unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        }
    }

    /// Poll STATUS, without sleeping, until `ready` holds.
    fn await_status(client: &mut Client, ready: impl Fn(&StatusInfo) -> bool) -> StatusInfo {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = status(client);
            if ready(&status) {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never reached the awaited state: {status:?}"
            );
            std::thread::yield_now();
        }
    }

    /// Back the queue up behind a busy worker: send a pAccel over 2000
    /// distinct candidates (dedup cannot shrink it, and each costs a
    /// projection) and return once a worker holds it with the queue
    /// empty, so every later query queues behind it. The scope joins the
    /// blocker.
    fn hold_worker<'s>(s: &'s Scope<'s, '_>, addr: SocketAddr, control: &mut Client) {
        let candidates = (0..2000).map(|i| (i % 6, 0.01 + i as f64 * 1e-4)).collect();
        s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let resp = client.request(&Request::Paccel { candidates }).unwrap();
            assert!(matches!(resp, Response::Paccel { .. }), "got {resp:?}");
        });
        await_status(control, |st| st.inflight == 1 && st.queue_depth == 0);
    }

    fn dbits(p: &Posterior) -> Vec<u64> {
        match p {
            Posterior::Discrete { probs, .. } => probs.iter().map(|v| v.to_bits()).collect(),
            other => panic!("expected a discrete posterior, got {other:?}"),
        }
    }

    #[test]
    fn daemon_answers_all_verbs_bitwise_equal_to_direct_calls() {
        let handle = start(ServeConfig::default());
        let addr = handle.addr();

        let direct_engine = SharedKert::new(discrete_model()).unwrap();
        let mut direct_session = direct_engine.session();

        let evidence = vec![(0usize, 0.05), (1, 0.06), (6, 0.6)];
        let mut client = Client::connect(addr).unwrap();

        // posterior
        let resp = client
            .request(&Request::Posterior {
                evidence: evidence.clone(),
                target: 3,
            })
            .unwrap();
        let direct = direct_session
            .posterior_group(&evidence, &[3])
            .unwrap()
            .remove(0);
        match resp {
            Response::Posterior(wp) => {
                assert_eq!(
                    wp.probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    dbits(&direct)
                );
                assert_eq!(wp.mean.to_bits(), direct.mean().to_bits());
            }
            other => panic!("expected Posterior, got {other:?}"),
        }

        // dcomp
        let targets = vec![2usize, 3, 4];
        let resp = client
            .request(&Request::Dcomp {
                observed: evidence.clone(),
                targets: targets.clone(),
            })
            .unwrap();
        let direct = direct_session.dcomp(&evidence, &targets).unwrap();
        match resp {
            Response::Dcomp { outcomes } => {
                assert_eq!(outcomes.len(), direct.len());
                for (w, d) in outcomes.iter().zip(&direct) {
                    assert_eq!(w.target, d.target);
                    assert_eq!(
                        w.posterior
                            .probs
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        dbits(&d.posterior)
                    );
                    assert_eq!(
                        w.prior
                            .probs
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        dbits(&d.prior)
                    );
                }
            }
            other => panic!("expected Dcomp, got {other:?}"),
        }

        // violation (evidence must not pin the d-node itself)
        let thresholds = vec![0.4, 0.6, 0.8];
        let v_evidence = vec![(0usize, 0.05), (1, 0.06)];
        let resp = client
            .request(&Request::Violation {
                evidence: v_evidence.clone(),
                thresholds: thresholds.clone(),
            })
            .unwrap();
        let direct = direct_session
            .violation_sweep(&v_evidence, &thresholds)
            .unwrap();
        match resp {
            Response::Violation { probabilities } => {
                assert_eq!(
                    probabilities
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
            other => panic!("expected Violation, got {other:?}"),
        }

        // paccel
        let candidates = vec![(3usize, 0.3), (0, 0.04)];
        let resp = client
            .request(&Request::Paccel {
                candidates: candidates.clone(),
            })
            .unwrap();
        let direct = direct_session.paccel(&candidates).unwrap();
        match resp {
            Response::Paccel { outcomes } => {
                for (w, d) in outcomes.iter().zip(&direct) {
                    assert_eq!(
                        w.projected_d
                            .probs
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        dbits(&d.projected_d)
                    );
                }
            }
            other => panic!("expected Paccel, got {other:?}"),
        }

        // bad request is typed, not a dropped connection
        let resp = client
            .request(&Request::Posterior {
                evidence: vec![],
                target: 999,
            })
            .unwrap();
        match resp {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
            other => panic!("expected a typed error, got {other:?}"),
        }

        let resp = client.stop().unwrap();
        assert_eq!(resp, Response::Stopping);
        handle.wait();
    }

    /// `1e999` is valid JSON that decodes to `+inf`; the discretizer
    /// would clamp it into the top bin. A node listed twice would get an
    /// answer that depends on which pin wins. The daemon must answer both
    /// with a typed error and keep serving the connection.
    #[test]
    fn non_finite_wire_evidence_gets_a_typed_error() {
        let handle = start(ServeConfig::default());
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        let good = Request::Posterior {
            evidence: vec![(0, 0.5)],
            target: 3,
        };
        let text = String::from_utf8(crate::protocol::encode(&good).unwrap()).unwrap();
        assert!(text.contains("0.5"), "unexpected encoding {text}");
        let mut roundtrip = |payload: &[u8]| -> Response {
            crate::frame::write_frame(&mut stream, payload).unwrap();
            let reply = crate::frame::read_frame(&mut stream).unwrap().unwrap();
            crate::protocol::decode(&reply).unwrap()
        };

        let duplicate = crate::protocol::encode(&Request::Posterior {
            evidence: vec![(0, 0.5), (0, 0.05)],
            target: 3,
        })
        .unwrap();
        for bad in [text.replace("0.5", "1e999").into_bytes(), duplicate] {
            match roundtrip(&bad) {
                Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest, "{e:?}"),
                other => panic!("expected a typed error, got {other:?}"),
            }
            // Same connection, well-formed request: still served.
            assert!(matches!(roundtrip(text.as_bytes()), Response::Posterior(_)));
        }

        drop(stream);
        Client::connect(handle.addr()).unwrap().stop().unwrap();
        handle.wait();
    }

    /// `request` answered on a fresh session through the daemon's own
    /// group code, encoded as the daemon encodes its reply.
    fn fresh_reply(engine: &SharedKert, request: &Request) -> Vec<u8> {
        let replies = server::compute_group(&mut engine.session(), &[request], &mut [None]);
        crate::protocol::encode(&replies[0]).unwrap()
    }

    /// The one worker reuses its session for every request on the
    /// connection, a refused one included; each reply carries the bytes
    /// a fresh session answers.
    #[test]
    fn a_worker_reusing_its_session_answers_like_a_fresh_one() {
        let handle = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let direct = SharedKert::new(discrete_model()).unwrap();
        let a = vec![(0usize, 0.05), (1, 0.06)];
        let requests = [
            Request::Posterior {
                evidence: a.clone(),
                target: 3,
            },
            Request::Dcomp {
                observed: vec![(0, 0.05), (1, 0.06), (6, 0.6)],
                targets: vec![2, 3, 4, 5],
            },
            Request::Paccel {
                candidates: vec![(3, 0.3), (0, 0.04), (3, 0.2), (4, 0.05)],
            },
            Request::Violation {
                evidence: vec![(3, 0.4), (4, 0.05)],
                thresholds: vec![0.4, 0.6, 0.8],
            },
            // Refused: node 0 listed twice.
            Request::Posterior {
                evidence: vec![(0, 0.05), (1, 0.06), (0, 0.2)],
                target: 3,
            },
            Request::Posterior {
                evidence: vec![],
                target: 3,
            },
            Request::Posterior {
                evidence: a,
                target: 3,
            },
        ];
        let mut client = Client::connect(handle.addr()).unwrap();
        for (i, request) in requests.iter().enumerate() {
            let reply = client.request(request).unwrap();
            assert_eq!(
                crate::protocol::encode(&reply).unwrap(),
                fresh_reply(&direct, request),
                "request {i}"
            );
            assert_eq!(matches!(reply, Response::Error(_)), i == 4, "request {i}");
        }
        client.stop().unwrap();
        handle.wait();
    }

    /// The JSON parser recurses once per nesting level, so a frame of
    /// 20,000 `[` would overflow a connection thread's stack and abort
    /// the whole process. The parser refuses nesting past 128 levels:
    /// the daemon answers `Malformed` and keeps serving.
    #[test]
    fn deeply_nested_frame_is_malformed_not_a_crash() {
        let handle = start(ServeConfig::default());
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        crate::frame::write_frame(&mut stream, &[b'['; 20_000]).unwrap();
        let reply = crate::frame::read_frame(&mut stream).unwrap().unwrap();
        match crate::protocol::decode::<Response>(&reply).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Malformed, "{e:?}");
                assert!(e.message.contains("nesting deeper than 128"), "{e:?}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        // The same connection and a fresh one are both still served.
        crate::frame::write_frame(
            &mut stream,
            &crate::protocol::encode(&Request::Ping).unwrap(),
        )
        .unwrap();
        let reply = crate::frame::read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            crate::protocol::decode::<Response>(&reply).unwrap(),
            Response::Pong
        );
        drop(stream);
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Pong);
        client.stop().unwrap();
        handle.wait();
    }

    #[test]
    fn coalescing_and_worker_count_do_not_change_bits() {
        // The invariance dimension the conformance suite sweeps, in
        // miniature: the same concurrent load against {1, 4} workers ×
        // folding {off, on} must produce identical byte-for-byte
        // responses.
        let configs = [1usize, 4].into_iter().flat_map(|workers| {
            [1usize, 64].map(|max_batch| ServeConfig {
                workers,
                max_batch,
                ..ServeConfig::default()
            })
        });
        let shared_evidence = vec![(0usize, 0.05), (1, 0.06)];
        let targets: Vec<usize> = vec![2, 3, 4, 5, 6, 2, 3, 4, 5, 6];

        let mut per_config: Vec<Vec<Vec<u8>>> = Vec::new();
        for config in configs {
            let handle = start(config);
            let addr = handle.addr();
            let answers: Vec<Vec<u8>> = std::thread::scope(|s| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|&target| {
                        let evidence = shared_evidence.clone();
                        s.spawn(move || {
                            let mut client = Client::connect(addr).unwrap();
                            let resp = client
                                .request(&Request::Posterior { evidence, target })
                                .unwrap();
                            crate::protocol::encode(&resp).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut client = Client::connect(addr).unwrap();
            client.stop().unwrap();
            handle.wait();
            per_config.push(answers);
        }
        assert_eq!(per_config.len(), 4);
        for answers in &per_config[1..] {
            assert_eq!(
                &per_config[0], answers,
                "responses changed across worker count / fold cap"
            );
        }
    }

    #[test]
    fn coalescing_folds_concurrent_same_evidence_requests() {
        let handle = start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        let mut control = Client::connect(addr).unwrap();

        // Queue ten same-evidence posteriors behind a busy worker; when
        // it frees up, it folds the whole backlog into one batch.
        let evidence = vec![(0usize, 0.05)];
        let targets = [2usize, 3, 4, 5, 6, 2, 3, 4, 5, 6];
        std::thread::scope(|s| {
            hold_worker(s, addr, &mut control);
            for target in targets {
                let evidence = evidence.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let resp = client
                        .request(&Request::Posterior { evidence, target })
                        .unwrap();
                    assert!(matches!(resp, Response::Posterior(_)), "got {resp:?}");
                });
            }
            await_status(&mut control, |st| {
                st.inflight == 1 && st.queue_depth == targets.len()
            });
        });

        let status = status(&mut control);
        assert_eq!(status.served_posterior, 10);
        assert_eq!(status.served_paccel, 1);
        assert_eq!(
            (status.coalesced_batches, status.coalesced_requests),
            (1, 10),
            "ten queued same-evidence posteriors fold into one batch: {status:?}"
        );
        control.stop().unwrap();
        handle.wait();
    }

    #[test]
    fn overload_sheds_with_typed_errors_and_drain_completes() {
        // One held worker, a tiny queue, folding off: of a 16-deep flood
        // exactly queue_cap requests are admitted and the rest are shed,
        // and every accepted request is still answered before Stop
        // acknowledges.
        let handle = start(ServeConfig {
            workers: 1,
            queue_cap: 2,
            max_batch: 1,
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        let mut control = Client::connect(addr).unwrap();

        let outcomes: Vec<&'static str> = std::thread::scope(|s| {
            hold_worker(s, addr, &mut control);
            let handles: Vec<_> = (0..16)
                .map(|i| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let resp = client
                            .request(&Request::Posterior {
                                evidence: vec![(0, 0.05)],
                                target: 2 + (i % 5),
                            })
                            .unwrap();
                        match resp {
                            Response::Posterior(_) => "answered",
                            Response::Error(e) if e.kind == ErrorKind::Overloaded => "shed",
                            other => panic!("unexpected response {other:?}"),
                        }
                    })
                })
                .collect();
            await_status(&mut control, |st| {
                st.inflight == 1 && st.queue_depth == 2 && st.shed_overloaded == 14
            });
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let answered = outcomes.iter().filter(|o| **o == "answered").count();
        let shed = outcomes.iter().filter(|o| **o == "shed").count();
        assert_eq!((answered, shed), (2, 14), "a full queue sheds the rest");

        let status = status(&mut control);
        assert_eq!(status.served_posterior as usize, answered);
        assert_eq!(status.shed_overloaded as usize, shed);

        control.stop().unwrap();
        handle.wait();

        // After drain, new queries are refused as ShuttingDown (if the
        // listener is already gone, a refused connection is fine too).
        if let Ok(mut late) = Client::connect(addr) {
            if let Ok(resp) = late.request(&Request::Posterior {
                evidence: vec![],
                target: 6,
            }) {
                match resp {
                    Response::Error(e) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
                    other => panic!("expected ShuttingDown, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn status_and_metrics_expose_the_serving_telemetry() {
        kert_obs::set_mode(kert_obs::ObsMode::Metrics);
        let handle = start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let addr = handle.addr();

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.ping().unwrap(), Response::Pong);
        for _ in 0..3 {
            client
                .request(&Request::Violation {
                    evidence: vec![(0, 0.05)],
                    thresholds: vec![0.5, 0.7],
                })
                .unwrap();
        }

        let status = match client.status().unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        };
        assert_eq!(status.served_violation, 3);
        assert_eq!(status.workers, 2);
        assert_eq!(status.nodes, 7);
        assert!(!status.draining);

        let prom = match client.metrics().unwrap() {
            Response::Metrics { prometheus } => prometheus,
            other => panic!("expected Metrics, got {other:?}"),
        };
        let parsed = kert_obs::parse_prometheus(&prom).unwrap();
        let (_, served) = parsed
            .iter()
            .find(|(name, _)| name.contains("kertd") && name.contains("violation"))
            .expect("violation counter exported");
        assert!(*served >= 3.0);

        client.stop().unwrap();
        handle.wait();
    }

    #[test]
    fn traced_daemon_records_complete_linked_span_trees() {
        kert_obs::set_mode(kert_obs::ObsMode::Metrics);
        let handle = start(ServeConfig {
            workers: 1,
            trace: true,
            ..ServeConfig::default()
        });
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();

        // Same-evidence posteriors queued behind a busy worker, each
        // carrying its own wire trace id: the worker folds all of them
        // into one batch, and every reply must echo its request's id.
        let evidence = vec![(0usize, 0.05)];
        let targets = [2usize, 3, 4, 5, 6, 2, 3, 4];
        std::thread::scope(|s| {
            hold_worker(s, addr, &mut client);
            for (i, &target) in targets.iter().enumerate() {
                let evidence = evidence.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let tid = 1000 + i as u64;
                    let (resp, echoed) = client
                        .request_traced(&Request::Posterior { evidence, target }, tid)
                        .unwrap();
                    assert!(matches!(resp, Response::Posterior(_)), "got {resp:?}");
                    assert_eq!(echoed, Some(tid), "reply must echo the request's trace id");
                });
            }
            await_status(&mut client, |st| {
                st.inflight == 1 && st.queue_depth == targets.len()
            });
        });

        // Recording happens just after the reply frame hits the wire,
        // so the last few trees can trail the clients briefly. The
        // blocker is traced too, under a daemon-assigned id.
        let recorded = targets.len() as u64 + 1;
        let status = await_status(&mut client, |st| st.traces_recorded >= recorded);
        assert!(status.tracing);
        assert_eq!(status.traces_recorded, recorded);

        let all = match client.traces(0).unwrap() {
            Response::Traces { traces } => traces,
            other => panic!("expected Traces, got {other:?}"),
        };
        assert_eq!(all.len() as u64, recorded);
        let (traces, blocker): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|t| (1000..1000 + targets.len() as u64).contains(&t.trace_id));
        assert_eq!(traces.len(), targets.len());
        assert_eq!(blocker.len(), 1);

        // Every request yields a complete five-stage tree under its own
        // trace id.
        for tree in traces.iter().chain(&blocker) {
            let root = tree.find("kertd.request").expect("root span");
            assert_eq!(root.parent, 0);
            assert!(root.end_ns != 0, "root must be closed");
            let verb = if blocker.contains(tree) {
                "paccel"
            } else {
                "posterior"
            };
            assert!(root.labels.iter().any(|(k, v)| k == "verb" && v == verb));
            let qw = tree.find("kertd.queue_wait").expect("queue-wait span");
            assert_eq!(qw.parent, root.id);
            assert!(qw.labels.iter().any(|(k, _)| k == "queue_depth"));
            let gid = tree.find("kertd.coalesce.group").expect("group span");
            assert_eq!(gid.parent, root.id);
            let pid = tree.find("kertd.propagate").expect("propagate span");
            assert_eq!(pid.parent, gid.id);
            let ser = tree.find("kertd.serialize").expect("serialize span");
            assert_eq!(ser.parent, root.id);
            for span in &tree.spans {
                assert!(span.end_ns >= span.start_ns, "no open or inverted spans");
            }
        }

        // The posteriors formed one batch: one leader, and every other
        // member links its propagate span to the leader's shared compute
        // span, and that target really exists.
        let followers: Vec<_> = traces
            .iter()
            .filter(|t| {
                t.find("kertd.propagate").is_some_and(|p| {
                    p.labels
                        .iter()
                        .any(|(k, v)| k == "shared_compute" && v == "true")
                })
            })
            .collect();
        assert_eq!(followers.len(), targets.len() - 1, "one batch, one leader");
        for follower in &followers {
            let p = follower.find("kertd.propagate").unwrap();
            let link = p
                .links
                .iter()
                .find(|l| l.kind == "coalesced-into")
                .expect("follower links to its leader");
            let target = traces
                .iter()
                .find(|t| t.trace_id == link.trace_id)
                .and_then(|t| t.spans.iter().find(|s| s.id == link.span_id))
                .expect("link target is a recorded span");
            assert_eq!(target.name, "kertd.propagate");
        }

        // The leader's propagate span captured the engine's own spans
        // (obs Metrics mode is on), parented under it.
        let leader = traces
            .iter()
            .find(|t| t.find("jt.marginal").is_some())
            .expect("some leader captured engine propagation spans");
        let jt = leader.find("jt.marginal").unwrap();
        let pid = leader.find("kertd.propagate").unwrap();
        assert_eq!(jt.parent, pid.id, "engine spans nest under propagate");

        // The whole batch exports as valid Chrome trace JSON with one
        // flow pair per coalesce link.
        let json = kert_obs::chrome_trace_json(&traces);
        let stats = kert_obs::check_chrome_trace(&json).expect("export must validate");
        assert!(stats.complete >= 5 * traces.len());
        assert_eq!(stats.flows, 2 * followers.len());

        client.stop().unwrap();
        handle.wait();
    }

    #[test]
    fn trace_fetch_without_tracing_is_a_typed_error() {
        let handle = start(ServeConfig::default());
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();

        let status = match client.status().unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        };
        assert!(!status.tracing);
        assert_eq!(status.traces_recorded, 0);

        match client.traces(10).unwrap() {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::BadRequest),
            other => panic!("expected a typed error, got {other:?}"),
        }

        // Trace ids are still echoed even when nothing records them.
        let (resp, echoed) = client
            .request_traced(
                &Request::Posterior {
                    evidence: vec![(0, 0.05)],
                    target: 3,
                },
                77,
            )
            .unwrap();
        assert!(matches!(resp, Response::Posterior(_)));
        assert_eq!(echoed, Some(77));

        client.stop().unwrap();
        handle.wait();
    }

    #[test]
    fn drill_produces_complete_trees_for_every_scripted_request() {
        kert_obs::set_mode(kert_obs::ObsMode::Metrics);
        let engine = SharedKert::new(discrete_model()).unwrap();
        let cfg = crate::drill::DrillConfig {
            seed: 7,
            requests: 24,
            max_batch: 6,
            workers: 3,
        };
        let trees = crate::drill::run_trace_drill(&engine, &cfg);
        assert_eq!(trees.len(), cfg.requests);
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(
                tree.trace_id,
                i as u64 + 1,
                "trees come back in trace order"
            );
            let root = tree.find("kertd.request").expect("root span");
            assert_eq!(root.parent, 0);
            assert!(tree.find("kertd.queue_wait").is_some());
            assert!(tree.find("kertd.coalesce.group").is_some());
            assert!(tree.find("kertd.propagate").is_some());
            assert!(tree.find("kertd.serialize").is_some());
            for span in &tree.spans {
                assert!(span.end_ns != 0, "drill closes every span");
            }
        }
        // The scripted mix produces real coalescing: some follower links.
        assert!(
            trees.iter().any(|t| t
                .find("kertd.propagate")
                .is_some_and(|p| p.links.iter().any(|l| l.kind == "coalesced-into"))),
            "scripted bursts must coalesce"
        );
    }
}
