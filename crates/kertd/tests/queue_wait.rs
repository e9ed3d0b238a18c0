//! The `kertd.queue.wait` histogram records every job a worker checks
//! out, folded followers included. Its own test binary: the metrics
//! registry is process-global, so no other daemon may record into it
//! while the count is read.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use kert_core::serve::SharedKert;
use kert_core::{DiscreteKertOptions, KertBn};
use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
use kertd::{serve, Client, Request, Response, ServeConfig, StatusInfo};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn discrete_model() -> KertBn {
    let wf = ediamond_workflow();
    let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
    let stations = [0.05, 0.05, 0.04, 0.35, 0.04, 0.10]
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let options = SimOptions {
        inter_arrival: Dist::Exponential { mean: 0.5 },
        warmup: 50,
    };
    let mut sys = SimSystem::new(&wf, stations, options).unwrap();
    let data = sys
        .run(600, &mut StdRng::seed_from_u64(61))
        .to_dataset(None);
    KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap()
}

/// Poll STATUS, without sleeping, until `ready` holds.
fn await_status(client: &mut Client, ready: impl Fn(&StatusInfo) -> bool) -> StatusInfo {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = match client.status().unwrap() {
            Response::Status(s) => s,
            other => panic!("expected Status, got {other:?}"),
        };
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

/// The `_count` sample of the queue-wait histogram (0 before first use).
fn queue_wait_count(client: &mut Client) -> f64 {
    let prometheus = match client.metrics().unwrap() {
        Response::Metrics { prometheus } => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    kert_obs::parse_prometheus(&prometheus)
        .unwrap()
        .into_iter()
        .find(|(name, _)| name == "kertd_queue_wait_count")
        .map_or(0.0, |(_, v)| v)
}

fn posterior(addr: SocketAddr, target: usize) -> Response {
    let mut client = Client::connect(addr).unwrap();
    client
        .request(&Request::Posterior {
            evidence: vec![(0, 0.05)],
            target,
        })
        .unwrap()
}

#[test]
fn queue_wait_is_recorded_for_every_folded_job() {
    kert_obs::set_mode(kert_obs::ObsMode::Metrics);
    let handle = serve(
        SharedKert::new(discrete_model()).unwrap(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut control = Client::connect(addr).unwrap();
    let before = queue_wait_count(&mut control);

    // Hold the one worker with a pAccel over 2000 distinct candidates
    // (dedup cannot shrink it), queue N same-evidence posteriors behind
    // it, and let the worker fold them into one batch.
    const N: usize = 6;
    std::thread::scope(|s| {
        let candidates = (0..2000).map(|i| (i % 6, 0.01 + i as f64 * 1e-4)).collect();
        s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&Request::Paccel { candidates }).unwrap()
        });
        await_status(&mut control, |st| st.inflight == 1 && st.queue_depth == 0);
        for i in 0..N {
            let target = 2 + i % 5;
            s.spawn(move || assert!(matches!(posterior(addr, target), Response::Posterior(_))));
        }
        await_status(&mut control, |st| st.inflight == 1 && st.queue_depth == N);
    });

    let status = await_status(&mut control, |st| st.inflight == 0);
    assert_eq!(
        (status.coalesced_batches, status.coalesced_requests),
        (1, N as u64),
        "the backlog folds into one batch"
    );
    let recorded = queue_wait_count(&mut control) - before;
    assert_eq!(
        recorded,
        (N + 1) as f64,
        "one queue-wait sample per job: the blocker and all {N} folded posteriors"
    );

    control.stop().unwrap();
    handle.wait();
}
