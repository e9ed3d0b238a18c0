//! Helpers shared by the kertd test binaries that read the process-global
//! metrics registry (each such test needs a process of its own).

use std::net::SocketAddr;
use std::thread::Scope;
use std::time::{Duration, Instant};

use kert_core::{DiscreteKertOptions, KertBn};
use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
use kertd::{Client, Request, Response, StatusInfo};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn discrete_model() -> KertBn {
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
pub fn await_status(client: &mut Client, ready: impl Fn(&StatusInfo) -> bool) -> StatusInfo {
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

/// Hold the one worker with a pAccel over 2000 distinct candidates (dedup
/// cannot shrink it) and return once it is checked out with the queue
/// empty, so every later query queues behind it. The scope joins it.
pub fn hold_worker<'s>(s: &'s Scope<'s, '_>, addr: SocketAddr, control: &mut Client) {
    let candidates = (0..2000).map(|i| (i % 6, 0.01 + i as f64 * 1e-4)).collect();
    s.spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request(&Request::Paccel { candidates }).unwrap();
        assert!(matches!(resp, Response::Paccel { .. }), "got {resp:?}");
    });
    await_status(control, |st| st.inflight == 1 && st.queue_depth == 0);
}

/// One sample of the daemon's Prometheus snapshot (0 before first use).
pub fn metric(client: &mut Client, name: &str) -> f64 {
    let prometheus = match client.metrics().unwrap() {
        Response::Metrics { prometheus } => prometheus,
        other => panic!("expected Metrics, got {other:?}"),
    };
    kert_obs::parse_prometheus(&prometheus)
        .unwrap()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| v)
}

/// Send one posterior on a connection of its own.
pub fn posterior(addr: SocketAddr, evidence: &[(usize, f64)], target: usize) -> Response {
    let mut client = Client::connect(addr).unwrap();
    client
        .request(&Request::Posterior {
            evidence: evidence.to_vec(),
            target,
        })
        .unwrap()
}
