//! The `kertd.queue.wait` histogram records every job a worker checks
//! out, folded followers included. Its own test binary: the metrics
//! registry is process-global, so no other daemon may record into it
//! while the count is read.

mod common;

use common::{await_status, discrete_model, hold_worker, metric, posterior};
use kert_core::serve::SharedKert;
use kertd::{serve, Client, Response, ServeConfig};

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
    let before = metric(&mut control, "kertd_queue_wait_count");

    // Hold the one worker, queue N same-evidence posteriors behind it,
    // and let the worker fold them into one batch.
    const N: usize = 6;
    std::thread::scope(|s| {
        hold_worker(s, addr, &mut control);
        for i in 0..N {
            let target = 2 + i % 5;
            s.spawn(move || {
                let resp = posterior(addr, &[(0, 0.05)], target);
                assert!(matches!(resp, Response::Posterior(_)));
            });
        }
        await_status(&mut control, |st| st.inflight == 1 && st.queue_depth == N);
    });

    let status = await_status(&mut control, |st| st.inflight == 0);
    assert_eq!(
        (status.coalesced_batches, status.coalesced_requests),
        (1, N as u64),
        "the backlog folds into one batch"
    );
    let recorded = metric(&mut control, "kertd_queue_wait_count") - before;
    assert_eq!(
        recorded,
        (N + 1) as f64,
        "one queue-wait sample per job: the blocker and all {N} folded posteriors"
    );

    control.stop().unwrap();
    handle.wait();
}
