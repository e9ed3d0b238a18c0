//! A folded group whose grouped verb fails is answered job by job: only
//! the bad job gets the error, every other job gets the bits a direct
//! `Session` computes, and `kertd.coalesce.deduped_work` counts nothing
//! for the group, since each job's work was computed on its own. Its own
//! test binary: the metrics registry is process-global, so no other
//! daemon may record into it while the count is read.

mod common;

use common::{await_status, discrete_model, hold_worker, metric, posterior};
use kert_core::serve::SharedKert;
use kert_core::Posterior;
use kertd::{serve, Client, ErrorKind, Response, ServeConfig};

const DEDUPED: &str = "kertd_coalesce_deduped_work";
const EVIDENCE: [(usize, f64); 1] = [(0, 0.05)];

/// Fold same-evidence posteriors for `targets` behind a held worker,
/// check every reply against a direct `Session` (an error where the
/// session errs), and return how much the dedup counter moved.
fn fold_one_group(targets: &[usize]) -> f64 {
    let engine = SharedKert::new(discrete_model()).unwrap();
    let mut direct = engine.session();
    direct.set_evidence(&EVIDENCE).unwrap();
    let expected: Vec<Option<Vec<u64>>> = targets
        .iter()
        .map(|&t| match direct.posterior(t) {
            Ok(Posterior::Discrete { probs, .. }) => {
                Some(probs.iter().map(|v| v.to_bits()).collect())
            }
            Ok(other) => panic!("expected a discrete posterior, got {other:?}"),
            Err(_) => None,
        })
        .collect();
    drop(direct);

    let handle = serve(
        engine,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut control = Client::connect(addr).unwrap();
    let before = metric(&mut control, DEDUPED);
    std::thread::scope(|s| {
        hold_worker(s, addr, &mut control);
        for (&target, expected) in targets.iter().zip(expected) {
            s.spawn(
                move || match (posterior(addr, &EVIDENCE, target), expected) {
                    (Response::Posterior(wp), Some(bits)) => assert_eq!(
                        wp.probs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        bits,
                        "target {target}"
                    ),
                    (Response::Error(e), None) => assert_eq!(e.kind, ErrorKind::BadRequest),
                    (resp, expected) => {
                        panic!("target {target}: got {resp:?}, expected {expected:?}")
                    }
                },
            );
        }
        await_status(&mut control, |st| {
            st.inflight == 1 && st.queue_depth == targets.len()
        });
    });
    let status = await_status(&mut control, |st| st.inflight == 0);
    assert_eq!(
        (status.coalesced_batches, status.coalesced_requests),
        (1, targets.len() as u64),
        "the backlog folds into one batch"
    );
    let moved = metric(&mut control, DEDUPED) - before;
    control.stop().unwrap();
    handle.wait();
    moved
}

#[test]
fn a_failed_group_answers_each_job_alone_and_saves_nothing() {
    kert_obs::set_mode(kert_obs::ObsMode::Metrics);
    assert_eq!(
        fold_one_group(&[2, 3, 3, 4]),
        1.0,
        "a successful group computes the repeated target once"
    );
    assert_eq!(
        fold_one_group(&[2, 3, 3, 999, 4]),
        0.0,
        "a failed group falls back job by job and saves nothing"
    );
}
