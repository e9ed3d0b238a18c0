//! Deterministic trace drill: the daemon's span pipeline under a
//! virtual clock, with no sockets and no real scheduling.
//!
//! The live daemon's span trees are *shaped* deterministically (trace
//! ids from the wire, trace-local span ids, shared [`compute_group`]
//! trace threading) but *stamped* with wall-clock time. The drill
//! replays a seed-scripted request mix through the same grouping and
//! compute code with every context on a seeded virtual clock
//! ([`TraceContext::with_virtual_clock`]), so the resulting trees —
//! ids, parent links, labels, links, *and* timestamps — are bitwise
//! reproducible across runs and across worker counts. The conformance
//! suite gates exactly that.
//!
//! Work distribution is deliberately timing-free: the whole script sits
//! in one queue — the backed-up-queue case — and the live worker's fold
//! ([`fold_queued`]) drains it into coalesce groups, so the drill groups
//! exactly as a daemon with a backlog does. Groups are dealt round-robin
//! to scoped worker threads and the trees are returned in trace-id
//! order. Whatever the interleaving, every group's spans land in that
//! group's own contexts.

use std::collections::VecDeque;
use std::sync::Mutex;

use kert_core::serve::SharedKert;
use kert_core::KertBn;
use kert_obs::{TraceContext, TraceTree};

use crate::protocol::{encode, Request};
use crate::server::{compute_group, fold_queued, open_request_root};

/// Knobs for one drill run.
#[derive(Debug, Clone)]
pub struct DrillConfig {
    /// Master seed: scripts the request mix *and* every virtual clock.
    pub seed: u64,
    /// Requests to replay (trace ids `1..=requests`).
    pub requests: usize,
    /// Coalesce-group size cap (mirrors [`crate::ServeConfig::max_batch`]).
    pub max_batch: usize,
    /// Scoped worker threads processing groups round-robin. Must not
    /// change the output — that invariance is the point of the drill.
    pub workers: usize,
}

impl Default for DrillConfig {
    fn default() -> Self {
        DrillConfig {
            seed: 1,
            requests: 32,
            max_batch: 8,
            workers: 2,
        }
    }
}

/// The same mixing constant the virtual clock uses (splitmix64).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` off the mixer.
fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seed-scripted request mix: bursts of 1–4 requests sharing a verb
/// and one of two evidence sets, so the fold below has real coalescing
/// to exercise (same-key requests fold; targets vary inside a burst,
/// which coalescing must tolerate). Targets stay off the evidence nodes;
/// binning clamps, so any positive raw value is valid.
pub fn scripted_requests(model: &KertBn, seed: u64, n: usize) -> Vec<Request> {
    let d = model.d_node();
    let free_targets: Vec<usize> = (2..=d).collect();
    let mut s = seed ^ 0xd811_c0de_5eed_0001;
    let evidence_sets: Vec<Vec<(usize, f64)>> = (0..2)
        .map(|_| {
            (0..2usize)
                .map(|svc| (svc, 0.01 + 0.49 * unit(&mut s)))
                .collect()
        })
        .collect();

    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        let verb = mix(&mut s) % 4;
        let burst = 1 + (mix(&mut s) % 4) as usize;
        let evidence = evidence_sets[(mix(&mut s) % 2) as usize].clone();
        for _ in 0..burst {
            if requests.len() >= n {
                break;
            }
            let target = free_targets[(mix(&mut s) as usize) % free_targets.len()];
            requests.push(match verb {
                0 => Request::Posterior {
                    evidence: evidence.clone(),
                    target,
                },
                1 => Request::Dcomp {
                    observed: evidence.clone(),
                    targets: free_targets[..free_targets.len() - 1].to_vec(),
                },
                2 => Request::Paccel {
                    candidates: vec![
                        (0, 0.01 + 0.29 * unit(&mut s)),
                        (1, 0.01 + 0.29 * unit(&mut s)),
                    ],
                },
                _ => Request::Violation {
                    evidence: evidence.clone(),
                    thresholds: vec![0.2 + 0.4 * unit(&mut s), 0.6 + 0.6 * unit(&mut s)],
                },
            });
        }
    }
    requests
}

/// Replay one coalesce group through the daemon's span pipeline on
/// virtual clocks: request root → queue-wait → the shared
/// [`compute_group`] threading (group / propagate / leader capture /
/// follower links) → serialize, then finish every tree.
fn run_group(engine: &SharedKert, seed: u64, group: &[(u64, Request)]) -> Vec<TraceTree> {
    let mut contexts: Vec<Option<TraceContext>> = group
        .iter()
        .enumerate()
        .map(|(position, (trace_id, request))| {
            let mut ctx = TraceContext::with_virtual_clock(*trace_id, seed);
            open_request_root(&mut ctx, request.verb());
            // The live path stamps operational state on the queue-wait
            // span; the drill stamps the deterministic analogue (jobs
            // ahead of this one in its group).
            let qs = ctx.open("kertd.queue_wait");
            ctx.label(qs, "queue_depth", &position.to_string());
            ctx.close(qs);
            Some(ctx)
        })
        .collect();
    let requests: Vec<&Request> = group.iter().map(|(_, r)| r).collect();
    let responses = compute_group(engine, &requests, &mut contexts);
    responses
        .iter()
        .zip(contexts)
        .map(|(response, ctx)| {
            let mut ctx = ctx.expect("drill contexts are always present");
            let ser = ctx.open("kertd.serialize");
            // Serialize for real — the span covers actual encode work —
            // but the frame goes nowhere.
            let _ = encode(response);
            ctx.close(ser);
            ctx.finish()
        })
        .collect()
}

/// Run the drill: script `cfg.requests` requests off `cfg.seed`, fold
/// them into groups as a backed-up daemon queue would, replay every group
/// through the daemon's compute path on `cfg.workers` threads, and
/// return the finished span trees ordered by trace id (1-based request
/// order).
///
/// Output is bitwise deterministic: a fixed `(seed, requests, max_batch)`
/// triple yields identical trees whatever `workers` is and however the
/// OS schedules the threads.
pub fn run_trace_drill(engine: &SharedKert, cfg: &DrillConfig) -> Vec<TraceTree> {
    let requests = scripted_requests(engine.model(), cfg.seed, cfg.requests);
    let max_batch = cfg.max_batch.max(1);

    // The whole script is queued before any worker frees up, so each
    // group is the queue head plus every same-key request behind it.
    let mut queue: VecDeque<(u64, Request)> = (1..).zip(requests).collect();
    let mut groups: Vec<Vec<(u64, Request)>> = Vec::new();
    while let Some(head) = queue.pop_front() {
        groups.push(fold_queued(&mut queue, head, max_batch, |(_, r)| r));
    }

    let workers = cfg.workers.max(1);
    let slots: Vec<Mutex<Vec<TraceTree>>> =
        (0..groups.len()).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let groups = &groups;
            let slots = &slots;
            scope.spawn(move || {
                for gi in (w..groups.len()).step_by(workers) {
                    let trees = run_group(engine, cfg.seed, &groups[gi]);
                    *slots[gi].lock().expect("drill slot poisoned") = trees;
                }
            });
        }
    });

    let mut trees: Vec<TraceTree> = slots
        .into_iter()
        .flat_map(|m| m.into_inner().expect("drill slot poisoned"))
        .collect();
    trees.sort_by_key(|t| t.trace_id);
    trees
}
