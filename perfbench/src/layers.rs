//! Per-layer measurement: span-tree self times, single-threaded replays
//! of the wire layers, and junction-tree size counts.

use std::hint::black_box;
use std::time::Instant;

use kert_bayes::{BayesianNetwork, JunctionTree};
use kert_obs::{SpanRecord, TraceTree};
use kertd::frame::{read_frame, write_frame};
use kertd::protocol::{decode, encode, Request, Response};

/// Duration of a span, µs.
pub fn dur_us(s: &SpanRecord) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3
}

/// Self time of `span` in `tree`, µs: its duration minus the part of
/// that interval its direct children cover.
pub fn self_us(tree: &TraceTree, span: &SpanRecord) -> f64 {
    let mut kids: Vec<(u64, u64)> = tree
        .spans
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.end_ns
        .saturating_sub(span.start_ns)
        .saturating_sub(covered) as f64
        / 1e3
}

/// Every span named `name` across `trees`.
pub fn spans_named<'a>(
    trees: &'a [TraceTree],
    name: &'a str,
) -> impl Iterator<Item = (&'a TraceTree, &'a SpanRecord)> + 'a {
    trees.iter().flat_map(move |t| {
        t.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(move |s| (t, s))
    })
}

/// Mean µs per call of `op` over `items`, repeated until at least
/// `min_ms` of work has been timed.
fn mean_us<T>(items: &[T], min_ms: f64, mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0usize;
    loop {
        for item in items {
            op(item);
        }
        calls += items.len();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        if elapsed >= min_ms {
            return elapsed * 1e3 / calls as f64;
        }
    }
}

/// Timed work per replay.
const REPLAY_MS: f64 = 40.0;

/// The wire layers replayed single-threaded on a run's payloads.
#[derive(Debug, Default)]
pub struct WireReplay {
    pub client_encode_us: f64,
    pub client_decode_us: f64,
    pub protocol_decode_us: f64,
    pub protocol_encode_us: f64,
    pub frame_write_us: f64,
    pub frame_read_us: f64,
    pub req_bytes: f64,
    pub resp_bytes: f64,
}

/// Replay encode/decode and framing over `pairs` of sent requests and
/// their replies.
pub fn replay_wire(pairs: &[(&Request, &Response)]) -> WireReplay {
    let requests: Vec<&Request> = pairs.iter().map(|p| p.0).collect();
    let responses: Vec<&Response> = pairs.iter().map(|p| p.1).collect();
    let req_payloads: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode(r).expect("requests encode"))
        .collect();
    let resp_payloads: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| encode(r).expect("responses encode"))
        .collect();
    let all: Vec<&[u8]> = req_payloads
        .iter()
        .chain(&resp_payloads)
        .map(Vec::as_slice)
        .collect();
    let mut framed = Vec::new();
    for p in &all {
        write_frame(&mut framed, p).expect("in-memory frames write");
    }
    let mut sink = Vec::with_capacity(framed.len());
    let mean_len =
        |v: &[Vec<u8>]| v.iter().map(|p| p.len() as f64).sum::<f64>() / v.len().max(1) as f64;
    WireReplay {
        client_encode_us: mean_us(&requests, REPLAY_MS, |r| {
            black_box(encode(*r).expect("requests encode"));
        }),
        protocol_decode_us: mean_us(&req_payloads, REPLAY_MS, |p| {
            black_box(decode::<Request>(p).expect("requests decode"));
        }),
        protocol_encode_us: mean_us(&responses, REPLAY_MS, |r| {
            black_box(encode(*r).expect("responses encode"));
        }),
        client_decode_us: mean_us(&resp_payloads, REPLAY_MS, |p| {
            black_box(decode::<Response>(p).expect("responses decode"));
        }),
        frame_write_us: mean_us(&all, REPLAY_MS, |p| {
            sink.clear();
            write_frame(&mut sink, black_box(p)).expect("in-memory frames write");
        }),
        frame_read_us: {
            // Read the whole framed buffer each round; the per-call mean
            // divides by the frame count.
            let rounds = [()];
            mean_us(&rounds, REPLAY_MS, |_| {
                let mut r = framed.as_slice();
                while let Some(p) = read_frame(&mut r).expect("in-memory frames read") {
                    black_box(p);
                }
            }) / all.len() as f64
        },
        req_bytes: mean_len(&req_payloads),
        resp_bytes: mean_len(&resp_payloads),
    }
}

/// Junction-tree size and compile cost for `network`.
pub struct TreeFacts {
    pub compile_ms: f64,
    pub width: f64,
    pub table_entries: f64,
}

/// Compile `network` `reps` times; report the median compile time and
/// the tree's width and summed clique-table sizes.
pub fn tree_facts(network: &BayesianNetwork, reps: usize) -> TreeFacts {
    let mut times = Vec::with_capacity(reps);
    let mut tree = None;
    for _ in 0..reps {
        let t = Instant::now();
        let compiled = JunctionTree::compile(network).expect("benchmark models compile");
        times.push(t.elapsed().as_secs_f64() * 1e3);
        tree = Some(compiled);
    }
    let tree = tree.expect("at least one compile");
    let cards: Vec<usize> = network
        .variables()
        .iter()
        .map(|v| v.cardinality().expect("discrete model"))
        .collect();
    let table_entries: usize = (0..tree.n_cliques())
        .map(|i| {
            tree.clique_scope(i)
                .iter()
                .map(|&v| cards[v])
                .product::<usize>()
        })
        .sum();
    TreeFacts {
        compile_ms: crate::stats::median(&times),
        width: tree.width() as f64,
        table_entries: table_entries as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed("s"),
            start_ns: start,
            end_ns: end,
            labels: Vec::new(),
            links: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = TraceTree {
            trace_id: 1,
            spans: vec![
                span(1, 0, 0, 10_000),
                span(2, 1, 1_000, 4_000),
                span(3, 1, 3_000, 5_000),
                span(4, 2, 1_500, 2_000),
                span(5, 1, 9_000, 12_000),
            ],
        };
        // Children cover [1000, 5000) and [9000, 10000): 5 µs of 10.
        assert_eq!(self_us(&tree, &tree.spans[0]), 5.0);
        assert_eq!(self_us(&tree, &tree.spans[1]), 2.5);
    }
}
