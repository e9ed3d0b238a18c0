//! Reply checking for the serving workloads.
//!
//! Every reply to a request is compared by value with the first reply
//! to the same request while the run goes on; after the timed phases
//! each first reply is compared byte-for-byte, re-encoded, with the same
//! request answered by a direct [`Session`]. The wire prints floats with
//! shortest round-trip formatting, so equal bytes mean bitwise-equal
//! floats.

use kert_core::serve::SharedKert;
use kertd::protocol::{encode, Request, Response, WireDcomp, WireError, WirePaccel, WirePosterior};

/// Answer `request` in-process, building the response exactly as the
/// daemon does.
pub fn direct_answer(engine: &SharedKert, request: &Request) -> Response {
    let mut session = engine.session();
    let result = match request {
        Request::Posterior { evidence, target } => session
            .posterior_group(evidence, std::slice::from_ref(target))
            .map(|ps| wire(WirePosterior::from_posterior(&ps[0]).map(Response::Posterior))),
        Request::Dcomp { observed, targets } => session.dcomp(observed, targets).map(|outs| {
            let wired: Result<Vec<_>, WireError> =
                outs.iter().map(WireDcomp::from_outcome).collect();
            wire(wired.map(|outcomes| Response::Dcomp { outcomes }))
        }),
        Request::Paccel { candidates } => session.paccel(candidates).map(|outs| {
            let wired: Result<Vec<_>, WireError> =
                outs.iter().map(WirePaccel::from_outcome).collect();
            wire(wired.map(|outcomes| Response::Paccel { outcomes }))
        }),
        Request::Violation {
            evidence,
            thresholds,
        } => session
            .violation_sweep(evidence, thresholds)
            .map(|probabilities| Response::Violation { probabilities }),
        other => panic!("{} is not a query the benchmark sends", other.verb()),
    };
    result.unwrap_or_else(|e| Response::Error(WireError::from_core(&e)))
}

fn wire(r: Result<Response, WireError>) -> Response {
    r.unwrap_or_else(Response::Error)
}

/// Is `reply` an answer (not a typed error)?
pub fn is_answer(reply: &Response) -> bool {
    !matches!(reply, Response::Error(_))
}

/// Do two responses carry the same bytes on the wire?
pub fn same_bytes(a: &Response, b: &Response) -> bool {
    match (encode(a), encode(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

/// First reply per distinct request, with the count of later replies
/// that differed from it.
pub struct ReplyBook {
    first: Vec<Option<Response>>,
    /// Later replies that differed from their request's first reply.
    pub drifted: u64,
}

impl ReplyBook {
    /// A book for `distinct` requests.
    pub fn new(distinct: usize) -> Self {
        ReplyBook {
            first: vec![None; distinct],
            drifted: 0,
        }
    }

    /// Record one answered reply to request `idx`; returns false (and
    /// counts it) when it differs from the request's first reply.
    pub fn record(&mut self, idx: usize, reply: Response) -> bool {
        match &self.first[idx] {
            None => {
                self.first[idx] = Some(reply);
                true
            }
            Some(first) if *first == reply => true,
            Some(_) => {
                self.drifted += 1;
                false
            }
        }
    }

    /// Merge another thread's book: its first replies must match ours.
    /// Returns how many did not; they count in `drifted` as well.
    pub fn merge(&mut self, other: ReplyBook) -> u64 {
        self.drifted += other.drifted;
        let before = self.drifted;
        for (idx, reply) in other.first.into_iter().enumerate() {
            if let Some(reply) = reply {
                self.record(idx, reply);
            }
        }
        self.drifted - before
    }

    /// The first reply recorded for request `idx`.
    pub fn first(&self, idx: usize) -> Option<&Response> {
        self.first[idx].as_ref()
    }

    /// Requests with at least one recorded reply.
    pub fn answered(&self) -> usize {
        self.first.iter().filter(|r| r.is_some()).count()
    }

    /// Compare each first reply with `expected(idx)`, on one thread per
    /// core; returns the number of distinct requests whose reply is wrong.
    pub fn mismatches(&self, expected: impl Fn(usize) -> Response + Sync) -> u64 {
        let answered: Vec<(usize, &Response)> = self
            .first
            .iter()
            .enumerate()
            .filter_map(|(idx, reply)| reply.as_ref().map(|r| (idx, r)))
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = answered.len().div_ceil(threads).max(1);
        let expected = &expected;
        std::thread::scope(|s| {
            let handles: Vec<_> = answered
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .filter(|&&(idx, reply)| !same_bytes(reply, &expected(idx)))
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("check thread panicked"))
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::{build_model, hot_requests, model_inputs, row_stream, ModelKind};

    #[test]
    fn a_corrupted_expected_answer_is_counted_as_failed() {
        let inputs = model_inputs(ModelKind::Ediamond);
        let engine = SharedKert::new(build_model(&inputs)).unwrap();
        let rows = row_stream(ModelKind::Ediamond, 2, 5);
        let requests = hot_requests(&rows, 6);
        let mut book = ReplyBook::new(requests.len());
        for (idx, req) in requests.iter().enumerate() {
            assert!(book.record(idx, direct_answer(&engine, req)));
            assert!(book.record(idx, direct_answer(&engine, req)));
        }
        assert_eq!(book.drifted, 0);
        assert_eq!(book.answered(), requests.len());
        assert_eq!(book.mismatches(|i| direct_answer(&engine, &requests[i])), 0);

        // Flip the lowest mantissa bit of one probability in the oracle.
        let corrupt = |i: usize| {
            let mut answer = direct_answer(&engine, &requests[i]);
            if i == 2 {
                match &mut answer {
                    Response::Posterior(p) => {
                        p.probs[0] = f64::from_bits(p.probs[0].to_bits() ^ 1);
                    }
                    other => panic!("entry 2 is the posterior of D, got {other:?}"),
                }
            }
            answer
        };
        assert_eq!(book.mismatches(corrupt), 1);

        // A later reply that differs from the first one is counted too.
        let mut wrong = direct_answer(&engine, &requests[1]);
        if let Response::Violation { probabilities } = &mut wrong {
            probabilities[0] += 1e-12;
        }
        assert!(!book.record(1, wrong));
        assert_eq!(book.drifted, 1);
    }

    #[test]
    fn merging_counts_only_cross_thread_differences() {
        let answer = |p: f64| Response::Violation {
            probabilities: vec![p],
        };
        let mut book = ReplyBook::new(2);
        assert!(book.record(0, answer(0.1)));
        // A thread that saw one wrong reply of its own (already failed
        // by that thread) and agrees with the book on its first replies.
        let mut agreeing = ReplyBook::new(2);
        assert!(agreeing.record(0, answer(0.1)));
        assert!(!agreeing.record(0, answer(0.2)));
        assert_eq!(book.merge(agreeing), 0);
        assert_eq!(book.drifted, 1);
        // A thread whose first reply differs from the book's.
        let mut differing = ReplyBook::new(2);
        assert!(differing.record(0, answer(0.3)));
        assert!(differing.record(1, answer(0.4)));
        assert_eq!(book.merge(differing), 1);
        assert_eq!(book.drifted, 2);
        assert_eq!(book.answered(), 2);
    }
}
