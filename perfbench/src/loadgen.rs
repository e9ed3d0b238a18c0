//! Open-loop load generation over kertd connections.
//!
//! One client thread per connection walks its own schedule of
//! `(due time, request)` pairs, waiting until each is due. The protocol
//! allows one outstanding request per connection, so when the daemon
//! falls behind, requests leave late. A request whose connection was
//! still waiting for the previous reply when it fell due has its latency
//! measured from when it was due, so the daemon's backlog counts; one
//! whose connection was idle has it measured from when it was sent, so
//! the generator's own wake-up delay does not.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use kertd::protocol::{Request, Response};
use kertd::Client;

use crate::stats::{block_percentile, median, sorted};
use crate::verify::{is_answer, ReplyBook};

/// One connection's schedule: `(due ns from the phase start, request index)`.
pub type Schedule = Vec<(u64, usize)>;

/// Delay between computing a phase's start and its first possible due
/// time, so every client thread is connected and waiting.
const START_SLACK: Duration = Duration::from_millis(20);

/// A client thread sleeps until this long before a request is due and
/// then yields in a loop until it is due, so a late wake-up seldom
/// delays the send; yielding lets a client or daemon thread that shares
/// the core run meanwhile (in `serve-hot` both client threads wait for
/// the same instant).
const SPIN: Duration = Duration::from_micros(200);

/// One request's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due time, ns from the phase start.
    pub due_ns: u64,
    /// Send time minus due time, ms.
    pub late_ms: f64,
    pub latency_ms: f64,
    /// Index of the request sent.
    pub idx: usize,
}

/// What one phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    /// Per request, in due order.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with a result that matched earlier replies.
    pub succeeded: u64,
    /// Error replies, I/O errors and replies that differed.
    pub failed: u64,
    /// Seconds from the phase start to the last completion.
    pub wall_s: f64,
    /// A connection fell more than [`ABORT_LATE_MS`] behind and stopped.
    pub aborted: bool,
}

impl PhaseResult {
    /// Latencies, in due order.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// Generator lateness, ascending.
    pub fn lateness(&self) -> Vec<f64> {
        sorted(&self.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>())
    }

    /// Did lateness grow over the phase by more than `by_ms`? Compares
    /// the median lateness of the last quarter of due times with the
    /// first quarter's.
    pub fn lateness_grew(&self, by_ms: f64) -> bool {
        let q = self.samples.len() / 4;
        if q == 0 {
            return false;
        }
        let first: Vec<f64> = self.samples[..q].iter().map(|s| s.late_ms).collect();
        let last: Vec<f64> = self.samples[self.samples.len() - q..]
            .iter()
            .map(|s| s.late_ms)
            .collect();
        median(&last) > median(&first) + by_ms
    }

    /// Append a later phase, shifted to start when this one ended.
    pub fn append(&mut self, later: PhaseResult) {
        let offset = (self.wall_s * 1e9) as u64;
        self.samples
            .extend(later.samples.into_iter().map(|s| Sample {
                due_ns: s.due_ns + offset,
                ..s
            }));
        self.sent += later.sent;
        self.succeeded += later.succeeded;
        self.failed += later.failed;
        self.wall_s += later.wall_s;
        self.aborted |= later.aborted;
    }

    /// Percentile `p` of the latency, over blocks (see
    /// [`block_percentile`]).
    pub fn latency_ms(&self, p: f64) -> f64 {
        block_percentile(&self.latencies(), p)
    }

    /// Latencies, in due order, each tagged with `kind` of its request
    /// index.
    pub fn tagged<K>(&self, kind: impl Fn(usize) -> K) -> Vec<(K, f64)> {
        self.samples
            .iter()
            .map(|s| (kind(s.idx), s.latency_ms))
            .collect()
    }
}

/// A connection that falls this far behind its schedule stops sending:
/// the rate is past what it can carry, and the rest would only drain.
const ABORT_LATE_MS: f64 = 250.0;

/// Run one open-loop phase: connection `c` follows `schedules[c]`.
/// With `trace_base`, requests carry trace ids `trace_base + c<<32 + k`.
/// Answered replies are checked against (and recorded in) `book`.
pub fn run_phase(
    addr: SocketAddr,
    requests: &[Request],
    schedules: &[Schedule],
    trace_base: Option<u64>,
    book: &mut ReplyBook,
) -> PhaseResult {
    let start = Instant::now() + START_SLACK;
    let outcomes: Vec<(ConnOutcome, ReplyBook)> = thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                let trace = trace_base.map(|b| b + ((c as u64) << 32));
                let distinct = requests.len();
                s.spawn(move || {
                    let mut local = ReplyBook::new(distinct);
                    let out = drive(addr, requests, schedule, start, trace, &mut local);
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = PhaseResult::default();
    let mut last_done = start;
    for (out, local) in outcomes {
        // A thread's first reply that differs from another thread's is
        // one more wrong reply.
        result.failed += book.merge(local);
        result.sent += out.sent;
        result.failed += out.failed;
        result.samples.extend(out.samples);
        result.aborted |= out.aborted;
        last_done = last_done.max(out.last_done);
    }
    result.succeeded = result.sent.saturating_sub(result.failed);
    result.samples.sort_by_key(|s| s.due_ns);
    result.wall_s = last_done.saturating_duration_since(start).as_secs_f64();
    result
}

struct ConnOutcome {
    samples: Vec<Sample>,
    sent: u64,
    failed: u64,
    last_done: Instant,
    aborted: bool,
}

fn drive(
    addr: SocketAddr,
    requests: &[Request],
    schedule: &Schedule,
    start: Instant,
    trace: Option<u64>,
    book: &mut ReplyBook,
) -> ConnOutcome {
    let mut client = Client::connect(addr).ok();
    let mut out = ConnOutcome {
        samples: Vec::with_capacity(schedule.len()),
        sent: 0,
        failed: 0,
        last_done: start,
        aborted: false,
    };
    for (k, &(due_ns, idx)) in schedule.iter().enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        // The previous reply on this connection, if it came back after
        // this request fell due, held the request back.
        let backlogged = out.last_done > due;
        wait_until(due);
        let sent = Instant::now();
        let reply: Option<Response> = match client.as_mut() {
            Some(c) => match trace {
                Some(base) => c
                    .request_traced(&requests[idx], base + k as u64)
                    .map(|(r, _)| r)
                    .ok(),
                None => c.request(&requests[idx]).ok(),
            },
            None => None,
        };
        let done = Instant::now();
        out.sent += 1;
        let ok = match reply {
            Some(r) if is_answer(&r) => book.record(idx, r),
            Some(_) => false,
            None => {
                // An I/O error: reconnect for the next request.
                client = Client::connect(addr).ok();
                false
            }
        };
        if !ok {
            out.failed += 1;
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let late = ms(sent.saturating_duration_since(due));
        let from = if backlogged { due } else { sent };
        out.samples.push(Sample {
            due_ns,
            late_ms: late,
            latency_ms: ms(done.saturating_duration_since(from)),
            idx,
        });
        out.last_done = done;
        if late > ABORT_LATE_MS {
            out.aborted = true;
            break;
        }
    }
    out
}

/// Sleep until [`SPIN`] before `due`, then yield until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if let Some(rest) = due.checked_duration_since(now + SPIN) {
        thread::sleep(rest);
    }
    while Instant::now() < due {
        thread::yield_now();
    }
}
