//! The kertd wire protocol: request and response vocabulary.
//!
//! Externally-tagged serde enums over the length-prefixed frames of
//! [`crate::frame`]. Numbers travel as JSON floats printed with Rust's
//! shortest-round-trip formatting, so every `f64` a response carries
//! parses back to the **bit-identical** value the engine computed — the
//! property the conformance harness gates (daemon responses must equal
//! direct in-process `Session` results bitwise).
//!
//! Queries mirror the four autonomic entry points (posterior, dComp,
//! pAccel, violation); control verbs cover liveness (`Ping`), inspection
//! (`Status`, `Metrics`) and lifecycle (`Stop`). Every failure is a typed
//! [`Response::Error`] with a machine-readable [`ErrorKind`] — load
//! shedding (`Overloaded`) is an *answer*, not a dropped connection.

use kert_core::{CoreError, DCompOutcome, PAccelOutcome, Posterior};
use kert_obs::TraceTree;
use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Daemon status snapshot (queue depth, served counts, config).
    Status,
    /// Prometheus text exposition of the daemon's `kert-obs` registry.
    Metrics,
    /// Graceful shutdown: drain queued work, answer, then exit.
    Stop,
    /// Fetch the most recent `limit` span trees from the flight
    /// recorder (0 = everything held). Answered inline; errors with
    /// `BadRequest` when the daemon runs without tracing.
    Trace { limit: usize },
    /// Posterior of `target` given `evidence` (raw measurement values).
    Posterior {
        evidence: Vec<(usize, f64)>,
        target: usize,
    },
    /// dComp: prior + posterior per target under one shared evidence set.
    Dcomp {
        observed: Vec<(usize, f64)>,
        targets: Vec<usize>,
    },
    /// pAccel projections for `(service, predicted_elapsed)` candidates.
    Paccel { candidates: Vec<(usize, f64)> },
    /// `P(D > h | evidence)` for each threshold.
    Violation {
        evidence: Vec<(usize, f64)>,
        thresholds: Vec<f64>,
    },
}

impl Request {
    /// Short verb name, used for per-endpoint metrics and logs.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Stop => "stop",
            Request::Trace { .. } => "trace",
            Request::Posterior { .. } => "posterior",
            Request::Dcomp { .. } => "dcomp",
            Request::Paccel { .. } => "paccel",
            Request::Violation { .. } => "violation",
        }
    }

    /// True for the verbs that go through admission and the worker pool
    /// (as opposed to control verbs answered inline).
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            Request::Posterior { .. }
                | Request::Dcomp { .. }
                | Request::Paccel { .. }
                | Request::Violation { .. }
        )
    }
}

/// A discrete posterior on the wire: exactly the payload of
/// [`Posterior::Discrete`], plus its derived mean for convenience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePosterior {
    /// Representative value per state.
    pub support: Vec<f64>,
    /// Probability per state.
    pub probs: Vec<f64>,
    /// Bin bounds per state, when the discretizer is known.
    pub bounds: Option<Vec<(f64, f64)>>,
    /// Posterior mean (derived; computed server-side).
    pub mean: f64,
}

impl WirePosterior {
    /// Snapshot a core posterior. Serving is junction-tree-backed, so
    /// the posterior is always discrete; anything else is an internal
    /// inconsistency surfaced as an error.
    pub fn from_posterior(p: &Posterior) -> Result<Self, WireError> {
        match p {
            Posterior::Discrete {
                support,
                probs,
                bounds,
            } => Ok(WirePosterior {
                support: support.clone(),
                probs: probs.clone(),
                bounds: bounds.clone(),
                mean: p.mean(),
            }),
            other => Err(WireError {
                kind: ErrorKind::Internal,
                message: format!("non-discrete posterior from the serving engine: {other:?}"),
            }),
        }
    }
}

/// One dComp outcome on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireDcomp {
    pub target: usize,
    pub prior: WirePosterior,
    pub posterior: WirePosterior,
}

impl WireDcomp {
    pub fn from_outcome(o: &DCompOutcome) -> Result<Self, WireError> {
        Ok(WireDcomp {
            target: o.target,
            prior: WirePosterior::from_posterior(&o.prior)?,
            posterior: WirePosterior::from_posterior(&o.posterior)?,
        })
    }
}

/// One pAccel outcome on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WirePaccel {
    pub service: usize,
    pub predicted_elapsed: f64,
    pub prior_d: WirePosterior,
    pub projected_d: WirePosterior,
    pub degraded: bool,
}

impl WirePaccel {
    pub fn from_outcome(o: &PAccelOutcome) -> Result<Self, WireError> {
        Ok(WirePaccel {
            service: o.service,
            predicted_elapsed: o.predicted_elapsed,
            prior_d: WirePosterior::from_posterior(&o.prior_d)?,
            projected_d: WirePosterior::from_posterior(&o.projected_d)?,
            degraded: o.degraded,
        })
    }
}

/// Why a request was refused or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The admission queue is full; retry with backoff. The daemon shed
    /// this request *instead of* queueing unboundedly.
    Overloaded,
    /// The daemon is draining for shutdown; no new work is admitted.
    ShuttingDown,
    /// The request contradicts the model (unknown node, bad target…).
    BadRequest,
    /// The frame was not a valid request.
    Malformed,
    /// Engine-side failure; the request may be retried.
    Internal,
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    pub kind: ErrorKind,
    pub message: String,
}

impl WireError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }

    /// Map an engine error onto the wire vocabulary.
    pub fn from_core(e: &CoreError) -> Self {
        let kind = match e {
            CoreError::BadRequest(_) => ErrorKind::BadRequest,
            _ => ErrorKind::Internal,
        };
        WireError::new(kind, e.to_string())
    }
}

/// Daemon status snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// Nodes in the served model.
    pub nodes: usize,
    /// Service nodes in the served model.
    pub n_services: usize,
    /// End-to-end metric node index.
    pub d_node: usize,
    /// Induced width of the compiled junction tree.
    pub width: usize,
    /// Worker-pool width.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Jobs checked out by workers right now.
    pub inflight: usize,
    /// Always 0: workers fold only what is already queued and never
    /// wait for more, so there is no coalescing window. Kept on the wire
    /// for existing readers.
    pub coalesce_window_us: u64,
    /// Queries answered, by verb.
    pub served_posterior: u64,
    pub served_dcomp: u64,
    pub served_paccel: u64,
    pub served_violation: u64,
    /// Requests refused with `Overloaded`.
    pub shed_overloaded: u64,
    /// Requests refused with `ShuttingDown`.
    pub shed_shutting_down: u64,
    /// Micro-batches executed and the requests they folded together.
    pub coalesced_batches: u64,
    pub coalesced_requests: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// True once a drain has been initiated.
    pub draining: bool,
    /// True when the daemon records request traces.
    pub tracing: bool,
    /// Traces ever recorded (including ones the ring evicted).
    pub traces_recorded: u64,
}

/// One daemon response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    Pong,
    Status(StatusInfo),
    Metrics {
        prometheus: String,
    },
    /// Acknowledges `Stop`; sent only after the queue fully drained.
    Stopping,
    Posterior(WirePosterior),
    Dcomp {
        outcomes: Vec<WireDcomp>,
    },
    Paccel {
        outcomes: Vec<WirePaccel>,
    },
    Violation {
        probabilities: Vec<f64>,
    },
    /// Flight-recorder contents for [`Request::Trace`].
    Traces {
        traces: Vec<TraceTree>,
    },
    Error(WireError),
}

/// Serialize a protocol message to frame payload bytes.
pub fn encode<T: Serialize>(msg: &T) -> Result<Vec<u8>, String> {
    serde_json::to_string(msg)
        .map(String::into_bytes)
        .map_err(|e| e.to_string())
}

/// Parse a frame payload.
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_with_bitwise_floats() {
        // Values chosen to have non-terminating binary expansions.
        let reqs = vec![
            Request::Ping,
            Request::Posterior {
                evidence: vec![(0, 0.1), (3, 0.30000000000000004)],
                target: 6,
            },
            Request::Dcomp {
                observed: vec![(1, 1.0 / 3.0)],
                targets: vec![2, 3],
            },
            Request::Violation {
                evidence: vec![],
                thresholds: vec![f64::MIN_POSITIVE, 0.7],
            },
        ];
        for req in reqs {
            let bytes = encode(&req).unwrap();
            let back: Request = decode(&bytes).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Posterior(WirePosterior {
            support: vec![0.1, 0.2, 1.0 / 3.0],
            probs: vec![0.25, 0.25, 0.5],
            bounds: Some(vec![(0.0, 0.15), (0.15, 0.25), (0.25, 1.0)]),
            mean: 0.2416666666666667,
        });
        let back: Response = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);

        let err = Response::Error(WireError::new(ErrorKind::Overloaded, "queue full (cap 4)"));
        let back: Response = decode(&encode(&err).unwrap()).unwrap();
        assert_eq!(back, err);
    }

    #[test]
    fn trace_verbs_round_trip() {
        let req = Request::Trace { limit: 128 };
        assert_eq!(req.verb(), "trace");
        assert!(!req.is_query(), "trace is a control verb");
        let back: Request = decode(&encode(&req).unwrap()).unwrap();
        assert_eq!(back, req);

        let mut ctx = kert_obs::TraceContext::with_virtual_clock(7, 3);
        let root = ctx.open("kertd.request");
        ctx.label(root, "verb", "posterior");
        let p = ctx.open("kertd.propagate");
        ctx.link(p, 6, 3, "coalesced-into");
        ctx.close(p);
        ctx.close(root);
        let resp = Response::Traces {
            traces: vec![ctx.finish()],
        };
        let back: Response = decode(&encode(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn garbage_is_a_decode_error_not_a_panic() {
        assert!(decode::<Request>(b"not json").is_err());
        assert!(decode::<Request>(&[0xff, 0xfe]).is_err());
        assert!(decode::<Request>(b"{\"NoSuchVerb\":{}}").is_err());
    }

    use proptest::prelude::*;

    /// Bytes that steer the parser into its containers, strings, escapes,
    /// numbers and literals far more often than uniform bytes do.
    const JSONISH: &[u8] = b"[]{}\":,\\ 0123456789.-+eEtrufalsnuPingPosteriorevidencetarget\xff";

    /// JSON nested `depth` levels deep, cycling through `openers` (`true`
    /// opens an array, `false` an object field), closed or left torn.
    fn nested(depth: usize, openers: &[bool], closed: bool) -> String {
        let mut text = String::new();
        for level in 0..depth {
            text.push_str(if openers[level % openers.len()] {
                "["
            } else {
                r#"{"Ping":"#
            });
        }
        text.push('1');
        if closed {
            for level in (0..depth).rev() {
                text.push(if openers[level % openers.len()] {
                    ']'
                } else {
                    '}'
                });
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Neither uniform bytes nor JSON-like noise panics the decoder.
        #[test]
        fn arbitrary_bytes_decode_without_panicking(
            bytes in proptest::collection::vec(0u8..=255, 0..400),
            picks in proptest::collection::vec(0..JSONISH.len(), 0..400),
        ) {
            let _ = decode::<Request>(&bytes);
            let jsonish: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
            let _ = decode::<Request>(&jsonish);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Nesting of any depth is decoded on a thread with the default
        /// stack, like a daemon connection thread; past 128 levels it is a
        /// parse error, never a stack overflow.
        #[test]
        fn deep_nesting_is_an_error_not_a_stack_overflow(
            depth in prop_oneof![0usize..300, 0usize..=100_000],
            openers in proptest::collection::vec(proptest::bool::ANY, 1..6),
            closed in proptest::bool::ANY,
        ) {
            let text = nested(depth, &openers, closed);
            let decoded = std::thread::spawn(move || decode::<Request>(text.as_bytes()))
                .join()
                .expect("decode panicked");
            if depth > 128 {
                let err = decoded.expect_err("129+ levels must be refused");
                prop_assert!(err.contains("nesting deeper than 128"), "{}", err);
            }
        }
    }
}
