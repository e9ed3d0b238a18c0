//! Causal request tracing: per-request span trees and a flight recorder.
//!
//! [`crate::span`] gives each *thread* a stack of timed scopes feeding
//! histograms; this module gives each *request* a causal tree it can
//! carry across threads. A [`TraceContext`] owns one request's tree:
//! span ids are **trace-local** (a counter starting at 1, not the
//! process-global span id), so two runs of the same request sequence
//! produce bitwise-identical trees — the property the conformance drill
//! gates. Parent links come from a per-context stack of open spans;
//! cross-tree causality (a coalesced request pointing at the micro-batch
//! leader's compute span) is an explicit [`SpanLink`].
//!
//! ## Clocks
//!
//! Timestamps come from the context's [clock](TraceContext::new): the
//! monotonic clock (nanoseconds since the first trace in the process)
//! for live serving, or a **virtual clock** — a seeded splitmix64 walk
//! that advances by a deterministic pseudo-duration per stamp — for
//! replayable drills. Virtual contexts never read the wall clock, so a
//! seeded drill is reproducible down to every `start_ns`/`end_ns`.
//!
//! ## Capturing library spans
//!
//! While a context is [installed](install) on a thread, every
//! [`crate::span`] opened on that thread (junction-tree propagation,
//! serve-layer evidence entry, …) is *also* recorded into the context,
//! nested under its innermost open span. The capture hook only runs when
//! telemetry is enabled, so the disabled-mode cost model — one relaxed
//! atomic load per instrumentation point — is unchanged.
//!
//! ## Flight recorder
//!
//! [`FlightRecorder`] is a bounded ring of the last N completed trees.
//! It is lock-light by construction: spans accumulate in the context
//! (no shared state), and the ring mutex is taken exactly **once per
//! request**, at [`FlightRecorder::record`] — never per span.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TelemetryEvent};

/// Default flight-recorder capacity (complete traces, not spans).
pub const DEFAULT_FLIGHT_CAP: usize = 2048;

/// A causal pointer from one span to a span in (usually) another trace —
/// e.g. a coalesced request's propagate span linking to the micro-batch
/// leader's shared compute span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanLink {
    /// Trace the target span belongs to.
    pub trace_id: u64,
    /// Target span id within that trace.
    pub span_id: u64,
    /// Edge meaning, e.g. `"coalesced-into"`.
    pub kind: String,
}

/// One closed (or still-open: `end_ns == 0`) span inside a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace-local id, 1-based in open order.
    pub id: u64,
    /// Enclosing span's trace-local id (0 = root).
    pub parent: u64,
    /// Span name (`kertd.propagate`, `jt.marginal`, …). A `Cow` so the
    /// capture hook — which only ever sees `&'static` names from
    /// [`crate::span`] call sites — records without allocating.
    pub name: Cow<'static, str>,
    /// Open stamp (clock-dependent: ns or virtual ticks).
    pub start_ns: u64,
    /// Close stamp; 0 while the span is open.
    pub end_ns: u64,
    /// Key/value annotations (verb, group size, queue depth, …).
    pub labels: Vec<(String, String)>,
    /// Cross-trace causal edges.
    pub links: Vec<SpanLink>,
}

/// One request's completed span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceTree {
    /// Request identity (daemon-assigned or carried in on the wire).
    pub trace_id: u64,
    /// Spans in open order; parents always precede children.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// First span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Duration of the first span named `name` (0 if absent).
    pub fn span_ns(&self, name: &str) -> u64 {
        self.find(name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .unwrap_or(0)
    }
}

/// Process-wide trace epoch: all monotonic-clock contexts stamp
/// nanoseconds since the first stamp anywhere in the process, so spans
/// from different threads and traces share one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn monotonic_ns() -> u64 {
    monotonic_ns_at(Instant::now())
}

/// Epoch-relative stamp for an `Instant` the caller already read — the
/// capture hook reuses [`crate::span`]'s own clock read instead of
/// paying a second one per mirror span.
fn monotonic_ns_at(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(|| at);
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// splitmix64: the standard 64-bit finalizer — deterministic, seedable,
/// and good enough to make virtual-clock ticks look duration-like.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone)]
enum TraceClock {
    /// Nanoseconds since the process trace epoch.
    Monotonic,
    /// Seeded deterministic walk: each stamp advances the cursor by a
    /// pseudo-duration derived from the generator state. Never touches
    /// the wall clock.
    Virtual { state: u64, now: u64 },
}

impl TraceClock {
    /// Next stamp. A monotonic clock reuses an already-read `at` instead
    /// of paying a second clock read; a virtual clock ignores `at`
    /// entirely (determinism is its whole point).
    fn stamp_at(&mut self, at: Option<Instant>) -> u64 {
        match self {
            TraceClock::Monotonic => match at {
                Some(at) => monotonic_ns_at(at),
                None => monotonic_ns(),
            },
            TraceClock::Virtual { state, now } => {
                *state = splitmix64(*state);
                *now += (*state % 997) + 1;
                *now
            }
        }
    }
}

/// One request's in-flight trace: an arena of spans plus the stack of
/// currently open ones. Owned, `Send`, and cheap to move between the
/// connection thread, the admission queue, and a worker.
#[derive(Debug)]
pub struct TraceContext {
    trace_id: u64,
    clock: TraceClock,
    spans: Vec<SpanRecord>,
    /// Indices into `spans` of the currently open scopes, innermost last.
    stack: Vec<usize>,
    next_id: u64,
}

impl TraceContext {
    /// A live context on the shared monotonic clock.
    pub fn new(trace_id: u64) -> Self {
        TraceContext::with_clock(trace_id, TraceClock::Monotonic)
    }

    /// A deterministic context: all stamps come from a seeded virtual
    /// clock, so identical operation sequences yield identical trees.
    pub fn with_virtual_clock(trace_id: u64, seed: u64) -> Self {
        TraceContext::with_clock(
            trace_id,
            TraceClock::Virtual {
                state: splitmix64(seed ^ trace_id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                now: 0,
            },
        )
    }

    fn with_clock(trace_id: u64, clock: TraceClock) -> Self {
        TraceContext {
            trace_id,
            clock,
            spans: Vec::with_capacity(8),
            stack: Vec::with_capacity(4),
            next_id: 1,
        }
    }

    /// This trace's identity.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Open a span under the innermost open span (root if none).
    /// Returns its trace-local id.
    pub fn open(&mut self, name: &str) -> u64 {
        self.open_with(Cow::Owned(name.to_string()), None)
    }

    /// The allocation-free open the capture hook uses: a `'static` name
    /// and (optionally) an already-read clock instant.
    fn open_with(&mut self, name: Cow<'static, str>, at: Option<Instant>) -> u64 {
        let start_ns = self.clock.stamp_at(at);
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|&ix| self.spans[ix].id).unwrap_or(0);
        self.stack.push(self.spans.len());
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
            labels: Vec::new(),
            links: Vec::new(),
        });
        id
    }

    /// Close span `id`. Any still-open spans nested inside it are closed
    /// with the same stamp (defensive: a leaked inner guard must not
    /// corrupt the stack). Unknown or already-closed ids are a no-op,
    /// as is `id == 0`.
    pub fn close(&mut self, id: u64) {
        self.close_at(id, None);
    }

    fn close_at(&mut self, id: u64, at: Option<Instant>) {
        if id == 0 {
            return;
        }
        let Some(pos) = self.stack.iter().rposition(|&ix| self.spans[ix].id == id) else {
            return;
        };
        let stamp = self.clock.stamp_at(at);
        // Pop in place rather than `split_off`: closing a span is on the
        // capture hot path and must not allocate.
        while self.stack.len() > pos {
            let ix = self.stack.pop().expect("len > pos >= 0");
            self.spans[ix].end_ns = stamp;
        }
    }

    /// Attach a label to span `id` (no-op for unknown ids).
    pub fn label(&mut self, id: u64, key: &str, value: &str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.labels.push((key.to_string(), value.to_string()));
        }
    }

    /// Attach a cross-trace causal link to span `id`.
    pub fn link(&mut self, id: u64, trace_id: u64, span_id: u64, kind: &str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.links.push(SpanLink {
                trace_id,
                span_id,
                kind: kind.to_string(),
            });
        }
    }

    /// Close every still-open span and yield the finished tree.
    pub fn finish(mut self) -> TraceTree {
        if let Some(&root_ix) = self.stack.first() {
            let root_id = self.spans[root_ix].id;
            self.close(root_id);
        }
        TraceTree {
            trace_id: self.trace_id,
            spans: self.spans,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local capture hook
// ---------------------------------------------------------------------------

thread_local! {
    /// The context capturing this thread's [`crate::span`]s, if any.
    static ACTIVE: RefCell<Option<TraceContext>> = const { RefCell::new(None) };
}

/// Install `ctx` as this thread's capturing context: until [`take`],
/// every enabled [`crate::span`] opened on this thread is also recorded
/// into it. Returns the previously installed context, if any.
pub fn install(mut ctx: TraceContext) -> Option<TraceContext> {
    // An installed context is about to absorb a burst of mirror spans
    // (a propagation can fire dozens); pre-size the arena so the burst
    // doesn't pay repeated reallocation copies of full `SpanRecord`s.
    let want = 96usize.saturating_sub(ctx.spans.len());
    ctx.spans.reserve(want);
    ACTIVE.with(|a| a.borrow_mut().replace(ctx))
}

/// Remove and return this thread's capturing context.
pub fn take() -> Option<TraceContext> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Capture hook for [`crate::span`]: open a mirror span in the installed
/// context, reusing the span's own clock read (`at`) and its `'static`
/// name, so a capture allocates nothing and never touches the clock
/// again. Returns 0 when no context is installed. `try_borrow` keeps the
/// hook inert (rather than aborting) if it ever re-enters.
pub(crate) fn capture_open(name: &'static str, at: Instant) -> u64 {
    ACTIVE.with(|a| match a.try_borrow_mut() {
        Ok(mut guard) => guard
            .as_mut()
            .map(|c| c.open_with(Cow::Borrowed(name), Some(at)))
            .unwrap_or(0),
        Err(_) => 0,
    })
}

/// Close a span previously opened by [`capture_open`]. Runs from `Drop`
/// during unwinding, so it must never panic: borrow failures and missing
/// contexts are silently ignored.
pub(crate) fn capture_close(id: u64, at: Instant) {
    if id == 0 {
        return;
    }
    ACTIVE.with(|a| {
        if let Ok(mut guard) = a.try_borrow_mut() {
            if let Some(c) = guard.as_mut() {
                c.close_at(id, Some(at));
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// A bounded ring of the most recent completed traces. One short mutex
/// acquisition per completed request; spans themselves are buffered in
/// the per-request [`TraceContext`] with no shared state.
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<TraceTree>>,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` traces (`cap` is clamped ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            recorded: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Push a completed trace, evicting the oldest when full.
    pub fn record(&self, tree: TraceTree) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(tree);
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever recorded (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The most recent `limit` traces in arrival order (`limit == 0`
    /// means everything held).
    pub fn snapshot(&self, limit: usize) -> Vec<TraceTree> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let take = if limit == 0 {
            ring.len()
        } else {
            limit.min(ring.len())
        };
        ring.iter().skip(ring.len() - take).cloned().collect()
    }
}

/// Flatten a trace into JSONL [`TelemetryEvent`]s — one `Span`-kind
/// event per span, with the trace id, start stamp, and causal links
/// carried as labels so the flat schema stays unchanged.
pub fn trace_events(tree: &TraceTree) -> Vec<TelemetryEvent> {
    tree.spans
        .iter()
        .map(|s| {
            let elapsed_ns = s.end_ns.saturating_sub(s.start_ns);
            let mut labels = vec![
                ("trace_id".to_string(), tree.trace_id.to_string()),
                ("start_ns".to_string(), s.start_ns.to_string()),
            ];
            labels.extend(s.labels.iter().cloned());
            for l in &s.links {
                labels.push((
                    format!("link_{}", l.kind),
                    format!("{}:{}", l.trace_id, l.span_id),
                ));
            }
            TelemetryEvent {
                seq: 0,
                kind: EventKind::Span,
                name: s.name.to_string(),
                span_id: s.id,
                parent_id: s.parent,
                elapsed_ns,
                value: elapsed_ns as f64,
                labels,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_trace_local_and_parents_nest() {
        let mut ctx = TraceContext::new(7);
        let a = ctx.open("a");
        let b = ctx.open("b");
        let c = ctx.open("c");
        assert_eq!((a, b, c), (1, 2, 3));
        ctx.close(c);
        let d = ctx.open("d");
        ctx.close(d);
        ctx.close(b);
        ctx.close(a);
        let tree = ctx.finish();
        assert_eq!(tree.trace_id, 7);
        let parents: Vec<(u64, u64)> = tree.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(parents, vec![(1, 0), (2, 1), (3, 2), (4, 2)]);
        assert!(tree.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn close_is_defensive_about_leaked_inner_spans() {
        let mut ctx = TraceContext::new(1);
        let outer = ctx.open("outer");
        let _leaked = ctx.open("leaked");
        // Closing the outer span also closes the leaked inner one.
        ctx.close(outer);
        // Closing twice (or a bogus id) is a no-op.
        ctx.close(outer);
        ctx.close(999);
        let tree = ctx.finish();
        assert_eq!(tree.spans.len(), 2);
        assert!(tree.spans.iter().all(|s| s.end_ns != 0));
    }

    #[test]
    fn virtual_clock_is_bitwise_deterministic() {
        let run = |seed: u64| {
            let mut ctx = TraceContext::with_virtual_clock(42, seed);
            let root = ctx.open("root");
            ctx.label(root, "verb", "posterior");
            let child = ctx.open("child");
            ctx.link(child, 41, 3, "coalesced-into");
            ctx.close(child);
            ctx.close(root);
            serde_json::to_string(&ctx.finish()).unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds must give different stamps");
    }

    #[test]
    fn install_capture_take_round_trip() {
        let mut ctx = TraceContext::with_virtual_clock(9, 1);
        let root = ctx.open("root");
        assert!(install(ctx).is_none());
        assert!(ACTIVE.with(|a| a.borrow().is_some()));
        let captured = capture_open("inner.work", Instant::now());
        assert_ne!(captured, 0);
        capture_close(captured, Instant::now());
        let mut ctx = take().expect("context still installed");
        assert!(ACTIVE.with(|a| a.borrow().is_none()));
        ctx.close(root);
        let tree = ctx.finish();
        let inner = tree.find("inner.work").expect("captured span recorded");
        assert_eq!(inner.parent, root);
        // With nothing installed the hook is a no-op returning 0.
        assert_eq!(capture_open("ignored", Instant::now()), 0);
        capture_close(17, Instant::now());
    }

    #[test]
    fn flight_recorder_bounds_and_snapshots() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(TraceTree {
                trace_id: i,
                spans: Vec::new(),
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total_recorded(), 5);
        let ids: Vec<u64> = rec.snapshot(0).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        let ids: Vec<u64> = rec.snapshot(2).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn trace_trees_round_trip_through_serde() {
        let mut ctx = TraceContext::with_virtual_clock(3, 11);
        let a = ctx.open("a");
        ctx.label(a, "k", "v");
        ctx.link(a, 2, 1, "coalesced-into");
        ctx.close(a);
        let tree = ctx.finish();
        let json = serde_json::to_string(&tree).unwrap();
        let back: TraceTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn trace_events_flatten_spans_with_context_labels() {
        let mut ctx = TraceContext::with_virtual_clock(4, 2);
        let a = ctx.open("kertd.request");
        let b = ctx.open("kertd.propagate");
        ctx.link(b, 9, 2, "coalesced-into");
        ctx.close(b);
        ctx.close(a);
        let events = trace_events(&ctx.finish());
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.labels.iter().any(|(k, v)| k == "trace_id" && v == "4")));
        assert!(events[1]
            .labels
            .iter()
            .any(|(k, v)| k == "link_coalesced-into" && v == "9:2"));
    }
}
