//! The daemon itself: acceptor, admission queue, coalescing workers.
//!
//! Architecture (one process, all `std`):
//!
//! ```text
//!  TcpListener ──accept──▶ connection threads (1 per client)
//!       │                        │ control verbs answered inline
//!       │                        ▼
//!       │                 bounded admission queue ──▶ typed shed when full
//!       │                        │
//!       ▼                        ▼
//!   worker threads ◀──pop head + fold queued same-key jobs──┘
//!       │  one pooled Session per micro-batch:
//!       │  evidence entered once, k marginal reads
//!       ▼
//!   reply channels ──▶ connection threads ──▶ frames out
//! ```
//!
//! The perf core is the shared-immutable / per-session-mutable split of
//! [`SharedKert`]: the calibrated junction tree is compiled once and
//! never locked on the query path; each micro-batch checks a pooled
//! propagation state out, enters its evidence **once**, and answers
//! every folded request with a single marginal read. Coalescing turns
//! `k` queued single-target requests that share an evidence set into
//! one propagation plus `k` reads — the same amortization that makes
//! `dcomp_all` beat sequential queries in-process — and duplicated work
//! items inside a batch (the hot-query case: many clients asking for
//! the same decomposition at once) are computed once and fanned out to
//! every requester.
//!
//! Workers are **work-conserving**: a free worker takes the head job at
//! once and folds in only what is already queued behind it; it never
//! waits for more. An idle daemon answers each request alone and
//! immediately, and under a backlog the queue itself is the batch, so
//! batches grow with load.
//!
//! Correctness contract: every response is **bitwise identical** to the
//! same query answered by a direct in-process engine, whatever the
//! worker count or fold cap (`max_batch`). Coalescing only ever regroups
//! *pure* reads against identical evidence, so grouping is invisible in
//! the results — the conformance suite gates exactly this.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kert_core::serve::SharedKert;
use kert_core::Result as CoreResult;
use kert_obs::trace::{self, DEFAULT_FLIGHT_CAP};
use kert_obs::{set_gauge, Counter, FlightRecorder, Histogram, TraceContext};

use crate::frame::{read_frame_traced, write_frame_traced};
use crate::protocol::{
    decode, encode, ErrorKind, Request, Response, StatusInfo, WireDcomp, WireError, WirePaccel,
    WirePosterior,
};

static REQ_POSTERIOR: Counter = Counter::new("kertd.requests.posterior");
static REQ_DCOMP: Counter = Counter::new("kertd.requests.dcomp");
static REQ_PACCEL: Counter = Counter::new("kertd.requests.paccel");
static REQ_VIOLATION: Counter = Counter::new("kertd.requests.violation");
static REQ_CONTROL: Counter = Counter::new("kertd.requests.control");
static SHED_OVERLOADED: Counter = Counter::new("kertd.shed.overloaded");
static SHED_SHUTTING_DOWN: Counter = Counter::new("kertd.shed.shutting_down");
static COALESCED_BATCHES: Counter = Counter::new("kertd.coalesce.batches");
static COALESCED_REQUESTS: Counter = Counter::new("kertd.coalesce.batched_requests");
static COALESCED_DEDUPED: Counter = Counter::new("kertd.coalesce.deduped_work");
static LAT_POSTERIOR: Histogram = Histogram::new("kertd.latency.posterior");
static LAT_DCOMP: Histogram = Histogram::new("kertd.latency.dcomp");
static LAT_PACCEL: Histogram = Histogram::new("kertd.latency.paccel");
static LAT_VIOLATION: Histogram = Histogram::new("kertd.latency.violation");
static LAT_QUEUE_WAIT: Histogram = Histogram::new("kertd.queue.wait");

fn latency_histogram(verb: &str) -> &'static Histogram {
    match verb {
        "posterior" => &LAT_POSTERIOR,
        "dcomp" => &LAT_DCOMP,
        "paccel" => &LAT_PACCEL,
        _ => &LAT_VIOLATION,
    }
}

fn request_counter(verb: &str) -> &'static Counter {
    match verb {
        "posterior" => &REQ_POSTERIOR,
        "dcomp" => &REQ_DCOMP,
        "paccel" => &REQ_PACCEL,
        "violation" => &REQ_VIOLATION,
        _ => &REQ_CONTROL,
    }
}

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for a free port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker-pool width; 0 means the host's available parallelism.
    pub workers: usize,
    /// Admission-queue capacity. A queue at capacity sheds new queries
    /// with a typed `Overloaded` response instead of buffering without
    /// bound.
    pub queue_cap: usize,
    /// Ceiling on requests folded into one micro-batch; 1 turns folding
    /// off (every request is its own batch). Results are identical
    /// either way.
    pub max_batch: usize,
    /// Record a causal span tree per query into the flight recorder
    /// (accept → queue-wait → coalesce-group → propagate → serialize),
    /// fetchable with [`Request::Trace`].
    pub trace: bool,
    /// Flight-recorder capacity in complete traces (0 = default).
    pub trace_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 256,
            max_batch: 64,
            trace: false,
            trace_cap: DEFAULT_FLIGHT_CAP,
        }
    }
}

/// One admitted query waiting for a worker.
struct Job {
    request: Request,
    reply: mpsc::Sender<Reply>,
    enqueued: Instant,
    /// This request's trace, when the daemon runs with tracing on. The
    /// context rides the job through the queue and the worker, then
    /// returns to the connection thread inside the [`Reply`].
    trace: Option<TraceContext>,
    /// The open `kertd.queue_wait` span id (0 when untraced); closed by
    /// the worker that checks the job out.
    queue_span: u64,
}

/// A worker's answer, carrying the request's trace context back to the
/// connection thread so the serialize span lands in the same tree.
struct Reply {
    response: Response,
    trace: Option<TraceContext>,
}

impl Job {
    /// A worker took the job: record its queue wait and close its
    /// queue-wait span. Every job of a folded group passes through here.
    fn check_out(&mut self) {
        LAT_QUEUE_WAIT.record(self.enqueued.elapsed().as_nanos() as u64);
        if let Some(ctx) = self.trace.as_mut() {
            ctx.close(self.queue_span);
            self.queue_span = 0;
        }
    }
}

/// Open the per-request root span — the *accept* scope covering the
/// request's whole daemon-side life. Shared by the live connection path
/// and the deterministic drill so both produce identical tree shapes.
pub(crate) fn open_request_root(ctx: &mut TraceContext, verb: &str) -> u64 {
    let root = ctx.open("kertd.request");
    ctx.label(root, "verb", verb);
    root
}

/// Mutex-guarded queue state; `inflight` counts jobs checked out by
/// workers so a drain can distinguish "queue empty" from "work done".
struct QueueState {
    jobs: VecDeque<Job>,
    /// False once a drain began: no new admissions, workers exit when
    /// the backlog is gone.
    open: bool,
    inflight: usize,
    /// `Stopping` replies promised but not yet written to their socket.
    /// [`ServerHandle::wait`] lingers on this so the process hosting the
    /// daemon cannot exit between the drain finishing and the stop
    /// requester reading its acknowledgment (the connection threads are
    /// detached, so joining can't provide that ordering).
    stop_acks_pending: usize,
}

/// Monotonic daemon statistics, kept separately from `kert-obs` so
/// `STATUS` works even when telemetry is compiled out or disabled.
#[derive(Default)]
struct Stats {
    served_posterior: AtomicU64,
    served_dcomp: AtomicU64,
    served_paccel: AtomicU64,
    served_violation: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_shutting_down: AtomicU64,
    coalesced_batches: AtomicU64,
    coalesced_requests: AtomicU64,
}

impl Stats {
    fn served(&self, verb: &str) -> &AtomicU64 {
        match verb {
            "posterior" => &self.served_posterior,
            "dcomp" => &self.served_dcomp,
            "paccel" => &self.served_paccel,
            _ => &self.served_violation,
        }
    }
}

/// Everything the acceptor, connection, and worker threads share.
struct Shared {
    engine: SharedKert,
    q: Mutex<QueueState>,
    cv: Condvar,
    shutdown: AtomicBool,
    started: Instant,
    stats: Stats,
    cfg: ServeConfig,
    local_addr: SocketAddr,
    /// Completed span trees, present iff `cfg.trace`.
    recorder: Option<Arc<FlightRecorder>>,
    /// Daemon-assigned trace ids for requests that did not bring one.
    trace_seq: AtomicU64,
    /// Nanosecond stamp (since `started`) of the last admission, for
    /// the inter-arrival-gap label on queue-wait spans.
    last_admit_ns: AtomicU64,
}

impl Shared {
    /// Admit a query or shed it with a typed refusal (boxed: the shed
    /// path is cold, so the large `Response` stays off the hot return).
    fn submit(
        &self,
        request: Request,
        mut trace_ctx: Option<TraceContext>,
    ) -> std::result::Result<mpsc::Receiver<Reply>, Box<Response>> {
        let mut q = self.q.lock().expect("queue poisoned");
        if !q.open {
            self.stats
                .shed_shutting_down
                .fetch_add(1, Ordering::Relaxed);
            SHED_SHUTTING_DOWN.incr();
            return Err(Box::new(Response::Error(WireError::new(
                ErrorKind::ShuttingDown,
                "daemon is draining; no new queries admitted",
            ))));
        }
        if q.jobs.len() >= self.cfg.queue_cap {
            self.stats.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            SHED_OVERLOADED.incr();
            return Err(Box::new(Response::Error(WireError::new(
                ErrorKind::Overloaded,
                format!("admission queue full (cap {})", self.cfg.queue_cap),
            ))));
        }
        // Open the queue-wait span at admission, annotated with the
        // operational state the self-model learns from: queue depth,
        // in-flight work, worker-busy fraction, inter-arrival gap.
        let mut queue_span = 0;
        if let Some(ctx) = trace_ctx.as_mut() {
            let now_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let prev_ns = self.last_admit_ns.swap(now_ns, Ordering::Relaxed);
            queue_span = ctx.open("kertd.queue_wait");
            ctx.label(queue_span, "queue_depth", &q.jobs.len().to_string());
            ctx.label(queue_span, "inflight", &q.inflight.to_string());
            let busy = q.inflight as f64 / self.cfg.workers.max(1) as f64;
            ctx.label(queue_span, "busy_fraction", &format!("{busy:.3}"));
            if prev_ns > 0 {
                ctx.label(
                    queue_span,
                    "gap_ns",
                    &now_ns.saturating_sub(prev_ns).to_string(),
                );
            }
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job {
            request,
            reply: tx,
            enqueued: Instant::now(),
            trace: trace_ctx,
            queue_span,
        });
        set_gauge("kertd.queue_depth", q.jobs.len() as f64);
        self.cv.notify_all();
        Ok(rx)
    }

    /// Begin the drain: close admissions, wake every waiter, and poke
    /// the acceptor loose from its blocking `accept`.
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let mut q = self.q.lock().expect("queue poisoned");
            q.open = false;
        }
        self.cv.notify_all();
        // A throwaway connection unblocks accept(); the acceptor then
        // sees the shutdown flag and exits.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Block until every admitted job has been answered.
    fn await_drained(&self) {
        let mut q = self.q.lock().expect("queue poisoned");
        while !(q.jobs.is_empty() && q.inflight == 0) {
            q = self.cv.wait(q).expect("queue poisoned");
        }
    }

    fn status(&self) -> StatusInfo {
        let (queue_depth, inflight, open) = {
            let q = self.q.lock().expect("queue poisoned");
            (q.jobs.len(), q.inflight, q.open)
        };
        let model = self.engine.model();
        StatusInfo {
            nodes: model.network().len(),
            n_services: model.n_services(),
            d_node: model.d_node(),
            width: self.engine.width(),
            workers: self.cfg.workers,
            queue_cap: self.cfg.queue_cap,
            queue_depth,
            inflight,
            coalesce_window_us: 0,
            served_posterior: self.stats.served_posterior.load(Ordering::Relaxed),
            served_dcomp: self.stats.served_dcomp.load(Ordering::Relaxed),
            served_paccel: self.stats.served_paccel.load(Ordering::Relaxed),
            served_violation: self.stats.served_violation.load(Ordering::Relaxed),
            shed_overloaded: self.stats.shed_overloaded.load(Ordering::Relaxed),
            shed_shutting_down: self.stats.shed_shutting_down.load(Ordering::Relaxed),
            coalesced_batches: self.stats.coalesced_batches.load(Ordering::Relaxed),
            coalesced_requests: self.stats.coalesced_requests.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            draining: !open,
            tracing: self.recorder.is_some(),
            traces_recorded: self
                .recorder
                .as_ref()
                .map(|r| r.total_recorded())
                .unwrap_or(0),
        }
    }
}

/// Two requests fold into one micro-batch iff they are the same verb
/// over the same evidence, compared by `f64` bit pattern — the rule
/// [`dedup_work`] uses — so `0.0`/`-0.0` and `+inf`/`-inf` never alias.
/// Every pAccel projects against the shared no-evidence prior, so any two
/// pAccels fold. Control verbs never reach the queue and never fold.
pub(crate) fn coalesces(a: &Request, b: &Request) -> bool {
    fn same(x: &[(usize, f64)], y: &[(usize, f64)]) -> bool {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
    }
    match (a, b) {
        (Request::Posterior { evidence: x, .. }, Request::Posterior { evidence: y, .. })
        | (Request::Dcomp { observed: x, .. }, Request::Dcomp { observed: y, .. })
        | (Request::Violation { evidence: x, .. }, Request::Violation { evidence: y, .. }) => {
            same(x, y)
        }
        (Request::Paccel { .. }, Request::Paccel { .. }) => true,
        _ => false,
    }
}

/// The fold: `head` plus every item already in `queue` that coalesces
/// with it, removed in queue order, up to `max_batch` in all. Items with
/// other keys keep their order. Never waits — shared by the live worker
/// and the drill, so both group a backed-up queue identically.
pub(crate) fn fold_queued<T>(
    queue: &mut VecDeque<T>,
    head: T,
    max_batch: usize,
    request: impl Fn(&T) -> &Request,
) -> Vec<T> {
    let mut group = vec![head];
    let mut i = 0;
    while group.len() < max_batch && i < queue.len() {
        if coalesces(request(&group[0]), request(&queue[i])) {
            group.push(queue.remove(i).expect("index in range"));
        } else {
            i += 1;
        }
    }
    group
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// send [`Request::Stop`] (e.g. via [`crate::client::Client::stop`])
/// and then [`ServerHandle::wait`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Resolved worker-pool width.
    pub fn workers(&self) -> usize {
        self.shared.cfg.workers
    }

    /// Block until the daemon has fully stopped (acceptor and workers
    /// joined). Returns the number of queries served, by verb, in
    /// (posterior, dcomp, paccel, violation) order.
    pub fn wait(self) -> (u64, u64, u64, u64) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Let in-flight `Stopping` acknowledgments reach their sockets
        // before the caller (often a process about to exit) proceeds.
        // Bounded: a wedged connection thread must not hang shutdown.
        {
            let deadline = Instant::now() + Duration::from_secs(2);
            let mut q = self.shared.q.lock().expect("queue poisoned");
            while q.stop_acks_pending > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(q, deadline - now)
                    .expect("queue poisoned");
                q = guard;
            }
        }
        let s = &self.shared.stats;
        (
            s.served_posterior.load(Ordering::Relaxed),
            s.served_dcomp.load(Ordering::Relaxed),
            s.served_paccel.load(Ordering::Relaxed),
            s.served_violation.load(Ordering::Relaxed),
        )
    }
}

/// Compile-and-listen: start the daemon on `config.addr` serving
/// `engine`. Returns once the socket is bound and all threads are up.
pub fn serve(engine: SharedKert, mut config: ServeConfig) -> io::Result<ServerHandle> {
    if config.workers == 0 {
        config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    config.max_batch = config.max_batch.max(1);
    config.queue_cap = config.queue_cap.max(1);

    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;

    let recorder = config.trace.then(|| {
        Arc::new(FlightRecorder::new(if config.trace_cap == 0 {
            DEFAULT_FLIGHT_CAP
        } else {
            config.trace_cap
        }))
    });
    let shared = Arc::new(Shared {
        engine,
        q: Mutex::new(QueueState {
            jobs: VecDeque::new(),
            open: true,
            inflight: 0,
            stop_acks_pending: 0,
        }),
        cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        stats: Stats::default(),
        cfg: config.clone(),
        local_addr,
        recorder,
        trace_seq: AtomicU64::new(1),
        last_admit_ns: AtomicU64::new(0),
    });

    let workers = (0..config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("kertd-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("kertd-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        local_addr,
        acceptor,
        workers,
        shared,
    })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Request/response framing ships many small writes; without
        // nodelay, Nagle + delayed ACK park every reply for ~40 ms.
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        // Connection threads are detached: they exit when the client
        // closes, and during a drain any new query they submit is shed
        // with a typed ShuttingDown response.
        let _ = std::thread::Builder::new()
            .name("kertd-conn".into())
            .spawn(move || connection_loop(stream, &shared));
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let (payload, wire_trace) = match read_frame_traced(&mut stream) {
            Ok(Some(x)) => x,
            // Clean close or torn stream: either way the conversation
            // is over.
            Ok(None) | Err(_) => return,
        };
        let (response, mut trace_ctx): (Response, Option<TraceContext>) =
            match decode::<Request>(&payload) {
                Err(msg) => (
                    Response::Error(WireError::new(
                        ErrorKind::Malformed,
                        format!("unparseable request: {msg}"),
                    )),
                    None,
                ),
                Ok(request) => {
                    let _span = kert_obs::span("kertd.request");
                    request_counter(request.verb()).incr();
                    if request.is_query() {
                        // Root span opens at accept; the context rides
                        // the job through queue and worker, then comes
                        // back with the reply for the serialize span.
                        let ctx = shared.recorder.is_some().then(|| {
                            let tid = wire_trace.unwrap_or_else(|| {
                                shared.trace_seq.fetch_add(1, Ordering::Relaxed)
                            });
                            let mut ctx = TraceContext::new(tid);
                            open_request_root(&mut ctx, request.verb());
                            ctx
                        });
                        match shared.submit(request, ctx) {
                            // Admitted: the worker's send cannot outlive
                            // this recv because we hold the receiver.
                            Ok(rx) => match rx.recv() {
                                Ok(reply) => (reply.response, reply.trace),
                                Err(_) => (
                                    Response::Error(WireError::new(
                                        ErrorKind::Internal,
                                        "worker dropped the reply channel",
                                    )),
                                    None,
                                ),
                            },
                            Err(shed) => (*shed, None),
                        }
                    } else {
                        (handle_control(&request, shared), None)
                    }
                }
            };
        let stopping = matches!(response, Response::Stopping);
        let ser_span = trace_ctx
            .as_mut()
            .map(|c| c.open("kertd.serialize"))
            .unwrap_or(0);
        let bytes = encode(&response).ok();
        let write_ok = match &bytes {
            // Echo the client's trace id so it can correlate this reply
            // with the span tree it fetches later.
            Some(b) => write_frame_traced(&mut stream, b, wire_trace).is_ok(),
            None => false,
        };
        if let Some(mut ctx) = trace_ctx {
            ctx.close(ser_span);
            if let Some(recorder) = &shared.recorder {
                recorder.record(ctx.finish());
            }
        }
        if stopping {
            // Written (or failed) either way: release wait().
            let mut q = shared.q.lock().expect("queue poisoned");
            q.stop_acks_pending -= 1;
            drop(q);
            shared.cv.notify_all();
            return;
        }
        if !write_ok {
            return;
        }
    }
}

fn handle_control(request: &Request, shared: &Arc<Shared>) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Status => Response::Status(shared.status()),
        Request::Metrics => Response::Metrics {
            prometheus: kert_obs::prometheus_snapshot(),
        },
        Request::Trace { limit } => match &shared.recorder {
            Some(recorder) => Response::Traces {
                traces: recorder.snapshot(*limit),
            },
            None => Response::Error(WireError::new(
                ErrorKind::BadRequest,
                "tracing is not enabled on this daemon (start it with tracing on)",
            )),
        },
        Request::Stop => {
            // Drain, then acknowledge: by the time the client sees
            // `Stopping`, every admitted query has been answered. The
            // pending-ack count keeps `wait()` from returning before
            // the acknowledgment frame is on the wire.
            shared.begin_drain();
            shared.await_drained();
            let mut q = shared.q.lock().expect("queue poisoned");
            q.stop_acks_pending += 1;
            Response::Stopping
        }
        other => Response::Error(WireError::new(
            ErrorKind::Internal,
            format!("{} routed as a control verb", other.verb()),
        )),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let group = match next_batch(shared) {
            Some(g) => g,
            None => return,
        };
        if group.len() > 1 {
            shared
                .stats
                .coalesced_batches
                .fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .coalesced_requests
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            COALESCED_BATCHES.incr();
            COALESCED_REQUESTS.add(group.len() as u64);
        }
        process_group(shared, group);
        {
            let mut q = shared.q.lock().expect("queue poisoned");
            q.inflight -= 1;
        }
        // Wake a possible drain waiter (and idle peers).
        shared.cv.notify_all();
    }
}

/// Pop the head job and fold in every queued job that coalesces with
/// it, in one lock hold and without waiting for more. Returns `None`
/// when the queue is closed and empty (worker should exit). The whole
/// group counts as **one** inflight unit: it is answered by one session
/// checkout.
fn next_batch(shared: &Arc<Shared>) -> Option<Vec<Job>> {
    let mut q = shared.q.lock().expect("queue poisoned");
    let head = loop {
        if let Some(job) = q.jobs.pop_front() {
            break job;
        }
        if !q.open {
            return None;
        }
        q = shared.cv.wait(q).expect("queue poisoned");
    };
    q.inflight += 1;
    let mut group = fold_queued(&mut q.jobs, head, shared.cfg.max_batch, |j| &j.request);
    set_gauge("kertd.queue_depth", q.jobs.len() as f64);
    drop(q);
    for job in &mut group {
        job.check_out();
    }
    Some(group)
}

/// Answer a micro-batch with one pooled session. The grouped fast path
/// enters the shared evidence once and reads one marginal per folded
/// request; if anything in the group errors (e.g. one request names a
/// bad target), fall back to answering each job as a group of one so a
/// bad neighbor cannot poison the batch. A job's answer is bitwise the
/// same whichever group it is answered in.
fn process_group(shared: &Arc<Shared>, mut group: Vec<Job>) {
    let verb = group[0].request.verb();
    let mut traces: Vec<Option<TraceContext>> = group.iter_mut().map(|j| j.trace.take()).collect();
    let requests: Vec<&Request> = group.iter().map(|j| &j.request).collect();
    let responses = compute_group(&shared.engine, &requests, &mut traces);
    drop(requests);
    let hist = latency_histogram(verb);
    let served = shared.stats.served(verb);
    for ((job, response), trace_ctx) in group.into_iter().zip(responses).zip(traces) {
        served.fetch_add(1, Ordering::Relaxed);
        hist.record(job.enqueued.elapsed().as_nanos() as u64);
        // The client may have vanished; nothing to do about it.
        let _ = job.reply.send(Reply {
            response,
            trace: trace_ctx,
        });
    }
}

/// Answer one coalesce group and thread the trace spans through every
/// member's context: each request gets its own `kertd.coalesce.group` →
/// `kertd.propagate` pair, the first traced member (the *leader*) is
/// installed as the capturing context — so engine spans (`jt.marginal`,
/// `serve.evidence`, …) nest under its propagate span — and every other
/// member's propagate span links to the leader's shared compute span.
///
/// Shared by the live worker path and the deterministic drill: the span
/// structure a drill gates is exactly the structure live traffic gets.
pub(crate) fn compute_group(
    engine: &SharedKert,
    requests: &[&Request],
    traces: &mut [Option<TraceContext>],
) -> Vec<Response> {
    debug_assert_eq!(requests.len(), traces.len());
    let group_size = requests.len();
    // (group span, propagate span) per member; (0, 0) when untraced.
    let mut span_ids: Vec<(u64, u64)> = Vec::with_capacity(traces.len());
    let mut leader: Option<(usize, u64, u64)> = None; // (slot, trace_id, propagate span)
    for slot in traces.iter_mut() {
        match slot {
            Some(ctx) => {
                let gid = ctx.open("kertd.coalesce.group");
                ctx.label(gid, "group_size", &group_size.to_string());
                let pid = ctx.open("kertd.propagate");
                match leader {
                    None => leader = Some((span_ids.len(), ctx.trace_id(), pid)),
                    Some((_, leader_trace, leader_pid)) => {
                        // This request's answer came out of the
                        // leader's propagation — make that causally
                        // explicit instead of charging it compute.
                        ctx.label(pid, "shared_compute", "true");
                        ctx.link(pid, leader_trace, leader_pid, "coalesced-into");
                    }
                }
                span_ids.push((gid, pid));
            }
            None => span_ids.push((0, 0)),
        }
    }
    if let Some((slot, _, _)) = leader {
        let ctx = traces[slot].take().expect("leader slot was Some");
        let displaced = trace::install(ctx);
        debug_assert!(displaced.is_none(), "workers never nest captures");
    }
    let responses = match answer_group(engine, requests) {
        Ok(r) => r,
        Err(_) => requests
            .iter()
            .map(|r| match answer_group(engine, std::slice::from_ref(r)) {
                Ok(mut one) => one.remove(0),
                Err(e) => Response::Error(WireError::from_core(&e)),
            })
            .collect(),
    };
    if let Some((slot, _, _)) = leader {
        traces[slot] = trace::take();
    }
    for (slot, &(gid, pid)) in traces.iter_mut().zip(&span_ids) {
        if let Some(ctx) = slot {
            ctx.close(pid);
            ctx.close(gid);
        }
    }
    responses
}

/// Collapse duplicate work items inside a coalesced group: the unique
/// items in first-seen order, plus each original item's index into that
/// unique list.
///
/// Every query verb is a pure read, so computing a duplicated item once
/// and fanning the result out is bitwise invisible — this is what makes
/// a *hot query* (many clients asking for the same thing at once) cost
/// one computation instead of N. Floats are keyed by bit pattern, not
/// `==`, so `0.0`/`-0.0` (and NaN payloads) never alias. The number of
/// items saved is added to `deduped`.
fn dedup_work<T: Clone, K: PartialEq>(
    items: &[T],
    key: impl Fn(&T) -> K,
    deduped: &mut u64,
) -> (Vec<T>, Vec<usize>) {
    let mut unique: Vec<T> = Vec::new();
    let mut keys: Vec<K> = Vec::new();
    let mut index = Vec::with_capacity(items.len());
    for item in items {
        let k = key(item);
        match keys.iter().position(|u| *u == k) {
            Some(i) => index.push(i),
            None => {
                index.push(unique.len());
                unique.push(item.clone());
                keys.push(k);
            }
        }
    }
    *deduped += (items.len() - unique.len()) as u64;
    (unique, index)
}

/// Grouped processing: one session checkout, shared evidence entered
/// once, duplicated work items computed once. All jobs in a group share
/// a coalesce key by construction.
fn answer_group(engine: &SharedKert, group: &[&Request]) -> CoreResult<Vec<Response>> {
    let mut session = engine.session();
    let mut deduped = 0;
    let responses = match group[0] {
        Request::Posterior { evidence, .. } => {
            let targets: Vec<usize> = group
                .iter()
                .map(|r| match r {
                    Request::Posterior { target, .. } => *target,
                    _ => unreachable!("mixed verbs in a coalesce group"),
                })
                .collect();
            let (unique, index) = dedup_work(&targets, |&t| t, &mut deduped);
            let posteriors = session.posterior_group(evidence, &unique)?;
            let answers: Vec<Response> = posteriors
                .iter()
                .map(|p| wire_or_error(WirePosterior::from_posterior(p).map(Response::Posterior)))
                .collect();
            index.iter().map(|&i| answers[i].clone()).collect()
        }
        Request::Dcomp { observed, .. } => {
            let per_job: Vec<Vec<usize>> = group
                .iter()
                .map(|r| match r {
                    Request::Dcomp { targets, .. } => targets.clone(),
                    _ => unreachable!("mixed verbs in a coalesce group"),
                })
                .collect();
            let all_targets: Vec<usize> = per_job.iter().flatten().copied().collect();
            let (unique, index) = dedup_work(&all_targets, |&t| t, &mut deduped);
            let outcomes = session.dcomp(observed, &unique)?;
            let mut cursor = index.iter();
            per_job
                .iter()
                .map(|targets| {
                    let picked: std::result::Result<Vec<_>, WireError> = cursor
                        .by_ref()
                        .take(targets.len())
                        .map(|&i| WireDcomp::from_outcome(&outcomes[i]))
                        .collect();
                    wire_or_error(picked.map(|outcomes| Response::Dcomp { outcomes }))
                })
                .collect()
        }
        Request::Paccel { .. } => {
            let per_job: Vec<Vec<(usize, f64)>> = group
                .iter()
                .map(|r| match r {
                    Request::Paccel { candidates } => candidates.clone(),
                    _ => unreachable!("mixed verbs in a coalesce group"),
                })
                .collect();
            let all: Vec<(usize, f64)> = per_job.iter().flatten().copied().collect();
            let (unique, index) = dedup_work(&all, |&(s, e)| (s, e.to_bits()), &mut deduped);
            let outcomes = session.paccel(&unique)?;
            let mut cursor = index.iter();
            per_job
                .iter()
                .map(|candidates| {
                    let picked: std::result::Result<Vec<_>, WireError> = cursor
                        .by_ref()
                        .take(candidates.len())
                        .map(|&i| WirePaccel::from_outcome(&outcomes[i]))
                        .collect();
                    wire_or_error(picked.map(|outcomes| Response::Paccel { outcomes }))
                })
                .collect()
        }
        Request::Violation { evidence, .. } => {
            let per_job: Vec<Vec<f64>> = group
                .iter()
                .map(|r| match r {
                    Request::Violation { thresholds, .. } => thresholds.clone(),
                    _ => unreachable!("mixed verbs in a coalesce group"),
                })
                .collect();
            let all: Vec<f64> = per_job.iter().flatten().copied().collect();
            let (unique, index) = dedup_work(&all, |t| t.to_bits(), &mut deduped);
            let probs = session.violation_sweep(evidence, &unique)?;
            let mut cursor = index.iter();
            per_job
                .iter()
                .map(|thresholds| Response::Violation {
                    probabilities: cursor
                        .by_ref()
                        .take(thresholds.len())
                        .map(|&i| probs[i])
                        .collect(),
                })
                .collect()
        }
        other => vec![
            Response::Error(WireError::new(
                ErrorKind::Internal,
                format!("{} reached the worker pool", other.verb()),
            ));
            group.len()
        ],
    };
    // Count the saving only once the grouped verb has succeeded: a group
    // that errors is answered job by job and saves nothing.
    COALESCED_DEDUPED.add(deduped);
    Ok(responses)
}

fn wire_or_error(r: std::result::Result<Response, WireError>) -> Response {
    r.unwrap_or_else(Response::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posterior(evidence: &[(usize, f64)], target: usize) -> Request {
        Request::Posterior {
            evidence: evidence.to_vec(),
            target,
        }
    }

    /// A scripted queue of `(id, request)` items, as the drill builds it.
    fn queue(requests: Vec<Request>) -> VecDeque<(usize, Request)> {
        requests.into_iter().enumerate().collect()
    }

    fn ids<T>(items: &[(usize, T)]) -> Vec<usize> {
        items.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn fold_takes_same_key_jobs_anywhere_behind_the_head_in_order() {
        let a = [(0usize, 0.05)];
        let b = [(0usize, 0.07)];
        let mut q = queue(vec![
            posterior(&a, 2),
            posterior(&b, 2),
            Request::Violation {
                evidence: a.to_vec(),
                thresholds: vec![0.5],
            },
            posterior(&a, 3),
            Request::Paccel {
                candidates: vec![(0, 0.1)],
            },
            posterior(&b, 4),
            posterior(&a, 4),
        ]);
        let head = q.pop_front().unwrap();
        let group = fold_queued(&mut q, head, 64, |(_, r)| r);
        assert_eq!(ids(&group), [0, 3, 6]);
        // Other keys keep their queue order.
        let rest: Vec<usize> = q.iter().map(|(id, _)| *id).collect();
        assert_eq!(rest, [1, 2, 4, 5]);

        // Any two pAccels fold; a lone dComp folds with nothing.
        let mut q = queue(vec![
            Request::Paccel {
                candidates: vec![(0, 0.1)],
            },
            Request::Dcomp {
                observed: a.to_vec(),
                targets: vec![2],
            },
            Request::Paccel {
                candidates: vec![(1, 0.2)],
            },
        ]);
        let head = q.pop_front().unwrap();
        assert_eq!(ids(&fold_queued(&mut q, head, 64, |(_, r)| r)), [0, 2]);
        let head = q.pop_front().unwrap();
        assert_eq!(ids(&fold_queued(&mut q, head, 64, |(_, r)| r)), [1]);
        assert!(q.is_empty());
    }

    #[test]
    fn fold_is_capped_by_max_batch() {
        let a = [(1usize, 0.2)];
        let mut q = queue((0..7).map(|t| posterior(&a, 2 + t % 3)).collect());
        let head = q.pop_front().unwrap();
        assert_eq!(ids(&fold_queued(&mut q, head, 3, |(_, r)| r)), [0, 1, 2]);
        let head = q.pop_front().unwrap();
        assert_eq!(ids(&fold_queued(&mut q, head, 3, |(_, r)| r)), [3, 4, 5]);
        // max_batch 1 turns folding off.
        let head = q.pop_front().unwrap();
        q.push_back((7, posterior(&a, 2)));
        assert_eq!(ids(&fold_queued(&mut q, head, 1, |(_, r)| r)), [6]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn evidence_is_compared_by_bit_pattern() {
        let pairs = [(0.0, -0.0), (f64::INFINITY, f64::NEG_INFINITY)];
        for (x, y) in pairs {
            assert!(coalesces(
                &posterior(&[(0, x)], 2),
                &posterior(&[(0, x)], 3)
            ));
            let mut q = queue(vec![posterior(&[(0, x)], 2), posterior(&[(0, y)], 2)]);
            let head = q.pop_front().unwrap();
            assert_eq!(ids(&fold_queued(&mut q, head, 64, |(_, r)| r)), [0]);
            assert_eq!(q.len(), 1, "{x} and {y} must not fold");
        }
        // Same values on another node, or in another order, are other keys.
        let ab = [(0usize, 0.1), (1, 0.2)];
        let ba = [(1usize, 0.2), (0, 0.1)];
        assert!(!coalesces(&posterior(&ab, 2), &posterior(&ba, 2)));
        assert!(!coalesces(
            &posterior(&[(0, 0.1)], 2),
            &posterior(&[(1, 0.1)], 2)
        ));
        assert!(!coalesces(&Request::Ping, &Request::Ping));
    }
}
