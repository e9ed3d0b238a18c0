//! The serving workloads, `serve-hot` and `serve-distinct`: an in-process
//! kertd started the way `kertctl serve` starts it with no flags, driven
//! over loopback by an open-loop generator.

use std::time::Instant;

use kert_core::serve::SharedKert;
use kert_core::SavedModel;
use kert_obs::{ObsMode, TelemetrySnapshot, TraceTree};
use kertd::frame::{read_frame, write_frame};
use kertd::protocol::{encode, Request, Response, StatusInfo};
use kertd::{serve, Client, ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{dur_us, replay_wire, self_us, spans_named, tree_facts};
use crate::loadgen::{run_phase, PhaseResult, Schedule};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{
    kind_median, kind_medians, lowest, median, percentile, ratio, sorted, tail_percentile,
};
use crate::streams::{
    build_model, distinct_requests, hot_request_index, hot_requests, model_inputs,
    poisson_schedule, row_stream, ModelKind, DISTINCT_POOL,
};
use crate::verify::{direct_answer, ReplyBook};

/// A serving workload.
pub struct ServeSpec {
    pub name: &'static str,
    pub model: ModelKind,
    /// Bursts of one shared request (`serve-hot`) or independent arrivals.
    pub hot: bool,
}

pub const SERVE_HOT: ServeSpec = ServeSpec {
    name: "serve-hot",
    model: ModelKind::Ediamond,
    hot: true,
};

pub const SERVE_DISTINCT: ServeSpec = ServeSpec {
    name: "serve-distinct",
    model: ModelKind::Random6,
    hot: false,
};

/// The reference rate, requests per second: about a quarter of the
/// sustained rate both serving workloads reach on a 2-vCPU host (about
/// 1430–1710 req/s), so it stays below saturation even when a loaded
/// host halves that capacity.
const REFERENCE_RPS: f64 = 370.0;
/// Ratio between neighbouring rungs of the fixed rate ladder.
const RUNG_RATIO: f64 = 1.07;
/// Rungs below and above the reference: 188 to 2817 req/s.
const RUNGS_BELOW: i32 = 10;
const RUNGS_ABOVE: i32 = 30;
/// Latency limit on p99, ms.
const LIMIT_MS: f64 = 50.0;

/// Rows (periods) of the `serve-hot` request table; bursts wrap around it.
const HOT_PERIODS: usize = 400;
/// Reference-rate segments per run. They alternate with the ladder
/// steps, so the reference measurement covers the whole run: on a shared
/// host, other guests slow this one in stretches of tens of seconds, and
/// the best segment is the one they slowed least.
const SEGMENTS: usize = 6;
/// Daemon set-ups timed before each segment (the first segment's last
/// one serves the whole run; the others are stopped again), so set-ups
/// are spread over the run too; `setup_s` is the median of all of them.
const SETUPS_PER_SEGMENT: usize = 4;
/// Untimed warm-up before the first measured phase, seconds.
const WARMUP_S: f64 = 0.5;
/// Shares of `--seconds` spent at the reference rate (all segments
/// together) and on each step.
const REFERENCE_SHARE: f64 = 0.45;
const STEP_SHARE: f64 = 0.06;
/// Steps a run may spend on the ladder, so retries cannot stretch it
/// past about `(REFERENCE_SHARE + MAX_STEPS * STEP_SHARE) * --seconds`.
const MAX_STEPS: usize = 10;
/// Requests per traced-run phase (bounded by the TRACE reply's frame size).
const TRACED_REQUESTS: f64 = 2000.0;
/// Trace ids the benchmark assigns start here, above the daemon's own.
const TRACE_BASE: u64 = 1 << 40;
/// Samples the reference rate must give (so ten lie beyond p99).
const MIN_SAMPLES: usize = 1000;

/// Rate of ladder rung `k` (the reference is rung 0), requests per second.
fn rung_rate(k: i32) -> f64 {
    (REFERENCE_RPS * RUNG_RATIO.powi(k)).round()
}

/// Client connections (and threads): at most the host's parallelism, and
/// never more than two, so the load is the same on larger hosts.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The model and request table of one run.
struct Prepared {
    json: String,
    requests: Vec<Request>,
    network: kert_bayes::BayesianNetwork,
}

fn prepare(spec: &ServeSpec, seed: u64) -> Prepared {
    let inputs = model_inputs(spec.model);
    let model = build_model(&inputs);
    let n = model.n_services();
    let requests = if spec.hot {
        hot_requests(&row_stream(spec.model, HOT_PERIODS, seed), n)
    } else {
        let rows = row_stream(spec.model, DISTINCT_POOL, seed);
        distinct_requests(&rows, n, seed)
    };
    Prepared {
        json: model.to_saved().to_json().expect("models serialize"),
        requests,
        network: model.network().clone(),
    }
}

/// A running daemon and a control connection to it.
struct Daemon {
    handle: ServerHandle,
    control: Client,
}

impl Daemon {
    /// Start the daemon `reps` times, timing each start into `setups`,
    /// and keep the last one running.
    fn start_timed(json: &str, reps: usize, setups: &mut Vec<f64>) -> Daemon {
        let mut daemon: Option<Daemon> = None;
        for _ in 0..reps {
            if let Some(d) = daemon.take() {
                d.stop();
            }
            let t = Instant::now();
            daemon = Some(Daemon::start(json, ServeConfig::default()));
            setups.push(t.elapsed().as_secs_f64());
        }
        daemon.expect("at least one start")
    }

    /// Load the saved model, serve it, and wait for the first `Ping`.
    fn start(json: &str, config: ServeConfig) -> Daemon {
        let saved = SavedModel::from_json(json).expect("saved model parses");
        let engine = SharedKert::from_saved(saved).expect("saved model loads");
        let handle = serve(engine, config).expect("daemon starts");
        let mut control = Client::connect(handle.addr()).expect("daemon accepts");
        match control.ping() {
            Ok(Response::Pong) => {}
            other => panic!("daemon did not answer PING: {other:?}"),
        }
        Daemon { handle, control }
    }

    fn status(&mut self) -> StatusInfo {
        match self.control.status() {
            Ok(Response::Status(s)) => s,
            other => panic!("STATUS failed: {other:?}"),
        }
    }

    fn stop(mut self) {
        match self.control.stop() {
            Ok(Response::Stopping) => {}
            other => panic!("STOP failed: {other:?}"),
        }
        self.handle.wait();
    }
}

/// Arrival schedules: a running cursor keeps `serve-hot` periods
/// advancing and `serve-distinct` requests distinct across phases.
struct Generator<'a> {
    spec: &'a ServeSpec,
    seed: u64,
    table_len: usize,
    conns: usize,
    cursor: usize,
    phase: u64,
}

impl Generator<'_> {
    /// Schedules for `secs` at `rate` requests per second.
    fn schedules(&mut self, rate: f64, secs: f64) -> Vec<Schedule> {
        self.phase += 1;
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.phase.wrapping_mul(0x9e37_79b9));
        let mut out = vec![Schedule::new(); self.conns];
        if self.spec.hot {
            // Bursts: every connection sends the burst's request at once.
            for due in poisson_schedule(rate / self.conns as f64, secs, &mut rng) {
                let idx = hot_request_index(self.cursor, self.table_len);
                self.cursor += 1;
                for s in &mut out {
                    s.push((due, idx));
                }
            }
        } else {
            let mut arrivals: Vec<(u64, usize)> = Vec::new();
            for c in 0..self.conns {
                for due in poisson_schedule(rate / self.conns as f64, secs, &mut rng) {
                    arrivals.push((due, c));
                }
            }
            arrivals.sort_unstable();
            for (due, c) in arrivals {
                out[c].push((due, self.cursor % self.table_len));
                self.cursor += 1;
            }
        }
        out
    }
}

/// One rate step of the ladder.
struct Step {
    rate: f64,
    result: PhaseResult,
    /// Median lateness rose by more than a quarter of the limit.
    grew: bool,
    pass: bool,
}

impl Step {
    fn judge(rate: f64, result: PhaseResult) -> Step {
        let grew = result.lateness_grew(LIMIT_MS / 4.0);
        let pass =
            result.failed == 0 && !result.aborted && !grew && result.latency_ms(99.0) <= LIMIT_MS;
        Step {
            rate,
            result,
            grew,
            pass,
        }
    }

    fn achieved(&self) -> f64 {
        ratio(self.result.succeeded as f64, self.result.wall_s)
    }

    fn describe(&self) -> String {
        format!(
            "step {:>6.0} req/s: sent {} succeeded {} failed {}  p50 {:.3} ms  p99 {:.3} ms  \
             late p99 {:.3} ms{}{}  -> {}",
            self.rate,
            self.result.sent,
            self.result.succeeded,
            self.result.failed,
            self.result.latency_ms(50.0),
            self.result.latency_ms(99.0),
            percentile(&self.result.lateness(), 99.0),
            if self.grew { "  lateness grew" } else { "" },
            if self.result.aborted {
                "  aborted: backlog"
            } else {
                ""
            },
            if self.pass {
                "meets the limit"
            } else {
                "misses the limit"
            },
        )
    }
}

/// Binary search over the ladder for the highest rung that meets the
/// limit, assuming a rung that misses has none above it that meets it.
/// A rung that misses is tried once more, but only when the search has
/// closed in on it, so the two tries lie apart in time: a stretch of
/// contention on a shared host outlasts a retry made at once.
struct Search {
    /// A rung that met the limit (or lies below the ladder).
    lo: i32,
    /// The lowest rung above `lo` that missed (or lies above the ladder).
    hi: i32,
    /// Rungs that missed, with how often.
    misses: Vec<(i32, u32)>,
}

impl Search {
    /// The next rung to run, or `None` when the search is over.
    fn next(&self) -> Option<i32> {
        if self.hi - self.lo > 1 {
            return Some(self.lo + (self.hi - self.lo) / 2);
        }
        let missed_once = self.misses.contains(&(self.hi, 1));
        missed_once.then_some(self.hi)
    }

    fn record(&mut self, rung: i32, pass: bool) {
        if pass {
            self.lo = rung;
            self.hi = self
                .misses
                .iter()
                .map(|&(r, _)| r)
                .filter(|&r| r > rung)
                .min()
                .unwrap_or(RUNGS_ABOVE + 1);
        } else {
            match self.misses.iter_mut().find(|(r, _)| *r == rung) {
                Some((_, n)) => *n += 1,
                None => self.misses.push((rung, 1)),
            }
            self.hi = rung;
        }
    }
}

/// The untraced run: set-up time, latency at the reference rate and the
/// sustained rate on the ladder.
///
/// One daemon serves the whole run. The run alternates reference
/// segments with the steps of a [`Search`] for the highest rung that
/// meets the limit. The search runs above the reference, and below it
/// only when the reference segments together miss the limit.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Outcome {
    kert_obs::set_mode(ObsMode::Metrics);
    let prep = prepare(spec, seed);
    let conns = connections();
    let verb = |i: usize| prep.requests[i].verb();

    let mut setups = Vec::with_capacity(SEGMENTS * SETUPS_PER_SEGMENT);
    let mut daemon = Daemon::start_timed(&prep.json, SETUPS_PER_SEGMENT, &mut setups);
    let addr = daemon.handle.addr();
    let workers = daemon.handle.workers();
    let mut book = ReplyBook::new(prep.requests.len());
    let mut gen = Generator {
        spec,
        seed,
        table_len: prep.requests.len(),
        conns,
        cursor: 0,
        phase: 0,
    };
    let ref_rate = REFERENCE_RPS;
    let warm = gen.schedules(ref_rate, WARMUP_S);
    run_phase(addr, &prep.requests, &warm, None, &mut book);
    let segment_s = seconds * REFERENCE_SHARE / SEGMENTS as f64;
    let mut reference = PhaseResult::default();
    let mut segment_p50 = Vec::with_capacity(SEGMENTS);
    let mut segment_n = Vec::with_capacity(SEGMENTS);
    let mut steps = Vec::new();
    let step = |rung: i32, gen: &mut Generator<'_>, book: &mut ReplyBook| {
        let rate = rung_rate(rung);
        let sched = gen.schedules(rate, seconds * STEP_SHARE);
        Step::judge(rate, run_phase(addr, &prep.requests, &sched, None, book))
    };
    // The search runs above the reference while the segments run; the
    // reference rung itself is judged on all its segments together.
    let mut search = Search {
        lo: 0,
        hi: RUNGS_ABOVE + 1,
        misses: Vec::new(),
    };
    let mut ladder_steps = 0;
    loop {
        let rung = search.next().filter(|_| ladder_steps < MAX_STEPS);
        if let Some(rung) = rung {
            ladder_steps += 1;
            let s = step(rung, &mut gen, &mut book);
            search.record(rung, s.pass);
            steps.push(s);
        }
        if segment_p50.len() < SEGMENTS {
            if !segment_p50.is_empty() {
                Daemon::start_timed(&prep.json, SETUPS_PER_SEGMENT, &mut setups).stop();
            }
            let sched = gen.schedules(ref_rate, segment_s);
            let segment = run_phase(addr, &prep.requests, &sched, None, &mut book);
            segment_p50.push(kind_median(&segment.tagged(verb)));
            segment_n.push(segment.samples.len());
            reference.append(segment.clone());
            steps.push(Step::judge(ref_rate, segment));
        } else if rung.is_none() {
            break;
        }
    }
    let ref_step = Step::judge(ref_rate, reference);
    if search.lo == 0 && !ref_step.pass {
        // Not even the reference met the limit: search below it, with
        // a step budget of its own.
        ladder_steps = 0;
        search = Search {
            lo: -RUNGS_BELOW - 1,
            hi: 0,
            misses: vec![(0, 2)],
        };
        while let Some(rung) = search.next().filter(|_| ladder_steps < MAX_STEPS) {
            ladder_steps += 1;
            let s = step(rung, &mut gen, &mut book);
            search.record(rung, s.pass);
            steps.push(s);
        }
    }
    let (best_segment, best_p50) = lowest(&segment_p50).expect("at least one segment");
    let reference = &ref_step.result;
    let by_verb = per_verb_p50(reference, &prep.requests);
    let ref_lat = reference.latencies();
    let ref_pct: Vec<f64> = [50.0, 90.0, 99.0]
        .iter()
        .map(|&p| reference.latency_ms(p))
        .collect();
    let ref_late = reference.lateness();
    let (ref_sent, ref_failed) = (reference.sent, reference.failed);
    let served = daemon.status();
    daemon.stop();
    // Before the oracle below allocates its own tree and states.
    let peak_mb = peak_rss_mb();

    let oracle = SharedKert::from_saved(SavedModel::from_json(&prep.json).expect("saved model"))
        .expect("oracle engine");
    let mismatches = book.mismatches(|i| direct_answer(&oracle, &prep.requests[i]));

    let best = match search.lo {
        0 => Some(&ref_step),
        lo if lo < -RUNGS_BELOW => None,
        lo => Some(
            steps
                .iter()
                .find(|s| s.pass && s.rate == rung_rate(lo))
                .expect("the highest passing rung was measured"),
        ),
    };
    let mut out = Outcome {
        attempted: ref_sent,
        failed: ref_failed + mismatches,
        mismatches: mismatches + book.drifted,
        ..Outcome::default()
    };
    out.note(format!(
        "load: {conns} client threads / {conns} connections; daemon: {workers} workers, \
         queue cap {}, coalescing window {} µs, max batch 64",
        served.queue_cap, served.coalesce_window_us
    ));
    out.note(format!(
        "reference rate {ref_rate} req/s; latency limit p99 <= {LIMIT_MS} ms; ladder: rungs \
         x{RUNG_RATIO} from {} to {} req/s",
        rung_rate(-RUNGS_BELOW),
        rung_rate(RUNGS_ABOVE)
    ));
    for s in &steps {
        out.note(s.describe());
    }
    out.note(format!(
        "all {SEGMENTS} reference segments: {}",
        ref_step.describe()
    ));
    out.note(format!(
        "reference p50 by verb {by_verb}; verb-weighted p50 per segment (ms) {}",
        segment_p50
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "sustained: {}; {} distinct requests answered, each checked against a direct Session",
        match best {
            Some(b) => format!("{} req/s rung", b.rate),
            None => "no rung meets the limit".into(),
        },
        book.answered()
    ));
    if ref_lat.len() < MIN_SAMPLES {
        out.note(format!(
            "WARNING: {} samples at the reference rate, fewer than {MIN_SAMPLES}",
            ref_lat.len()
        ));
    }
    if let Some(p) = tail_percentile(ref_lat.len()) {
        out.note(format!(
            "tail: p{p} = {:.3} ms over {} samples",
            percentile(&sorted(&ref_lat), p),
            ref_lat.len()
        ));
    }
    out.push("setup_s", median(&setups), "s", setups.len());
    out.push("best_p50_ms", best_p50, "ms", segment_n[best_segment]);
    out.push("p50_ms", ref_pct[0], "ms", ref_lat.len());
    out.push("p90_ms", ref_pct[1], "ms", ref_lat.len());
    out.push("p99_ms", ref_pct[2], "ms", ref_lat.len());
    let sustained = best.map(Step::achieved).unwrap_or(0.0);
    let sustained_n = best.map(|b| b.result.sent as usize).unwrap_or(0);
    out.push("throughput_per_s", sustained, "1/s", sustained_n);
    out.push("sustained_rps", sustained, "1/s", sustained_n);
    out.push("peak_rss_mb", peak_mb, "MB", 1);
    out.push(
        "loadgen.late_p99_ms",
        percentile(&ref_late, 99.0),
        "ms",
        ref_late.len(),
    );
    out
}

/// Each verb's median latency in `result`, as `verb p50 ms (n)` items.
fn per_verb_p50(result: &PhaseResult, requests: &[Request]) -> String {
    let mut by_verb = kind_medians(&result.tagged(|i| requests[i].verb()));
    by_verb.sort_by_key(|&(verb, ..)| verb);
    let items: Vec<String> = by_verb
        .iter()
        .map(|(verb, p50, n)| format!("{verb} {p50:.3} ms (n={n})"))
        .collect();
    items.join(", ")
}

/// Per-layer breakdown of one traced phase.
pub fn run_traced(spec: &ServeSpec, seed: u64) -> Outcome {
    kert_obs::set_mode(ObsMode::Metrics);
    let prep = prepare(spec, seed);
    let conns = connections();
    let ref_rate = REFERENCE_RPS;
    let phase_s = TRACED_REQUESTS / ref_rate;
    let mut book = ReplyBook::new(prep.requests.len());
    let gen_at = |phase: u64| Generator {
        spec,
        seed,
        table_len: prep.requests.len(),
        conns,
        cursor: 0,
        phase,
    };

    // The same request stream, untraced and then traced.
    let untraced = {
        let daemon = Daemon::start(&prep.json, ServeConfig::default());
        let addr = daemon.handle.addr();
        let mut warm = gen_at(100);
        run_phase(
            addr,
            &prep.requests,
            &warm.schedules(ref_rate, WARMUP_S),
            None,
            &mut book,
        );
        let sched = gen_at(0).schedules(ref_rate, phase_s);
        let r = run_phase(addr, &prep.requests, &sched, None, &mut book);
        daemon.stop();
        r
    };

    let sched = gen_at(0).schedules(ref_rate, phase_s);
    let traced_count: usize = sched.iter().map(Vec::len).sum();
    let config = ServeConfig {
        trace: true,
        trace_cap: 2 * traced_count + 1024,
        ..ServeConfig::default()
    };
    let mut daemon = Daemon::start(&prep.json, config);
    let addr = daemon.handle.addr();
    let workers = daemon.handle.workers() as f64;
    let mut warm = gen_at(100);
    run_phase(
        addr,
        &prep.requests,
        &warm.schedules(ref_rate, WARMUP_S),
        None,
        &mut book,
    );
    let status0 = daemon.status();
    let snap0 = kert_obs::snapshot();
    let traced = run_phase(addr, &prep.requests, &sched, Some(TRACE_BASE), &mut book);
    let snap1 = kert_obs::snapshot();
    let status1 = daemon.status();
    let trees: Vec<TraceTree> = fetch_traces(addr)
        .into_iter()
        .filter(|t| t.trace_id >= TRACE_BASE)
        .collect();
    daemon.stop();

    let oracle = SharedKert::from_saved(SavedModel::from_json(&prep.json).expect("saved model"))
        .expect("oracle engine");
    let mismatches = book.mismatches(|i| direct_answer(&oracle, &prep.requests[i]));

    let mut out = Outcome {
        attempted: traced.sent,
        failed: traced.failed + mismatches,
        mismatches: mismatches + book.drifted,
        ..Outcome::default()
    };
    out.note(format!(
        "traced phase: {} requests at {ref_rate} req/s over {conns} connections; {} span trees",
        traced.sent,
        trees.len()
    ));
    if trees.len() as u64 != traced.sent {
        out.note(format!(
            "WARNING: {} traced requests but {} trees",
            traced.sent,
            trees.len()
        ));
    }
    fill_layers(&mut out, &prep, &book, &untraced, &traced, &trees, workers);

    let ops = traced.sent as f64;
    let delta = |name: &str| counter_delta(&snap0, &snap1, name);
    let served = |s: &StatusInfo| {
        (s.served_posterior + s.served_dcomp + s.served_paccel + s.served_violation) as f64
    };
    let items: f64 = traced
        .samples
        .iter()
        .map(|s| work_items(&prep.requests[s.idx]))
        .sum();
    out.push(
        "server.fold_ratio",
        ratio(
            (status1.coalesced_requests - status0.coalesced_requests) as f64,
            served(&status1) - served(&status0),
        ),
        "ratio",
        traced.sent as usize,
    );
    out.push(
        "server.dedup_ratio",
        ratio(delta("kertd.coalesce.deduped_work"), items),
        "ratio",
        items as usize,
    );
    out.push(
        "server.shed",
        (status1.shed_overloaded + status1.shed_shutting_down
            - status0.shed_overloaded
            - status0.shed_shutting_down) as f64,
        "count",
        1,
    );
    push_engine_counters(&mut out, &snap0, &snap1, ops);
    let facts = tree_facts(&prep.network, 5);
    out.push("jt.compile_ms", facts.compile_ms, "ms", 5);
    out.push("jt.width", facts.width, "count", 1);
    out.push("jt.table_entries", facts.table_entries, "count", 1);

    let path = crate::write_traces(spec.name, seed, &trees);
    out.note(format!("span trees written to {path}"));
    out
}

/// Fetch every span tree the daemon holds.
///
/// The reply is read as raw frame bytes and split into one JSON object
/// per tree before decoding: the vendored JSON parser re-validates the
/// rest of its input for every string character it reads, so decoding
/// a multi-megabyte TRACE reply in one piece (as `Client::traces` does)
/// takes minutes.
fn fetch_traces(addr: std::net::SocketAddr) -> Vec<TraceTree> {
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon accepts");
    let request = encode(&Request::Trace { limit: 0 }).expect("requests encode");
    write_frame(&mut stream, &request).expect("TRACE request written");
    let payload = read_frame(&mut stream)
        .expect("TRACE reply read")
        .expect("daemon replied to TRACE");
    let text = std::str::from_utf8(&payload).expect("replies are UTF-8");
    let body = text
        .strip_prefix("{\"Traces\":{\"traces\":[")
        .unwrap_or_else(|| panic!("TRACE failed: {}", &text[..text.len().min(200)]));
    json_objects(body)
        .map(|obj| serde_json::from_str::<TraceTree>(obj).expect("span trees decode"))
        .collect()
}

/// The top-level `{…}` objects at the start of a JSON array body.
fn json_objects(body: &str) -> impl Iterator<Item = &str> {
    let bytes = body.as_bytes();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    let mut spans = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    spans.push(&body[start..=i]);
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    spans.into_iter()
}

/// Work items a request hands the daemon's dedup step.
fn work_items(request: &Request) -> f64 {
    match request {
        Request::Posterior { .. } => 1.0,
        Request::Dcomp { targets, .. } => targets.len() as f64,
        Request::Paccel { candidates } => candidates.len() as f64,
        Request::Violation { thresholds, .. } => thresholds.len() as f64,
        _ => 0.0,
    }
}

pub fn counter_delta(a: &TelemetrySnapshot, b: &TelemetrySnapshot, name: &str) -> f64 {
    b.counter(name).saturating_sub(a.counter(name)) as f64
}

/// Junction-tree and factor-kernel counters per operation.
pub fn push_engine_counters(
    out: &mut Outcome,
    a: &TelemetrySnapshot,
    b: &TelemetrySnapshot,
    ops: f64,
) {
    let d = |name: &str| counter_delta(a, b, name);
    let n = ops as usize;
    out.push(
        "jt.messages_per_op",
        ratio(
            d("bayes.jt.messages.calibrate") + d("bayes.jt.messages.incremental"),
            ops,
        ),
        "count",
        n,
    );
    out.push(
        "factor.sum_outs_per_op",
        ratio(d("bayes.factor.sum_outs"), ops),
        "count",
        n,
    );
    out.push(
        "factor.products_per_op",
        ratio(d("bayes.factor.products"), ops),
        "count",
        n,
    );
    let hits = d("bayes.ws.pool_hits");
    out.push(
        "factor.ws_hit_ratio",
        ratio(hits, hits + d("bayes.ws.pool_misses")),
        "ratio",
        n,
    );
}

/// Span-tree and replay metrics of the serving layers.
fn fill_layers(
    out: &mut Outcome,
    prep: &Prepared,
    book: &ReplyBook,
    untraced: &PhaseResult,
    traced: &PhaseResult,
    trees: &[TraceTree],
    workers: f64,
) {
    let mut queue = Vec::new();
    let mut linger = Vec::new();
    let mut serialize = Vec::new();
    let mut group_self = Vec::new();
    let mut propagate = Vec::new();
    let mut busy_us = 0.0;
    for t in trees {
        let find = |name: &str| t.spans.iter().find(|s| s.name == name);
        if let Some(root) = t.spans.iter().find(|s| s.parent == 0) {
            linger.push(self_us(t, root));
        }
        if let Some(s) = find("kertd.queue_wait") {
            queue.push(dur_us(s));
        }
        if let Some(s) = find("kertd.serialize") {
            serialize.push(dur_us(s));
        }
        if let Some(g) = find("kertd.coalesce.group") {
            group_self.push(self_us(t, g));
            // The leader's propagate span has no link; followers point
            // at it. Only leaders' groups count as worker busy time.
            if let Some(p) = find("kertd.propagate").filter(|p| p.links.is_empty()) {
                propagate.push(dur_us(p));
                busy_us += dur_us(g);
            }
        }
    }
    let evidence: Vec<f64> = spans_named(trees, "serve.evidence")
        .map(|(_, s)| dur_us(s))
        .collect();
    let marginal: Vec<f64> = spans_named(trees, "jt.marginal")
        .map(|(t, s)| self_us(t, s))
        .collect();
    let collect: Vec<f64> = spans_named(trees, "jt.collect")
        .map(|(_, s)| dur_us(s))
        .collect();

    // Replays on the traced phase's own requests and replies.
    let pairs: Vec<(&Request, &Response)> = traced
        .samples
        .iter()
        .filter_map(|s| book.first(s.idx).map(|r| (&prep.requests[s.idx], r)))
        .collect();
    let wire = replay_wire(&pairs);
    let engine = SharedKert::from_saved(SavedModel::from_json(&prep.json).expect("saved model"))
        .expect("replay engine");
    let session_us = {
        let n = 20_000;
        let t = Instant::now();
        for _ in 0..n {
            drop(std::hint::black_box(engine.session()));
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    };

    let p = |v: &[f64], q: f64| percentile(&sorted(v), q);
    let traced_lat = traced.latencies();
    let traced_p50 = traced.latency_ms(50.0);
    let untraced_p50 = untraced.latency_ms(50.0);
    let late = traced.lateness();
    let nf = pairs.len();
    out.push(
        "loadgen.late_p99_ms",
        percentile(&late, 99.0),
        "ms",
        late.len(),
    );
    out.push("client.encode_us", wire.client_encode_us, "us", nf);
    out.push("client.decode_us", wire.client_decode_us, "us", nf);
    out.push("frame.req_bytes", wire.req_bytes, "count", nf);
    out.push("frame.resp_bytes", wire.resp_bytes, "count", nf);
    out.push("frame.read_us", wire.frame_read_us, "us", 2 * nf);
    out.push("frame.write_us", wire.frame_write_us, "us", 2 * nf);
    out.push("protocol.decode_us", wire.protocol_decode_us, "us", nf);
    out.push("protocol.encode_us", wire.protocol_encode_us, "us", nf);
    out.push(
        "server.queue_wait_us.p50",
        p(&queue, 50.0),
        "us",
        queue.len(),
    );
    out.push(
        "server.queue_wait_us.p99",
        p(&queue, 99.0),
        "us",
        queue.len(),
    );
    out.push("server.linger_us.p50", p(&linger, 50.0), "us", linger.len());
    out.push(
        "server.busy_frac",
        ratio(busy_us / 1e6, workers * traced.wall_s),
        "ratio",
        propagate.len(),
    );
    out.push(
        "server.serialize_us.p50",
        p(&serialize, 50.0),
        "us",
        serialize.len(),
    );
    out.push(
        "serve.propagate_us.p50",
        p(&propagate, 50.0),
        "us",
        propagate.len(),
    );
    out.push(
        "serve.propagate_us.p99",
        p(&propagate, 99.0),
        "us",
        propagate.len(),
    );
    out.push(
        "serve.evidence_us.p50",
        p(&evidence, 50.0),
        "us",
        evidence.len(),
    );
    out.push("serve.session_us", session_us, "us", 20_000);
    out.push(
        "jt.marginal_us.p50",
        p(&marginal, 50.0),
        "us",
        marginal.len(),
    );
    out.push("jt.collect_us.p50", p(&collect, 50.0), "us", collect.len());
    out.push(
        "obs.trace_overhead",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
        traced_lat.len(),
    );
    // The blocking path of one request, client to client.
    let path_us = wire.client_encode_us
        + 2.0 * wire.frame_write_us
        + 2.0 * wire.frame_read_us
        + wire.protocol_decode_us
        + p(&linger, 50.0)
        + p(&queue, 50.0)
        + p(&group_self, 50.0)
        + p(&propagate, 50.0)
        + p(&serialize, 50.0)
        + wire.client_decode_us;
    out.push(
        "unattributed_frac",
        1.0 - path_us / 1e3 / traced_p50,
        "ratio",
        traced_lat.len(),
    );
    out.note(format!(
        "traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms; server p50 (us): \
         queue wait {:.1}, linger {:.1}, propagate {:.1}, serialize {:.1}",
        p(&queue, 50.0),
        p(&linger, 50.0),
        p(&propagate, 50.0),
        p(&serialize, 50.0)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_search_tries_a_missed_rung_again_once_it_closes_in() {
        let mut search = Search {
            lo: 0,
            hi: RUNGS_ABOVE + 1,
            misses: Vec::new(),
        };
        // Rungs up to 17 meet the limit, but the first try of rung 15
        // misses (a stall); rung 18 misses both tries.
        let mut stalled = true;
        let mut tried = Vec::new();
        while let Some(rung) = search.next() {
            let pass = rung <= 17 && !(rung == 15 && std::mem::take(&mut stalled));
            tried.push(rung);
            search.record(rung, pass);
        }
        assert_eq!(search.lo, 17);
        assert_eq!(tried, [15, 7, 11, 13, 14, 15, 23, 19, 17, 18, 18]);
    }

    #[test]
    fn json_objects_split_top_level_objects_only() {
        let body = r#"{"a":{"b":"}{"},"c":[1,2]},{"d":"\"}"}]}}"#;
        let objs: Vec<&str> = json_objects(body).collect();
        assert_eq!(objs, [r#"{"a":{"b":"}{"},"c":[1,2]}"#, r#"{"d":"\"}"}"#]);
    }
}
