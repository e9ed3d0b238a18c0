//! The `control-loop` workload: the paper's `T_CON` reconstruction
//! followed by the controller's three questions, in one thread.
//!
//! Each tick pushes 50 new rows into a 1000-row window, refreshes the
//! model from it, and asks `assess_violation_sweep`, `dcomp_all` and
//! `paccel_candidates` on the latest row's evidence.

use std::time::Instant;

use kert_bayes::cpd::Cpd;
use kert_bayes::infer::ve::EliminationHeuristic;
use kert_bayes::learn::mle::{fit_all_parameters, ParamOptions};
use kert_bayes::{Dag, Dataset};
use kert_core::posterior::McOptions;
use kert_core::{
    assess_violation_sweep, dcomp_all, dcomp_via, paccel_candidates, paccel_via,
    violation_probability_via, DCompOutcome, Engine, KertBn, PAccelOutcome, Posterior,
    StreamingWindow, ViolationAssessment,
};
use kert_obs::{ObsMode, TraceContext, TraceTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{self_us, spans_named, tree_facts};
use crate::report::{peak_rss_mb, Outcome};
use crate::serving::push_engine_counters;
use crate::stats::{
    block_percentile, block_percentiles, blocks, lowest, median, percentile, ratio, sorted,
    tail_percentile, BLOCK,
};
use crate::streams::{
    build_model, hidden_services, model_inputs, row_evidence, row_stream, ModelInputs, ModelKind,
    PACCEL_CANDIDATES, THRESHOLDS, TRAIN_ROWS,
};

/// New rows per tick.
const ROWS_PER_TICK: usize = 50;
/// Seeded rows the ticks cycle through.
const ROW_POOL: usize = ROWS_PER_TICK * 400;
/// Set-ups timed per run, spread evenly over it between ticks (so a
/// stretch of contention on a shared host slows only a few); `setup_s`
/// is their median.
const SETUP_REPS: usize = 21;
/// Ticks between correctness checks (outside the timed region).
const CHECK_EVERY: usize = 50;
/// Ticks per phase of the traced run (a fixed count, so per-tick counts
/// repeat exactly on one seed).
const TRACED_TICKS: usize = 600;
/// Agreement required between the compiled engine and variable elimination.
const VE_TOLERANCE: f64 = 1e-9;

/// A model, its window and the row stream feeding it.
struct Loop {
    model: KertBn,
    window: StreamingWindow,
    rows: Dataset,
    cursor: usize,
    hidden: Vec<usize>,
    rng: StdRng,
}

/// The answers of one tick.
struct Answers {
    evidence: Vec<(usize, f64)>,
    observed: Vec<(usize, f64)>,
    violation: Vec<ViolationAssessment>,
    dcomp: Vec<DCompOutcome>,
    paccel: Vec<PAccelOutcome>,
    cpds_moved: usize,
}

/// Build the model on the first 1000 rows, open its window and fill it.
fn setup(inputs: &ModelInputs) -> (KertBn, StreamingWindow) {
    let model = build_model(inputs);
    let mut window =
        StreamingWindow::new(&model, TRAIN_ROWS, ParamOptions::default()).expect("window opens");
    for r in 0..inputs.train.rows() {
        window.push_row(inputs.train.row(r)).expect("rows fit");
    }
    (model, window)
}

impl Loop {
    fn new(inputs: &ModelInputs, rows: Dataset) -> Loop {
        let (model, window) = setup(inputs);
        let hidden = hidden_services(model.n_services());
        Loop {
            model,
            window,
            rows,
            cursor: 0,
            hidden,
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// One tick. Each public call runs inside its own span (inert unless
    /// telemetry is on).
    fn tick(&mut self) -> Answers {
        let mc = McOptions::default();
        let mut latest = 0;
        {
            let _s = kert_obs::span("stream.slide");
            for _ in 0..ROWS_PER_TICK {
                latest = self.cursor;
                self.window
                    .push_row(self.rows.row(latest))
                    .expect("rows fit");
                self.cursor = (self.cursor + 1) % self.rows.rows();
            }
        }
        let summary = {
            let _s = kert_obs::span("stream.refresh");
            self.model
                .refresh_from_window(&mut self.window)
                .expect("refresh succeeds")
        };
        let row = self.rows.row(latest);
        let evidence = row_evidence(row, false);
        let observed = row_evidence(row, true);
        let violation = {
            let _s = kert_obs::span("autonomic.violation");
            assess_violation_sweep(&self.model, &evidence, &THRESHOLDS, mc, &mut self.rng)
                .expect("violation sweep")
        };
        let dcomp = {
            let _s = kert_obs::span("autonomic.dcomp");
            dcomp_all(&self.model, &observed, &self.hidden, mc, &mut self.rng).expect("dcomp")
        };
        let paccel = {
            let _s = kert_obs::span("autonomic.paccel");
            paccel_candidates(&self.model, &PACCEL_CANDIDATES, mc, &mut self.rng).expect("paccel")
        };
        Answers {
            evidence,
            observed,
            violation,
            dcomp,
            paccel,
            cpds_moved: summary.nodes_moved,
        }
    }

    /// Wrong answers in `answers`: refreshed CPTs that are not bitwise
    /// equal to a batch fit over the window, and autonomic answers more
    /// than [`VE_TOLERANCE`] from variable elimination.
    fn check(&mut self, answers: &Answers) -> u64 {
        let mut wrong = 0;
        let net = self.model.network();
        let m = self.model.d_node();
        let names = net.variables().iter().map(|v| v.name.clone()).collect();
        let current = self.window.to_dataset(names).expect("window exports");
        for (node, want) in batch_cpds(&self.model, &current).iter().enumerate() {
            let same = match (&net.cpds()[node], want) {
                (Cpd::Tabular(got), Cpd::Tabular(exp)) => {
                    got.table().len() == exp.table().len()
                        && got
                            .table()
                            .iter()
                            .zip(exp.table())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                }
                _ => false,
            };
            wrong += u64::from(!same);
        }

        let disc = self.model.discretizer();
        let ve = Engine::VariableElimination(EliminationHeuristic::MinFill);
        let mc = McOptions::default();
        let rng = &mut self.rng;
        for a in &answers.violation {
            let p = violation_probability_via(
                net,
                disc,
                &answers.evidence,
                m,
                a.threshold,
                ve,
                mc,
                rng,
            )
            .expect("VE violation");
            wrong += u64::from((p - a.probability).abs() > VE_TOLERANCE);
        }
        for o in &answers.dcomp {
            let via =
                dcomp_via(net, disc, &answers.observed, o.target, ve, mc, rng).expect("VE dcomp");
            wrong +=
                u64::from(!close(&via.prior, &o.prior) || !close(&via.posterior, &o.posterior));
        }
        for o in &answers.paccel {
            let via = paccel_via(net, disc, m, o.service, o.predicted_elapsed, ve, mc, rng)
                .expect("VE paccel");
            wrong += u64::from(
                !close(&via.prior_d, &o.prior_d) || !close(&via.projected_d, &o.projected_d),
            );
        }
        wrong
    }
}

fn probs(p: &Posterior) -> &[f64] {
    match p {
        Posterior::Discrete { probs, .. } => probs,
        _ => &[],
    }
}

fn close(a: &Posterior, b: &Posterior) -> bool {
    let (a, b) = (probs(a), probs(b));
    !a.is_empty()
        && a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= VE_TOLERANCE)
}

/// Batch oracle: relearn the learned nodes over `window` with the
/// model's variables, structure and discretizer.
fn batch_cpds(model: &KertBn, window: &Dataset) -> Vec<Cpd> {
    let m = model.d_node();
    let net = model.network();
    let mut dag = Dag::new(m);
    for (from, to) in net.dag().edges() {
        if from < m && to < m {
            dag.add_edge(from, to).expect("sub-DAG of a DAG");
        }
    }
    let cols: Vec<usize> = (0..m).collect();
    let learned = model
        .discretizer()
        .expect("discrete model")
        .transform(window)
        .expect("window bins")
        .project(&cols)
        .expect("learned columns");
    fit_all_parameters(
        &net.variables()[..m],
        &dag,
        &learned,
        ParamOptions::default(),
    )
    .expect("batch fit")
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    kert_obs::set_mode(ObsMode::Disabled);
    let inputs = model_inputs(ModelKind::Ediamond);
    let rows = row_stream(ModelKind::Ediamond, ROW_POOL, seed);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut lp = Loop::new(&inputs, rows);
    let mut ticks_ms = Vec::new();
    let mut timed = 0.0f64;
    let mut wrong = 0u64;
    let mut checked = 0usize;
    while timed < seconds {
        if setups.len() < SETUP_REPS && timed >= seconds * setups.len() as f64 / SETUP_REPS as f64 {
            let t = Instant::now();
            std::hint::black_box(setup(&inputs));
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let answers = lp.tick();
        let dt = t.elapsed().as_secs_f64();
        timed += dt;
        ticks_ms.push(dt * 1e3);
        if ticks_ms.len() % CHECK_EVERY == 1 {
            wrong += lp.check(&answers);
            checked += 1;
        }
    }
    let lat = sorted(&ticks_ms);
    let mut out = Outcome {
        attempted: lat.len() as u64,
        failed: wrong,
        mismatches: wrong,
        ..Outcome::default()
    };
    out.note(format!(
        "one controller thread; window {TRAIN_ROWS} rows, {ROWS_PER_TICK} new rows per tick; \
         {checked} ticks checked against a batch refit and variable elimination"
    ));
    if let Some(p) = tail_percentile(lat.len()) {
        out.note(format!(
            "tail: p{p} = {:.3} ms over {} ticks",
            percentile(&lat, p),
            lat.len()
        ));
    }
    out.push("setup_s", median(&setups), "s", setups.len());
    // Per block: the median tick and ticks per second of timed work.
    // The reported figures are the run's best block, the one least
    // slowed by other guests of a shared host.
    let ranges = blocks(ticks_ms.len());
    let block_p50 = block_percentiles(&ticks_ms, 50.0);
    let block_rate: Vec<f64> = ranges
        .iter()
        .map(|r| r.len() as f64 * 1e3 / ticks_ms[r.clone()].iter().sum::<f64>())
        .collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note(format!(
        "per block of at least {BLOCK} ticks: p50 (ms) {}; ticks/s {}",
        list(&block_p50),
        list(&block_rate)
    ));
    let (best, best_p50) = lowest(&block_p50).expect("at least one tick");
    let (fast, fastest) = block_rate
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one tick");
    out.push("best_p50_ms", best_p50, "ms", ranges[best].len());
    out.push("throughput_per_s", fastest, "1/s", ranges[fast].len());
    out.push("p50_ms", median(&block_p50), "ms", lat.len());
    out.push("p90_ms", block_percentile(&ticks_ms, 90.0), "ms", lat.len());
    out.push("p99_ms", block_percentile(&ticks_ms, 99.0), "ms", lat.len());
    out.push("ticks_per_s", lat.len() as f64 / timed, "1/s", lat.len());
    out.push("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out
}

/// The traced run: an untraced and a traced phase of [`TRACED_TICKS`]
/// ticks each over the same rows, one trace per tick.
pub fn run_traced(seed: u64) -> Outcome {
    let inputs = model_inputs(ModelKind::Ediamond);
    let rows = row_stream(ModelKind::Ediamond, ROW_POOL, seed);

    kert_obs::set_mode(ObsMode::Disabled);
    let mut lp = Loop::new(&inputs, rows.clone());
    let mut plain_ms = Vec::with_capacity(TRACED_TICKS);
    for _ in 0..TRACED_TICKS {
        let t = Instant::now();
        std::hint::black_box(lp.tick());
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    kert_obs::set_mode(ObsMode::Metrics);
    let mut lp = Loop::new(&inputs, rows);
    let mut traced_ms = Vec::with_capacity(TRACED_TICKS);
    let mut trees: Vec<TraceTree> = Vec::with_capacity(TRACED_TICKS);
    let mut moved = 0usize;
    let mut last = None;
    let snap0 = kert_obs::snapshot();
    for tick in 0..TRACED_TICKS {
        let t = Instant::now();
        kert_obs::trace::install(TraceContext::new(tick as u64 + 1));
        let answers = {
            let _root = kert_obs::span("control.tick");
            lp.tick()
        };
        let ctx = kert_obs::trace::take().expect("the tick's context is installed");
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trees.push(ctx.finish());
        moved += answers.cpds_moved;
        last = Some(answers);
    }
    let snap1 = kert_obs::snapshot();
    let wrong = lp.check(&last.expect("at least one tick"));

    let ticks = TRACED_TICKS as f64;
    let mut out = Outcome {
        attempted: TRACED_TICKS as u64,
        failed: wrong,
        mismatches: wrong,
        ..Outcome::default()
    };
    let span_p50 = |name: &str| {
        let v: Vec<f64> = spans_named(&trees, name)
            .map(|(_, s)| crate::layers::dur_us(s))
            .collect();
        (percentile(&sorted(&v), 50.0), v.len())
    };
    let mut path_us = 0.0;
    for (metric, span) in [
        ("stream.slide_us", "stream.slide"),
        ("stream.refresh_us", "stream.refresh"),
        ("autonomic.violation_us", "autonomic.violation"),
        ("autonomic.dcomp_us", "autonomic.dcomp"),
        ("autonomic.paccel_us", "autonomic.paccel"),
    ] {
        let (v, n) = span_p50(span);
        path_us += v;
        out.push(metric, v, "us", n);
    }
    out.push(
        "stream.cpds_moved",
        moved as f64 / ticks,
        "count",
        TRACED_TICKS,
    );
    out.push(
        "autonomic.compiles_per_tick",
        ratio(
            crate::serving::counter_delta(&snap0, &snap1, "bayes.jt.compiles"),
            ticks,
        ),
        "count",
        TRACED_TICKS,
    );
    let marginal: Vec<f64> = spans_named(&trees, "jt.marginal")
        .map(|(t, s)| self_us(t, s))
        .collect();
    out.push(
        "jt.marginal_us.p50",
        percentile(&sorted(&marginal), 50.0),
        "us",
        marginal.len(),
    );
    let (collect, n) = span_p50("jt.collect");
    out.push("jt.collect_us.p50", collect, "us", n);
    push_engine_counters(&mut out, &snap0, &snap1, ticks);
    let facts = tree_facts(lp.model.network(), 5);
    out.push("jt.compile_ms", facts.compile_ms, "ms", 5);
    out.push("jt.width", facts.width, "count", 1);
    out.push("jt.table_entries", facts.table_entries, "count", 1);
    let traced_p50 = median(&traced_ms);
    let plain_p50 = median(&plain_ms);
    out.push(
        "obs.trace_overhead",
        traced_p50 / plain_p50 - 1.0,
        "ratio",
        TRACED_TICKS,
    );
    out.push(
        "unattributed_frac",
        1.0 - path_us / 1e3 / traced_p50,
        "ratio",
        TRACED_TICKS,
    );
    out.note(format!(
        "{TRACED_TICKS} ticks untraced (p50 {plain_p50:.3} ms) then {TRACED_TICKS} traced \
         (p50 {traced_p50:.3} ms); the final state checked against a batch refit and VE"
    ));
    let path = crate::write_traces("control-loop", seed, &trees);
    out.note(format!("span trees written to {path}"));
    out
}
