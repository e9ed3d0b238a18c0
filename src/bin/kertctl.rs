//! `kertctl` — the operational command-line front end.
//!
//! The paper's third contribution is an *implementation* that "can be
//! integrated into autonomic solutions with minimal effort"; this tool is
//! that integration surface without writing Rust: simulate an environment,
//! build either model family, persist it, and query it.
//!
//! ```text
//! kertctl simulate --services 12 --requests 800 --seed 7 --out scenario.json
//! kertctl simulate --ediamond --requests 1200 --out scenario.json
//! kertctl build --scenario scenario.json --family kert --mode discrete --out model.json
//! kertctl info  --model model.json
//! kertctl query --model model.json --target 6 --given 3=0.25 --given 0=0.05
//! kertctl violation --model model.json --threshold 0.8 --given 3=0.25
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency budget has
//! no CLI crate); every failure prints usage and exits nonzero.

use std::process::ExitCode;

use kert_bn::model::posterior::{query_posterior, McOptions};
use kert_bn::model::{
    ContinuousKertOptions, DiscreteKertOptions, KertBn, ModelKind, NrtBn, NrtOptions, SavedModel,
};
use kert_bn::prelude::*;
use kert_bn::workflow::{random_workflow, GenOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// On-disk scenario: the workflow (the knowledge) plus the monitoring
/// trace it produced.
#[derive(Serialize, Deserialize)]
struct ScenarioFile {
    n_services: usize,
    workflow: Workflow,
    trace: Trace,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate(rest),
        "build" => cmd_build(rest),
        "info" => cmd_info(rest),
        "query" => cmd_query(rest),
        "violation" => cmd_violation(rest),
        "telemetry" => cmd_telemetry(rest),
        "serve" => cmd_serve(rest),
        "status" => cmd_status(rest),
        "stop" => cmd_stop(rest),
        "trace" => cmd_trace(rest),
        "slo" => cmd_slo(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("kertctl: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
kertctl — KERT-BN performance modeling from the command line

USAGE:
  kertctl simulate (--services N | --ediamond) [--requests R] [--seed S]
          [--utilization U] --out scenario.json
  kertctl build --scenario scenario.json --family kert|nrt|naive
          --mode continuous|discrete [--bins B] [--restarts K] --out model.json
  kertctl info --model model.json [--dot]
  kertctl query --model model.json --target NODE [--given NODE=VALUE]...
  kertctl violation --model model.json --threshold H [--given NODE=VALUE]...
  kertctl telemetry [--jsonl events.jsonl] [--prom snapshot.prom]
          [--require-ladder]
  kertctl serve --model model.json [--addr HOST:PORT] [--workers N]
          [--queue-cap Q] [--max-batch B] [--port-file F]
          [--trace] [--trace-cap T]
  kertctl query --addr HOST:PORT (--target NODE | --dcomp N,N,... |
          --paccel SVC=ELAPSED... | --threshold H...) [--given NODE=VALUE]...
          [--concurrency C] [--repeat K] [--trace]
  kertctl status --addr HOST:PORT [--prom snapshot.prom]
  kertctl stop --addr HOST:PORT
  kertctl trace --addr HOST:PORT [--limit N] [--min N]
          [--chrome trace.json] [--jsonl spans.jsonl]
  kertctl slo --addr HOST:PORT --target SECONDS [--limit N]
          [--min-rows R] [--window W]

Raw measurement values are used in --given and --threshold; discrete
models bin them internally. Node indices: services are 0..n-1 in column
order; the end-to-end metric D is the last node (see `kertctl info`).

`serve` runs the kertd daemon in the foreground: the model is compiled
once, then posterior/dComp/pAccel/violation queries are answered over a
length-prefixed JSON/TCP protocol with request coalescing and bounded-
queue admission control. `query --addr` talks to a running daemon
(versus `query --model`, which answers locally); --concurrency/--repeat
fire the same request from C client threads K times each and fail
unless every response is byte-identical. `status --prom FILE` dumps the
daemon's Prometheus exposition for `kertctl telemetry --prom` to
validate; `stop` drains and shuts the daemon down.

`serve --trace` turns the flight recorder on: every query records a
causal span tree (request → queue-wait → coalesce-group → propagate →
serialize; coalesced requests link to their leader's shared compute
span). `query --trace` stamps each request with a client trace id and
fails unless the daemon echoes it. `trace` fetches the recorded trees,
always validates them as Chrome trace-event JSON, and optionally writes
--chrome (Perfetto/chrome://tracing loadable) and --jsonl (TelemetryEvent
schema) exports. `slo` is the self-modeling monitor: it turns the
daemon's own span trees into telemetry rows (queue-wait / propagate /
serialize phases + total), learns a KERT-BN over that 3-phase pipeline
through the streaming-window path, and reports the model's P(total >
target) next to the measured p99 and burn rate.

`telemetry` validates exporter output: every JSONL line must round-trip
through the TelemetryEvent schema, the Prometheus snapshot must parse,
and --require-ladder additionally demands agents.ladder events covering
all three fallback rungs (fresh, stale, prior).";

/// Minimal flag parser: `--key value` pairs, with repeatable keys.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parse `command`'s `args`, refusing any flag not in `accepted`
    /// (space-separated names): a misspelled or retired flag must fail
    /// before the command does any work, not silently do nothing.
    fn parse(command: &str, args: &[String], accepted: &str) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {key:?}"));
            };
            if !accepted.split(' ').any(|flag| flag == name) {
                return Err(format!("unknown flag --{name} for {command}"));
            }
            // Boolean flags take no value.
            if matches!(name, "ediamond" | "dot" | "require-ladder" | "trace") {
                pairs.push((name.to_string(), "true".to_string()));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "simulate",
        args,
        "services ediamond requests seed utilization out",
    )?;
    let requests: usize = flags.parse_num("requests", 800)?;
    let seed: u64 = flags.parse_num("seed", 2026)?;
    let utilization: f64 = flags.parse_num("utilization", 0.5)?;
    let out = flags.require("out")?;

    let mut rng = StdRng::seed_from_u64(seed);
    let (workflow, n, means): (Workflow, usize, Vec<f64>) = if flags.get("ediamond").is_some() {
        (
            ediamond_workflow(),
            6,
            vec![0.05, 0.05, 0.04, 0.25, 0.05, 0.12],
        )
    } else {
        let n: usize = flags
            .require("services")?
            .parse()
            .map_err(|_| "--services: not a number".to_string())?;
        if n == 0 {
            return Err("--services must be ≥ 1".into());
        }
        let wf = random_workflow(
            n,
            GenOptions {
                choice_prob: 0.0,
                loop_prob: 0.0,
                ..Default::default()
            },
            &mut rng,
        );
        let means = (0..n).map(|_| rng.gen_range(0.02..0.10)).collect();
        (wf, n, means)
    };

    let visits = kert_bn::workflow::expected_visits(&workflow, n);
    let max_work = visits
        .iter()
        .zip(means.iter())
        .map(|(&v, &m)| v * m)
        .fold(1e-6f64, f64::max);
    let stations: Vec<ServiceConfig> = means
        .iter()
        .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
        .collect();
    let mut system = SimSystem::new(
        &workflow,
        stations,
        SimOptions {
            inter_arrival: Dist::Exponential {
                mean: max_work / utilization.clamp(0.05, 0.95),
            },
            warmup: 100,
        },
    )
    .map_err(|e| e.to_string())?;
    let trace = system.run(requests, &mut rng);
    eprintln!(
        "simulated {} requests over {} services (mean D = {:.4} s)",
        trace.len(),
        n,
        trace.response_times().iter().sum::<f64>() / trace.len().max(1) as f64
    );

    let file = ScenarioFile {
        n_services: n,
        workflow,
        trace,
    };
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("scenario written to {out}");
    Ok(())
}

fn load_scenario(path: &str) -> Result<ScenarioFile, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("build", args, "scenario family mode bins restarts seed out")?;
    let scenario = load_scenario(flags.require("scenario")?)?;
    let family = flags.require("family")?;
    let mode = flags.get("mode").unwrap_or("discrete");
    let bins: usize = flags.parse_num("bins", 5)?;
    let restarts: usize = flags.parse_num("restarts", 1)?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let out = flags.require("out")?;

    let data = scenario.trace.to_dataset(None);
    let knowledge = derive_structure(&scenario.workflow, scenario.n_services, &ResourceMap::new())
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);

    let saved: SavedModel = match (family, mode) {
        ("kert", "continuous") => {
            KertBn::build_continuous(&knowledge, &data, ContinuousKertOptions::default())
                .map_err(|e| e.to_string())?
                .to_saved()
        }
        ("kert", "discrete") => KertBn::build_discrete(
            &knowledge,
            &data,
            DiscreteKertOptions {
                bins,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?
        .to_saved(),
        ("nrt", "continuous") => NrtBn::build_continuous(
            &data,
            NrtOptions {
                restarts,
                ..Default::default()
            },
            &mut rng,
        )
        .map_err(|e| e.to_string())?
        .to_saved(),
        ("nrt", "discrete") => NrtBn::build_discrete(
            &data,
            NrtOptions {
                restarts,
                bins,
                ..Default::default()
            },
            &mut rng,
        )
        .map_err(|e| e.to_string())?
        .to_saved(),
        ("naive", "discrete") => NrtBn::build_naive_discrete(
            &data,
            NrtOptions {
                bins,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?
        .to_saved(),
        (f, m) => return Err(format!("unsupported combination --family {f} --mode {m}")),
    };
    let json = saved.to_json().map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "{family}/{mode} model over {} nodes written to {out}",
        saved.network.len()
    );
    Ok(())
}

fn load_model(flags: &Flags) -> Result<SavedModel, String> {
    let path = flags.require("model")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    SavedModel::from_json(&json).map_err(|e| e.to_string())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("info", args, "model dot")?;
    let saved = load_model(&flags)?;
    if flags.get("dot").is_some() {
        // Graphviz view of the structure — pipe into `dot -Tsvg`.
        print!(
            "{}",
            kert_bn::bayes::dot::network_to_dot(&saved.network, "kert_model")
        );
        return Ok(());
    }
    println!("family        : {:?}", saved.kind);
    println!("nodes         : {}", saved.network.len());
    println!("services      : {}", saved.n_services);
    println!("metric node D : {}", saved.d_node);
    println!(
        "mode          : {}",
        if saved.discretizer.is_some() {
            "discrete"
        } else {
            "continuous"
        }
    );
    println!("edges:");
    for (from, to) in saved.network.dag().edges() {
        println!(
            "  {} -> {}",
            saved.network.variables()[from].name,
            saved.network.variables()[to].name
        );
    }
    Ok(())
}

fn parse_evidence(flags: &Flags) -> Result<Vec<(usize, f64)>, String> {
    flags
        .get_all("given")
        .into_iter()
        .map(|pair| {
            let (node, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--given wants NODE=VALUE, got {pair:?}"))?;
            let node: usize = node
                .parse()
                .map_err(|_| format!("--given: bad node index {node:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("--given: bad value {value:?}"))?;
            Ok((node, value))
        })
        .collect()
}

/// One posterior off the saved model: a discrete model answers from its
/// own junction tree, a continuous one by Gaussian conditioning or
/// likelihood weighting.
fn run_query(
    saved: &SavedModel,
    target: usize,
    evidence: &[(usize, f64)],
) -> Result<kert_bn::model::Posterior, String> {
    let (mc, mut rng) = (McOptions::default(), StdRng::seed_from_u64(7));
    let saved = saved.clone();
    match saved.kind {
        ModelKind::Kert => KertBn::from_saved(saved)
            .and_then(|model| query_posterior(&model, evidence, target, mc, &mut rng)),
        ModelKind::Nrt => NrtBn::from_saved(saved)
            .and_then(|model| query_posterior(&model, evidence, target, mc, &mut rng)),
    }
    .map_err(|e| e.to_string())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "query",
        args,
        "model target given addr dcomp paccel threshold concurrency repeat trace",
    )?;
    if flags.get("addr").is_some() {
        return cmd_query_remote(&flags);
    }
    let saved = load_model(&flags)?;
    let target: usize = flags
        .require("target")?
        .parse()
        .map_err(|_| "--target: not a node index".to_string())?;
    let evidence = parse_evidence(&flags)?;
    let posterior = run_query(&saved, target, &evidence)?;
    let name = &saved.network.variables()[target].name;
    println!("posterior of {name} given {evidence:?}:");
    println!("  mean = {:.6}", posterior.mean());
    println!("  sd   = {:.6}", posterior.std_dev());
    if let kert_bn::model::Posterior::Discrete { support, probs, .. } = &posterior {
        for (v, p) in support.iter().zip(probs.iter()) {
            println!("  {v:>12.6}  {p:.4}");
        }
    }
    Ok(())
}

fn cmd_telemetry(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("telemetry", args, "jsonl prom require-ladder")?;
    if flags.get("jsonl").is_none() && flags.get("prom").is_none() {
        return Err("telemetry: nothing to validate (need --jsonl and/or --prom)".into());
    }

    if let Some(path) = flags.get("jsonl") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut events = 0usize;
        let mut rungs_seen = std::collections::BTreeSet::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // Schema validation is a strict serde round trip: the line must
            // deserialize into a TelemetryEvent and serialize back to an
            // equivalent event.
            let event: kert_bn::obs::TelemetryEvent = serde_json::from_str(line)
                .map_err(|e| format!("{path}:{}: schema violation: {e}", lineno + 1))?;
            let rejson = serde_json::to_string(&event).map_err(|e| e.to_string())?;
            let back: kert_bn::obs::TelemetryEvent = serde_json::from_str(&rejson)
                .map_err(|e| format!("{path}:{}: round trip failed: {e}", lineno + 1))?;
            if back != event {
                return Err(format!(
                    "{path}:{}: round trip altered the event",
                    lineno + 1
                ));
            }
            if event.name == "agents.ladder" {
                if let Some((_, rung)) = event.labels.iter().find(|(k, _)| k == "rung") {
                    rungs_seen.insert(rung.clone());
                }
            }
            events += 1;
        }
        if events == 0 {
            return Err(format!("{path}: no telemetry events"));
        }
        println!("{path}: {events} events, all schema-valid");
        if flags.get("require-ladder").is_some() {
            for rung in ["fresh", "stale", "prior"] {
                if !rungs_seen.contains(rung) {
                    return Err(format!(
                        "{path}: fallback ladder rung {rung:?} never exercised \
                         (saw {rungs_seen:?})"
                    ));
                }
            }
            println!("{path}: ladder coverage ok (fresh, stale, prior all present)");
        }
    }

    if let Some(path) = flags.get("prom") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let samples = kert_bn::obs::parse_prometheus(&text)
            .map_err(|e| format!("{path}: invalid exposition: {e}"))?;
        if samples.is_empty() {
            return Err(format!("{path}: no samples"));
        }
        println!("{path}: {} samples, exposition parses", samples.len());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use kert_bn::serving::{serve, ServeConfig};

    let flags = Flags::parse(
        "serve",
        args,
        "model addr workers queue-cap max-batch port-file trace trace-cap",
    )?;
    let saved = load_model(&flags)?;
    let config = ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        workers: flags.parse_num("workers", 0usize)?,
        queue_cap: flags.parse_num("queue-cap", 256usize)?,
        max_batch: flags.parse_num("max-batch", 64usize)?,
        trace: flags.get("trace").is_some(),
        // 0 falls back to the daemon's default flight-recorder capacity.
        trace_cap: flags.parse_num("trace-cap", 0usize)?,
    };

    // The daemon is the metrics source of record: turn the registry on
    // so METRICS serves real counters whatever KERT_OBS says.
    kert_bn::obs::set_mode(kert_bn::obs::ObsMode::Metrics);
    let engine = kert_bn::model::SharedKert::from_saved(saved).map_err(|e| e.to_string())?;
    let queue_cap = config.queue_cap;
    let max_batch = config.max_batch;
    let tracing = config.trace;
    let handle = serve(engine, config).map_err(|e| format!("starting daemon: {e}"))?;
    eprintln!(
        "kertd listening on {} ({} workers, queue cap {}, max batch {}{})",
        handle.addr(),
        handle.workers(),
        queue_cap,
        max_batch,
        if tracing { ", tracing" } else { "" }
    );
    if let Some(path) = flags.get("port-file") {
        // Written *after* bind, so a watcher that sees the file can
        // connect immediately — this is how scripts race-free discover
        // a port-0 daemon.
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let (posterior, dcomp, paccel, violation) = handle.wait();
    eprintln!(
        "kertd stopped: served {posterior} posterior / {dcomp} dcomp / \
         {paccel} paccel / {violation} violation"
    );
    Ok(())
}

/// Build the wire request a remote `query` invocation describes.
fn remote_request(flags: &Flags) -> Result<kert_bn::serving::Request, String> {
    use kert_bn::serving::Request;

    let evidence = parse_evidence(flags)?;
    if let Some(spec) = flags.get("dcomp") {
        let targets = spec
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--dcomp: bad node index {t:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Request::Dcomp {
            observed: evidence,
            targets,
        });
    }
    let paccel = flags.get_all("paccel");
    if !paccel.is_empty() {
        let candidates = paccel
            .into_iter()
            .map(|pair| {
                let (svc, elapsed) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("--paccel wants SVC=ELAPSED, got {pair:?}"))?;
                let svc: usize = svc
                    .parse()
                    .map_err(|_| format!("--paccel: bad service index {svc:?}"))?;
                let elapsed: f64 = elapsed
                    .parse()
                    .map_err(|_| format!("--paccel: bad elapsed {elapsed:?}"))?;
                Ok::<_, String>((svc, elapsed))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Request::Paccel { candidates });
    }
    let thresholds = flags.get_all("threshold");
    if !thresholds.is_empty() {
        let thresholds = thresholds
            .into_iter()
            .map(|h| {
                h.parse::<f64>()
                    .map_err(|_| format!("--threshold: bad number {h:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Request::Violation {
            evidence,
            thresholds,
        });
    }
    let target: usize = flags
        .require("target")?
        .parse()
        .map_err(|_| "--target: not a node index".to_string())?;
    Ok(Request::Posterior { evidence, target })
}

/// `query --addr`: fire the request at a running daemon. With
/// `--concurrency C --repeat K`, C client threads send it K times each
/// and the command fails unless all C×K responses are byte-identical —
/// the CLI-level determinism check the CI smoke leans on.
fn cmd_query_remote(flags: &Flags) -> Result<(), String> {
    use kert_bn::serving::{protocol, Client, Response};

    let addr = flags.require("addr")?.to_string();
    let request = remote_request(flags)?;
    let concurrency: usize = flags.parse_num("concurrency", 1usize)?;
    let repeat: usize = flags.parse_num("repeat", 1usize)?;
    if concurrency == 0 || repeat == 0 {
        return Err("--concurrency and --repeat must be ≥ 1".into());
    }
    let traced = flags.get("trace").is_some();

    let answers: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|ci| {
                let addr = addr.clone();
                let request = request.clone();
                s.spawn(move || {
                    let mut client =
                        Client::connect_retry(addr.as_str(), std::time::Duration::from_secs(5))
                            .map_err(|e| format!("connecting to {addr}: {e}"))?;
                    (0..repeat)
                        .map(|k| {
                            let response = if traced {
                                // Every request gets a distinct client-
                                // assigned trace id; the daemon must
                                // echo it back on the reply frame.
                                let tid = (ci * repeat + k + 1) as u64;
                                let (response, echoed) = client
                                    .request_traced(&request, tid)
                                    .map_err(|e| format!("talking to {addr}: {e}"))?;
                                if echoed != Some(tid) {
                                    return Err(format!(
                                        "trace id not echoed: sent {tid}, got {echoed:?}"
                                    ));
                                }
                                response
                            } else {
                                client
                                    .request(&request)
                                    .map_err(|e| format!("talking to {addr}: {e}"))?
                            };
                            if let Response::Error(err) = &response {
                                return Err(format!("{:?}: {}", err.kind, err.message));
                            }
                            protocol::encode(&response)
                                .map(|b| String::from_utf8_lossy(&b).into_owned())
                                .map_err(|e| format!("encoding response: {e}"))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut all: Vec<String> = Vec::new();
    for per_client in answers {
        all.extend(per_client?);
    }
    let first = &all[0];
    if let Some(diverged) = all.iter().position(|a| a != first) {
        return Err(format!(
            "response {diverged} of {} differs from response 0 — \
             the daemon is not deterministic:\n  {first}\n  {}",
            all.len(),
            all[diverged]
        ));
    }
    println!("{first}");
    if all.len() > 1 {
        eprintln!(
            "{} responses ({concurrency} clients × {repeat} each), all byte-identical",
            all.len()
        );
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    use kert_bn::serving::{Client, Response};

    let flags = Flags::parse("status", args, "addr prom")?;
    let addr = flags.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let status = match client.status().map_err(|e| e.to_string())? {
        Response::Status(s) => s,
        other => return Err(format!("unexpected status reply: {other:?}")),
    };
    println!(
        "model    : {} nodes ({} services, D = node {})",
        status.nodes, status.n_services, status.d_node
    );
    println!("tree     : width {}", status.width);
    println!(
        "daemon   : {} workers, queue {}/{} ({} inflight){}",
        status.workers,
        status.queue_depth,
        status.queue_cap,
        status.inflight,
        if status.draining { ", draining" } else { "" }
    );
    println!(
        "served   : {} posterior / {} dcomp / {} paccel / {} violation",
        status.served_posterior, status.served_dcomp, status.served_paccel, status.served_violation
    );
    println!(
        "shed     : {} overloaded, {} shutting-down",
        status.shed_overloaded, status.shed_shutting_down
    );
    println!(
        "coalesce : {} batches folding {} requests",
        status.coalesced_batches, status.coalesced_requests
    );
    println!("uptime   : {} ms", status.uptime_ms);

    if let Some(path) = flags.get("prom") {
        let prometheus = match client.metrics().map_err(|e| e.to_string())? {
            Response::Metrics { prometheus } => prometheus,
            other => return Err(format!("unexpected metrics reply: {other:?}")),
        };
        std::fs::write(path, &prometheus).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("prometheus snapshot written to {path}");
    }
    Ok(())
}

fn cmd_stop(args: &[String]) -> Result<(), String> {
    use kert_bn::serving::{Client, Response};

    let flags = Flags::parse("stop", args, "addr")?;
    let addr = flags.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match client.stop().map_err(|e| e.to_string())? {
        Response::Stopping => {
            eprintln!("daemon at {addr} drained and stopped");
            Ok(())
        }
        other => Err(format!("unexpected stop reply: {other:?}")),
    }
}

/// Fetch span trees from a traced daemon.
fn fetch_traces(addr: &str, limit: usize) -> Result<Vec<kert_bn::obs::TraceTree>, String> {
    use kert_bn::serving::{Client, Response};
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match client.traces(limit).map_err(|e| e.to_string())? {
        Response::Traces { traces } => Ok(traces),
        Response::Error(e) => Err(format!("{:?}: {}", e.kind, e.message)),
        other => Err(format!("unexpected trace reply: {other:?}")),
    }
}

/// `trace`: pull the daemon's flight recorder and export it. The Chrome
/// trace-event rendering is *always* built and validated — a file that
/// would not load in Perfetto is a command failure, written or not.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("trace", args, "addr limit min chrome jsonl")?;
    let addr = flags.require("addr")?;
    let limit: usize = flags.parse_num("limit", 0usize)?;
    let min: usize = flags.parse_num("min", 1usize)?;

    let traces = fetch_traces(addr, limit)?;
    if traces.len() < min {
        return Err(format!(
            "only {} trace(s) recorded (need at least {min}) — is the daemon \
             serving traced queries?",
            traces.len()
        ));
    }
    let spans: usize = traces.iter().map(|t| t.spans.len()).sum();
    let json = kert_bn::obs::chrome_trace_json(&traces);
    let stats = kert_bn::obs::check_chrome_trace(&json)
        .map_err(|e| format!("exported Chrome trace failed validation: {e}"))?;
    println!(
        "{} traces, {spans} spans -> {} chrome events ({} complete, {} flow)",
        traces.len(),
        stats.events,
        stats.complete,
        stats.flows
    );

    if let Some(path) = flags.get("chrome") {
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
    }
    if let Some(path) = flags.get("jsonl") {
        let mut out = String::new();
        for tree in &traces {
            for event in kert_bn::obs::trace_events(tree) {
                out.push_str(&serde_json::to_string(&event).map_err(|e| e.to_string())?);
                out.push('\n');
            }
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("span events written to {path} (TelemetryEvent schema)");
    }
    Ok(())
}

/// `slo`: the self-modeling monitor (KERT-on-KERT). The daemon's own
/// span trees become telemetry rows — queue-wait, propagate, serialize
/// phase durations plus the end-to-end request time — and a KERT-BN is
/// learned over that three-phase pipeline exactly the way the paper's
/// models are learned over service pipelines: workflow-derived
/// structure, discrete CPDs, rows fed through the streaming window.
/// The learned model's violation probability is reported next to the
/// measured tail so drift between them is visible at a glance.
fn cmd_slo(args: &[String]) -> Result<(), String> {
    use kert_bn::bayes::learn::mle::ParamOptions;
    use kert_bn::model::StreamingWindow;

    let flags = Flags::parse("slo", args, "addr target limit min-rows window")?;
    let addr = flags.require("addr")?;
    let target: f64 = flags
        .require("target")?
        .parse()
        .map_err(|_| "--target: not a number (seconds)".to_string())?;
    if !target.is_finite() || target <= 0.0 {
        return Err("--target must be a positive latency bound in seconds".into());
    }
    let limit: usize = flags.parse_num("limit", 0usize)?;
    let min_rows: usize = flags.parse_num("min-rows", 1000usize)?;
    let window_cap: usize = flags.parse_num("window", 4096usize)?;

    let traces = fetch_traces(addr, limit)?;
    const NS: f64 = 1e9;
    let rows: Vec<[f64; 4]> = traces
        .iter()
        .filter_map(|tree| {
            let root = tree.find("kertd.request")?;
            if root.end_ns == 0 {
                return None;
            }
            Some([
                tree.span_ns("kertd.queue_wait") as f64 / NS,
                tree.span_ns("kertd.propagate") as f64 / NS,
                tree.span_ns("kertd.serialize") as f64 / NS,
                (root.end_ns - root.start_ns) as f64 / NS,
            ])
        })
        .collect();
    if rows.len() < min_rows {
        return Err(format!(
            "{} self-telemetry rows (need at least {min_rows}) — drive more \
             traced queries or raise the daemon's --trace-cap",
            rows.len()
        ));
    }

    // The daemon's request pipeline *is* a sequential 3-service
    // workflow: queue-wait then propagate then serialize, with the
    // request duration as its end-to-end metric D.
    let workflow = Workflow::seq(vec![
        Workflow::Task(0),
        Workflow::Task(1),
        Workflow::Task(2),
    ])
    .map_err(|e| e.to_string())?;
    let knowledge =
        derive_structure(&workflow, 3, &ResourceMap::new()).map_err(|e| e.to_string())?;
    let names = ["queue_wait", "propagate", "serialize", "D"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut data = kert_bn::bayes::Dataset::new(names);
    for row in &rows {
        data.push_row(row.to_vec()).map_err(|e| e.to_string())?;
    }

    let mut model = KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default())
        .map_err(|e| e.to_string())?;
    // Dogfood the streaming path the production models use: rows enter
    // through the sliding window and the model refreshes from it.
    let mut window =
        StreamingWindow::new(&model, window_cap.max(rows.len()), ParamOptions::default())
            .map_err(|e| e.to_string())?;
    window.extend(&data).map_err(|e| e.to_string())?;
    let refresh = model
        .refresh_from_window(&mut window)
        .map_err(|e| e.to_string())?;

    let engine = kert_bn::model::SharedKert::new(model).map_err(|e| e.to_string())?;
    let p_violation = engine
        .session()
        .violation_sweep(&[], &[target])
        .map_err(|e| e.to_string())?[0];

    let mut durations: Vec<f64> = rows.iter().map(|r| r[3]).collect();
    durations.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let p99 =
        durations[((durations.len() as f64 * 0.99).ceil() as usize - 1).min(durations.len() - 1)];
    let violations = durations.iter().filter(|&&d| d > target).count();
    let burn_rate = violations as f64 / durations.len() as f64;

    println!("slo      : D <= {target}s on the daemon's own request pipeline");
    println!(
        "rows     : {} self-telemetry rows ({} in window, {} nodes refreshed)",
        rows.len(),
        window.len(),
        refresh.nodes_moved
    );
    println!("model    : P(D > {target}) = {p_violation:.4}  (learned KERT-BN)");
    println!(
        "measured : p99 = {:.6}s, burn rate = {burn_rate:.4} ({violations}/{} over target)",
        p99,
        durations.len()
    );
    Ok(())
}

fn cmd_violation(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("violation", args, "model threshold given")?;
    let saved = load_model(&flags)?;
    let threshold: f64 = flags
        .require("threshold")?
        .parse()
        .map_err(|_| "--threshold: not a number".to_string())?;
    let evidence = parse_evidence(&flags)?;
    let posterior = run_query(&saved, saved.d_node, &evidence)?;
    println!(
        "P(D > {threshold}) = {:.4}   (E[D] = {:.4})",
        posterior.exceedance(threshold),
        posterior.mean()
    );
    Ok(())
}
