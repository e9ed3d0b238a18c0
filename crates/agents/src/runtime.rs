//! Concurrent (decentralized) vs. sequential (centralized) learning.
//!
//! The decentralized path plays the agent fleet on a `std::thread::scope`
//! worker pool: each node's CPD is one task, tasks are pulled from a shared
//! queue, and every task's learning time is measured individually. Because
//! real deployments run each agent on its own machine, the *reported*
//! decentralized latency is `max(per-node times)` (plus nothing for
//! assembly — the server just plugs CPDs in), while the centralized
//! reference pays `Σ per-node times` on one machine. Both numbers are
//! returned so Figure 5 can plot them from a single run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kert_bayes::cpd::Cpd;
use kert_bayes::learn::mle::ParamOptions;
use kert_bayes::{Dag, Dataset, LinearGaussianCpd, TabularCpd, Variable, VariableKind};

use crate::collect::{collect_report, sanitize_report, ReportSource, RetryPolicy};
use crate::health::{CpdSource, ModelHealth, NodeHealth};
use crate::local::{fit_node_from_local, LocalDataset};
use crate::{AgentError, Result};

// Learning-runtime telemetry. The fallback-ladder counters are the
// self-healing story in three numbers: how many nodes this process has
// landed on each rung since startup. The seeded-fleet determinism test
// diffs them across a run and checks they match `ModelHealth` exactly.
static OBS_LEARN_RUNS: kert_obs::Counter = kert_obs::Counter::new("agents.learn.runs");
static OBS_LEARN_NODES: kert_obs::Counter = kert_obs::Counter::new("agents.learn.nodes");
static OBS_NODE_LEARN: kert_obs::Histogram = kert_obs::Histogram::new("agents.node_learn");
static OBS_LADDER_FRESH: kert_obs::Counter = kert_obs::Counter::new("agents.ladder.fresh");
static OBS_LADDER_STALE: kert_obs::Counter = kert_obs::Counter::new("agents.ladder.stale");
static OBS_LADDER_PRIOR: kert_obs::Counter = kert_obs::Counter::new("agents.ladder.prior");
static OBS_ROWS_DROPPED: kert_obs::Counter = kert_obs::Counter::new("agents.rows_dropped");

/// Per-task result cell: the learned CPD and how long the fit took.
type TaskCell = Mutex<Option<Result<(Cpd, Duration)>>>;

/// Pool size when the OS won't report available parallelism.
const FALLBACK_WORKERS: usize = 4;

/// Options for both learning paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct LearnOptions {
    /// Parameter-learning options forwarded to the per-node fits.
    pub params: ParamOptions,
    /// Worker threads for the decentralized pool (`None` = available
    /// parallelism).
    pub workers: Option<usize>,
}

/// Outcome of decentralized learning.
#[derive(Debug)]
pub struct DecentralizedResult {
    /// One learned CPD per node, node-ordered.
    pub cpds: Vec<Cpd>,
    /// Per-node learning durations.
    pub node_times: Vec<Duration>,
    /// `max(node_times)` — the latency of the fleet (each agent on its own
    /// machine).
    pub decentralized_time: Duration,
}

/// Outcome of centralized learning.
#[derive(Debug)]
pub struct CentralizedResult {
    /// One learned CPD per node, node-ordered.
    pub cpds: Vec<Cpd>,
    /// Per-node learning durations.
    pub node_times: Vec<Duration>,
    /// `Σ node_times` ≈ wall time of the sequential pass.
    pub centralized_time: Duration,
}

/// Slice the management-server dataset into per-node local views
/// (columns `[parents…, node]`), as the monitoring agents would hold them.
pub fn slice_local_datasets(dag: &Dag, data: &Dataset) -> Result<Vec<LocalDataset>> {
    if data.columns() != dag.len() {
        return Err(AgentError::BadLocalData(format!(
            "dataset has {} columns for a {}-node DAG",
            data.columns(),
            dag.len()
        )));
    }
    (0..dag.len())
        .map(|node| {
            let parents = dag.parents(node).to_vec();
            let mut cols = parents.clone();
            cols.push(node);
            let local = data
                .project(&cols)
                .map_err(|e| AgentError::BadLocalData(e.to_string()))?;
            Ok(LocalDataset {
                node,
                parents,
                data: local,
            })
        })
        .collect()
}

/// Learn all CPDs concurrently from per-agent local datasets.
pub fn decentralized_learn(
    variables: &[Variable],
    locals: &[LocalDataset],
    options: LearnOptions,
) -> Result<DecentralizedResult> {
    OBS_LEARN_RUNS.incr();
    let _span = kert_obs::span("agents.decentralized_learn");
    let n = locals.len();
    let workers = options
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(FALLBACK_WORKERS)
        })
        .max(1)
        .min(n.max(1));

    let next_task = AtomicUsize::new(0);
    let results: Vec<TaskCell> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let task = next_task.fetch_add(1, Ordering::Relaxed);
                if task >= n {
                    break;
                }
                let started = Instant::now();
                let outcome = fit_node_from_local(variables, &locals[task], options.params)
                    .map(|cpd| (cpd, started.elapsed()));
                if let Ok(mut slot) = results[task].lock() {
                    *slot = Some(outcome);
                }
            });
        }
    });

    let mut cpds = Vec::with_capacity(n);
    let mut node_times = Vec::with_capacity(n);
    for (task, cell) in results.into_iter().enumerate() {
        let slot = cell
            .into_inner()
            .map_err(|_| AgentError::Internal(format!("result cell for task {task} poisoned")))?;
        let (cpd, t) = slot.ok_or_else(|| {
            AgentError::Internal(format!("task {task} was never processed by the pool"))
        })??;
        cpds.push(cpd);
        node_times.push(t);
    }
    OBS_LEARN_NODES.add(n as u64);
    for t in &node_times {
        OBS_NODE_LEARN.record(t.as_nanos() as u64);
    }
    let decentralized_time = node_times.iter().copied().max().unwrap_or_default();
    Ok(DecentralizedResult {
        cpds,
        node_times,
        decentralized_time,
    })
}

/// Learn all CPDs sequentially on one machine (the centralized reference).
pub fn centralized_learn(
    variables: &[Variable],
    locals: &[LocalDataset],
    options: LearnOptions,
) -> Result<CentralizedResult> {
    let mut cpds = Vec::with_capacity(locals.len());
    let mut node_times = Vec::with_capacity(locals.len());
    for local in locals {
        let started = Instant::now();
        let cpd = fit_node_from_local(variables, local, options.params)?;
        node_times.push(started.elapsed());
        cpds.push(cpd);
    }
    let centralized_time = node_times.iter().sum();
    Ok(CentralizedResult {
        cpds,
        node_times,
        centralized_time,
    })
}

/// Last-good CPDs kept by the management server, aged per window.
#[derive(Debug, Clone, Default)]
pub struct CpdCache {
    /// `entries[node]` = last fresh CPD and its age in windows.
    entries: Vec<Option<(Cpd, usize)>>,
}

impl CpdCache {
    /// Maximum age (in windows) a cached CPD ever reports.
    ///
    /// Ages saturate here instead of growing without bound: a server
    /// that has been failing over the same node for years must still
    /// report a sane staleness to health gauges (which encode ages as
    /// `f64` and would otherwise lose integer precision past 2⁵³, and
    /// whose consumers may narrow to `u32`). `u32::MAX` windows is ≫ any
    /// real deployment lifetime, so saturation is observationally lossless.
    pub const MAX_AGE: usize = u32::MAX as usize;

    /// An empty cache for `n` nodes.
    pub fn new(n: usize) -> Self {
        CpdCache {
            entries: vec![None; n],
        }
    }

    /// Remember `cpd` as `node`'s last-good model (age 0).
    pub fn store(&mut self, node: usize, cpd: Cpd) {
        self.store_aged(node, cpd, 0);
    }

    /// Remember `cpd` with an explicit `age`. Ages above
    /// [`Self::MAX_AGE`] are clamped.
    pub fn store_aged(&mut self, node: usize, cpd: Cpd, age: usize) {
        if node >= self.entries.len() {
            self.entries.resize(node + 1, None);
        }
        self.entries[node] = Some((cpd, age.min(Self::MAX_AGE)));
    }

    /// The cached CPD and its age, if any.
    pub fn get(&self, node: usize) -> Option<(&Cpd, usize)> {
        self.entries
            .get(node)
            .and_then(|e| e.as_ref())
            .map(|(cpd, age)| (cpd, *age))
    }

    /// Advance one window: every cached CPD gets older, saturating at
    /// [`Self::MAX_AGE`].
    pub fn tick(&mut self) {
        for entry in self.entries.iter_mut().flatten() {
            entry.1 = entry.1.saturating_add(1).min(Self::MAX_AGE);
        }
    }
}

/// The zero-knowledge prior for continuous nodes: `N(mean, variance)`
/// ignoring parents (zero coefficients). Discrete nodes fall back to a
/// uniform CPT regardless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorSpec {
    /// Prior mean of the elapsed time.
    pub mean: f64,
    /// Prior variance (wide by default — the prior should claim little).
    pub variance: f64,
}

impl Default for PriorSpec {
    fn default() -> Self {
        PriorSpec {
            mean: 0.0,
            variance: 1.0,
        }
    }
}

/// Options for [`resilient_decentralized_learn`].
#[derive(Debug, Clone, Copy)]
pub struct ResilientOptions {
    /// Parameter-learning options for the per-node fits.
    pub params: ParamOptions,
    /// Retry/backoff policy per report collection.
    pub retry: RetryPolicy,
    /// Minimum reconciled rows required for a fresh fit (a 1-row "fit"
    /// would be numerically meaningless).
    pub min_rows: usize,
    /// Prior/default CPD parameters (the bottom ladder rung).
    pub prior: PriorSpec,
}

impl Default for ResilientOptions {
    fn default() -> Self {
        ResilientOptions {
            params: ParamOptions::default(),
            retry: RetryPolicy::default(),
            min_rows: 8,
            prior: PriorSpec::default(),
        }
    }
}

/// Outcome of a resilient rebuild: a complete CPD set plus the health
/// report saying how each CPD was obtained.
#[derive(Debug)]
pub struct ResilientResult {
    /// One CPD per node, node-ordered — never missing, whatever the faults.
    pub cpds: Vec<Cpd>,
    /// Per-node provenance, rows used/dropped, retries, faults seen.
    pub health: ModelHealth,
}

/// The prior/default CPD for `node` — the ladder's bottom rung.
fn prior_cpd(variables: &[Variable], dag: &Dag, node: usize, prior: PriorSpec) -> Result<Cpd> {
    let parents = dag.parents(node).to_vec();
    match variables[node].kind {
        VariableKind::Continuous => LinearGaussianCpd::new(
            node,
            parents.clone(),
            prior.mean,
            vec![0.0; parents.len()],
            prior.variance,
        )
        .map(Cpd::LinearGaussian)
        .map_err(|e| AgentError::Internal(format!("prior CPD for node {node}: {e}"))),
        VariableKind::Discrete { cardinality } => {
            let parent_cards: Vec<usize> = parents
                .iter()
                .map(|&p| variables[p].cardinality().unwrap_or(1))
                .collect();
            Ok(Cpd::Tabular(TabularCpd::uniform(
                node,
                parents,
                cardinality,
                parent_cards,
            )))
        }
    }
}

/// Learn all CPDs from a lossy report source, healing around faults.
///
/// For each node the server collects the window report (bounded
/// retry/backoff, bounded straggler patience), drops poisoned rows, and
/// fits the CPD if enough reconciled data remains. When that fails, the
/// node walks the **fallback ladder**:
///
/// 1. **fresh** fit from this window's reconciled report;
/// 2. **stale** — the last-good cached CPD, with its age in windows;
/// 3. **prior** — the configured default CPD.
///
/// The result always contains a complete, assemblable CPD set; the
/// [`ModelHealth`] report records which rung each node landed on, so
/// downstream consumers can compensate (route dComp around stale nodes,
/// flag degraded predictions). Collection is sequential in node order and
/// all randomness lives in the (seeded) source, so a rebuild is
/// deterministic for a fixed `(source, window)`.
pub fn resilient_decentralized_learn(
    variables: &[Variable],
    dag: &Dag,
    source: &mut dyn ReportSource,
    window: usize,
    cache: &mut CpdCache,
    options: &ResilientOptions,
) -> Result<ResilientResult> {
    let _span = kert_obs::span("agents.resilient_learn");
    let n = dag.len();
    if source.n_agents() < n {
        return Err(AgentError::BadLocalData(format!(
            "{} agents cannot report for a {n}-node DAG",
            source.n_agents()
        )));
    }
    let mut cpds = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for node in 0..n {
        let (mut report, stats) = collect_report(source, node, window, &options.retry);
        let rows_dropped = report.as_mut().map_or(0, sanitize_report);
        let fresh = report.and_then(|report| {
            let local = LocalDataset {
                node,
                parents: dag.parents(node).to_vec(),
                data: report.data,
            };
            if local.data.rows() < options.min_rows {
                return None;
            }
            // A malformed report (wrong column count for the node's
            // parents) fails validation inside the fit; treat it like any
            // other unusable delivery and fall down the ladder.
            fit_node_from_local(variables, &local, options.params)
                .ok()
                .map(|cpd| (cpd, local.data.rows()))
        });

        let (cpd, source_kind, rows_used) = match fresh {
            Some((cpd, rows)) => {
                cache.store(node, cpd.clone());
                (cpd, CpdSource::Fresh, rows)
            }
            None => match cache.get(node) {
                Some((cached, age)) => (cached.clone(), CpdSource::Stale { age_windows: age }, 0),
                None => (
                    prior_cpd(variables, dag, node, options.prior)?,
                    CpdSource::Prior,
                    0,
                ),
            },
        };
        let (rung_counter, rung_name) = match source_kind {
            CpdSource::Fresh => (&OBS_LADDER_FRESH, "fresh"),
            CpdSource::Stale { .. } => (&OBS_LADDER_STALE, "stale"),
            CpdSource::Prior => (&OBS_LADDER_PRIOR, "prior"),
        };
        rung_counter.incr();
        OBS_ROWS_DROPPED.add(rows_dropped as u64);
        if kert_obs::jsonl_enabled() {
            kert_obs::event(
                "agents.ladder",
                rows_used as f64,
                &[
                    ("node", &node.to_string()),
                    ("rung", rung_name),
                    ("window", &window.to_string()),
                    ("retries", &stats.retries.to_string()),
                ],
            );
        }
        cpds.push(cpd);
        nodes.push(NodeHealth {
            node,
            source: source_kind,
            rows_used,
            rows_dropped,
            retries: stats.retries,
            faults: stats.faults,
        });
    }
    cache.tick();
    let health = ModelHealth { window, nodes };
    publish_health_gauges(&health);
    Ok(ResilientResult { cpds, health })
}

/// Surface a [`ModelHealth`] report on the telemetry registry: fleet-level
/// gauges plus one `agents.node_health{node=…}` gauge per node encoding
/// the ladder rung (0 = fresh, 1 = stale, 2 = prior). Gauges show the
/// *latest* rebuild; the `agents.ladder.*` counters accumulate history.
pub fn publish_health_gauges(health: &ModelHealth) {
    if !kert_obs::enabled() {
        return;
    }
    kert_obs::set_gauge(
        "agents.model_health.fresh_fraction",
        health.fresh_fraction(),
    );
    kert_obs::set_gauge(
        "agents.model_health.degraded",
        f64::from(u8::from(health.is_degraded())),
    );
    kert_obs::set_gauge(
        "agents.model_health.total_faults",
        health.total_faults() as f64,
    );
    kert_obs::set_gauge(
        "agents.model_health.max_stale_age",
        health.max_stale_age() as f64,
    );
    for node in &health.nodes {
        let rung = match node.source {
            CpdSource::Fresh => 0.0,
            CpdSource::Stale { .. } => 1.0,
            CpdSource::Prior => 2.0,
        };
        kert_obs::set_gauge_labeled(
            "agents.node_health",
            &[("node", &node.node.to_string())],
            rung,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_bayes::cpd::LinearGaussianCpd;
    use kert_bayes::BayesianNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 5-node continuous chain network and a sampled dataset.
    fn chain_setup(rows: usize) -> (Vec<Variable>, Dag, Dataset) {
        let n = 5;
        let vars: Vec<Variable> = (0..n)
            .map(|i| Variable::continuous(format!("X{i}")))
            .collect();
        let mut dag = Dag::new(n);
        for i in 1..n {
            dag.add_edge(i - 1, i).unwrap();
        }
        let mut cpds = vec![Cpd::LinearGaussian(LinearGaussianCpd::root(0, 5.0, 1.0))];
        for i in 1..n {
            cpds.push(Cpd::LinearGaussian(
                LinearGaussianCpd::new(i, vec![i - 1], 0.5, vec![0.8], 0.5).unwrap(),
            ));
        }
        let bn = BayesianNetwork::new(vars.clone(), dag.clone(), cpds).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let data = bn.sample_dataset(&mut rng, rows);
        (vars, dag, data)
    }

    #[test]
    fn decentralized_and_centralized_learn_identical_parameters() {
        let (vars, dag, data) = chain_setup(500);
        let locals = slice_local_datasets(&dag, &data).unwrap();
        let dec = decentralized_learn(&vars, &locals, LearnOptions::default()).unwrap();
        let cen = centralized_learn(&vars, &locals, LearnOptions::default()).unwrap();
        assert_eq!(dec.cpds.len(), 5);
        for (d, c) in dec.cpds.iter().zip(cen.cpds.iter()) {
            let (Cpd::LinearGaussian(d), Cpd::LinearGaussian(c)) = (d, c) else {
                panic!("expected Gaussian CPDs");
            };
            assert_eq!(d.child(), c.child());
            assert_eq!(d.parents(), c.parents());
            assert!((d.intercept() - c.intercept()).abs() < 1e-12);
            assert!((d.variance() - c.variance()).abs() < 1e-12);
        }
    }

    #[test]
    fn decentralized_time_is_max_centralized_is_sum() {
        let (vars, dag, data) = chain_setup(2_000);
        let locals = slice_local_datasets(&dag, &data).unwrap();
        let dec = decentralized_learn(&vars, &locals, LearnOptions::default()).unwrap();
        let cen = centralized_learn(&vars, &locals, LearnOptions::default()).unwrap();
        assert_eq!(
            dec.decentralized_time,
            dec.node_times.iter().copied().max().unwrap()
        );
        let sum: Duration = cen.node_times.iter().sum();
        assert_eq!(cen.centralized_time, sum);
    }

    #[test]
    fn learned_cpds_assemble_into_a_valid_network() {
        let (vars, dag, data) = chain_setup(500);
        let locals = slice_local_datasets(&dag, &data).unwrap();
        let dec = decentralized_learn(&vars, &locals, LearnOptions::default()).unwrap();
        let bn = BayesianNetwork::new(vars, dag, dec.cpds).unwrap();
        // The assembled model should fit held-out data sensibly.
        let ll = bn.log_likelihood(&data).unwrap();
        assert!(ll.is_finite());
    }

    #[test]
    fn single_worker_pool_still_completes() {
        let (vars, dag, data) = chain_setup(100);
        let locals = slice_local_datasets(&dag, &data).unwrap();
        let opts = LearnOptions {
            workers: Some(1),
            ..Default::default()
        };
        let dec = decentralized_learn(&vars, &locals, opts).unwrap();
        assert_eq!(dec.cpds.len(), 5);
    }

    #[test]
    fn cache_ages_saturate_at_the_documented_bound() {
        let max_age = |c: &CpdCache| c.entries.iter().flatten().map(|(_, age)| *age).max();
        let mut cache = CpdCache::new(2);
        cache.store(0, Cpd::LinearGaussian(LinearGaussianCpd::root(0, 1.0, 1.0)));
        cache.store_aged(
            1,
            Cpd::LinearGaussian(LinearGaussianCpd::root(1, 2.0, 1.0)),
            CpdCache::MAX_AGE - 1,
        );
        assert_eq!(max_age(&cache), Some(CpdCache::MAX_AGE - 1));
        cache.tick();
        assert_eq!(cache.get(0).unwrap().1, 1);
        assert_eq!(cache.get(1).unwrap().1, CpdCache::MAX_AGE);
        // Ticking past the bound pins rather than wraps.
        cache.tick();
        assert_eq!(cache.get(1).unwrap().1, CpdCache::MAX_AGE);
        assert_eq!(max_age(&cache), Some(CpdCache::MAX_AGE));
        // Restoring an over-bound age clamps on entry.
        cache.store_aged(
            0,
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 1.0, 1.0)),
            usize::MAX,
        );
        assert_eq!(cache.get(0).unwrap().1, CpdCache::MAX_AGE);
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.entries.iter().flatten().count(), 2);
    }

    #[test]
    fn slice_rejects_mismatched_data() {
        let (_, dag, _) = chain_setup(10);
        let narrow = Dataset::new(vec!["a".into()]);
        assert!(slice_local_datasets(&dag, &narrow).is_err());
    }

    #[test]
    fn empty_local_data_surfaces_as_learn_failure() {
        let (vars, dag, _) = chain_setup(10);
        let empty = Dataset::new((0..5).map(|i| format!("X{i}")).collect());
        let locals = slice_local_datasets(&dag, &empty).unwrap();
        let err = decentralized_learn(&vars, &locals, LearnOptions::default());
        assert!(matches!(err, Err(AgentError::LearnFailed { .. })));
    }
}
