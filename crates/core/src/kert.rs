//! KERT-BN construction (§3 of the paper).
//!
//! The build recipe that gives the model its cost profile:
//!
//! 1. **Structure — from knowledge, not data.** Service nodes get the
//!    immediate-upstream edges of the workflow; the response-time node `D`
//!    depends on the services through the workflow-derived function. Cost:
//!    microseconds, independent of training size (the flat curves of
//!    Figures 3–4).
//! 2. **`P(D | 𝕏)` — generated, not learned.** The deterministic-with-leak
//!    CPD of Eq. 4; its would-be learning cost is exponential in `n`.
//! 3. **`P(Xᵢ | Φ(Xᵢ))` — learned, optionally decentralized.** The only
//!    data-dependent phase; per-node and embarrassingly parallel (§3.4,
//!    Figure 5).
//!
//! Both model families of the paper are supported: continuous
//! (linear-Gaussian CPDs, §4) and discrete (binned CPTs, §5).

use std::sync::OnceLock;
use std::time::Instant;

use kert_agents::runtime::{
    centralized_learn, decentralized_learn, resilient_decentralized_learn, slice_local_datasets,
    CpdCache, LearnOptions, ResilientOptions,
};
use kert_agents::{ModelHealth, ReportSource};
use kert_bayes::compile::JunctionTree;
use kert_bayes::cpd::{Cpd, DetNoise, DeterministicCpd};
use kert_bayes::discretize::Discretizer;
use kert_bayes::learn::mle::ParamOptions;
use kert_bayes::{BayesianNetwork, Dag, Dataset, Variable};
use kert_workflow::WorkflowKnowledge;

use crate::posterior::sealed::Compiled;
use crate::posterior::{compile_once, ResponseTimeModel};
use crate::report::BuildReport;
use crate::{CoreError, Result};

/// How the per-service CPDs are learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamLearning {
    /// Sequentially on the management server; cost = Σ per-node times.
    Centralized,
    /// Concurrently on the monitoring agents; cost = max per-node time.
    Decentralized {
        /// Worker threads emulating the agent fleet (`None` = all cores).
        workers: Option<usize>,
    },
}

/// Options for continuous (linear-Gaussian) KERT-BNs.
#[derive(Debug, Clone, Copy)]
pub struct ContinuousKertOptions {
    /// Parameter-learning placement.
    pub learning: ParamLearning,
    /// Measurement-noise σ of the deterministic response CPD. `None`
    /// estimates it from training residuals `d − f(x)` (the "leak" of
    /// Eq. 4 realized as Gaussian noise; §4 uses `l = 0`, i.e. residuals
    /// at the numerical floor).
    pub noise_sigma: Option<f64>,
    /// Smoothing options for the learned CPDs.
    pub params: ParamOptions,
}

impl Default for ContinuousKertOptions {
    fn default() -> Self {
        ContinuousKertOptions {
            learning: ParamLearning::Centralized,
            noise_sigma: None,
            params: ParamOptions::default(),
        }
    }
}

/// Options for discrete KERT-BNs.
#[derive(Debug, Clone, Copy)]
pub struct DiscreteKertOptions {
    /// States per variable.
    pub bins: usize,
    /// Leak probability `l` of Eq. 4.
    pub leak: f64,
    /// Parameter-learning placement.
    pub learning: ParamLearning,
    /// Smoothing options for the learned CPTs.
    pub params: ParamOptions,
}

impl Default for DiscreteKertOptions {
    fn default() -> Self {
        DiscreteKertOptions {
            bins: 5,
            leak: 0.05,
            learning: ParamLearning::Centralized,
            params: ParamOptions::default(),
        }
    }
}

/// Options for the fault-tolerant continuous build
/// ([`KertBn::build_continuous_resilient`]).
#[derive(Debug, Clone, Copy)]
pub struct ResilientKertOptions {
    /// Collection/fallback options for the self-healing learner.
    pub resilient: ResilientOptions,
    /// Measurement-noise σ of the Eq.-4 response CPD. Under faults the
    /// server cannot re-estimate residuals from a clean joint dataset, so
    /// σ is configured — typically carried over from a healthy bootstrap
    /// build ([`KertBn::noise_sigma`]).
    pub noise_sigma: f64,
}

impl Default for ResilientKertOptions {
    fn default() -> Self {
        ResilientKertOptions {
            resilient: ResilientOptions::default(),
            noise_sigma: 1e-3,
        }
    }
}

/// A constructed KERT-BN: the network plus everything needed to query it.
#[derive(Debug)]
pub struct KertBn {
    network: BayesianNetwork,
    n_services: usize,
    d_node: usize,
    /// Present for discrete models: maps raw measurements ↔ states.
    discretizer: Option<Discretizer>,
    report: BuildReport,
    /// Per-node CPD provenance; all-fresh for conventional builds.
    health: ModelHealth,
    /// The junction tree of the current network, compiled on first use
    /// and dropped by [`KertBn::network_mut`].
    tree: OnceLock<JunctionTree>,
}

impl KertBn {
    /// Build a continuous KERT-BN from workflow knowledge and a training
    /// dataset with columns `X₁…X_n, D` (the `kert_sim::Trace` layout).
    pub fn build_continuous(
        knowledge: &WorkflowKnowledge,
        train: &Dataset,
        options: ContinuousKertOptions,
    ) -> Result<Self> {
        let n = knowledge.n_services;
        check_dataset(train, n, 0)?;
        let expr = &knowledge.response_expr;
        let d_node = n;

        // Phase 1: structure from knowledge.
        let structure_start = Instant::now();
        let dag = knowledge_dag(knowledge, expr, false)?;
        let variables: Vec<Variable> = (0..n)
            .map(|i| Variable::continuous(train.names()[i].clone()))
            .chain(std::iter::once(Variable::continuous("D")))
            .collect();
        let structure_time = structure_start.elapsed();

        // Phase 2: generate P(D | X) from the workflow (Eq. 4).
        let sigma = match options.noise_sigma {
            Some(s) => s.max(0.0),
            None => estimate_noise_sigma(expr, train, d_node),
        };
        let d_cpd =
            DeterministicCpd::from_network_expr(d_node, expr, DetNoise::Gaussian { sigma })?;

        // Phase 3: learn P(Xᵢ | Φ(Xᵢ)) only.
        let learned_vars = &variables[..n];
        let learned_dag = learned_subdag(&dag, n);
        let learned_data = train.project(&(0..n).collect::<Vec<_>>())?;
        let locals = slice_local_datasets(&learned_dag, &learned_data)?;
        let (cpds, parameter_time) =
            run_param_learning(learned_vars, &locals, options.learning, options.params)?;

        let mut all_cpds = cpds;
        all_cpds.push(Cpd::Deterministic(d_cpd));
        let network = BayesianNetwork::new(variables, dag, all_cpds)?;
        Ok(KertBn {
            network,
            n_services: n,
            d_node,
            discretizer: None,
            report: BuildReport {
                structure_time,
                parameter_time,
                score_evaluations: 0,
            },
            health: ModelHealth::all_fresh(n, train.rows()),
            tree: OnceLock::new(),
        })
    }

    /// Build a continuous KERT-BN from a *lossy* report source, healing
    /// around faults (crashed agents, dropped/delayed reports, corrupted or
    /// truncated batches).
    ///
    /// Unlike [`KertBn::build_continuous`], which requires a clean joint
    /// dataset, this path collects each node's window report through the
    /// source (bounded retry/backoff), reconciles what arrives, and walks
    /// the fallback ladder — fresh fit → last-good cached CPD → prior — so
    /// construction **always succeeds** with a complete network. The
    /// resulting model's [`KertBn::health`] says which nodes are degraded;
    /// pass the same `cache` across windows so the stale rung has
    /// something to fall back on.
    pub fn build_continuous_resilient(
        knowledge: &WorkflowKnowledge,
        source: &mut dyn ReportSource,
        window: usize,
        cache: &mut CpdCache,
        options: &ResilientKertOptions,
    ) -> Result<Self> {
        let n = knowledge.n_services;
        let d_node = n;
        let expr = knowledge.response_expr.clone();

        let structure_start = Instant::now();
        let dag = knowledge_dag(knowledge, &expr, false)?;
        let variables: Vec<Variable> = (0..n)
            .map(|i| Variable::continuous(format!("X{}", i + 1)))
            .chain(std::iter::once(Variable::continuous("D")))
            .collect();
        let structure_time = structure_start.elapsed();

        let d_cpd = DeterministicCpd::from_network_expr(
            d_node,
            &expr,
            DetNoise::Gaussian {
                sigma: options.noise_sigma.max(1e-9),
            },
        )?;

        let learned_dag = learned_subdag(&dag, n);
        let param_start = Instant::now();
        let res = resilient_decentralized_learn(
            &variables[..n],
            &learned_dag,
            source,
            window,
            cache,
            &options.resilient,
        )?;
        let parameter_time = param_start.elapsed();

        let mut all_cpds = res.cpds;
        all_cpds.push(Cpd::Deterministic(d_cpd));
        let network = BayesianNetwork::new(variables, dag, all_cpds)?;
        Ok(KertBn {
            network,
            n_services: n,
            d_node,
            discretizer: None,
            report: BuildReport {
                structure_time,
                parameter_time,
                score_evaluations: 0,
            },
            health: res.health,
            tree: OnceLock::new(),
        })
    }

    /// Build a discrete KERT-BN (the §5 test-bed variant): measurements are
    /// binned, per-service CPDs become CPTs, and the response CPD is the
    /// discrete deterministic-with-leak form of Eq. 4.
    pub fn build_discrete(
        knowledge: &WorkflowKnowledge,
        train: &Dataset,
        options: DiscreteKertOptions,
    ) -> Result<Self> {
        let expr = knowledge.response_expr.clone();
        Self::build_discrete_impl(knowledge, &expr, false, train, options)
    }

    /// Build a discrete KERT-BN whose end-to-end node follows a custom
    /// metric expression — e.g. the timeout-count metric of §3.3, where
    /// `f` is [`WorkflowKnowledge::count_expr`] (`D = Σ Xᵢ`) and the data
    /// columns hold per-service counts.
    pub fn build_discrete_metric(
        knowledge: &WorkflowKnowledge,
        metric_expr: &kert_bayes::Expr,
        train: &Dataset,
        options: DiscreteKertOptions,
    ) -> Result<Self> {
        Self::build_discrete_impl(knowledge, metric_expr, false, train, options)
    }

    /// Build a discrete KERT-BN including the resource-sharing nodes of
    /// §3.2: the dataset must carry one utilization column per resource in
    /// [`WorkflowKnowledge::resources`] order, between the service columns
    /// and `D` (the `kert_sim::SimSystem::with_hosts` trace layout). Each
    /// resource becomes a network node whose parents are the services
    /// sharing it.
    pub fn build_discrete_with_resources(
        knowledge: &WorkflowKnowledge,
        train: &Dataset,
        options: DiscreteKertOptions,
    ) -> Result<Self> {
        let expr = knowledge.response_expr.clone();
        Self::build_discrete_impl(knowledge, &expr, true, train, options)
    }

    fn build_discrete_impl(
        knowledge: &WorkflowKnowledge,
        metric_expr: &kert_bayes::Expr,
        with_resources: bool,
        train: &Dataset,
        options: DiscreteKertOptions,
    ) -> Result<Self> {
        let n = knowledge.n_services;
        let k = if with_resources {
            knowledge.resources.len()
        } else {
            0
        };
        check_dataset(train, n, k)?;
        if with_resources {
            check_resource_columns(knowledge, train)?;
        }
        let learned_nodes = n + k;
        let d_node = learned_nodes;
        if options.bins < 2 {
            return Err(CoreError::BadRequest(format!(
                "need ≥ 2 bins, got {}",
                options.bins
            )));
        }

        // Discretization is part of parameter preparation, timed with it.
        let param_start = Instant::now();
        let discretizer = Discretizer::fit(train, options.bins)?;
        let states = discretizer.transform(train)?;
        let discretize_time = param_start.elapsed();

        let structure_start = Instant::now();
        let dag = knowledge_dag(knowledge, metric_expr, with_resources)?;
        let variables: Vec<Variable> = (0..learned_nodes)
            .map(|i| Variable::discrete(train.names()[i].clone(), options.bins))
            .chain(std::iter::once(Variable::discrete("D", options.bins)))
            .collect();
        let structure_time = structure_start.elapsed();

        // Eq. 4 in discrete form: parents are the expression's variables;
        // their bin midpoints feed `f`, whose value is re-binned through
        // D's edges.
        let parent_ids = metric_expr.variables();
        let parent_mids: Vec<Vec<f64>> = parent_ids
            .iter()
            .map(|&p| discretizer.column(p).midpoints.clone())
            .collect();
        let d_cpd = DeterministicCpd::from_network_expr(
            d_node,
            metric_expr,
            DetNoise::Discrete {
                leak: options.leak,
                card: options.bins,
                child_edges: discretizer.column(d_node).edges.clone(),
                parent_mids,
            },
        )?;

        let learned_vars = &variables[..learned_nodes];
        let learned_dag = learned_subdag(&dag, learned_nodes);
        let learned_states = states.project(&(0..learned_nodes).collect::<Vec<_>>())?;
        let locals = slice_local_datasets(&learned_dag, &learned_states)?;
        let (cpds, parameter_time) =
            run_param_learning(learned_vars, &locals, options.learning, options.params)?;

        let mut all_cpds = cpds;
        all_cpds.push(Cpd::Deterministic(d_cpd));
        let network = BayesianNetwork::new(variables, dag, all_cpds)?;
        Ok(KertBn {
            network,
            n_services: n,
            d_node,
            discretizer: Some(discretizer),
            report: BuildReport {
                structure_time,
                parameter_time: parameter_time + discretize_time,
                score_evaluations: 0,
            },
            health: ModelHealth::all_fresh(learned_nodes, train.rows()),
            tree: OnceLock::new(),
        })
    }

    /// Reassemble a model from persisted parts (no build report — timings
    /// describe the build machine, not the model).
    pub(crate) fn from_parts(
        network: BayesianNetwork,
        n_services: usize,
        d_node: usize,
        discretizer: Option<Discretizer>,
    ) -> Self {
        KertBn {
            network,
            n_services,
            d_node,
            discretizer,
            report: BuildReport::default(),
            health: ModelHealth::default(),
            tree: OnceLock::new(),
        }
    }

    /// The assembled Bayesian network.
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// Mutable network access for the streaming refresh path — the only
    /// way the network changes, so dropping the compiled tree here is the
    /// whole cache invalidation.
    pub(crate) fn network_mut(&mut self) -> &mut BayesianNetwork {
        self.tree.take();
        &mut self.network
    }

    /// Record that every learned CPD was just refitted over `rows` rows
    /// (streaming refresh keeps provenance honest without a rebuild).
    pub(crate) fn mark_refreshed(&mut self, rows: usize) {
        self.health = ModelHealth::all_fresh(self.d_node, rows);
    }

    /// Number of service nodes (`D` is node `n_services`).
    pub fn n_services(&self) -> usize {
        self.n_services
    }

    /// Index of the response-time node `D`.
    pub fn d_node(&self) -> usize {
        self.d_node
    }

    /// The discretizer, for discrete models.
    pub fn discretizer(&self) -> Option<&Discretizer> {
        self.discretizer.as_ref()
    }

    /// Construction cost breakdown.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Per-node CPD provenance (all-fresh for conventional builds).
    pub fn health(&self) -> &ModelHealth {
        &self.health
    }

    /// True if any node's CPD came from the stale or prior rung.
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
    }

    /// Degraded *service* nodes (candidates for dComp compensation).
    pub fn degraded_services(&self) -> Vec<usize> {
        self.health
            .degraded_nodes()
            .into_iter()
            .filter(|&node| node < self.n_services)
            .collect()
    }

    /// The Gaussian noise σ of the response CPD, for continuous models —
    /// what a resilient rebuild should inherit from a healthy bootstrap.
    pub fn noise_sigma(&self) -> Option<f64> {
        match self.network.cpd(self.d_node) {
            Cpd::Deterministic(d) => match d.noise() {
                DetNoise::Gaussian { sigma } => Some(*sigma),
                _ => None,
            },
            _ => None,
        }
    }

    /// Data-fitting accuracy `log₁₀ p(test | model)` (the paper's metric).
    /// Raw measurements are passed; discrete models bin them internally.
    pub fn accuracy(&self, test: &Dataset) -> Result<f64> {
        match &self.discretizer {
            Some(disc) => {
                let states = disc.transform(test)?;
                Ok(self.network.log10_likelihood(&states)?)
            }
            None => Ok(self.network.log10_likelihood(test)?),
        }
    }
}

impl ResponseTimeModel for KertBn {
    fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    fn discretizer(&self) -> Option<&Discretizer> {
        self.discretizer.as_ref()
    }
}

/// The tree of the current network, shared by the one-shot verbs and
/// [`crate::serve::SharedKert`] until a refresh changes the network.
impl Compiled for KertBn {
    fn compiled_tree(&self) -> Result<&JunctionTree> {
        compile_once(&self.tree, &self.network, self.discretizer.as_ref())
    }
}

/// Build the KERT-BN DAG: upstream edges among services, optionally the
/// resource nodes (parents = sharing services, per §3.2), then `D` as the
/// child of every service the metric expression reads. Node layout:
/// services `0..n`, resources `n..n+k`, `D` last.
fn knowledge_dag(
    knowledge: &WorkflowKnowledge,
    metric_expr: &kert_bayes::Expr,
    with_resources: bool,
) -> Result<Dag> {
    let n = knowledge.n_services;
    let k = if with_resources {
        knowledge.resources.len()
    } else {
        0
    };
    let mut dag = Dag::new(n + k + 1);
    for &(from, to) in &knowledge.upstream_edges {
        dag.add_edge(from, to)?;
    }
    if with_resources {
        for (j, (_, sharing)) in knowledge.resources.iter().enumerate() {
            for &s in sharing {
                dag.add_edge(s, n + j)?;
            }
        }
    }
    for v in metric_expr.variables() {
        dag.add_edge(v, n + k)?;
    }
    Ok(dag)
}

/// Restrict the full DAG to the learned nodes `0..m` (services and
/// resources; `D`'s CPD is knowledge-generated, never learned).
pub(crate) fn learned_subdag(dag: &Dag, m: usize) -> Dag {
    let mut sub = Dag::new(m);
    for (from, to) in dag.edges() {
        if from < m && to < m {
            sub.add_edge(from, to)
                .expect("subgraph of a DAG is acyclic");
        }
    }
    sub
}

/// σ estimate for the continuous Eq.-4 CPD: RMS residual of `f` on the
/// training window, floored to keep the density proper when monitoring is
/// exact (`l = 0`).
fn estimate_noise_sigma(metric_expr: &kert_bayes::Expr, train: &Dataset, d_col: usize) -> f64 {
    let mut ss = 0.0;
    let mut d_scale: f64 = 0.0;
    for r in 0..train.rows() {
        let row = train.row(r);
        let resid = row[d_col] - metric_expr.eval(row);
        ss += resid * resid;
        d_scale = d_scale.max(row[d_col].abs());
    }
    let rms = if train.rows() > 0 {
        (ss / train.rows() as f64).sqrt()
    } else {
        0.0
    };
    rms.max(d_scale * 1e-6).max(1e-9)
}

/// Dispatch parameter learning and normalize the cost accounting.
fn run_param_learning(
    variables: &[Variable],
    locals: &[kert_agents::LocalDataset],
    learning: ParamLearning,
    params: ParamOptions,
) -> Result<(Vec<Cpd>, std::time::Duration)> {
    match learning {
        ParamLearning::Centralized => {
            let res = centralized_learn(
                variables,
                locals,
                LearnOptions {
                    params,
                    workers: None,
                },
            )?;
            Ok((res.cpds, res.centralized_time))
        }
        ParamLearning::Decentralized { workers } => {
            let res = decentralized_learn(variables, locals, LearnOptions { params, workers })?;
            Ok((res.cpds, res.decentralized_time))
        }
    }
}

/// Validate the `X₁…X_n, [R₁…R_k,] D` dataset layout.
fn check_dataset(data: &Dataset, n_services: usize, n_resources: usize) -> Result<()> {
    let expected = n_services + n_resources + 1;
    if data.columns() != expected {
        return Err(CoreError::BadRequest(format!(
            "dataset has {} columns; expected {n_services} services + {n_resources} \
             resources + D = {expected}",
            data.columns(),
        )));
    }
    if data.is_empty() {
        return Err(CoreError::BadRequest("empty training dataset".into()));
    }
    Ok(())
}

/// Resource columns must be named after the knowledge's resources, in
/// order — the cheap alignment check that catches a mis-assembled dataset
/// before it silently mislearns.
fn check_resource_columns(knowledge: &WorkflowKnowledge, data: &Dataset) -> Result<()> {
    let n = knowledge.n_services;
    for (j, (name, _)) in knowledge.resources.iter().enumerate() {
        let col_name = &data.names()[n + j];
        if col_name != name {
            return Err(CoreError::BadRequest(format!(
                "resource column {} is named {col_name:?}, expected {name:?} — dataset \
                 and knowledge resource orders disagree",
                n + j
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ediamond_data(rows: usize, seed: u64) -> (WorkflowKnowledge, Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let stations = (0..6)
            .map(|i| {
                ServiceConfig::single(Dist::Exponential {
                    mean: 0.04 + 0.01 * i as f64,
                })
            })
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.4 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = sys.run(rows, &mut rng);
        (knowledge, trace.to_dataset(None))
    }

    #[test]
    fn continuous_kert_builds_and_fits() {
        let (knowledge, data) = ediamond_data(600, 1);
        let (train, test) = data.split_at(400);
        let model =
            KertBn::build_continuous(&knowledge, &train, ContinuousKertOptions::default()).unwrap();
        assert_eq!(model.n_services(), 6);
        assert_eq!(model.d_node(), 6);
        assert_eq!(model.network().len(), 7);
        // Figure-2 structure: D has all six services as parents.
        assert_eq!(model.network().dag().parents(6), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(model.network().dag().parents(1), &[0]);
        // Structure phase is knowledge compilation — far below a millisecond.
        assert!(model.report().structure_time.as_micros() < 10_000);
        assert_eq!(model.report().score_evaluations, 0);
        let acc = model.accuracy(&test).unwrap();
        assert!(acc.is_finite());
    }

    #[test]
    fn decentralized_build_learns_the_same_model() {
        let (knowledge, data) = ediamond_data(400, 2);
        let central =
            KertBn::build_continuous(&knowledge, &data, ContinuousKertOptions::default()).unwrap();
        let dec = KertBn::build_continuous(
            &knowledge,
            &data,
            ContinuousKertOptions {
                learning: ParamLearning::Decentralized { workers: Some(3) },
                ..Default::default()
            },
        )
        .unwrap();
        let acc_c = central.accuracy(&data).unwrap();
        let acc_d = dec.accuracy(&data).unwrap();
        assert!(
            (acc_c - acc_d).abs() < 1e-6,
            "same parameters either way: {acc_c} vs {acc_d}"
        );
        // Decentralized effective time (max) ≤ centralized (sum), modulo a
        // few milliseconds of scheduler noise (fits here are microseconds,
        // and the test harness runs other tests concurrently).
        assert!(
            dec.report().parameter_time
                <= central.report().parameter_time + std::time::Duration::from_millis(5)
        );
    }

    #[test]
    fn discrete_kert_builds_and_fits() {
        let (knowledge, data) = ediamond_data(900, 3);
        let (train, test) = data.split_at(700);
        let model =
            KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();
        assert!(model.discretizer().is_some());
        let acc = model.accuracy(&test).unwrap();
        assert!(acc.is_finite());
        // Discrete accuracy is a log-probability: ≤ 0.
        assert!(acc < 0.0);
    }

    #[test]
    fn deterministic_cpd_predicts_the_response_bin_well() {
        // With exact measurements the workflow function should land in the
        // right D-bin for the overwhelming majority of rows.
        let (knowledge, data) = ediamond_data(800, 4);
        let model = KertBn::build_discrete(
            &knowledge,
            &data,
            DiscreteKertOptions {
                leak: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let disc = model.discretizer().unwrap();
        let states = disc.transform(&data).unwrap();
        let Cpd::Deterministic(d_cpd) = model.network().cpd(6) else {
            panic!("D must be deterministic");
        };
        let mut hits = 0;
        for r in 0..states.rows() {
            let row = states.row(r);
            let parent_states: Vec<f64> = d_cpd.parents().iter().map(|&p| row[p]).collect();
            if d_cpd.predicted_state(&parent_states) == Some(row[6] as usize) {
                hits += 1;
            }
        }
        let rate = hits as f64 / states.rows() as f64;
        // Binning error makes this inexact, but it must be dominant.
        assert!(rate > 0.5, "prediction rate {rate}");
    }

    #[test]
    fn resource_aware_model_has_resource_nodes_with_sharing_parents() {
        use kert_sim::HostLayout;
        let wf = ediamond_workflow();
        let layout = HostLayout::new(
            vec![
                ("db_host".into(), vec![4, 5]),
                ("web_host".into(), vec![0, 1]),
            ],
            6,
        )
        .unwrap();
        let knowledge = derive_structure(&wf, 6, &layout.to_resource_map()).unwrap();
        let stations = (0..6)
            .map(|_| ServiceConfig::single(Dist::Erlang { k: 4, mean: 0.05 }))
            .collect();
        let mut sys = kert_sim::SimSystem::with_hosts(
            &wf,
            stations,
            layout,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.3 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(50);
        let data = sys.run(500, &mut rng).to_dataset(None);
        assert_eq!(data.columns(), 9); // 6 services + 2 hosts + D

        let model = KertBn::build_discrete_with_resources(
            &knowledge,
            &data,
            DiscreteKertOptions::default(),
        )
        .unwrap();
        // Layout: services 0..6, resources 6..8, D = 8.
        assert_eq!(model.network().len(), 9);
        assert_eq!(model.d_node(), 8);
        // ResourceMap is a BTreeMap: "db_host" < "web_host".
        assert_eq!(model.network().dag().parents(6), &[4, 5]);
        assert_eq!(model.network().dag().parents(7), &[0, 1]);
        // D depends on the services only (Eq. 4's f reads elapsed times).
        assert_eq!(model.network().dag().parents(8), &[0, 1, 2, 3, 4, 5]);
        assert!(model.accuracy(&data).unwrap().is_finite());

        // Misordered resource columns are caught.
        let scrambled = data.project(&[0, 1, 2, 3, 4, 5, 7, 6, 8]).unwrap();
        assert!(KertBn::build_discrete_with_resources(
            &knowledge,
            &scrambled,
            DiscreteKertOptions::default()
        )
        .is_err());
    }

    #[test]
    fn count_metric_model_uses_the_sum_expression() {
        // Timeout counts: D = Σ Xᵢ (§3.3). Train a metric model on count
        // data and check its deterministic CPD's f is the sum.
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let stations = (0..6)
            .map(|i| {
                ServiceConfig::single(Dist::Erlang {
                    k: 2,
                    mean: 0.05 + 0.02 * i as f64,
                })
            })
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.3 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let trace = sys.run(2_000, &mut rng);
        // Deadlines near each service's configured mean: plenty of timeouts.
        let deadlines = [0.06, 0.08, 0.10, 0.12, 0.14, 0.16];
        let counts = trace.timeout_counts(&deadlines, 0.5);
        assert!(
            counts.rows() > 50,
            "need enough intervals: {}",
            counts.rows()
        );

        let count_expr = knowledge.count_expr.clone();
        let model = KertBn::build_discrete_metric(
            &knowledge,
            &count_expr,
            &counts,
            DiscreteKertOptions::default(),
        )
        .unwrap();
        let Cpd::Deterministic(d_cpd) = model.network().cpd(6) else {
            panic!("D must be deterministic");
        };
        // f on the count columns equals the recorded end-to-end count.
        for r in 0..counts.rows().min(50) {
            let row = counts.row(r);
            let parent_vals: Vec<f64> = d_cpd.parents().iter().map(|&p| row[p]).collect();
            assert!((d_cpd.local_expr().eval(&parent_vals) - row[6]).abs() < 1e-9);
        }
        assert!(model.accuracy(&counts).unwrap().is_finite());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let (knowledge, data) = ediamond_data(50, 5);
        let narrow = data.project(&[0, 1, 2]).unwrap();
        assert!(
            KertBn::build_continuous(&knowledge, &narrow, ContinuousKertOptions::default())
                .is_err()
        );
        let empty = Dataset::new(data.names().to_vec());
        assert!(
            KertBn::build_continuous(&knowledge, &empty, ContinuousKertOptions::default()).is_err()
        );
        assert!(KertBn::build_discrete(
            &knowledge,
            &data,
            DiscreteKertOptions {
                bins: 1,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn noise_sigma_override_is_respected() {
        let (knowledge, data) = ediamond_data(200, 6);
        let model = KertBn::build_continuous(
            &knowledge,
            &data,
            ContinuousKertOptions {
                noise_sigma: Some(0.25),
                ..Default::default()
            },
        )
        .unwrap();
        let Cpd::Deterministic(d) = model.network().cpd(6) else {
            panic!()
        };
        match d.noise() {
            DetNoise::Gaussian { sigma } => assert_eq!(*sigma, 0.25),
            other => panic!("{other:?}"),
        }
    }
}
