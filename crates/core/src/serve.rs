//! The discrete query facade: one calibrated tree, many sessions.
//!
//! The autonomic loop asks one model the same questions every control
//! period (dComp, pAccel, the Eq. 5 violation probability); a serving
//! daemon asks them on behalf of many clients at once, each with
//! *different* evidence. Both run through this module:
//!
//! * [`SharedKert`] owns a discrete [`KertBn`] and its calibrated
//!   [`JunctionTree`], compiled **once** and read without locks on the
//!   query path;
//! * a [`Session`] is one client's cheap, mutable slice — a pooled
//!   [`JtState`] holding its evidence and message caches, checked out per
//!   request (or held across requests) and recycled on drop;
//! * each verb (posterior group, dComp, pAccel, violation sweep) is
//!   written once, over `(model, tree, state)`. Sessions run it on their
//!   pooled state; the one-shot entry points [`crate::dcomp_all`],
//!   [`crate::paccel_candidates`] and [`crate::assess_violation_sweep`]
//!   run it on a freshly compiled tree.
//!
//! Every path bins and orders evidence identically and shares the same
//! propagation kernels, so answers are **bitwise identical** whichever
//! path asked. That identity is what lets a conformance harness gate a
//! network daemon against direct in-process calls.

use std::sync::Mutex;

use kert_bayes::compile::{JtState, JunctionTree};
use kert_bayes::discretize::Discretizer;

use crate::dcomp::DCompOutcome;
use crate::kert::KertBn;
use crate::paccel::PAccelOutcome;
use crate::persist::SavedModel;
use crate::posterior::{
    check_evidence_value, check_query, discrete_posterior, duplicate_node, Posterior,
};
use crate::{CoreError, Result};

static OBS_SESSIONS: kert_obs::Counter = kert_obs::Counter::new("core.serve.sessions");
static OBS_QUERIES: kert_obs::Counter = kert_obs::Counter::new("core.serve.queries");

/// Ceiling on parked [`JtState`]s. States above the cap are dropped on
/// session return instead of parked; the cap only bounds idle memory,
/// never concurrency — `session()` always succeeds.
const DEFAULT_POOL_CAP: usize = 64;

fn disc(model: &KertBn) -> &Discretizer {
    model
        .discretizer()
        .expect("discrete model checked at compile")
}

/// Compile `model` into a junction tree. Requires a discrete model
/// (propagation runs over tabular CPDs); continuous models return
/// `BadRequest` — use the per-query entry points, which dispatch to
/// Gaussian conditioning or likelihood weighting.
fn compile_tree(model: &KertBn) -> Result<JunctionTree> {
    if model.discretizer().is_none() {
        return Err(CoreError::BadRequest(
            "junction-tree compilation requires a discrete model".into(),
        ));
    }
    Ok(JunctionTree::compile(model.network())?)
}

/// Answer one verb on a freshly compiled tree with a single fresh state:
/// the discrete branch of the one-shot batch entry points.
pub(crate) fn answer_once<T>(
    model: &KertBn,
    verb: impl FnOnce(&JunctionTree, &mut JtState) -> Result<T>,
) -> Result<T> {
    let tree = compile_tree(model)?;
    let mut st = tree.new_state();
    verb(&tree, &mut st)
}

/// Bin raw measurement evidence into sorted `(node, state)` pins.
/// Sorting makes entry order deterministic, so permuted evidence slices
/// propagate identically. Unknown nodes and non-finite values are
/// refused (the discretizer would otherwise clamp them into an edge bin),
/// and so is a node listed twice.
fn bin_evidence(model: &KertBn, evidence: &[(usize, f64)]) -> Result<Vec<(usize, usize)>> {
    let disc = disc(model);
    let mut pins: Vec<(usize, usize)> = evidence
        .iter()
        .map(|&(node, value)| {
            if node >= model.network().len() {
                return Err(CoreError::BadRequest(format!("no evidence node {node}")));
            }
            check_evidence_value(node, value)?;
            Ok((node, disc.column(node).state(value)))
        })
        .collect::<Result<_>>()?;
    pins.sort_unstable();
    if let Some(w) = pins.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(duplicate_node(w[0].0));
    }
    Ok(pins)
}

/// Replace all evidence on `st` with the given sorted pins (clear, then
/// enter in ascending node order).
fn apply_pins(tree: &JunctionTree, st: &mut JtState, pins: &[(usize, usize)]) -> Result<()> {
    tree.clear_evidence(st)?;
    for &(node, s) in pins {
        tree.set_evidence(st, node, s)?;
    }
    Ok(())
}

/// Replace all evidence on `st` with `evidence` (raw measurement values).
fn set_evidence(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    evidence: &[(usize, f64)],
) -> Result<()> {
    let _span = kert_obs::span("serve.evidence");
    let pins = bin_evidence(model, evidence)?;
    apply_pins(tree, st, &pins)
}

/// Posterior of `target` under the evidence entered on `st`.
fn marginal(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    target: usize,
) -> Result<Posterior> {
    OBS_QUERIES.incr();
    if target >= model.network().len() {
        return Err(CoreError::BadRequest(format!("no node {target}")));
    }
    let probs = tree.marginal(st, target)?;
    Ok(discrete_posterior(disc(model), target, probs))
}

/// Enter `evidence` once, then answer every target with one marginal
/// read against the now-cached messages: `k` targets cost one evidence
/// propagation plus `k` collect passes.
fn posterior_group(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    evidence: &[(usize, f64)],
    targets: &[usize],
) -> Result<Vec<Posterior>> {
    for &target in targets {
        check_query(model.network(), evidence, target)?;
    }
    set_evidence(model, tree, st, evidence)?;
    targets
        .iter()
        .map(|&t| marginal(model, tree, st, t))
        .collect()
}

/// dComp: prior and posterior of every target given one shared evidence
/// set, with the evidence propagated once for the whole group.
pub(crate) fn dcomp(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    observed: &[(usize, f64)],
    targets: &[usize],
) -> Result<Vec<DCompOutcome>> {
    for &target in targets {
        check_query(model.network(), observed, target)?;
    }
    let priors = posterior_group(model, tree, st, &[], targets)?;
    let posteriors = posterior_group(model, tree, st, observed, targets)?;
    Ok(targets
        .iter()
        .zip(priors)
        .zip(posteriors)
        .map(|((&target, prior), posterior)| DCompOutcome {
            target,
            prior,
            posterior,
        })
        .collect())
}

/// pAccel: one projection per `(service, predicted_elapsed)` candidate
/// against the shared prior. Only the candidate's own pin changes
/// between candidates, so each projection re-propagates just the
/// affected subtree.
pub(crate) fn paccel(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    candidates: &[(usize, f64)],
) -> Result<Vec<PAccelOutcome>> {
    let d_node = model.d_node();
    for &(service, value) in candidates {
        check_query(model.network(), &[(service, value)], d_node)?;
    }
    set_evidence(model, tree, st, &[])?;
    let prior_d = marginal(model, tree, st, d_node)?;
    let degraded = model.is_degraded();
    let disc = disc(model);
    candidates
        .iter()
        .map(|&(service, predicted_elapsed)| {
            OBS_QUERIES.incr();
            let s = disc.column(service).state(predicted_elapsed);
            tree.set_evidence(st, service, s)?;
            let probs = tree.marginal(st, d_node)?;
            tree.retract_evidence(st, service)?;
            Ok(PAccelOutcome {
                service,
                predicted_elapsed,
                prior_d: prior_d.clone(),
                projected_d: discrete_posterior(disc, d_node, probs),
                degraded,
            })
        })
        .collect()
}

/// `P(D > h | evidence)` for every threshold: one posterior, many
/// exceedance reads.
pub(crate) fn violation_sweep(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    evidence: &[(usize, f64)],
    thresholds: &[f64],
) -> Result<Vec<f64>> {
    let d_node = model.d_node();
    check_query(model.network(), evidence, d_node)?;
    set_evidence(model, tree, st, evidence)?;
    let posterior = marginal(model, tree, st, d_node)?;
    Ok(thresholds
        .iter()
        .map(|&h| posterior.exceedance(h))
        .collect())
}

/// An owned, thread-safe query engine: a discrete [`KertBn`] compiled
/// once into a calibrated [`JunctionTree`], plus a pool of per-session
/// propagation states.
///
/// `&SharedKert` is `Sync`: any number of threads may hold [`Session`]s
/// concurrently. The only synchronization on the query path is a
/// short-lived mutex around the state pool at checkout/return; evidence
/// entry and message propagation run lock-free on the session's own
/// state against the immutable tree.
pub struct SharedKert {
    model: KertBn,
    tree: JunctionTree,
    pool: Mutex<Vec<JtState>>,
}

impl SharedKert {
    /// Compile `model` for querying. Requires a discrete model.
    pub fn new(model: KertBn) -> Result<Self> {
        let tree = compile_tree(&model)?;
        Ok(SharedKert {
            model,
            tree,
            pool: Mutex::new(Vec::new()),
        })
    }

    /// Rehydrate a persisted model and compile it for serving — the
    /// daemon startup path (`kertctl build` → `kertctl serve`).
    pub fn from_saved(saved: SavedModel) -> Result<Self> {
        Self::new(KertBn::from_saved(saved)?)
    }

    /// The model this engine serves.
    pub fn model(&self) -> &KertBn {
        &self.model
    }

    /// Induced width of the compiled tree (largest clique size minus
    /// one) — the quantity that governs per-query cost.
    pub fn width(&self) -> usize {
        self.tree.width()
    }

    /// Idle states currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.lock().expect("state pool poisoned").len()
    }

    /// Check a session out of the pool (or mint a fresh state when the
    /// pool is empty). The session starts with **no evidence** entered:
    /// recycled states are cleared on checkout, so a session never
    /// observes a previous client's pins.
    pub fn session(&self) -> Session<'_> {
        OBS_SESSIONS.incr();
        let parked = self.pool.lock().expect("state pool poisoned").pop();
        let mut st = parked.unwrap_or_else(|| self.tree.new_state());
        // Clearing on an already-clean state is a no-op; on a recycled
        // state it retracts leftover pins without touching still-valid
        // message caches for the prior-evidence case.
        self.tree
            .clear_evidence(&mut st)
            .expect("clear_evidence on a pooled state cannot fail");
        Session {
            core: self,
            st: Some(st),
        }
    }

    fn return_state(&self, st: JtState) {
        let mut pool = self.pool.lock().expect("state pool poisoned");
        if pool.len() < DEFAULT_POOL_CAP {
            pool.push(st);
        }
    }
}

/// One client's cheap, mutable slice of a [`SharedKert`]: a pooled
/// propagation state plus the evidence currently entered on it. Dropping
/// the session recycles the state into the pool.
///
/// All methods take `&mut self`; concurrency comes from many sessions,
/// not from sharing one.
pub struct Session<'k> {
    core: &'k SharedKert,
    /// `Some` until drop; `Option` only so `Drop` can move the state out.
    st: Option<JtState>,
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(st) = self.st.take() {
            self.core.return_state(st);
        }
    }
}

impl<'k> Session<'k> {
    /// The engine's model and tree plus this session's state, split so
    /// the verbs can borrow them together.
    fn parts(&mut self) -> (&'k KertBn, &'k JunctionTree, &mut JtState) {
        let core = self.core;
        let st = self.st.as_mut().expect("state present until drop");
        (&core.model, &core.tree, st)
    }

    /// The engine this session belongs to.
    pub fn core(&self) -> &SharedKert {
        self.core
    }

    /// Replace all evidence with `evidence` (raw measurement values,
    /// binned through the model's discretizer).
    pub fn set_evidence(&mut self, evidence: &[(usize, f64)]) -> Result<()> {
        let (model, tree, st) = self.parts();
        set_evidence(model, tree, st, evidence)
    }

    /// Posterior of `target` under the evidence currently entered.
    pub fn posterior(&mut self, target: usize) -> Result<Posterior> {
        let (model, tree, st) = self.parts();
        marginal(model, tree, st, target)
    }

    /// The coalescing primitive: enter `evidence` **once**, then answer
    /// every target with a single marginal read. This is what a serving
    /// daemon's micro-batcher amortizes when it folds concurrent
    /// single-target requests that share an evidence set into one group.
    pub fn posterior_group(
        &mut self,
        evidence: &[(usize, f64)],
        targets: &[usize],
    ) -> Result<Vec<Posterior>> {
        let (model, tree, st) = self.parts();
        posterior_group(model, tree, st, evidence, targets)
    }

    /// dComp for every target given one shared evidence set: prior and
    /// posterior per target, with the evidence propagated once.
    pub fn dcomp(
        &mut self,
        observed: &[(usize, f64)],
        targets: &[usize],
    ) -> Result<Vec<DCompOutcome>> {
        let (model, tree, st) = self.parts();
        dcomp(model, tree, st, observed, targets)
    }

    /// pAccel projections for each `(service, predicted_elapsed)`
    /// candidate against the shared prior.
    pub fn paccel(&mut self, candidates: &[(usize, f64)]) -> Result<Vec<PAccelOutcome>> {
        let (model, tree, st) = self.parts();
        paccel(model, tree, st, candidates)
    }

    /// `P(D > h | evidence)` for every threshold.
    pub fn violation_sweep(
        &mut self,
        evidence: &[(usize, f64)],
        thresholds: &[f64],
    ) -> Result<Vec<f64>> {
        let (model, tree, st) = self.parts();
        violation_sweep(model, tree, st, evidence, thresholds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcomp::{dcomp as dcomp_query, dcomp_all};
    use crate::kert::{ContinuousKertOptions, DiscreteKertOptions};
    use crate::paccel::{paccel_candidates, paccel_model};
    use crate::posterior::{query_posterior, McOptions};
    use crate::violation::{assess_violation, assess_violation_sweep};
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap, WorkflowKnowledge};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(rows: usize, seed: u64) -> (WorkflowKnowledge, kert_bayes::Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let means = [0.05, 0.05, 0.04, 0.35, 0.04, 0.10];
        let stations = means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.5 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = sys.run(rows, &mut rng);
        (knowledge, trace.to_dataset(None))
    }

    fn discrete_model() -> KertBn {
        let (knowledge, data) = setup(600, 61);
        KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap()
    }

    fn dbits(p: &Posterior) -> Vec<u64> {
        match p {
            Posterior::Discrete { probs, .. } => probs.iter().map(|v| v.to_bits()).collect(),
            other => panic!("expected a discrete posterior, got {other:?}"),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn session_dcomp_matches_per_query_dcomp() {
        let model = discrete_model();
        let observed = vec![(0usize, 0.05), (1, 0.06), (6, 0.6)];
        let targets = [2usize, 3, 4];
        let batch = {
            let shared = SharedKert::new(discrete_model()).unwrap();
            let mut session = shared.session();
            session.dcomp(&observed, &targets).unwrap()
        };
        assert_eq!(batch.len(), targets.len());
        let mut rng = StdRng::seed_from_u64(5);
        for out in &batch {
            let single = dcomp_query(
                model.network(),
                model.discretizer(),
                &observed,
                out.target,
                McOptions::default(),
                &mut rng,
            )
            .unwrap();
            assert!((out.prior.mean() - single.prior.mean()).abs() < 1e-9);
            assert!((out.posterior.mean() - single.posterior.mean()).abs() < 1e-9);
            assert!((out.posterior.variance() - single.posterior.variance()).abs() < 1e-9);
        }
    }

    #[test]
    fn session_paccel_matches_paccel_model() {
        let model = discrete_model();
        let shared = SharedKert::new(discrete_model()).unwrap();
        let candidates = vec![(3usize, 0.3), (0, 0.04), (3, 0.2)];
        let batch = shared.session().paccel(&candidates).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for (out, &(service, pred)) in batch.iter().zip(&candidates) {
            let single =
                paccel_model(&model, service, pred, McOptions::default(), &mut rng).unwrap();
            assert_eq!(out.service, service);
            assert!((out.prior_d.mean() - single.prior_d.mean()).abs() < 1e-9);
            assert!((out.projected_d.mean() - single.projected_d.mean()).abs() < 1e-9);
            assert_eq!(out.degraded, single.degraded);
        }
    }

    #[test]
    fn session_violation_sweep_matches_assess_violation() {
        let model = discrete_model();
        let shared = SharedKert::new(discrete_model()).unwrap();
        let evidence = vec![(3usize, 0.4)];
        let thresholds = [0.4, 0.6, 0.8];
        let probs = shared
            .session()
            .violation_sweep(&evidence, &thresholds)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for (&h, &p) in thresholds.iter().zip(&probs) {
            let single =
                assess_violation(&model, &evidence, h, McOptions::default(), &mut rng).unwrap();
            assert!((p - single.probability).abs() < 1e-9, "h={h}");
        }
    }

    #[test]
    fn evidence_is_order_insensitive_and_resettable() {
        let model = discrete_model();
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        session.set_evidence(&[(0, 0.05), (1, 0.06)]).unwrap();
        let a = session.posterior(6).unwrap();
        session.set_evidence(&[(1, 0.06), (0, 0.05)]).unwrap();
        let b = session.posterior(6).unwrap();
        assert_eq!(dbits(&a), dbits(&b));
        // Clearing restores the prior.
        session.set_evidence(&[]).unwrap();
        let prior = session.posterior(6).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let fresh = query_posterior(
            model.network(),
            model.discretizer(),
            &[],
            6,
            McOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert!((prior.mean() - fresh.mean()).abs() < 1e-9);
    }

    #[test]
    fn invalid_queries_are_reported() {
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        assert!(session.posterior(99).is_err());
        assert!(session.set_evidence(&[(99, 1.0)]).is_err());
        // Target also observed.
        assert!(session.dcomp(&[(2, 0.05)], &[2]).is_err());
        assert!(session.paccel(&[(6, 0.5)]).is_err());
    }

    /// Non-finite evidence would clamp into an edge bin and come back as
    /// a confident posterior; every verb must refuse it instead.
    #[test]
    fn non_finite_evidence_is_refused() {
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let refused = |r: Result<()>| matches!(r, Err(CoreError::BadRequest(_)));
            assert!(refused(
                session.posterior_group(&[(0, bad)], &[3]).map(drop)
            ));
            assert!(refused(session.set_evidence(&[(1, 0.06), (0, bad)])));
            assert!(refused(session.dcomp(&[(0, bad)], &[3]).map(drop)));
            assert!(refused(session.paccel(&[(3, bad)]).map(drop)));
            assert!(refused(
                session.violation_sweep(&[(0, bad)], &[0.5]).map(drop)
            ));
        }
        // The session is still usable and holds no leftover pins.
        let prior = session.posterior(6).unwrap();
        let fresh = SharedKert::new(discrete_model()).unwrap();
        assert_eq!(dbits(&prior), dbits(&fresh.session().posterior(6).unwrap()));
    }

    /// A node listed twice would answer with whichever pin sorts last;
    /// every verb refuses it. Repeated pAccel candidates are separate
    /// what-ifs, not evidence, and stay legal.
    #[test]
    fn duplicate_evidence_is_refused() {
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        let twice = [(0usize, 0.01), (1, 0.06), (0, 0.2)];
        let refused = |r: Result<()>| matches!(r, Err(CoreError::BadRequest(_)));
        assert!(refused(session.set_evidence(&twice)));
        assert!(refused(session.posterior_group(&twice, &[3]).map(drop)));
        assert!(refused(session.posterior_group(&twice, &[]).map(drop)));
        assert!(refused(session.dcomp(&twice, &[3]).map(drop)));
        assert!(refused(session.violation_sweep(&twice, &[0.5]).map(drop)));
        let repeated = session.paccel(&[(3, 0.3), (3, 0.3)]).unwrap();
        assert_eq!(
            dbits(&repeated[0].projected_d),
            dbits(&repeated[1].projected_d)
        );
    }

    /// The one-shot entry points compile a fresh tree and run the same
    /// verb functions a session does, so their discrete answers are
    /// bitwise equal to a session's.
    #[test]
    fn one_shot_entry_points_match_a_session_bitwise() {
        let model = discrete_model();
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        let mc = McOptions::default();
        let mut rng = StdRng::seed_from_u64(9);

        let observed = vec![(0usize, 0.05), (1, 0.06), (6, 0.6)];
        let targets = [2usize, 3, 4, 5];
        let a = dcomp_all(&model, &observed, &targets, mc, &mut rng).unwrap();
        let b = session.dcomp(&observed, &targets).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.target, y.target);
            assert_eq!(dbits(&x.prior), dbits(&y.prior));
            assert_eq!(dbits(&x.posterior), dbits(&y.posterior));
        }

        let candidates = vec![(3usize, 0.3), (0, 0.04), (3, 0.2), (4, 0.05)];
        let a = paccel_candidates(&model, &candidates, mc, &mut rng).unwrap();
        let b = session.paccel(&candidates).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(dbits(&x.prior_d), dbits(&y.prior_d));
            assert_eq!(dbits(&x.projected_d), dbits(&y.projected_d));
        }

        let evidence = vec![(0usize, 0.05), (3, 0.4)];
        let thresholds = [0.4, 0.6, 0.8];
        let a = assess_violation_sweep(&model, &evidence, &thresholds, mc, &mut rng).unwrap();
        let b = session.violation_sweep(&evidence, &thresholds).unwrap();
        let a: Vec<f64> = a.iter().map(|v| v.probability).collect();
        assert_eq!(bits(&a), bits(&b));
    }

    /// N concurrent sessions over one shared tree, each with distinct
    /// evidence, each bitwise-equal to the same query on a fresh engine.
    #[test]
    fn concurrent_sessions_match_fresh_single_threaded_runs_bitwise() {
        let shared = SharedKert::new(discrete_model()).unwrap();

        // Distinct evidence per simulated client: different nodes and
        // values so no two sessions pin the same configuration.
        let clients: Vec<(Vec<(usize, f64)>, usize)> = vec![
            (vec![(0, 0.05)], 6),
            (vec![(1, 0.06), (0, 0.04)], 3),
            (vec![(3, 0.40)], 6),
            (vec![(4, 0.05), (6, 0.60)], 2),
            (vec![], 6),
            (vec![(2, 0.04), (3, 0.30)], 5),
            (vec![(6, 0.80)], 4),
            (vec![(0, 0.06), (1, 0.05), (2, 0.04)], 6),
        ];

        let concurrent: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .map(|(evidence, target)| {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut session = shared.session();
                        session.set_evidence(evidence).unwrap();
                        dbits(&session.posterior(*target).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((evidence, target), got) in clients.iter().zip(&concurrent) {
            let fresh = SharedKert::new(discrete_model()).unwrap();
            let mut session = fresh.session();
            session.set_evidence(evidence).unwrap();
            let expect = dbits(&session.posterior(*target).unwrap());
            assert_eq!(
                &expect, got,
                "session diverged from fresh engine for evidence {evidence:?}"
            );
        }
    }

    #[test]
    fn sessions_recycle_states_and_never_leak_evidence() {
        let shared = SharedKert::new(discrete_model()).unwrap();
        assert_eq!(shared.pooled(), 0);
        {
            let mut sessions: Vec<Session<'_>> = (0..DEFAULT_POOL_CAP + 1)
                .map(|_| shared.session())
                .collect();
            sessions[0].set_evidence(&[(0, 0.05)]).unwrap();
            sessions[1].set_evidence(&[(3, 0.4)]).unwrap();
            sessions[2].set_evidence(&[(6, 0.7)]).unwrap();
        }
        // One state above the cap was dropped, the rest parked.
        assert_eq!(shared.pooled(), DEFAULT_POOL_CAP);

        // A recycled state starts clean: its posterior equals the prior
        // from a never-evidenced engine built on the same data.
        let prior = shared.session().posterior(6).unwrap();
        let fresh_shared = SharedKert::new(discrete_model()).unwrap();
        let fresh = fresh_shared.session().posterior(6).unwrap();
        assert_eq!(dbits(&fresh), dbits(&prior));
    }

    #[test]
    fn continuous_models_are_rejected() {
        let (knowledge, data) = setup(300, 62);
        let model =
            KertBn::build_continuous(&knowledge, &data, ContinuousKertOptions::default()).unwrap();
        assert!(matches!(
            SharedKert::new(model),
            Err(CoreError::BadRequest(_))
        ));
    }

    #[test]
    fn saved_model_roundtrips_into_serving() {
        let model = discrete_model();
        let json = model.to_saved().to_json().unwrap();
        let shared = SharedKert::from_saved(SavedModel::from_json(&json).unwrap()).unwrap();
        let a = shared.session().posterior(shared.model().d_node()).unwrap();
        let direct = SharedKert::new(model).unwrap();
        let b = direct.session().posterior(direct.model().d_node()).unwrap();
        assert_eq!(dbits(&a), dbits(&b));
    }
}
