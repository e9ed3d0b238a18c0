//! The discrete query facade: one calibrated tree, many sessions.
//!
//! The autonomic loop asks one model the same questions every control
//! period (dComp, pAccel, the Eq. 5 violation probability); a serving
//! daemon asks them on behalf of many clients at once, each with
//! *different* evidence. Both run through this module:
//!
//! * [`SharedKert`] owns a discrete [`KertBn`] and its calibrated
//!   [`JunctionTree`], compiled **once** and read without locks;
//! * a [`Session`] is one caller's mutable slice — its own [`JtState`]
//!   (message caches and scratch buffers). A serving worker holds one for
//!   its whole life;
//! * each verb (posterior group, dComp, pAccel, violation sweep) is
//!   written once, over `(model, tree, state)`: it bins and checks its
//!   request once, then enters the evidence through one
//!   [`JunctionTree::set_evidence`] call that replaces whatever the state
//!   held, so no evidence outlives a call. Sessions run the verbs on
//!   their own state; the one-shot entry points [`crate::dcomp_all`],
//!   [`crate::paccel_candidates`] and [`crate::assess_violation_sweep`]
//!   run them on a freshly compiled tree.
//!
//! Every path bins and orders evidence identically and shares the same
//! propagation kernels, and a message's value depends only on the
//! evidence in its dependency cone, never on what a state cached before.
//! So answers are **bitwise identical** whichever path asked, on a fresh
//! state or a reused one. That identity is what lets a conformance
//! harness gate a network daemon against direct in-process calls.

use kert_bayes::compile::{JtState, JunctionTree};
use kert_bayes::discretize::Discretizer;

use crate::dcomp::DCompOutcome;
use crate::kert::KertBn;
use crate::paccel::PAccelOutcome;
use crate::persist::SavedModel;
use crate::posterior::{check_evidence_value, discrete_posterior, duplicate_node, Posterior};
use crate::{CoreError, Result};

static OBS_SESSIONS: kert_obs::Counter = kert_obs::Counter::new("core.serve.sessions");
static OBS_QUERIES: kert_obs::Counter = kert_obs::Counter::new("core.serve.queries");

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

/// A verb's one validation pass, before anything is entered: bin
/// `evidence`, then refuse a target that does not exist or that the
/// evidence observes.
fn checked_pins(
    model: &KertBn,
    evidence: &[(usize, f64)],
    targets: &[usize],
) -> Result<Vec<(usize, usize)>> {
    let pins = bin_evidence(model, evidence)?;
    for &target in targets {
        if target >= model.network().len() {
            return Err(CoreError::BadRequest(format!("no node {target}")));
        }
        if pins
            .binary_search_by_key(&target, |&(node, _)| node)
            .is_ok()
        {
            return Err(CoreError::BadRequest(format!(
                "node {target} is both target and evidence"
            )));
        }
    }
    Ok(pins)
}

/// Posterior of a checked `target` under the evidence entered on `st`.
fn marginal(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    target: usize,
) -> Result<Posterior> {
    OBS_QUERIES.incr();
    let probs = tree.marginal(st, target)?;
    Ok(discrete_posterior(disc(model), target, probs))
}

/// Replace all evidence on `st` with checked `pins` once, then answer
/// every target with one marginal read against the now-cached messages:
/// `k` targets cost one evidence propagation plus `k` collect passes.
fn read_group(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    pins: &[(usize, usize)],
    targets: &[usize],
) -> Result<Vec<Posterior>> {
    {
        let _span = kert_obs::span("serve.evidence");
        tree.set_evidence(st, pins)?;
    }
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
    let pins = checked_pins(model, observed, targets)?;
    let priors = read_group(model, tree, st, &[], targets)?;
    let posteriors = read_group(model, tree, st, &pins, targets)?;
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
/// against the shared prior. Each candidate's pin replaces the previous
/// one, so each projection re-propagates just the affected subtree.
pub(crate) fn paccel(
    model: &KertBn,
    tree: &JunctionTree,
    st: &mut JtState,
    candidates: &[(usize, f64)],
) -> Result<Vec<PAccelOutcome>> {
    let d_node = model.d_node();
    let pins: Vec<Vec<(usize, usize)>> = candidates
        .iter()
        .map(|&candidate| checked_pins(model, &[candidate], &[d_node]))
        .collect::<Result<_>>()?;
    let prior_d = read_group(model, tree, st, &[], &[d_node])?.remove(0);
    let degraded = model.is_degraded();
    candidates
        .iter()
        .zip(&pins)
        .map(|(&(service, predicted_elapsed), pin)| {
            tree.set_evidence(st, pin)?;
            Ok(PAccelOutcome {
                service,
                predicted_elapsed,
                prior_d: prior_d.clone(),
                projected_d: marginal(model, tree, st, d_node)?,
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
    let pins = checked_pins(model, evidence, &[d_node])?;
    let posterior = read_group(model, tree, st, &pins, &[d_node])?.remove(0);
    Ok(thresholds
        .iter()
        .map(|&h| posterior.exceedance(h))
        .collect())
}

/// An owned, thread-safe query engine: a discrete [`KertBn`] compiled
/// once into a calibrated [`JunctionTree`].
///
/// `&SharedKert` is `Sync`: any number of threads may hold [`Session`]s
/// concurrently. Nothing on the query path takes a lock: evidence entry
/// and message propagation run on the session's own state against the
/// immutable tree.
pub struct SharedKert {
    model: KertBn,
    tree: JunctionTree,
}

impl SharedKert {
    /// Compile `model` for querying. Requires a discrete model.
    pub fn new(model: KertBn) -> Result<Self> {
        let tree = compile_tree(&model)?;
        Ok(SharedKert { model, tree })
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

    /// A session on a fresh propagation state. Hold it across calls to
    /// keep its message caches and scratch buffers warm.
    pub fn session(&self) -> Session<'_> {
        OBS_SESSIONS.incr();
        Session {
            core: self,
            st: self.tree.new_state(),
        }
    }
}

/// One caller's mutable slice of a [`SharedKert`]: its own propagation
/// state. Every verb replaces the whole evidence set before it reads, so
/// a reused session answers exactly as a fresh one would; reuse only
/// keeps caches and buffers warm.
///
/// All methods take `&mut self`; concurrency comes from many sessions,
/// not from sharing one.
pub struct Session<'k> {
    core: &'k SharedKert,
    st: JtState,
}

impl<'k> Session<'k> {
    /// The engine's model and tree plus this session's state, split so
    /// the verbs can borrow them together.
    fn parts(&mut self) -> (&'k KertBn, &'k JunctionTree, &mut JtState) {
        (&self.core.model, &self.core.tree, &mut self.st)
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
        let pins = checked_pins(model, evidence, targets)?;
        read_group(model, tree, st, &pins, targets)
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

    /// Posterior of `target` under `evidence`, one call on `session`.
    fn posterior(session: &mut Session<'_>, evidence: &[(usize, f64)], target: usize) -> Posterior {
        session
            .posterior_group(evidence, &[target])
            .unwrap()
            .remove(0)
    }

    #[test]
    fn evidence_is_order_insensitive_and_resettable() {
        let model = discrete_model();
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut session = shared.session();
        let a = posterior(&mut session, &[(0, 0.05), (1, 0.06)], 6);
        let b = posterior(&mut session, &[(1, 0.06), (0, 0.05)], 6);
        assert_eq!(dbits(&a), dbits(&b));
        // No evidence restores the prior.
        let prior = posterior(&mut session, &[], 6);
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
        assert!(session.posterior_group(&[], &[99]).is_err());
        assert!(session.posterior_group(&[(99, 1.0)], &[6]).is_err());
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
            assert!(refused(
                session
                    .posterior_group(&[(1, 0.06), (0, bad)], &[3])
                    .map(drop)
            ));
            assert!(refused(session.dcomp(&[(0, bad)], &[3]).map(drop)));
            assert!(refused(session.paccel(&[(3, bad)]).map(drop)));
            assert!(refused(
                session.violation_sweep(&[(0, bad)], &[0.5]).map(drop)
            ));
        }
        // The session is still usable and holds no leftover pins.
        let prior = posterior(&mut session, &[], 6);
        let fresh = SharedKert::new(discrete_model()).unwrap();
        assert_eq!(
            dbits(&prior),
            dbits(&posterior(&mut fresh.session(), &[], 6))
        );
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
                    s.spawn(move || dbits(&posterior(&mut shared.session(), evidence, *target)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((evidence, target), got) in clients.iter().zip(&concurrent) {
            let fresh = SharedKert::new(discrete_model()).unwrap();
            let expect = dbits(&posterior(&mut fresh.session(), evidence, *target));
            assert_eq!(
                &expect, got,
                "session diverged from fresh engine for evidence {evidence:?}"
            );
        }
    }

    /// Step `step` of a fixed mixed request sequence, as the bit patterns
    /// of every probability it answers (`None` when it is refused).
    fn mixed_step(session: &mut Session<'_>, step: usize) -> Option<Vec<u64>> {
        const A: [(usize, f64); 2] = [(0, 0.05), (1, 0.06)];
        let group =
            |r: Result<Vec<Posterior>>| r.ok().map(|ps| ps.iter().flat_map(dbits).collect());
        match step {
            0 => group(session.posterior_group(&A, &[2, 3, 6])),
            1 => session
                .dcomp(&[(0, 0.05), (1, 0.06), (6, 0.6)], &[2, 3, 4, 5])
                .ok()
                .map(|outs| {
                    outs.iter()
                        .flat_map(|o| [dbits(&o.prior), dbits(&o.posterior)].concat())
                        .collect()
                }),
            2 => session
                .paccel(&[(3, 0.3), (0, 0.04), (3, 0.2), (4, 0.05)])
                .ok()
                .map(|outs| {
                    outs.iter()
                        .flat_map(|o| [dbits(&o.prior_d), dbits(&o.projected_d)].concat())
                        .collect()
                }),
            3 => session
                .violation_sweep(&[(3, 0.4), (4, 0.05)], &[0.4, 0.6, 0.8])
                .ok()
                .map(|p| bits(&p)),
            // Refused: node 0 listed twice.
            4 => group(session.posterior_group(&[(0, 0.05), (1, 0.06), (0, 0.2)], &[3])),
            5 => group(session.posterior_group(&[], &[2, 3, 6])),
            _ => group(session.posterior_group(&A, &[2, 3, 6])),
        }
    }

    /// One session reused through the mixed sequence, refusal included,
    /// answers every step bitwise as a fresh session does: no evidence
    /// and no stale message outlives a call.
    #[test]
    fn a_reused_session_answers_like_a_fresh_one() {
        let shared = SharedKert::new(discrete_model()).unwrap();
        let mut reused = shared.session();
        for step in 0..7 {
            let got = mixed_step(&mut reused, step);
            assert_eq!(got, mixed_step(&mut shared.session(), step), "step {step}");
            assert_eq!(got.is_none(), step == 4, "step {step}");
        }
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
        let a = posterior(&mut shared.session(), &[], shared.model().d_node());
        let direct = SharedKert::new(model).unwrap();
        let b = posterior(&mut direct.session(), &[], direct.model().d_node());
        assert_eq!(dbits(&a), dbits(&b));
    }
}
