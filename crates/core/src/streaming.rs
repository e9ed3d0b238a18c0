//! Streaming sliding-window refresh (incremental `T_CON` reconstruction).
//!
//! The paper's autonomic loop rebuilds the KERT every control period from a
//! sliding window `W = K·T_CON`. The conventional path relearns every
//! parameter from the full window; this module keeps a
//! [`StreamingLearner`] over the window's *sufficient statistics* so each
//! reconstruction costs `O(delta)` — the rows that entered or left since
//! the last period — instead of `O(window)`:
//!
//! * [`StreamingWindow`] owns the raw row buffer, evicts overflow rows,
//!   and keeps the learner's statistics in lock-step (for discrete models
//!   rows are binned through the *model's* discretizer, so streamed CPTs
//!   stay comparable with the deployed network). It refuses rows with
//!   non-finite values, which no fit over the window could absorb.
//! * [`KertBn::refresh_from_window`] swaps refreshed CPDs into the model
//!   in place, which drops the model's compiled tree: the next one-shot
//!   query compiles one from the refreshed model, and the queries after it
//!   reuse it.
//!
//! The equivalence contract — streaming CPTs bitwise-equal batch relearn,
//! linear-Gaussian CPDs within 1e-9 — is enforced by
//! `crates/conformance/tests/streaming.rs`.

use kert_bayes::cpd::Cpd;
use kert_bayes::discretize::Discretizer;
use kert_bayes::learn::incremental::{cpd_movement, StreamingLearner};
use kert_bayes::learn::mle::ParamOptions;
use kert_bayes::Dataset;

use crate::kert::{learned_subdag, KertBn};
use crate::{CoreError, Result};

static OBS_WINDOW_ROWS: kert_obs::Counter = kert_obs::Counter::new("core.stream.rows");
static OBS_REFRESHES: kert_obs::Counter = kert_obs::Counter::new("core.stream.refreshes");
static OBS_CPDS_MOVED: kert_obs::Counter = kert_obs::Counter::new("core.stream.cpds_moved");

/// One refreshed CPD with how far it moved from the reference model.
#[derive(Debug, Clone)]
pub struct CpdUpdate {
    /// Learned node index.
    pub node: usize,
    /// Freshly fitted CPD over the current window.
    pub cpd: Cpd,
    /// Max absolute parameter change vs the reference model
    /// ([`kert_bayes::learn::incremental::cpd_movement`]).
    pub movement: f64,
}

/// The product of one streaming refresh: a fitted CPD per learned node,
/// each tagged with its movement. [`KertBn::refresh_from_window`] applies
/// it to the model.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// One entry per learned node, ascending node order.
    pub updates: Vec<CpdUpdate>,
}

impl RefreshOutcome {
    /// Largest movement across all learned nodes.
    pub fn max_movement(&self) -> f64 {
        self.updates.iter().map(|u| u.movement).fold(0.0, f64::max)
    }
}

/// Summary of an in-place model refresh.
#[derive(Debug, Clone, Copy)]
pub struct RefreshSummary {
    /// Learned nodes whose parameters changed at all.
    pub nodes_moved: usize,
}

/// A sliding window of raw monitoring rows with incrementally maintained
/// learning statistics.
///
/// Rows use the full trace layout the model was built from
/// (`X₁…X_n, [R₁…R_k,] D`). The `D` column rides along for the buffer but
/// is not learned — the response CPD is knowledge-generated (Eq. 4) and
/// never refreshed. Overflow beyond `capacity` evicts oldest-first, and
/// every insert/evict costs `O(Σ family size)`, independent of how many
/// rows the window holds.
#[derive(Debug, Clone)]
pub struct StreamingWindow {
    /// Flat ring buffer of raw rows, `columns` values per slot; the slot
    /// of the oldest row is `head`. It grows to `capacity·columns` once
    /// and the per-row hot path never allocates after that.
    buf: Vec<f64>,
    head: usize,
    len: usize,
    capacity: usize,
    learner: StreamingLearner,
    /// Clone of the model's discretizer: discrete models learn over
    /// *states*, and comparability with the deployed network requires the
    /// original bin edges, not a refit.
    discretizer: Option<Discretizer>,
    learned_nodes: usize,
    columns: usize,
    /// Reused buffers for the learned-node projections of the incoming and
    /// outgoing rows, so the per-row hot path never allocates.
    scratch: Vec<f64>,
    scratch_old: Vec<f64>,
}

impl StreamingWindow {
    /// An empty window for `model` holding at most `capacity` rows.
    /// `params` must match the smoothing options the model was built with
    /// for the bitwise-equivalence contract to hold.
    pub fn new(model: &KertBn, capacity: usize, params: ParamOptions) -> Result<Self> {
        if capacity == 0 {
            return Err(CoreError::BadRequest("window capacity must be ≥ 1".into()));
        }
        let m = model.d_node();
        let variables = &model.network().variables()[..m];
        let dag = learned_subdag(model.network().dag(), m);
        let learner = StreamingLearner::new(variables, &dag, params)?;
        Ok(StreamingWindow {
            buf: Vec::new(),
            head: 0,
            len: 0,
            capacity,
            learner,
            discretizer: model.discretizer().cloned(),
            learned_nodes: m,
            columns: model.network().len(),
            scratch: Vec::with_capacity(m),
            scratch_old: Vec::with_capacity(m),
        })
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Start offset (in `buf`) of the window row at logical index `r`.
    fn slot_start(&self, r: usize) -> usize {
        ((self.head + r) % self.capacity) * self.columns
    }

    /// The current window contents as a dataset (training layout), for
    /// differential testing against the batch path.
    pub fn to_dataset(&self, names: Vec<String>) -> Result<Dataset> {
        let mut out = Dataset::new(names);
        for r in 0..self.len {
            let start = self.slot_start(r);
            out.push_row(self.buf[start..start + self.columns].to_vec())
                .map_err(CoreError::from)?;
        }
        Ok(out)
    }

    /// Project a raw row onto the learned nodes into the reused scratch
    /// buffer, binning through the model's discretizer for discrete models.
    fn fill_learned_row(
        buf: &mut Vec<f64>,
        discretizer: &Option<Discretizer>,
        learned_nodes: usize,
        row: &[f64],
    ) {
        buf.clear();
        match discretizer {
            Some(disc) => {
                buf.extend((0..learned_nodes).map(|i| disc.column(i).state(row[i]) as f64))
            }
            None => buf.extend_from_slice(&row[..learned_nodes]),
        }
    }

    /// Append one raw row, evicting the oldest row if the window is full.
    ///
    /// A row holding a non-finite value is refused before anything moves:
    /// a continuous Gram would keep `inf − inf = NaN` long after the row
    /// left, and a discretizer would silently bin it into an edge state.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.columns {
            return Err(CoreError::BadRequest(format!(
                "row has {} values, model expects {}",
                row.len(),
                self.columns
            )));
        }
        if let Some(col) = row.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::BadRequest(format!(
                "row value {} in column {col} is not finite",
                row[col]
            )));
        }
        if self.len == self.capacity {
            // At capacity the incoming row replaces the oldest in place:
            // the learner inserts the new row, then evicts the old one.
            // The old row is one the learner holds, so its evict cannot
            // fail once the insert has passed.
            let start = self.head * self.columns;
            let mut new_buf = std::mem::take(&mut self.scratch);
            let mut old_buf = std::mem::take(&mut self.scratch_old);
            Self::fill_learned_row(&mut new_buf, &self.discretizer, self.learned_nodes, row);
            Self::fill_learned_row(
                &mut old_buf,
                &self.discretizer,
                self.learned_nodes,
                &self.buf[start..start + self.columns],
            );
            let outcome = self
                .learner
                .insert_row(&new_buf)
                .and_then(|()| self.learner.evict_row(&old_buf));
            self.scratch = new_buf;
            self.scratch_old = old_buf;
            outcome?;
            self.buf[start..start + self.columns].copy_from_slice(row);
            self.head = (self.head + 1) % self.capacity;
        } else {
            let mut new_buf = std::mem::take(&mut self.scratch);
            Self::fill_learned_row(&mut new_buf, &self.discretizer, self.learned_nodes, row);
            let outcome = self.learner.insert_row(&new_buf);
            self.scratch = new_buf;
            outcome?;
            let start = self.slot_start(self.len);
            if start == self.buf.len() {
                self.buf.extend_from_slice(row);
            } else {
                self.buf[start..start + self.columns].copy_from_slice(row);
            }
            self.len += 1;
        }
        OBS_WINDOW_ROWS.incr();
        Ok(())
    }

    /// Append every row of `data` (training layout), sliding the window.
    pub fn extend(&mut self, data: &Dataset) -> Result<()> {
        for r in 0..data.rows() {
            self.push_row(data.row(r))?;
        }
        Ok(())
    }

    /// Evict the `k` oldest rows (saturating at the window size).
    pub fn evict_oldest(&mut self, k: usize) -> Result<usize> {
        let mut evicted = 0;
        for _ in 0..k {
            if self.len == 0 {
                break;
            }
            let start = self.head * self.columns;
            let mut scratch = std::mem::take(&mut self.scratch);
            Self::fill_learned_row(
                &mut scratch,
                &self.discretizer,
                self.learned_nodes,
                &self.buf[start..start + self.columns],
            );
            let outcome = self.learner.evict_row(&scratch);
            self.scratch = scratch;
            outcome?;
            self.head = (self.head + 1) % self.capacity;
            self.len -= 1;
            evicted += 1;
        }
        Ok(evicted)
    }

    /// Rebuild every learned node's CPD from the window statistics and tag
    /// each with its movement relative to `model`'s current parameters.
    /// Cost is per-family table size — independent of the window length.
    /// An empty window describes no traffic and is refused.
    pub fn refresh_outcome(&self, model: &KertBn) -> Result<RefreshOutcome> {
        if model.d_node() != self.learned_nodes || model.network().len() != self.columns {
            return Err(CoreError::BadRequest(
                "window was built for a different model shape".into(),
            ));
        }
        if self.len == 0 {
            return Err(CoreError::BadRequest(
                "cannot refresh from an empty window".into(),
            ));
        }
        OBS_REFRESHES.incr();
        let _span = kert_obs::span("core.stream.refresh");
        let cpds = self.learner.fit_all()?;
        let updates = cpds
            .into_iter()
            .enumerate()
            .map(|(node, cpd)| {
                let movement = cpd_movement(model.network().cpd(node), &cpd);
                CpdUpdate {
                    node,
                    cpd,
                    movement,
                }
            })
            .collect();
        Ok(RefreshOutcome { updates })
    }
}

impl KertBn {
    /// Refresh the learned CPDs in place from a streaming window — the
    /// O(delta) replacement for rebuilding the model every `T_CON`.
    ///
    /// The structure, the discretizer, and the knowledge-generated response
    /// CPD are untouched; only the per-service (and resource) parameters
    /// move. Equivalent to a batch relearn over the window's rows with the
    /// model's original discretizer: bitwise for CPTs, ≤1e-9 for
    /// linear-Gaussian CPDs. An empty window is refused with
    /// [`CoreError::BadRequest`], leaving CPDs and health untouched.
    pub fn refresh_from_window(&mut self, window: &mut StreamingWindow) -> Result<RefreshSummary> {
        let outcome = window.refresh_outcome(self)?;
        let mut nodes_moved = 0;
        for update in outcome.updates {
            if update.movement > 0.0 {
                nodes_moved += 1;
            }
            self.network_mut().set_cpd(update.node, update.cpd)?;
        }
        OBS_CPDS_MOVED.add(nodes_moved as u64);
        self.mark_refreshed(window.len());
        Ok(RefreshSummary { nodes_moved })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::{ContinuousKertOptions, DiscreteKertOptions};
    use kert_bayes::learn::mle::fit_all_parameters;
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ediamond_data(rows: usize, seed: u64) -> (kert_workflow::WorkflowKnowledge, Dataset) {
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

    /// Batch reference: relearn the learned nodes over `window` with the
    /// model's variables/structure (and discretizer, when present).
    fn batch_cpds(model: &KertBn, window: &Dataset) -> Vec<Cpd> {
        let m = model.d_node();
        let vars = &model.network().variables()[..m];
        let dag = learned_subdag(model.network().dag(), m);
        let learned = match model.discretizer() {
            Some(disc) => disc
                .transform(window)
                .unwrap()
                .project(&(0..m).collect::<Vec<_>>())
                .unwrap(),
            None => window.project(&(0..m).collect::<Vec<_>>()).unwrap(),
        };
        fit_all_parameters(vars, &dag, &learned, ParamOptions::default()).unwrap()
    }

    #[test]
    fn continuous_refresh_tracks_batch_within_1e9() {
        let (knowledge, data) = ediamond_data(700, 11);
        let (train, rest) = data.split_at(500);
        let mut model =
            KertBn::build_continuous(&knowledge, &train, ContinuousKertOptions::default()).unwrap();
        let mut window = StreamingWindow::new(&model, 500, ParamOptions::default()).unwrap();
        window.extend(&train).unwrap();
        // Slide by 200: the oldest 200 training rows fall out.
        window.extend(&rest).unwrap();
        assert_eq!(window.len(), 500);
        let summary = model.refresh_from_window(&mut window).unwrap();
        assert!(summary.nodes_moved > 0, "sliding must move parameters");

        let current = window.to_dataset(train.names().to_vec()).unwrap();
        let batch = batch_cpds(&model, &current);
        for (node, b) in batch.iter().enumerate() {
            let m = cpd_movement(model.network().cpd(node), b);
            assert!(m <= 1e-9, "node {node} differs from batch by {m}");
        }
    }

    #[test]
    fn discrete_refresh_is_bitwise_equal_to_batch() {
        let (knowledge, data) = ediamond_data(900, 12);
        let (train, rest) = data.split_at(600);
        let mut model =
            KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();
        let mut window = StreamingWindow::new(&model, 600, ParamOptions::default()).unwrap();
        window.extend(&train).unwrap();
        window.extend(&rest).unwrap();
        model.refresh_from_window(&mut window).unwrap();

        let current = window.to_dataset(train.names().to_vec()).unwrap();
        let batch = batch_cpds(&model, &current);
        for (node, b) in batch.iter().enumerate() {
            let (Cpd::Tabular(got), Cpd::Tabular(want)) = (model.network().cpd(node), b) else {
                panic!("expected tabular CPDs");
            };
            assert_eq!(
                got.table(),
                want.table(),
                "node {node} CPT not bitwise equal"
            );
        }
    }

    /// A refresh drops the model's compiled tree: after it, the one-shot
    /// verbs answer bitwise as the same model reloaded through JSON, which
    /// compiles a tree of its own, and no longer as before the refresh.
    #[test]
    fn one_shot_answers_after_a_refresh_come_from_a_fresh_tree() {
        use crate::persist::SavedModel;
        use crate::posterior::{McOptions, Posterior};
        use crate::{assess_violation_sweep, dcomp_all, paccel_candidates};

        let (knowledge, data) = ediamond_data(900, 14);
        let (train, rest) = data.split_at(600);
        let mut model =
            KertBn::build_discrete(&knowledge, &train, DiscreteKertOptions::default()).unwrap();
        let mut window = StreamingWindow::new(&model, 600, ParamOptions::default()).unwrap();
        window.extend(&train).unwrap();
        let answers = |model: &KertBn| -> Vec<u64> {
            let mc = McOptions::default();
            let mut rng = StdRng::seed_from_u64(0);
            let mut out: Vec<f64> = assess_violation_sweep(
                model,
                &[(0, 0.05), (1, 0.06)],
                &[0.2, 0.3, 0.5],
                mc,
                &mut rng,
            )
            .unwrap()
            .iter()
            .map(|a| a.probability)
            .collect();
            let mut push = |p: &Posterior| match p {
                Posterior::Discrete { probs, .. } => out.extend(probs),
                other => panic!("expected a discrete posterior, got {other:?}"),
            };
            for o in dcomp_all(model, &[(0, 0.05), (6, 0.3)], &[2, 3], mc, &mut rng).unwrap() {
                push(&o.prior);
                push(&o.posterior);
            }
            for o in paccel_candidates(model, &[(3, 0.04), (5, 0.05)], mc, &mut rng).unwrap() {
                push(&o.projected_d);
            }
            out.iter().map(|v| v.to_bits()).collect()
        };
        let before = answers(&model);
        window.extend(&rest).unwrap();
        model.refresh_from_window(&mut window).unwrap();
        let after = answers(&model);
        let json = model.to_saved().to_json().unwrap();
        let reloaded = KertBn::from_saved(SavedModel::from_json(&json).unwrap()).unwrap();
        assert_eq!(after, answers(&reloaded));
        assert_ne!(after, before, "the refresh moved no answer");
    }

    #[test]
    fn window_rejects_bad_shapes() {
        let (knowledge, data) = ediamond_data(100, 15);
        let model =
            KertBn::build_continuous(&knowledge, &data, ContinuousKertOptions::default()).unwrap();
        assert!(StreamingWindow::new(&model, 0, ParamOptions::default()).is_err());
        let mut window = StreamingWindow::new(&model, 50, ParamOptions::default()).unwrap();
        assert!(window.push_row(&[1.0, 2.0]).is_err());
        window.extend(&data).unwrap();
        assert_eq!(window.len(), 50, "capacity must cap the window");
    }

    fn build(
        knowledge: &kert_workflow::WorkflowKnowledge,
        data: &Dataset,
        discrete: bool,
    ) -> KertBn {
        if discrete {
            KertBn::build_discrete(knowledge, data, DiscreteKertOptions::default()).unwrap()
        } else {
            KertBn::build_continuous(knowledge, data, ContinuousKertOptions::default()).unwrap()
        }
    }

    #[test]
    fn non_finite_rows_are_refused_before_anything_moves() {
        let (knowledge, data) = ediamond_data(500, 17);
        let (train, rest) = data.split_at(300);
        for discrete in [false, true] {
            let mut model = build(&knowledge, &train, discrete);
            let mut window = StreamingWindow::new(&model, 100, ParamOptions::default()).unwrap();
            let refuse_bad_rows = |window: &mut StreamingWindow| {
                let len = window.len();
                for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    for col in [1, model.d_node()] {
                        let mut row = rest.row(0).to_vec();
                        row[col] = bad;
                        let refused = window.push_row(&row);
                        assert!(
                            matches!(refused, Err(CoreError::BadRequest(_))),
                            "discrete={discrete}: {bad} in column {col} gave {refused:?}"
                        );
                        assert_eq!(window.len(), len);
                    }
                }
            };
            // Refused while filling, and again once full (the slide path).
            refuse_bad_rows(&mut window);
            window.extend(&train).unwrap();
            refuse_bad_rows(&mut window);
            window.extend(&rest).unwrap();
            model.refresh_from_window(&mut window).unwrap();

            let current = window.to_dataset(train.names().to_vec()).unwrap();
            let tolerance = if discrete { 0.0 } else { 1e-9 };
            for (node, b) in batch_cpds(&model, &current).iter().enumerate() {
                let m = cpd_movement(model.network().cpd(node), b);
                assert!(m <= tolerance, "discrete={discrete}: node {node} moved {m}");
            }
        }
    }

    #[test]
    fn refreshing_from_an_empty_window_is_refused() {
        let (knowledge, data) = ediamond_data(200, 18);
        for discrete in [false, true] {
            let mut model = build(&knowledge, &data, discrete);
            let learned = model.network().cpds()[..model.d_node()].to_vec();
            let health = model.health().clone();
            let new_window = StreamingWindow::new(&model, 50, ParamOptions::default()).unwrap();
            let mut evicted = new_window.clone();
            evicted.extend(&data).unwrap();
            evicted.evict_oldest(50).unwrap();
            for (case, mut window) in [("new", new_window), ("evicted", evicted)] {
                let refused = model.refresh_from_window(&mut window);
                assert!(
                    matches!(refused, Err(CoreError::BadRequest(_))),
                    "discrete={discrete}, {case} window: {refused:?}"
                );
                for (node, want) in learned.iter().enumerate() {
                    let m = cpd_movement(model.network().cpd(node), want);
                    assert_eq!(m, 0.0, "discrete={discrete}: node {node} moved");
                }
                assert_eq!(model.health(), &health);
            }
        }
    }
}
