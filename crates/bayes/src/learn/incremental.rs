//! Incremental sliding-window parameter learning.
//!
//! The autonomic loop relearns the KERT every `T_CON` from a window
//! `W = K·T_CON`. Batch relearning ([`super::mle::fit_all_parameters`]) costs
//! `O(window)` per reconstruction; the [`StreamingLearner`] here maintains
//! per-family *sufficient statistics* so each reconstruction costs
//! `O(delta)` — proportional to the rows that entered or left the window,
//! not the window size.
//!
//! Equivalence contract (enforced by `crates/conformance/tests/streaming.rs`):
//!
//! * **Discrete families** keep sparse *integer* counts per parent
//!   configuration. Rebuilding a CPT routes the densified counts through the
//!   exact same [`TabularCpd::from_counts`] arithmetic as
//!   [`super::mle::fit_tabular`], so streaming CPTs are **bitwise identical** to
//!   a batch relearn over the same window — and evicting every row of a
//!   family returns the counts exactly to the prior (integer arithmetic
//!   cannot drift the way repeated `+1.0 … −1.0` float round-trips can).
//! * **Linear-Gaussian families** keep the Gram matrix `XᵀX`, the moment
//!   vector `Xᵀy`, and scalar moments of `y`, updated by add/subtract.
//!   A refit factors the Gram and solves, exactly the normal equations
//!   [`super::mle::fit_linear_gaussian`] runs through [`kert_linalg::lstsq()`],
//!   ridge fallback for a singular Gram included. With `p = 1 + |parents|`
//!   this small, one `p×p` factorization per refit costs less than keeping
//!   a factor current row by row. The rebuilt CPD agrees with
//!   [`super::mle::fit_linear_gaussian`] to ≤1e-9. One known exception: when a
//!   constant parent makes the Gram singular, the ridge splits the
//!   intercept and that parent's weight by last-ulp rounding, which a
//!   slide changes; the fitted mean and variance still agree.

use std::collections::BTreeMap;

use kert_linalg::{Cholesky, Matrix};

use crate::cpd::{config_count, Cpd, LinearGaussianCpd, TabularCpd};
use crate::graph::Dag;
use crate::learn::mle::ParamOptions;
use crate::variable::{Variable, VariableKind};
use crate::{BayesError, Result};

static OBS_STREAM_INSERTS: kert_obs::Counter = kert_obs::Counter::new("bayes.stream.inserts");
static OBS_STREAM_EVICTS: kert_obs::Counter = kert_obs::Counter::new("bayes.stream.evicts");

/// Stack-buffer size for per-row design vectors (`1 + |parents|`); families
/// with wider fan-in fall back to a heap vector transparently.
const DESIGN_STACK: usize = 8;

/// Sufficient statistics for one discrete family `P(child | parents)`.
///
/// Counts are exact integers keyed by parent-configuration index in a
/// `BTreeMap`, giving the same deterministic densification order as the
/// batch path regardless of row arrival order.
#[derive(Debug, Clone)]
struct DiscreteStats {
    card: usize,
    parent_cards: Vec<usize>,
    counts: BTreeMap<usize, Vec<i64>>,
}

impl DiscreteStats {
    fn config_of(&self, node: usize, parents: &[usize], row: &[f64]) -> Result<(usize, usize)> {
        let mut idx = 0usize;
        for (&p, &pc) in parents.iter().zip(self.parent_cards.iter()) {
            let s = row[p] as usize;
            if s >= pc {
                return Err(BayesError::InvalidData(format!(
                    "node {p} state {s} exceeds cardinality {pc}"
                )));
            }
            idx = idx * pc + s;
        }
        let child_state = row[node] as usize;
        if child_state >= self.card {
            return Err(BayesError::InvalidData(format!(
                "child {node} state {child_state} exceeds cardinality {}",
                self.card
            )));
        }
        Ok((idx, child_state))
    }

    fn insert(&mut self, node: usize, parents: &[usize], row: &[f64]) -> Result<()> {
        let (idx, state) = self.config_of(node, parents, row)?;
        self.counts.entry(idx).or_insert_with(|| vec![0; self.card])[state] += 1;
        Ok(())
    }

    fn evict(&mut self, node: usize, parents: &[usize], row: &[f64]) -> Result<()> {
        let (idx, state) = self.config_of(node, parents, row)?;
        let entry = self.counts.get_mut(&idx).ok_or_else(|| {
            BayesError::InvalidData(format!(
                "evicting unseen parent config {idx} for node {node}"
            ))
        })?;
        if entry[state] == 0 {
            return Err(BayesError::InvalidData(format!(
                "count underflow evicting node {node} state {state} (config {idx})"
            )));
        }
        entry[state] -= 1;
        // Drop exhausted configurations so a fully evicted family is
        // *structurally* identical to a freshly seeded one (the drift trap:
        // a lingering all-zero entry would be invisible in the CPT but
        // betray that floats, not integers, were being round-tripped).
        if entry.iter().all(|&c| c == 0) {
            self.counts.remove(&idx);
        }
        Ok(())
    }

    fn fit(&self, node: usize, parents: &[usize], options: ParamOptions) -> Result<TabularCpd> {
        let configs = config_count(&self.parent_cards);
        let mut counts = vec![0.0; configs * self.card];
        for (&idx, row_counts) in &self.counts {
            for (slot, &c) in counts[idx * self.card..(idx + 1) * self.card]
                .iter_mut()
                .zip(row_counts.iter())
            {
                *slot = c as f64;
            }
        }
        TabularCpd::from_counts(
            node,
            parents.to_vec(),
            self.card,
            self.parent_cards.clone(),
            &counts,
            options.dirichlet_alpha,
        )
    }
}

/// Sufficient statistics for one linear-Gaussian family.
///
/// For a family with parents the design row is `x = [1, parent values…]`
/// (matching [`super::mle::fit_linear_gaussian`]); the stats are
/// `G = Σ x·xᵀ`, `v = Σ x·y`, `Σy²`, and `Σy`, all maintained by
/// add/subtract and solved only at refit.
#[derive(Debug, Clone)]
struct GaussianStats {
    n: usize,
    sum_y: f64,
    yty: f64,
    /// `p×p` Gram matrix (`p = parents + 1`); empty for root nodes.
    gram: Matrix,
    xty: Vec<f64>,
}

impl GaussianStats {
    fn new(p: usize) -> Self {
        GaussianStats {
            n: 0,
            sum_y: 0.0,
            yty: 0.0,
            gram: Matrix::zeros(p, p),
            xty: vec![0.0; p],
        }
    }

    /// Fill `buf` (length `parents.len() + 1`) with the design row
    /// `[1, parent values…]` matching [`super::mle::fit_linear_gaussian`].
    fn fill_design(buf: &mut [f64], parents: &[usize], row: &[f64]) {
        buf[0] = 1.0;
        for (slot, &p) in buf[1..].iter_mut().zip(parents.iter()) {
            *slot = row[p];
        }
    }

    fn insert(&mut self, node: usize, parents: &[usize], row: &[f64]) {
        self.n += 1;
        self.update(parents, row[node], row, 1.0);
    }

    fn evict(&mut self, node: usize, parents: &[usize], row: &[f64]) -> Result<()> {
        if self.n == 0 {
            return Err(BayesError::InvalidData(format!(
                "evicting from an empty window for node {node}"
            )));
        }
        self.n -= 1;
        self.update(parents, row[node], row, -1.0);
        Ok(())
    }

    /// Add (`sign = 1.0`) or subtract (`sign = -1.0`) one row's terms.
    /// Negation is exact, so `a + (−1·x)·y` is bitwise `a − x·y`: an
    /// evict removes exactly the bits its insert added.
    fn update(&mut self, parents: &[usize], y: f64, row: &[f64], sign: f64) {
        let signed_y = sign * y;
        self.sum_y += signed_y;
        self.yty += signed_y * y;
        if parents.is_empty() {
            return;
        }
        // This runs once per family per window row: the design vector stays
        // on the stack (KERT fan-in is far below the buffer size).
        let p = parents.len() + 1;
        let mut x_stack = [0.0f64; DESIGN_STACK];
        let mut x_heap = Vec::new();
        let x: &mut [f64] = if p <= DESIGN_STACK {
            &mut x_stack[..p]
        } else {
            x_heap.resize(p, 0.0);
            &mut x_heap
        };
        Self::fill_design(x, parents, row);
        for i in 0..p {
            let xi = sign * x[i];
            self.xty[i] += xi * y;
            for (g, &xj) in self.gram.row_mut(i)[..p].iter_mut().zip(x.iter()) {
                *g += xi * xj;
            }
        }
    }

    fn fit(&self, node: usize, parents: &[usize]) -> Result<LinearGaussianCpd> {
        if self.n == 0 {
            return Err(BayesError::InvalidData(
                "cannot fit a Gaussian CPD on an empty window".into(),
            ));
        }
        let n = self.n as f64;
        // Same relative variance floor as `fit_linear_gaussian`.
        let mean_sq = (self.yty / n).max(0.0);
        let var_floor = mean_sq * 1e-6;
        if parents.is_empty() {
            let mean = self.sum_y / n;
            let var = if self.n < 2 {
                0.0
            } else {
                ((self.yty - self.sum_y * self.sum_y / n) / (n - 1.0)).max(0.0)
            };
            return LinearGaussianCpd::new(node, Vec::new(), mean, Vec::new(), var.max(var_floor));
        }
        let p = parents.len() + 1;
        let coeffs = match Cholesky::factor(&self.gram) {
            Ok(ch) => ch.solve(self.xty.clone()),
            Err(_) => {
                // A singular Gram (collinear or constant parents in a short
                // window) takes `lstsq`'s scale-aware tiny ridge: the
                // average squared column norm is exactly trace(G)/p.
                let scale = (self.gram.trace() / p as f64).max(1.0);
                let mut ridged = self.gram.clone();
                for i in 0..p {
                    ridged.add_at(i, i, 1e-8 * scale);
                }
                Cholesky::factor(&ridged).and_then(|ch| ch.solve(self.xty.clone()))
            }
        }
        .map_err(BayesError::from)?;
        // rss = ‖y − Xβ‖² expanded through the sufficient statistics:
        // Σy² − 2·βᵀ(Xᵀy) + βᵀG β.
        let mut quad = 0.0;
        for i in 0..p {
            let mut gi = 0.0;
            for (j, &bj) in coeffs.iter().enumerate().take(p) {
                gi += self.gram.get(i, j) * bj;
            }
            quad += coeffs[i] * gi;
        }
        let cross: f64 = coeffs
            .iter()
            .zip(self.xty.iter())
            .map(|(&b, &v)| b * v)
            .sum();
        let rss = (self.yty - 2.0 * cross + quad).max(0.0);
        let dof = self.n.saturating_sub(p);
        let residual_variance = if dof > 0 { rss / dof as f64 } else { rss / n };
        LinearGaussianCpd::new(
            node,
            parents.to_vec(),
            coeffs[0],
            coeffs[1..].to_vec(),
            residual_variance.max(var_floor),
        )
    }
}

#[derive(Debug, Clone)]
enum FamilyStats {
    Discrete(DiscreteStats),
    Gaussian(GaussianStats),
}

/// Incremental learner maintaining per-family sufficient statistics over a
/// sliding window of rows.
///
/// Rows are full network-order records (one value per variable, exactly like
/// [`crate::Dataset`] rows). The learner is a *multiset* over rows: duplicates are
/// counted, and every [`Self::evict_row`] must match a previously inserted
/// row or the statistics error out rather than silently drifting.
#[derive(Debug, Clone)]
pub struct StreamingLearner {
    variables: Vec<Variable>,
    parents: Vec<Vec<usize>>,
    options: ParamOptions,
    families: Vec<FamilyStats>,
    rows: usize,
}

impl StreamingLearner {
    /// An empty learner for the given structure.
    pub fn new(variables: &[Variable], dag: &Dag, options: ParamOptions) -> Result<Self> {
        let n = variables.len();
        if dag.len() != n {
            return Err(BayesError::InvalidData(format!(
                "dag has {} nodes for {} variables",
                dag.len(),
                n
            )));
        }
        let cards: Vec<usize> = variables
            .iter()
            .map(|v| v.cardinality().unwrap_or(0))
            .collect();
        let mut families = Vec::with_capacity(n);
        let mut parents = Vec::with_capacity(n);
        for (i, v) in variables.iter().enumerate() {
            let ps = dag.parents(i).to_vec();
            families.push(match v.kind {
                VariableKind::Discrete { .. } => {
                    let card = cards[i];
                    if card == 0 {
                        return Err(BayesError::InvalidNode(i));
                    }
                    let parent_cards: Vec<usize> = ps
                        .iter()
                        .map(|&p| match cards.get(p) {
                            Some(&c) if c > 0 => Ok(c),
                            _ => Err(BayesError::InvalidNode(p)),
                        })
                        .collect::<Result<_>>()?;
                    FamilyStats::Discrete(DiscreteStats {
                        card,
                        parent_cards,
                        counts: BTreeMap::new(),
                    })
                }
                VariableKind::Continuous => {
                    let p = if ps.is_empty() { 0 } else { ps.len() + 1 };
                    FamilyStats::Gaussian(GaussianStats::new(p))
                }
            });
            parents.push(ps);
        }
        Ok(StreamingLearner {
            variables: variables.to_vec(),
            parents,
            options,
            families,
            rows: 0,
        })
    }

    fn check_row(&self, row: &[f64]) -> Result<()> {
        if row.len() != self.variables.len() {
            return Err(BayesError::InvalidData(format!(
                "row has {} values for {} variables",
                row.len(),
                self.variables.len()
            )));
        }
        Ok(())
    }

    /// Add one row to the window: `O(Σ family size)`, independent of the
    /// number of rows already in the window.
    pub fn insert_row(&mut self, row: &[f64]) -> Result<()> {
        self.check_row(row)?;
        // Validate the full row before mutating any family so a bad row
        // cannot leave the statistics half-applied.
        for (i, fam) in self.families.iter().enumerate() {
            if let FamilyStats::Discrete(d) = fam {
                d.config_of(i, &self.parents[i], row)?;
            }
        }
        for (i, fam) in self.families.iter_mut().enumerate() {
            match fam {
                FamilyStats::Discrete(d) => d.insert(i, &self.parents[i], row)?,
                FamilyStats::Gaussian(g) => g.insert(i, &self.parents[i], row),
            }
        }
        self.rows += 1;
        OBS_STREAM_INSERTS.incr();
        Ok(())
    }

    /// Remove one previously inserted row from the window.
    pub fn evict_row(&mut self, row: &[f64]) -> Result<()> {
        self.check_row(row)?;
        if self.rows == 0 {
            return Err(BayesError::InvalidData(
                "evicting from an empty window".into(),
            ));
        }
        for (i, fam) in self.families.iter().enumerate() {
            if let FamilyStats::Discrete(d) = fam {
                let (idx, state) = d.config_of(i, &self.parents[i], row)?;
                match d.counts.get(&idx) {
                    Some(entry) if entry[state] > 0 => {}
                    _ => {
                        return Err(BayesError::InvalidData(format!(
                            "evicting a row never inserted (node {i}, config {idx})"
                        )))
                    }
                }
            }
        }
        for (i, fam) in self.families.iter_mut().enumerate() {
            match fam {
                FamilyStats::Discrete(d) => d.evict(i, &self.parents[i], row)?,
                FamilyStats::Gaussian(g) => g.evict(i, &self.parents[i], row)?,
            }
        }
        self.rows -= 1;
        OBS_STREAM_EVICTS.incr();
        Ok(())
    }

    /// Rebuild one node's CPD from the current sufficient statistics.
    pub fn fit_node(&self, node: usize) -> Result<Cpd> {
        let parents = self
            .parents
            .get(node)
            .ok_or(BayesError::InvalidNode(node))?;
        match &self.families[node] {
            FamilyStats::Discrete(d) => d.fit(node, parents, self.options).map(Cpd::Tabular),
            FamilyStats::Gaussian(g) => g.fit(node, parents).map(Cpd::LinearGaussian),
        }
    }

    /// Rebuild every node's CPD, in node order — the streaming counterpart
    /// of [`super::mle::fit_all_parameters`].
    pub fn fit_all(&self) -> Result<Vec<Cpd>> {
        (0..self.variables.len())
            .map(|i| self.fit_node(i))
            .collect()
    }
}

/// Maximum absolute parameter difference between two CPDs of the same
/// family — how far a streaming refresh moved each node, and the distance
/// the streaming-vs-batch gates bound.
///
/// Mixed families (or deterministic CPDs, which the streaming learner never
/// produces) return `∞` so callers always treat them as moved.
pub fn cpd_movement(old: &Cpd, new: &Cpd) -> f64 {
    match (old, new) {
        (Cpd::Tabular(a), Cpd::Tabular(b)) => {
            if a.table().len() != b.table().len() {
                return f64::INFINITY;
            }
            a.table()
                .iter()
                .zip(b.table().iter())
                .map(|(&x, &y)| (x - y).abs())
                .fold(0.0, f64::max)
        }
        (Cpd::LinearGaussian(a), Cpd::LinearGaussian(b)) => {
            if a.coeffs().len() != b.coeffs().len() {
                return f64::INFINITY;
            }
            let mut m = (a.intercept() - b.intercept()).abs();
            m = m.max((a.variance() - b.variance()).abs());
            for (&x, &y) in a.coeffs().iter().zip(b.coeffs().iter()) {
                m = m.max((x - y).abs());
            }
            m
        }
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::learn::mle::{fit_all_parameters, fit_linear_gaussian, fit_tabular};
    use crate::variable::Variable;

    fn chain_dag(n: usize) -> Dag {
        let mut dag = Dag::new(n);
        for i in 1..n {
            dag.add_edge(i - 1, i).unwrap();
        }
        dag
    }

    fn discrete_vars() -> Vec<Variable> {
        vec![Variable::discrete("a", 2), Variable::discrete("b", 3)]
    }

    fn deterministic_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let a = (i % 2) as f64;
                let b = ((i * 7 + 3) % 3) as f64;
                vec![a, b]
            })
            .collect()
    }

    #[test]
    fn discrete_streaming_is_bitwise_equal_to_batch() {
        let vars = discrete_vars();
        let dag = chain_dag(2);
        let rows = deterministic_rows(40);
        let data = Dataset::from_rows(vec!["a".into(), "b".into()], rows.clone()).unwrap();
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        for row in &rows {
            learner.insert_row(row).unwrap();
        }
        let batch = fit_tabular(1, &[0], &data, &[2, 3], opts).unwrap();
        match learner.fit_node(1).unwrap() {
            Cpd::Tabular(t) => assert_eq!(t.table(), batch.table(), "bitwise CPT mismatch"),
            other => panic!("unexpected family {other:?}"),
        }
    }

    #[test]
    fn add_then_remove_returns_bitwise_identical_cpt() {
        // The drift-trap regression: insert a block of rows, fit, insert a
        // second block, evict it again row by row — the CPT must come back
        // bitwise identical and the count maps structurally empty of the
        // evicted configurations.
        let vars = discrete_vars();
        let dag = chain_dag(2);
        let base = deterministic_rows(24);
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        for row in &base {
            learner.insert_row(row).unwrap();
        }
        let before = match learner.fit_node(1).unwrap() {
            Cpd::Tabular(t) => t.table().to_vec(),
            other => panic!("unexpected family {other:?}"),
        };
        let extra = deterministic_rows(60);
        for row in &extra {
            learner.insert_row(row).unwrap();
        }
        for row in extra.iter().rev() {
            learner.evict_row(row).unwrap();
        }
        let after = match learner.fit_node(1).unwrap() {
            Cpd::Tabular(t) => t.table().to_vec(),
            other => panic!("unexpected family {other:?}"),
        };
        assert_eq!(before, after, "CPT drifted across add/remove round-trip");
    }

    #[test]
    fn full_eviction_returns_exactly_to_prior() {
        let vars = discrete_vars();
        let dag = chain_dag(2);
        let rows = deterministic_rows(30);
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        for row in &rows {
            learner.insert_row(row).unwrap();
        }
        for row in &rows {
            learner.evict_row(row).unwrap();
        }
        assert_eq!(learner.rows, 0);
        assert!(
            learner.families.iter().all(|f| match f {
                FamilyStats::Discrete(d) => d.counts.is_empty(),
                FamilyStats::Gaussian(_) => true,
            }),
            "count maps must be empty"
        );
        // An empty window fits the pure prior: uniform under smoothing.
        match learner.fit_node(1).unwrap() {
            Cpd::Tabular(t) => {
                for &p in t.table() {
                    assert_eq!(p, 1.0 / 3.0);
                }
            }
            other => panic!("unexpected family {other:?}"),
        }
    }

    #[test]
    fn eviction_of_unseen_row_is_an_error_not_a_drift() {
        let vars = discrete_vars();
        let dag = chain_dag(2);
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        learner.insert_row(&[0.0, 1.0]).unwrap();
        assert!(learner.evict_row(&[1.0, 2.0]).is_err());
        // The failed evict must not have decremented anything.
        assert_eq!(learner.rows, 1);
        learner.evict_row(&[0.0, 1.0]).unwrap();
        assert_eq!(learner.rows, 0);
    }

    fn linear_rows(n: usize, offset: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let k = (i + offset) as f64;
                let a = 0.05 + 0.01 * (k % 17.0);
                let b = 0.02 + 0.7 * a + 0.001 * ((k * 3.0) % 11.0);
                let c = 0.01 + 0.4 * a + 0.3 * b + 0.0005 * ((k * 5.0) % 7.0);
                vec![a, b, c]
            })
            .collect()
    }

    #[test]
    fn gaussian_streaming_matches_batch_within_1e9() {
        let vars = vec![
            Variable::continuous("a"),
            Variable::continuous("b"),
            Variable::continuous("c"),
        ];
        let mut dag = chain_dag(3);
        dag.add_edge(0, 2).unwrap();
        let names = vec!["a".into(), "b".into(), "c".into()];
        let window = linear_rows(200, 0);
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        for row in &window {
            learner.insert_row(row).unwrap();
        }
        // Slide: evict the first 50, insert 50 new.
        let incoming = linear_rows(50, 500);
        for row in &window[..50] {
            learner.evict_row(row).unwrap();
        }
        for row in &incoming {
            learner.insert_row(row).unwrap();
        }
        let mut current: Vec<Vec<f64>> = window[50..].to_vec();
        current.extend(incoming.iter().cloned());
        let data = Dataset::from_rows(names, current).unwrap();
        let streamed = learner.fit_all().unwrap();
        let batch = fit_all_parameters(&vars, &dag, &data, opts).unwrap();
        for (s, b) in streamed.iter().zip(batch.iter()) {
            let m = cpd_movement(s, b);
            assert!(m <= 1e-9, "streaming vs batch moved by {m}");
        }
    }

    #[test]
    fn window_shrunk_to_two_rows_matches_batch() {
        // 64 rows in, 62 out: the Gram left behind is the residue of 126
        // adds and subtracts, and its refit must still match a batch fit
        // over the 2 surviving rows.
        let vars = vec![Variable::continuous("a"), Variable::continuous("b")];
        let dag = chain_dag(2);
        let rows = linear_rows(64, 0)
            .into_iter()
            .map(|r| vec![r[0], r[1]])
            .collect::<Vec<_>>();
        let opts = ParamOptions::default();
        let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
        for row in &rows {
            learner.insert_row(row).unwrap();
        }
        for row in &rows[..62] {
            learner.evict_row(row).unwrap();
        }
        let data = Dataset::from_rows(vec!["a".into(), "b".into()], rows[62..].to_vec()).unwrap();
        let batch = fit_linear_gaussian(1, &[0], &data).unwrap();
        match learner.fit_node(1).unwrap() {
            Cpd::LinearGaussian(lg) => {
                assert!((lg.intercept() - batch.intercept()).abs() <= 1e-9);
                assert!((lg.coeffs()[0] - batch.coeffs()[0]).abs() <= 1e-9);
                assert!((lg.variance() - batch.variance()).abs() <= 1e-9);
            }
            other => panic!("unexpected family {other:?}"),
        }
    }

    #[test]
    fn singular_grams_take_the_ridge_and_match_batch() {
        // `c` regresses on `a` and `b`, where `b` is first exactly
        // collinear with `a` and then a constant: either way the design
        // columns of `c`'s family are dependent, its Gram is singular, and
        // the refit takes the ridge fallback as the batch path does. Each
        // window is checked as filled and again after a 20-row slide.
        let vars = vec![
            Variable::continuous("a"),
            Variable::continuous("b"),
            Variable::continuous("c"),
        ];
        let mut dag = Dag::new(3);
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 2).unwrap();
        let names: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        let opts = ParamOptions::default();
        // What a CPD predicts for `row`, identifiable or not.
        fn mean_and_variance(cpd: &Cpd, row: &[f64]) -> (f64, f64) {
            let Cpd::LinearGaussian(lg) = cpd else {
                panic!("unexpected family {cpd:?}");
            };
            let parents: Vec<f64> = lg.parents().iter().map(|&p| row[p]).collect();
            (lg.mean_given(&parents), lg.variance())
        }
        for collinear in [true, false] {
            let case = if collinear { "b = 2a" } else { "b = 0.3" };
            let rows: Vec<Vec<f64>> = linear_rows(80, 0)
                .into_iter()
                .map(|r| vec![r[0], if collinear { 2.0 * r[0] } else { 0.3 }, r[2]])
                .collect();
            let mut learner = StreamingLearner::new(&vars, &dag, opts).unwrap();
            for row in &rows[..60] {
                learner.insert_row(row).unwrap();
            }
            for slide in [0, 20] {
                for (old, new) in rows[..slide].iter().zip(&rows[60..60 + slide]) {
                    learner.insert_row(new).unwrap();
                    learner.evict_row(old).unwrap();
                }
                let FamilyStats::Gaussian(stats) = &learner.families[2] else {
                    panic!("continuous child keeps Gaussian statistics");
                };
                assert!(
                    Cholesky::factor(&stats.gram).is_err(),
                    "{case}, slide {slide}: the Gram must be singular"
                );
                let window = &rows[slide..60 + slide];
                let data = Dataset::from_rows(names.clone(), window.to_vec()).unwrap();
                let batch = fit_all_parameters(&vars, &dag, &data, opts).unwrap();
                let streamed = learner.fit_all().unwrap();
                for (node, (s, b)) in streamed.iter().zip(&batch).enumerate() {
                    let context = format!("{case}, slide {slide}, node {node}");
                    for row in window {
                        let (ms, vs) = mean_and_variance(s, row);
                        let (mb, vb) = mean_and_variance(b, row);
                        assert!(
                            (ms - mb).abs() <= 1e-9 && (vs - vb).abs() <= 1e-9,
                            "{context}: predicts ({ms}, {vs}), batch ({mb}, {vb})"
                        );
                    }
                    // Known gap: with a constant `b` the intercept and `b`'s
                    // weight are not identifiable, and the tiny ridge splits
                    // them by the Gram's last-ulp rounding, which a slide
                    // changes. Here they land 2.8e-9 from batch while the
                    // predictions above still agree.
                    if !collinear && slide > 0 && node == 2 {
                        continue;
                    }
                    let m = cpd_movement(s, b);
                    assert!(m <= 1e-9, "{context}: moved {m:e} from batch");
                }
            }
        }
    }

    #[test]
    fn movement_metric_distinguishes_families() {
        let t = Cpd::Tabular(TabularCpd::uniform(0, vec![], 2, vec![]));
        let g = Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0));
        assert_eq!(cpd_movement(&t, &t), 0.0);
        assert_eq!(cpd_movement(&g, &g), 0.0);
        assert!(cpd_movement(&t, &g).is_infinite());
    }
}
