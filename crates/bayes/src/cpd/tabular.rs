//! Tabular CPDs (conditional probability tables) for discrete nodes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use super::{config_count, config_index};
use crate::{BayesError, Result};

/// Probability floor used when taking logs of empty table cells; prevents
/// `-∞` log-likelihoods from a single unseen test configuration.
pub(crate) const PROB_FLOOR: f64 = 1e-12;

/// Shape and normalization checks shared by [`TabularCpd::new`] and
/// load-time validation: aligned parent cardinalities, no zero
/// cardinality, one entry per (configuration, state), and every row
/// non-negative and summing to 1 within 1e-6.
fn check_table(
    parents: &[usize],
    card: usize,
    parent_cards: &[usize],
    table: &[f64],
) -> Result<()> {
    if parents.len() != parent_cards.len() {
        return Err(BayesError::InvalidCpd(format!(
            "{} parents but {} parent cardinalities",
            parents.len(),
            parent_cards.len()
        )));
    }
    if card == 0 || parent_cards.contains(&0) {
        return Err(BayesError::InvalidCpd("zero cardinality".into()));
    }
    let configs = config_count(parent_cards);
    if table.len() != configs * card {
        return Err(BayesError::InvalidCpd(format!(
            "table has {} entries, expected {}",
            table.len(),
            configs * card
        )));
    }
    for (j, row) in table.chunks_exact(card).enumerate() {
        if row.iter().any(|&p| p < 0.0) {
            return Err(BayesError::InvalidCpd(format!(
                "negative probability in config {j}"
            )));
        }
        let s: f64 = row.iter().sum();
        if (s - 1.0).abs() > 1e-6 || s.is_nan() {
            return Err(BayesError::InvalidCpd(format!(
                "config {j} sums to {s}, expected 1"
            )));
        }
    }
    Ok(())
}

/// A conditional probability table `P(child | parents)`.
///
/// Values are stored row-major by parent configuration: entry
/// `table[j * card + k]` is `P(child = k | config j)` with configurations
/// indexed by [`config_index`]. Rows always sum to 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TabularCpd {
    child: usize,
    parents: Vec<usize>,
    card: usize,
    parent_cards: Vec<usize>,
    table: Vec<f64>,
}

impl TabularCpd {
    /// Build from an explicit table. Validates shape and row normalization
    /// (within 1e-6, then renormalizes exactly).
    pub fn new(
        child: usize,
        parents: Vec<usize>,
        card: usize,
        parent_cards: Vec<usize>,
        mut table: Vec<f64>,
    ) -> Result<Self> {
        check_table(&parents, card, &parent_cards, &table)?;
        for row in table.chunks_exact_mut(card) {
            let s: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= s;
            }
        }
        Ok(TabularCpd {
            child,
            parents,
            card,
            parent_cards,
            table,
        })
    }

    /// Re-run [`TabularCpd::new`]'s checks on a CPT that bypassed it (a
    /// deserialized one). Nothing is renormalized, so a table that passes
    /// keeps its exact bits.
    pub(crate) fn validate(&self) -> Result<()> {
        check_table(&self.parents, self.card, &self.parent_cards, &self.table)
    }

    /// Uniform CPT (the zero-knowledge prior).
    pub fn uniform(
        child: usize,
        parents: Vec<usize>,
        card: usize,
        parent_cards: Vec<usize>,
    ) -> Self {
        let configs = config_count(&parent_cards);
        TabularCpd {
            child,
            parents,
            card,
            parent_cards,
            table: vec![1.0 / card as f64; configs * card],
        }
    }

    /// Maximum-likelihood / Bayesian estimate from counts.
    ///
    /// `counts[j * card + k]` is the number of instances with parent config
    /// `j` and child state `k`; `alpha` is a symmetric Dirichlet
    /// pseudo-count (`alpha = 0` gives plain MLE; unseen configs fall back
    /// to uniform).
    pub fn from_counts(
        child: usize,
        parents: Vec<usize>,
        card: usize,
        parent_cards: Vec<usize>,
        counts: &[f64],
        alpha: f64,
    ) -> Result<Self> {
        let configs = config_count(&parent_cards);
        if counts.len() != configs * card {
            return Err(BayesError::InvalidCpd(format!(
                "counts have {} entries, expected {}",
                counts.len(),
                configs * card
            )));
        }
        let mut table = vec![0.0; configs * card];
        for j in 0..configs {
            let row_counts = &counts[j * card..(j + 1) * card];
            let total: f64 = row_counts.iter().sum::<f64>() + alpha * card as f64;
            let row = &mut table[j * card..(j + 1) * card];
            if total <= 0.0 {
                row.fill(1.0 / card as f64);
            } else {
                for (t, &c) in row.iter_mut().zip(row_counts.iter()) {
                    *t = (c + alpha) / total;
                }
            }
        }
        TabularCpd::new(child, parents, card, parent_cards, table)
    }

    /// Node index of the child.
    pub fn child(&self) -> usize {
        self.child
    }

    /// Sorted parent node indices.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// Child cardinality.
    pub fn cardinality(&self) -> usize {
        self.card
    }

    /// Parent cardinalities aligned with `parents()`.
    pub fn parent_cards(&self) -> &[usize] {
        &self.parent_cards
    }

    /// The raw table (row-major by parent configuration).
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// `P(child = state | parents = states)`.
    pub fn prob(&self, state: usize, parent_states: &[usize]) -> f64 {
        let j = config_index(parent_states, &self.parent_cards);
        self.table[j * self.card + state]
    }

    /// Log probability with child/parent values passed as `f64` state
    /// indices (the [`super::Cpd`] calling convention).
    pub fn log_prob(&self, child_value: f64, parent_values: &[f64]) -> f64 {
        let state = child_value as usize;
        debug_assert!(state < self.card);
        let mut idx = 0usize;
        for (&v, &c) in parent_values.iter().zip(self.parent_cards.iter()) {
            idx = idx * c + v as usize;
        }
        self.table[idx * self.card + state].max(PROB_FLOOR).ln()
    }

    /// Sample a child state given parent state indices (as `f64`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, parent_values: &[f64]) -> f64 {
        let mut idx = 0usize;
        for (&v, &c) in parent_values.iter().zip(self.parent_cards.iter()) {
            idx = idx * c + v as usize;
        }
        let row = &self.table[idx * self.card..(idx + 1) * self.card];
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (k, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                return k as f64;
            }
        }
        (self.card - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coin_flip_cpd() -> TabularCpd {
        // P(child | parent): parent=0 → (0.9, 0.1); parent=1 → (0.2, 0.8)
        TabularCpd::new(1, vec![0], 2, vec![2], vec![0.9, 0.1, 0.2, 0.8]).unwrap()
    }

    #[test]
    fn probabilities_are_looked_up_correctly() {
        let cpd = coin_flip_cpd();
        assert!((cpd.prob(0, &[0]) - 0.9).abs() < 1e-12);
        assert!((cpd.prob(1, &[1]) - 0.8).abs() < 1e-12);
        assert!((cpd.log_prob(1.0, &[0.0]) - 0.1f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn rows_must_normalize() {
        let bad = TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.6]);
        assert!(bad.is_err());
        let neg = TabularCpd::new(0, vec![], 2, vec![], vec![1.5, -0.5]);
        assert!(neg.is_err());
    }

    #[test]
    fn shape_validation() {
        assert!(TabularCpd::new(0, vec![1], 2, vec![], vec![0.5, 0.5]).is_err());
        assert!(TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.5, 0.0]).is_err());
        assert!(TabularCpd::new(0, vec![], 0, vec![], vec![]).is_err());
    }

    #[test]
    fn from_counts_mle_and_smoothing() {
        // counts: config 0 → (3, 1); config 1 → (0, 0)
        let cpd =
            TabularCpd::from_counts(1, vec![0], 2, vec![2], &[3.0, 1.0, 0.0, 0.0], 0.0).unwrap();
        assert!((cpd.prob(0, &[0]) - 0.75).abs() < 1e-12);
        // Empty config falls back to uniform.
        assert!((cpd.prob(0, &[1]) - 0.5).abs() < 1e-12);

        let smoothed =
            TabularCpd::from_counts(1, vec![0], 2, vec![2], &[3.0, 1.0, 0.0, 0.0], 1.0).unwrap();
        assert!((smoothed.prob(0, &[0]) - 4.0 / 6.0).abs() < 1e-12);
        assert!((smoothed.prob(0, &[1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_the_table() {
        let cpd = coin_flip_cpd();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let ones = (0..n)
            .filter(|_| cpd.sample(&mut rng, &[1.0]) == 1.0)
            .count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn uniform_is_normalized() {
        let cpd = TabularCpd::uniform(0, vec![1], 4, vec![3]);
        for j in 0..3 {
            let s: f64 = (0..4).map(|k| cpd.prob(k, &[j])).sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unseen_cell_log_prob_is_floored() {
        let cpd = TabularCpd::new(0, vec![], 2, vec![], vec![1.0, 0.0]).unwrap();
        let lp = cpd.log_prob(1.0, &[]);
        assert!(lp.is_finite());
        assert!(lp <= PROB_FLOOR.ln() + 1e-9);
    }
}
