//! Conditional probability distributions.
//!
//! Three CPD families cover everything in the paper:
//!
//! * [`TabularCpd`] — discrete child, discrete parents; the classic CPT.
//!   Learning one with `n` discrete parents costs `O(mⁿ)` table entries —
//!   exactly the cost the KERT-BN construction avoids for the response-time
//!   node.
//! * [`LinearGaussianCpd`] — continuous child, continuous parents:
//!   `X ~ N(b₀ + Σ bₖ·paₖ, σ²)`. The paper's continuous models (§4).
//! * [`DeterministicCpd`] — the knowledge-derived CPD of Eq. 4: the child is
//!   a deterministic function of its parents up to a "leak" probability
//!   (discrete) or measurement noise (continuous). Never learned from data;
//!   generated from the workflow.
//!
//! All three are wrapped in the [`Cpd`] enum so networks can hold mixed
//! families, dispatch statically, and stay `Send + Sync` for decentralized
//! learning.

mod deterministic;
mod linear_gaussian;
mod tabular;

pub use deterministic::{DetNoise, DeterministicCpd};
pub use linear_gaussian::{LinearGaussianCpd, VARIANCE_FLOOR};
pub use tabular::TabularCpd;
pub(crate) use tabular::PROB_FLOOR;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A conditional probability distribution for one network node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Cpd {
    /// Discrete conditional probability table.
    Tabular(TabularCpd),
    /// Conditional linear Gaussian.
    LinearGaussian(LinearGaussianCpd),
    /// Workflow-derived deterministic function with leak/noise (Eq. 4).
    Deterministic(DeterministicCpd),
}

impl Cpd {
    /// Node index this CPD belongs to.
    pub fn child(&self) -> usize {
        match self {
            Cpd::Tabular(c) => c.child(),
            Cpd::LinearGaussian(c) => c.child(),
            Cpd::Deterministic(c) => c.child(),
        }
    }

    /// Parent node indices, sorted ascending (must match the DAG).
    pub fn parents(&self) -> &[usize] {
        match self {
            Cpd::Tabular(c) => c.parents(),
            Cpd::LinearGaussian(c) => c.parents(),
            Cpd::Deterministic(c) => c.parents(),
        }
    }

    /// Log probability (discrete) or log density (continuous) of
    /// `child_value` given parent values.
    ///
    /// `parent_values[k]` corresponds to `parents()[k]`; discrete values are
    /// state indices stored as `f64`.
    pub fn log_prob(&self, child_value: f64, parent_values: &[f64]) -> f64 {
        match self {
            Cpd::Tabular(c) => c.log_prob(child_value, parent_values),
            Cpd::LinearGaussian(c) => c.log_prob(child_value, parent_values),
            Cpd::Deterministic(c) => c.log_prob(child_value, parent_values),
        }
    }

    /// Draw a child value given parent values.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, parent_values: &[f64]) -> f64 {
        match self {
            Cpd::Tabular(c) => c.sample(rng, parent_values),
            Cpd::LinearGaussian(c) => c.sample(rng, parent_values),
            Cpd::Deterministic(c) => c.sample(rng, parent_values),
        }
    }
}

/// Mixed-radix index of a discrete parent configuration.
///
/// `states[k]` is the state of parent `k`, `cards[k]` its cardinality; the
/// last parent varies fastest. Shared by CPTs, factors and scores so all
/// indexing agrees.
#[inline]
pub fn config_index(states: &[usize], cards: &[usize]) -> usize {
    debug_assert_eq!(states.len(), cards.len());
    let mut idx = 0usize;
    for (&s, &c) in states.iter().zip(cards.iter()) {
        debug_assert!(s < c, "state {s} out of range for cardinality {c}");
        idx = idx * c + s;
    }
    idx
}

/// Inverse of [`config_index`]: decode a configuration index into states.
pub fn decode_config(mut idx: usize, cards: &[usize], out: &mut [usize]) {
    debug_assert_eq!(cards.len(), out.len());
    for k in (0..cards.len()).rev() {
        out[k] = idx % cards[k];
        idx /= cards[k];
    }
}

/// Total number of configurations for the given cardinalities.
pub fn config_count(cards: &[usize]) -> usize {
    cards.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_roundtrip() {
        let cards = [3, 2, 4];
        let mut states = [0usize; 3];
        for idx in 0..config_count(&cards) {
            decode_config(idx, &cards, &mut states);
            assert_eq!(config_index(&states, &cards), idx);
        }
    }

    #[test]
    fn config_count_is_product() {
        assert_eq!(config_count(&[3, 2, 4]), 24);
        assert_eq!(config_count(&[]), 1);
    }

    #[test]
    fn config_index_last_varies_fastest() {
        let cards = [2, 3];
        assert_eq!(config_index(&[0, 0], &cards), 0);
        assert_eq!(config_index(&[0, 1], &cards), 1);
        assert_eq!(config_index(&[1, 0], &cards), 3);
    }
}
