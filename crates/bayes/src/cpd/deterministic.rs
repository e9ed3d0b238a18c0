//! Deterministic CPDs with leak — the paper's Eq. 4.
//!
//! ```text
//! P(D = f(𝕏) | 𝕏) = 1 − l
//! P(D ≠ f(𝕏) | 𝕏) = l
//! ```
//!
//! The function `f` comes from the workflow (never from data), which is the
//! core cost saving of KERT-BN: the one CPD whose learning cost is
//! exponential in the number of parents is generated instead of learned.
//!
//! Two noise models realize the "leak":
//! * **Discrete** child: the predicted state receives mass `1 − l`; the
//!   remaining `l` is spread uniformly over the other states. Parent state
//!   indices are mapped to representative values (bin midpoints) before
//!   evaluating `f`, and `f(X)` is discretized back through the child's bin
//!   edges.
//! * **Continuous** child: Gaussian measurement noise around `f(X)` —
//!   `D ~ N(f(X), σ²)`. The paper's §4 experiments set `l = 0`, which here
//!   corresponds to σ at the numeric floor.
//!
//! A discrete child's predicted state depends only on the parent
//! configuration, so [`DeterministicCpd::predicted_states`] evaluates `f`
//! once per configuration, the first time the CPD is tabulated or compiled,
//! and keeps the result: a junction tree recompiled after a refresh (which
//! replaces only the learned CPDs) reads the index instead of evaluating
//! `f` again, and shares it rather than copying it. The index is derived
//! data and is never persisted.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cpd::config_count;
use crate::cpd::linear_gaussian::{standard_normal, VARIANCE_FLOOR};
use crate::expr::Expr;
use crate::variable::Variable;
use crate::{BayesError, Result};

const LN_2PI: f64 = 1.8378770664093453;

/// Noise model attached to the deterministic function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DetNoise {
    /// Continuous child with Gaussian measurement noise of std-dev `sigma`.
    Gaussian {
        /// Noise standard deviation (floored at √[`VARIANCE_FLOOR`]).
        sigma: f64,
    },
    /// Discrete child over `card` states with leak probability `leak`.
    Discrete {
        /// Leak probability `l ∈ [0, 1)`.
        leak: f64,
        /// Child cardinality.
        card: usize,
        /// Interior bin edges of the child (length `card − 1`, ascending):
        /// `f(X)` falls in bin `#edges below it`.
        child_edges: Vec<f64>,
        /// Representative value (bin midpoint) per state per parent,
        /// aligned with the CPD's parent list.
        parent_mids: Vec<Vec<f64>>,
    },
}

/// A deterministic-with-leak CPD (Eq. 4 of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeterministicCpd {
    child: usize,
    parents: Vec<usize>,
    /// `f`, re-indexed so `Var(k)` refers to `parents[k]`.
    local_expr: Expr,
    noise: DetNoise,
    /// Discrete noise: the predicted child state per parent configuration
    /// over the midpoint counts, filled on first use.
    #[serde(skip)]
    predicted: PredictedStates,
}

/// The lazily filled predicted-state index, shared by every clone of the
/// CPD and every junction tree compiled from it. Its `Debug` output names
/// only its length, so a 5⁶-entry table never lands in a failure message.
#[derive(Clone, Default)]
struct PredictedStates(OnceLock<Arc<[u32]>>);

impl fmt::Debug for PredictedStates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(states) => write!(f, "<{} predicted states>", states.len()),
            None => f.write_str("<not tabulated>"),
        }
    }
}

/// Eq. 4's masses for a `card`-state child with leak `leak`: `(hit, miss)`,
/// the predicted state's and each other state's, both floored at 1e-12 so
/// every log and every factor entry stays finite and positive. The one
/// place the leak model is evaluated: [`DeterministicCpd::log_prob`], the
/// dense factor and the junction tree's lookup form all read it.
fn leak_masses(leak: f64, card: usize) -> (f64, f64) {
    (
        (1.0 - leak).max(1e-12),
        (leak / (card as f64 - 1.0)).max(1e-12),
    )
}

/// The discrete-noise checks shared by construction and load-time
/// validation (everything that needs no network context).
fn check_noise(noise: &DetNoise, n_parents: usize) -> Result<()> {
    let DetNoise::Discrete {
        leak,
        card,
        child_edges,
        parent_mids,
    } = noise
    else {
        return Ok(());
    };
    if !(0.0..1.0).contains(leak) {
        return Err(BayesError::InvalidCpd(format!("leak {leak} out of [0,1)")));
    }
    if *card < 2 {
        return Err(BayesError::InvalidCpd(
            "discrete child needs ≥ 2 states".into(),
        ));
    }
    if child_edges.len() + 1 != *card {
        return Err(BayesError::InvalidCpd(format!(
            "{} edges for cardinality {card}",
            child_edges.len()
        )));
    }
    if !child_edges.is_sorted() {
        return Err(BayesError::InvalidCpd(
            "child bin edges are not ascending".into(),
        ));
    }
    if parent_mids.len() != n_parents {
        return Err(BayesError::InvalidCpd(format!(
            "{} parent midpoint vectors for {n_parents} parents",
            parent_mids.len(),
        )));
    }
    if parent_mids.iter().any(Vec::is_empty) {
        return Err(BayesError::InvalidCpd("a parent has no midpoints".into()));
    }
    Ok(())
}

impl DeterministicCpd {
    /// Build from an expression over *network* node indices.
    ///
    /// The parent set is inferred from the expression's variables; the
    /// expression is re-indexed to parent-local positions internally.
    pub fn from_network_expr(child: usize, expr: &Expr, noise: DetNoise) -> Result<Self> {
        let parents = expr.variables();
        if parents.contains(&child) {
            return Err(BayesError::InvalidCpd(format!(
                "deterministic CPD for node {child} reads its own value"
            )));
        }
        check_noise(&noise, parents.len())?;
        // Re-index Var(network idx) → Var(position in parent list).
        let local_expr = expr.remap(&|i| {
            parents
                .binary_search(&i)
                .expect("expression variable missing from its own parent list")
        });
        Ok(DeterministicCpd {
            child,
            parents,
            local_expr,
            noise,
            predicted: PredictedStates::default(),
        })
    }

    /// Re-run construction's checks on a CPD that bypassed
    /// [`DeterministicCpd::from_network_expr`] (a deserialized one),
    /// changing nothing: the noise model is well formed, every expression
    /// variable names a parent, and with discrete noise each parent has one
    /// midpoint per state of its variable in `variables`.
    pub(crate) fn validate(&self, variables: &[Variable]) -> Result<()> {
        check_noise(&self.noise, self.parents.len())?;
        if let Some(&v) = self.local_expr.variables().last() {
            if v >= self.parents.len() {
                return Err(BayesError::InvalidCpd(format!(
                    "expression reads parent {v} of {}",
                    self.parents.len()
                )));
            }
        }
        if let DetNoise::Discrete { parent_mids, .. } = &self.noise {
            for (&p, mids) in self.parents.iter().zip(parent_mids) {
                if variables[p].cardinality() != Some(mids.len()) {
                    return Err(BayesError::InvalidCpd(format!(
                        "parent {p} has {} midpoints for {:?} states",
                        mids.len(),
                        variables[p].cardinality()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Node index of the child.
    pub fn child(&self) -> usize {
        self.child
    }

    /// Sorted parent node indices.
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// The deterministic function, indexed over parent positions.
    pub fn local_expr(&self) -> &Expr {
        &self.local_expr
    }

    /// The noise model.
    pub fn noise(&self) -> &DetNoise {
        &self.noise
    }

    /// Evaluate `f` on parent values (continuous) or state indices
    /// (discrete; mapped through bin midpoints first).
    pub fn predict(&self, parent_values: &[f64]) -> f64 {
        match &self.noise {
            DetNoise::Gaussian { .. } => self.local_expr.eval(parent_values),
            DetNoise::Discrete { parent_mids, .. } => {
                let mids: Vec<f64> = parent_values
                    .iter()
                    .zip(parent_mids.iter())
                    .map(|(&s, mids)| {
                        let idx = (s as usize).min(mids.len().saturating_sub(1));
                        mids[idx]
                    })
                    .collect();
                self.local_expr.eval(&mids)
            }
        }
    }

    /// For a discrete child: the state `f` predicts for every parent
    /// configuration, row-major over the parents' midpoint counts (last
    /// parent fastest). `f` is evaluated on the first call only; later
    /// calls, on this CPD or a clone made after it, read the index, and a
    /// holder that outlives the CPD (a compiled tree) clones the `Arc`
    /// rather than the states. `None` for Gaussian noise.
    pub fn predicted_states(&self) -> Option<&Arc<[u32]>> {
        let DetNoise::Discrete {
            child_edges,
            parent_mids,
            ..
        } = &self.noise
        else {
            return None;
        };
        let states = self.predicted.0.get_or_init(|| {
            let cards: Vec<usize> = parent_mids.iter().map(Vec::len).collect();
            let total = config_count(&cards);
            let mut states = Vec::with_capacity(total);
            let mut config = vec![0usize; cards.len()];
            let mut mids = vec![0.0; cards.len()];
            for _ in 0..total {
                for ((m, mids_k), &s) in mids.iter_mut().zip(parent_mids).zip(&config) {
                    *m = mids_k[s];
                }
                let v = self.local_expr.eval(&mids);
                states.push(child_edges.iter().take_while(|&&e| v >= e).count() as u32);
                for (p, &card) in cards.iter().enumerate().rev() {
                    config[p] += 1;
                    if config[p] < card {
                        break;
                    }
                    config[p] = 0;
                }
            }
            states.into()
        });
        Some(states)
    }

    /// Eq. 4's `(hit, miss)` masses, when the noise is discrete and agrees
    /// with `cards` (cardinality per network node): the child has `card`
    /// states and each parent one midpoint per state, so the predicted
    /// states index the parents' configurations. `None` otherwise. Reads
    /// no index, so a caller can decide on the lookup form before paying
    /// for it.
    pub(crate) fn indexed_masses(&self, cards: &[usize]) -> Option<(f64, f64)> {
        let DetNoise::Discrete {
            leak,
            card,
            parent_mids,
            ..
        } = &self.noise
        else {
            return None;
        };
        let agrees = cards.get(self.child) == Some(card)
            && parent_mids.len() == self.parents.len()
            && self
                .parents
                .iter()
                .zip(parent_mids)
                .all(|(&p, mids)| cards.get(p) == Some(&mids.len()));
        agrees.then(|| leak_masses(*leak, *card))
    }

    /// For a discrete child: the state `f(X)` lands in.
    pub fn predicted_state(&self, parent_values: &[f64]) -> Option<usize> {
        match &self.noise {
            DetNoise::Gaussian { .. } => None,
            DetNoise::Discrete { child_edges, .. } => {
                let v = self.predict(parent_values);
                Some(child_edges.iter().take_while(|&&e| v >= e).count())
            }
        }
    }

    /// Log probability / density of `child_value` given parent values.
    pub fn log_prob(&self, child_value: f64, parent_values: &[f64]) -> f64 {
        match &self.noise {
            DetNoise::Gaussian { sigma } => {
                let var = (sigma * sigma).max(VARIANCE_FLOOR);
                let d = child_value - self.predict(parent_values);
                -0.5 * (LN_2PI + var.ln() + d * d / var)
            }
            DetNoise::Discrete { leak, card, .. } => {
                let predicted = self
                    .predicted_state(parent_values)
                    .expect("discrete noise always predicts a state");
                // Leak mass spread uniformly over the other states.
                let (hit, miss) = leak_masses(*leak, *card);
                let p = if child_value as usize == predicted {
                    hit
                } else {
                    miss
                };
                p.ln()
            }
        }
    }

    /// Sample a child value: `f(X)` plus noise (continuous), or the
    /// predicted state with probability `1 − l` and a uniform other state
    /// otherwise (discrete).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, parent_values: &[f64]) -> f64 {
        match &self.noise {
            DetNoise::Gaussian { sigma } => {
                self.predict(parent_values) + sigma.max(0.0) * standard_normal(rng)
            }
            DetNoise::Discrete { leak, card, .. } => {
                let predicted = self
                    .predicted_state(parent_values)
                    .expect("discrete noise always predicts a state");
                if rng.gen::<f64>() < *leak {
                    // Uniform over the other card−1 states.
                    let mut s = rng.gen_range(0..card - 1);
                    if s >= predicted {
                        s += 1;
                    }
                    s as f64
                } else {
                    predicted as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// D = X0 + max(X1, X2) over network nodes 0,1,2; child is node 3.
    fn cont_cpd(sigma: f64) -> DeterministicCpd {
        let expr = Expr::Add(vec![
            Expr::Var(0),
            Expr::Max(vec![Expr::Var(1), Expr::Var(2)]),
        ]);
        DeterministicCpd::from_network_expr(3, &expr, DetNoise::Gaussian { sigma }).unwrap()
    }

    #[test]
    fn parents_inferred_from_expression() {
        let cpd = cont_cpd(0.1);
        assert_eq!(cpd.parents(), &[0, 1, 2]);
        assert_eq!(cpd.child(), 3);
    }

    #[test]
    fn predict_evaluates_f() {
        let cpd = cont_cpd(0.1);
        assert_eq!(cpd.predict(&[1.0, 5.0, 3.0]), 6.0);
        assert_eq!(cpd.predict(&[1.0, 2.0, 9.0]), 10.0);
    }

    #[test]
    fn log_prob_peaks_at_prediction() {
        let cpd = cont_cpd(0.5);
        let at = cpd.log_prob(6.0, &[1.0, 5.0, 3.0]);
        let off = cpd.log_prob(7.0, &[1.0, 5.0, 3.0]);
        assert!(at > off);
    }

    #[test]
    fn self_reference_rejected() {
        let expr = Expr::Var(3);
        assert!(
            DeterministicCpd::from_network_expr(3, &expr, DetNoise::Gaussian { sigma: 0.1 })
                .is_err()
        );
    }

    fn disc_cpd(leak: f64) -> DeterministicCpd {
        // D = X0 + X1, both parents with 2 states and midpoints {1, 3};
        // child has 3 states with edges at 3.0 and 5.0:
        // sums: 1+1=2→state0, 1+3=4→state1, 3+3=6→state2.
        let expr = Expr::Add(vec![Expr::Var(0), Expr::Var(1)]);
        DeterministicCpd::from_network_expr(
            2,
            &expr,
            DetNoise::Discrete {
                leak,
                card: 3,
                child_edges: vec![3.0, 5.0],
                parent_mids: vec![vec![1.0, 3.0], vec![1.0, 3.0]],
            },
        )
        .unwrap()
    }

    #[test]
    fn discrete_prediction_bins_correctly() {
        let cpd = disc_cpd(0.0);
        assert_eq!(cpd.predicted_state(&[0.0, 0.0]), Some(0));
        assert_eq!(cpd.predicted_state(&[0.0, 1.0]), Some(1));
        assert_eq!(cpd.predicted_state(&[1.0, 1.0]), Some(2));
    }

    #[test]
    fn discrete_leak_splits_probability() {
        let cpd = disc_cpd(0.2);
        // Predicted state 1 for (0, 1): P = 0.8; others 0.1 each.
        let lp_pred = cpd.log_prob(1.0, &[0.0, 1.0]);
        let lp_other = cpd.log_prob(0.0, &[0.0, 1.0]);
        assert!((lp_pred - 0.8f64.ln()).abs() < 1e-9);
        assert!((lp_other - 0.1f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn zero_leak_log_prob_is_floored_not_infinite() {
        let cpd = disc_cpd(0.0);
        assert!(cpd.log_prob(0.0, &[0.0, 1.0]).is_finite());
    }

    #[test]
    fn discrete_sampling_respects_leak() {
        let cpd = disc_cpd(0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 30_000;
        let hits = (0..n)
            .filter(|_| cpd.sample(&mut rng, &[0.0, 1.0]) == 1.0)
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn continuous_sampling_centers_on_f() {
        let cpd = cont_cpd(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(cpd.sample(&mut rng, &[1.0, 5.0, 3.0]), 6.0);
    }

    /// The predicted-state index is derived data: filling it leaves the
    /// CPD's JSON as it was (no index key), and a deserialized copy, which
    /// starts with an empty index, rebuilds the same factor bit for bit.
    #[test]
    fn the_predicted_state_index_is_never_persisted() {
        use crate::cpd::Cpd;
        use crate::infer::factor::Factor;
        let cpd = Cpd::Deterministic(disc_cpd(0.2));
        let cards = [2usize, 2, 3];
        let before = serde_json::to_string(&cpd).unwrap();
        let Cpd::Deterministic(d) = &cpd else {
            unreachable!()
        };
        assert!(format!("{d:?}").contains("<not tabulated>"));
        let filled = Factor::from_cpd(&cpd, &cards).unwrap();
        assert!(format!("{d:?}").contains("<4 predicted states>"));
        assert_eq!(
            d.predicted_states().map(|s| &s[..]),
            Some(&[0, 1, 1, 2][..])
        );
        let after = serde_json::to_string(&cpd).unwrap();
        assert_eq!(before, after);
        assert!(!after.contains("predicted"), "{after}");

        let copy: Cpd = serde_json::from_str(&after).unwrap();
        assert!(format!("{copy:?}").contains("<not tabulated>"));
        let rebuilt = Factor::from_cpd(&copy, &cards).unwrap();
        let bits = |f: &Factor| f.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&filled));
    }

    #[test]
    fn validation_of_discrete_noise() {
        let expr = Expr::Var(0);
        let bad_leak = DetNoise::Discrete {
            leak: 1.5,
            card: 2,
            child_edges: vec![0.0],
            parent_mids: vec![vec![0.0, 1.0]],
        };
        assert!(DeterministicCpd::from_network_expr(1, &expr, bad_leak).is_err());
        let bad_edges = DetNoise::Discrete {
            leak: 0.1,
            card: 3,
            child_edges: vec![0.0],
            parent_mids: vec![vec![0.0, 1.0]],
        };
        assert!(DeterministicCpd::from_network_expr(1, &expr, bad_edges).is_err());
        let empty_mids = DetNoise::Discrete {
            leak: 0.1,
            card: 2,
            child_edges: vec![0.5],
            parent_mids: vec![vec![]],
        };
        assert!(DeterministicCpd::from_network_expr(1, &expr, empty_mids).is_err());
        let descending = DetNoise::Discrete {
            leak: 0.1,
            card: 3,
            child_edges: vec![1.0, 0.5],
            parent_mids: vec![vec![0.0, 1.0]],
        };
        assert!(DeterministicCpd::from_network_expr(1, &expr, descending).is_err());
    }
}
