//! Decomposable structure scores.
//!
//! K2 needs a *family score* `score(child, parents | data)` that decomposes
//! over nodes. We provide the two the reproduction needs:
//!
//! * [`FamilyScore::K2`] — the Cooper–Herskovits Bayesian-Dirichlet score
//!   for discrete data (uniform structure prior, Dirichlet(1) parameter
//!   prior):
//!   `Σⱼ [ ln((r−1)!) − ln((Nⱼ + r − 1)!) + Σₖ ln(Nⱼₖ!) ]`
//! * [`FamilyScore::GaussianBic`] — for continuous data: the maximized
//!   linear-Gaussian log-likelihood minus the BIC penalty
//!   `(|parents| + 2)/2 · ln N`. This is what "K2 on continuous NRT-BN"
//!   means in the paper's §4 (BNT's K2 accepts a per-family scoring
//!   function; Gaussian BIC is its standard continuous instantiation).

use std::collections::BTreeMap;

use crate::dataset::Dataset;
use crate::learn::mle;
use crate::special::ln_factorial;
use crate::{BayesError, Result};

/// Which decomposable family score to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyScore {
    /// Cooper–Herskovits K2 marginal likelihood (discrete data).
    K2,
    /// Linear-Gaussian log-likelihood with BIC penalty (continuous data).
    GaussianBic,
}

/// Compute the family score of `child` with the given parent set.
///
/// `cards[i]` is the cardinality of node `i` for discrete scores (ignored
/// by `GaussianBic`). Higher is better for every score.
pub fn family_score(
    score: FamilyScore,
    child: usize,
    parents: &[usize],
    data: &Dataset,
    cards: &[usize],
) -> Result<f64> {
    match score {
        FamilyScore::K2 => k2_family_score(child, parents, data, cards),
        FamilyScore::GaussianBic => gaussian_bic_family_score(child, parents, data),
    }
}

/// Sparse per-configuration child-state counts: `config → counts[r]`.
///
/// A `BTreeMap` rather than a hash map: the scores sum floats over these
/// counts, and ordered iteration makes every family score a bit-exact pure
/// function of the data — the property the K2 memo cache and the
/// parallel-restart determinism guarantees rest on. (A `HashMap`'s
/// per-instance iteration order would add ~1e-16 noise that can flip
/// greedy near-ties between runs.)
fn sparse_counts(
    child: usize,
    parents: &[usize],
    data: &Dataset,
    cards: &[usize],
) -> Result<(usize, BTreeMap<u64, Vec<u32>>)> {
    let r = *cards.get(child).ok_or(BayesError::InvalidNode(child))?;
    if r < 1 {
        return Err(BayesError::InvalidData(format!(
            "node {child} has no discrete cardinality"
        )));
    }
    let parent_cards: Vec<usize> = parents
        .iter()
        .map(|&p| cards.get(p).copied().ok_or(BayesError::InvalidNode(p)))
        .collect::<Result<_>>()?;
    let mut counts: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for row_idx in 0..data.rows() {
        let row = data.row(row_idx);
        let mut cfg: u64 = 0;
        for (&p, &pc) in parents.iter().zip(parent_cards.iter()) {
            let s = row[p] as usize;
            if s >= pc {
                return Err(BayesError::InvalidData(format!(
                    "row {row_idx}: node {p} state {s} out of range {pc}"
                )));
            }
            cfg = cfg * pc as u64 + s as u64;
        }
        let child_state = row[child] as usize;
        if child_state >= r {
            return Err(BayesError::InvalidData(format!(
                "row {row_idx}: child state {child_state} out of range {r}"
            )));
        }
        counts.entry(cfg).or_insert_with(|| vec![0; r])[child_state] += 1;
    }
    Ok((r, counts))
}

/// Cooper–Herskovits: `Σⱼ [ln (r−1)! − ln (Nⱼ+r−1)! + Σₖ ln Nⱼₖ!]`.
///
/// Parent configurations with zero counts contribute exactly zero, so only
/// *observed* configurations are iterated — the score of a node with many
/// parents stays `O(rows)` even though its CPT would be exponential.
pub fn k2_family_score(
    child: usize,
    parents: &[usize],
    data: &Dataset,
    cards: &[usize],
) -> Result<f64> {
    let (r, counts) = sparse_counts(child, parents, data, cards)?;
    let ln_r_minus_1_fact = ln_factorial(r - 1);
    let mut total = 0.0;
    for state_counts in counts.values() {
        let nj: u32 = state_counts.iter().sum();
        total += ln_r_minus_1_fact - ln_factorial((nj as usize) + r - 1);
        for &njk in state_counts {
            total += ln_factorial(njk as usize);
        }
    }
    Ok(total)
}

/// Gaussian BIC: maximized conditional log-likelihood of `child` given the
/// parents, penalized by `(params/2)·ln N`.
pub fn gaussian_bic_family_score(child: usize, parents: &[usize], data: &Dataset) -> Result<f64> {
    let n = data.rows();
    if n == 0 {
        return Err(BayesError::InvalidData("empty dataset".into()));
    }
    let cpd = mle::fit_linear_gaussian(child, parents, data)?;
    let mut ll = 0.0;
    let mut parent_buf: Vec<f64> = Vec::with_capacity(parents.len());
    for r in 0..n {
        let row = data.row(r);
        parent_buf.clear();
        parent_buf.extend(parents.iter().map(|&p| row[p]));
        ll += cpd.log_prob(row[child], &parent_buf);
    }
    let k = cpd.parameter_count() as f64;
    Ok(ll - 0.5 * k * (n as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dataset where `c` copies `p` exactly (strong dependence) and `q` is
    /// an independent coin.
    fn dependent_data() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..40 {
            let p = (i % 2) as f64;
            let q = ((i / 2) % 2) as f64;
            rows.push(vec![p, q, p]);
        }
        Dataset::from_rows(vec!["p".into(), "q".into(), "c".into()], rows).unwrap()
    }

    #[test]
    fn k2_prefers_the_true_parent() {
        let data = dependent_data();
        let cards = [2, 2, 2];
        let with_p = k2_family_score(2, &[0], &data, &cards).unwrap();
        let with_q = k2_family_score(2, &[1], &data, &cards).unwrap();
        let with_none = k2_family_score(2, &[], &data, &cards).unwrap();
        assert!(with_p > with_none, "{with_p} vs {with_none}");
        assert!(with_p > with_q, "{with_p} vs {with_q}");
        // Irrelevant parent should not beat no parent (complexity cost).
        assert!(with_q <= with_none, "{with_q} vs {with_none}");
    }

    #[test]
    fn k2_score_matches_hand_computation_on_tiny_case() {
        // Single binary variable, no parents, counts (2 ones, 1 zero):
        // score = ln( (r−1)! · Π N_k! / (N + r − 1)! )
        //       = ln( 1!·(1!·2!) / 4! ) = ln(2/24).
        let data =
            Dataset::from_rows(vec!["x".into()], vec![vec![0.0], vec![1.0], vec![1.0]]).unwrap();
        let got = k2_family_score(0, &[], &data, &[2]).unwrap();
        let want = (2.0f64 / 24.0).ln();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn gaussian_bic_prefers_true_parent_and_penalizes_noise() {
        // c = 3·p + ripple; q independent.
        let mut rows = Vec::new();
        for i in 0..60 {
            let p = (i as f64 * 0.37).sin() * 2.0;
            let q = (i as f64 * 0.77).cos() * 2.0;
            let ripple = if i % 2 == 0 { 0.02 } else { -0.02 };
            rows.push(vec![p, q, 3.0 * p + ripple]);
        }
        let data = Dataset::from_rows(vec!["p".into(), "q".into(), "c".into()], rows).unwrap();
        let with_p = gaussian_bic_family_score(2, &[0], &data).unwrap();
        let with_q = gaussian_bic_family_score(2, &[1], &data).unwrap();
        let with_none = gaussian_bic_family_score(2, &[], &data).unwrap();
        let with_both = gaussian_bic_family_score(2, &[0, 1], &data).unwrap();
        assert!(with_p > with_none);
        assert!(with_p > with_q);
        // Adding the irrelevant q on top of p must not pay off its penalty.
        assert!(with_both < with_p);
    }

    #[test]
    fn family_score_dispatch() {
        let data = dependent_data();
        let cards = [2, 2, 2];
        assert!(family_score(FamilyScore::K2, 2, &[0], &data, &cards).is_ok());
        assert!(family_score(FamilyScore::GaussianBic, 2, &[0], &data, &cards).is_ok());
    }

    #[test]
    fn invalid_states_are_reported() {
        let data = Dataset::from_rows(vec!["x".into(), "y".into()], vec![vec![0.0, 7.0]]).unwrap();
        assert!(k2_family_score(1, &[0], &data, &[2, 2]).is_err());
        assert!(k2_family_score(0, &[1], &data, &[2, 2]).is_err());
    }
}
