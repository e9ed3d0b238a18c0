//! The K2 structure-learning algorithm (Cooper & Herskovits 1992).
//!
//! Given a node *ordering*, K2 visits each node and greedily adds the
//! predecessor that most improves the family score, stopping when no
//! addition helps or the parent cap is reached. The paper's complexity
//! remark — "even greedy algorithms like K2 need to explore O((n+1)²)
//! possibilities" — is this predecessor scan; it is the cost that makes the
//! NRT-BN baseline superlinear in environment size (Figure 4) while
//! KERT-BN, which skips structure learning entirely, stays flat.
//!
//! Because the true ordering is unknown to the baseline, the paper runs K2
//! repeatedly with *random orderings* and keeps the best-scoring result
//! (§5.3); [`k2_with_random_restarts`] implements that loop.
//!
//! Two optimizations ride on top of the textbook algorithm, both
//! result-identical to the sequential original:
//!
//! - a **family-score memo cache** keyed `(node, parent set)` shared across
//!   the greedy scan and across restarts — different random orderings
//!   re-evaluate the same families constantly, and the score of a family
//!   does not depend on the ordering that proposed it;
//! - **parallel restarts** on scoped threads. The winner is picked *after*
//!   collection, in restart order (earliest wins on equal score), so the
//!   structure and every score are independent of thread count and
//!   scheduling.
//!
//! A single search runs on the caller's thread: spawning threads at every
//! greedy step to score a handful of candidates cost more than it saved on
//! a 2-vCPU host (DESIGN §8).

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;
use crate::graph::Dag;
use crate::learn::score::{family_score, FamilyScore};
use crate::Result;

/// Options for a K2 search.
#[derive(Debug, Clone, Copy)]
pub struct K2Options {
    /// Family score to maximize.
    pub score: FamilyScore,
    /// Maximum number of parents per node (K2's `u` bound).
    pub max_parents: usize,
}

impl Default for K2Options {
    fn default() -> Self {
        K2Options {
            score: FamilyScore::K2,
            max_parents: 4,
        }
    }
}

/// Result of a K2 search: the structure and its total score.
#[derive(Debug, Clone)]
pub struct K2Result {
    /// The learned DAG.
    pub dag: Dag,
    /// Sum of family scores over all nodes (higher is better).
    pub total_score: f64,
    /// Number of *logical* family-score lookups (the cost driver the
    /// paper's Figure 4 measures indirectly through wall-clock time). A
    /// lookup served from the memo cache still counts here.
    pub evaluations: usize,
    /// Distinct families scored (cache misses). The gap to
    /// `evaluations` is work the memo cache saved. Two restart threads
    /// can both score one family before either caches it; that counts
    /// once, so the figure repeats from run to run.
    pub cache_misses: usize,
}

/// Shared memo cache for family scores, keyed `(node, sorted parent set)`.
/// The score of a family depends only on the data, so one cache serves the
/// whole greedy scan and every restart.
struct ScoreCache {
    map: Mutex<HashMap<(usize, Vec<usize>), f64>>,
    misses: AtomicUsize,
}

impl ScoreCache {
    fn new() -> Self {
        ScoreCache {
            map: Mutex::new(HashMap::new()),
            misses: AtomicUsize::new(0),
        }
    }

    fn score(
        &self,
        kind: FamilyScore,
        node: usize,
        parents: &[usize],
        data: &Dataset,
        cards: &[usize],
    ) -> Result<f64> {
        let key = (node, parents.to_vec());
        if let Some(&s) = self.map.lock().expect("score cache not poisoned").get(&key) {
            return Ok(s);
        }
        let s = family_score(kind, node, parents, data, cards)?;
        // Another restart may have scored this family while the lock was
        // released. Scores are pure, so both values carry the same bits:
        // keep the first and count one miss per family.
        match self
            .map
            .lock()
            .expect("score cache not poisoned")
            .entry(key)
        {
            Entry::Occupied(first) => Ok(*first.get()),
            Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(*slot.insert(s))
            }
        }
    }
}

/// Run K2 with a fixed node ordering.
///
/// `cards[i]` is the cardinality of node `i` (ignored for
/// [`FamilyScore::GaussianBic`]). Columns of `data` are in node order.
pub fn k2_search(
    ordering: &[usize],
    data: &Dataset,
    cards: &[usize],
    options: K2Options,
) -> Result<K2Result> {
    k2_search_cached(ordering, data, cards, options, &ScoreCache::new())
}

fn k2_search_cached(
    ordering: &[usize],
    data: &Dataset,
    cards: &[usize],
    options: K2Options,
    cache: &ScoreCache,
) -> Result<K2Result> {
    let mut dag = Dag::new(data.columns());
    let mut total_score = 0.0;
    let mut evaluations = 0usize;

    for (pos, &node) in ordering.iter().enumerate() {
        let predecessors = &ordering[..pos];
        let mut parents: Vec<usize> = Vec::new();
        let mut best = cache.score(options.score, node, &parents, data, cards)?;
        evaluations += 1;

        while parents.len() < options.max_parents {
            // Score every remaining predecessor as the next addition, in
            // predecessor order; strictly-greater wins, so the earliest
            // candidate keeps a tie.
            let mut best_add: Option<(usize, f64)> = None;
            for cand in predecessors.iter().copied() {
                if parents.contains(&cand) {
                    continue;
                }
                let mut trial = parents.clone();
                // Keep the parent list sorted — the DAG and CPDs expect it.
                let ins = trial.binary_search(&cand).unwrap_err();
                trial.insert(ins, cand);
                let s = cache.score(options.score, node, &trial, data, cards)?;
                evaluations += 1;
                if s > best && best_add.is_none_or(|(_, bs)| s > bs) {
                    best_add = Some((cand, s));
                }
            }
            match best_add {
                Some((cand, s)) => {
                    let ins = parents.binary_search(&cand).unwrap_err();
                    parents.insert(ins, cand);
                    best = s;
                }
                None => break,
            }
        }

        for &p in &parents {
            dag.add_edge(p, node)
                .expect("K2 only adds ordering-respecting edges, which cannot cycle");
        }
        total_score += best;
    }

    Ok(K2Result {
        dag,
        total_score,
        evaluations,
        cache_misses: cache.misses.load(Ordering::Relaxed),
    })
}

/// Run K2 `restarts` times with uniformly random orderings and keep the
/// best-scoring structure — the paper's §5.3 optimization for NRT-BN.
///
/// All orderings are drawn from `rng` up front (so the stream of random
/// numbers is identical to the sequential loop), then the restarts run on
/// scoped worker threads against one shared score cache. The winner is the
/// strictly best score, lowest restart index on a tie — independent of
/// thread count.
pub fn k2_with_random_restarts<R: Rng + ?Sized>(
    data: &Dataset,
    cards: &[usize],
    options: K2Options,
    restarts: usize,
    rng: &mut R,
) -> Result<K2Result> {
    assert!(restarts >= 1, "need at least one restart");
    let n = data.columns();
    let mut ordering: Vec<usize> = (0..n).collect();
    let orderings: Vec<Vec<usize>> = (0..restarts)
        .map(|_| {
            ordering.shuffle(rng);
            ordering.clone()
        })
        .collect();

    let cache = ScoreCache::new();
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let results: Vec<Result<K2Result>> = if workers > 1 && restarts > 1 {
        let mut slots: Vec<Option<Result<K2Result>>> = (0..restarts).map(|_| None).collect();
        let chunk = restarts.div_ceil(workers.min(restarts));
        let orderings = &orderings;
        let cache = &cache;
        std::thread::scope(|scope| {
            for (ci, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                scope.spawn(move || {
                    for (off, slot) in chunk_slots.iter_mut().enumerate() {
                        *slot = Some(k2_search_cached(
                            &orderings[start + off],
                            data,
                            cards,
                            options,
                            cache,
                        ));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every restart chunk is processed"))
            .collect()
    } else {
        orderings
            .iter()
            .map(|o| k2_search_cached(o, data, cards, options, &cache))
            .collect()
    };

    let mut best: Option<K2Result> = None;
    let mut total_evals = 0usize;
    for result in results {
        let result = result?;
        total_evals += result.evaluations;
        if best
            .as_ref()
            .is_none_or(|b| result.total_score > b.total_score)
        {
            best = Some(result);
        }
    }
    let mut best = best.expect("restarts >= 1");
    best.evaluations = total_evals;
    best.cache_misses = cache.misses.load(Ordering::Relaxed);
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{Cpd, TabularCpd};
    use crate::network::BayesianNetwork;
    use crate::variable::Variable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ground truth: 0 → 1 → 2 (binary chain with strong links).
    fn chain_data(rows: usize, seed: u64) -> Dataset {
        let vars = vec![
            Variable::discrete("a", 2),
            Variable::discrete("b", 2),
            Variable::discrete("c", 2),
        ];
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(1, 2).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.5]).unwrap()),
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 2, vec![2], vec![0.9, 0.1, 0.1, 0.9]).unwrap(),
            ),
            Cpd::Tabular(
                TabularCpd::new(2, vec![1], 2, vec![2], vec![0.85, 0.15, 0.15, 0.85]).unwrap(),
            ),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        bn.sample_dataset(&mut rng, rows)
    }

    #[test]
    fn k2_recovers_the_chain_given_the_true_ordering() {
        let data = chain_data(1_000, 42);
        let result = k2_search(&[0, 1, 2], &data, &[2, 2, 2], K2Options::default()).unwrap();
        assert!(result.dag.has_edge(0, 1), "edges: {:?}", result.dag);
        assert!(result.dag.has_edge(1, 2), "edges: {:?}", result.dag);
        // The chain explains the data; 0 → 2 shouldn't be needed on top.
        assert!(result.dag.edges().count() <= 3);
    }

    #[test]
    fn k2_respects_the_ordering() {
        let data = chain_data(500, 7);
        let result = k2_search(&[2, 1, 0], &data, &[2, 2, 2], K2Options::default()).unwrap();
        // Edges may only point from later-positioned to earlier-positioned
        // nodes of the data-generating chain — never 0→1 or 1→2 here.
        assert!(!result.dag.has_edge(0, 1));
        assert!(!result.dag.has_edge(1, 2));
        // Dependence is still captured, in reversed orientation.
        assert!(result.dag.has_edge(1, 0) || result.dag.has_edge(2, 1));
    }

    #[test]
    fn max_parents_bound_is_enforced() {
        let data = chain_data(300, 3);
        let opts = K2Options {
            score: FamilyScore::K2,
            max_parents: 1,
        };
        let result = k2_search(&[0, 1, 2], &data, &[2, 2, 2], opts).unwrap();
        for node in 0..3 {
            assert!(result.dag.parents(node).len() <= 1);
        }
    }

    #[test]
    fn random_restarts_never_lose_to_a_single_run() {
        let data = chain_data(400, 11);
        let opts = K2Options::default();
        let mut rng = StdRng::seed_from_u64(5);
        let multi = k2_with_random_restarts(&data, &[2, 2, 2], opts, 10, &mut rng).unwrap();
        let mut rng2 = StdRng::seed_from_u64(5);
        let single = k2_with_random_restarts(&data, &[2, 2, 2], opts, 1, &mut rng2).unwrap();
        assert!(multi.total_score >= single.total_score);
        assert!(multi.evaluations > single.evaluations);
    }

    #[test]
    fn evaluation_count_grows_with_nodes() {
        // The O(n²) scan the paper calls out: more nodes, more evaluations.
        let small = chain_data(200, 1);
        let r_small = k2_search(&[0, 1, 2], &small, &[2, 2, 2], K2Options::default()).unwrap();

        // Widen to 6 columns by duplicating (independent copies suffice for
        // counting evaluations).
        let mut rows = Vec::new();
        for r in 0..small.rows() {
            let row = small.row(r);
            rows.push(vec![row[0], row[1], row[2], row[0], row[1], row[2]]);
        }
        let names = (0..6).map(|i| format!("v{i}")).collect();
        let big = Dataset::from_rows(names, rows).unwrap();
        let r_big = k2_search(&[0, 1, 2, 3, 4, 5], &big, &[2; 6], K2Options::default()).unwrap();
        assert!(r_big.evaluations > 2 * r_small.evaluations);
    }

    #[test]
    fn gaussian_k2_finds_continuous_dependence() {
        // b = 2a + ripple, c independent.
        let mut rows = Vec::new();
        for i in 0..200 {
            let a = (i as f64 * 0.13).sin() * 3.0;
            let c = (i as f64 * 0.41).cos() * 3.0;
            let ripple = if i % 2 == 0 { 0.05 } else { -0.05 };
            rows.push(vec![a, 2.0 * a + ripple, c]);
        }
        let data = Dataset::from_rows(vec!["a".into(), "b".into(), "c".into()], rows).unwrap();
        let opts = K2Options {
            score: FamilyScore::GaussianBic,
            max_parents: 2,
        };
        let result = k2_search(&[0, 1, 2], &data, &[0, 0, 0], opts).unwrap();
        assert!(result.dag.has_edge(0, 1));
        assert!(!result.dag.has_edge(0, 2));
        assert!(!result.dag.has_edge(1, 2));
    }
}
