//! Variable elimination: exact posterior marginals on discrete networks.
//!
//! Standard sum-product elimination. The order is chosen up front on the
//! factor interaction graph by a min-fill heuristic (min-degree and a
//! no-heuristic sequential order are also available), then the factors are
//! combined with the stride kernels of [`crate::infer::factor`]. Exact and
//! fast for the test-bed-scale discrete KERT-BNs of §5; the continuous
//! experiments never touch this path.
//!
//! The pre-optimization path — per-step greedy smallest-combined-scope
//! ordering over the naive decode/encode kernels — survives in [`naive`]
//! as a differential oracle and the "before" side of the benchmarks.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::infer::factor::{Factor, QueryWorkspace};
use crate::network::BayesianNetwork;
use crate::{BayesError, Result};

// Query-level telemetry: one span + counter per VE posterior; the factor
// kernels underneath count their own products/sum-outs.
static OBS_VE_QUERIES: kert_obs::Counter = kert_obs::Counter::new("bayes.ve.queries");
static OBS_VE_PRUNED_QUERIES: kert_obs::Counter = kert_obs::Counter::new("bayes.ve.pruned_queries");

/// Evidence: observed node → observed state.
pub type Evidence = HashMap<usize, usize>;

/// Heuristic used to pick the variable-elimination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EliminationHeuristic {
    /// Eliminate the variable whose removal adds the fewest fill-in edges
    /// to the interaction graph (ties broken by lowest degree, then lowest
    /// node index). Near-optimal induced width on moralized KERT graphs;
    /// the default everywhere.
    #[default]
    MinFill,
    /// Eliminate the variable with the fewest live neighbours.
    MinDegree,
    /// Eliminate in ascending node order — no heuristic. The baseline for
    /// ordering benchmarks and the differential property tests.
    Sequential,
}

/// Posterior marginal `P(target | evidence)` as a probability vector over
/// the target's states. Uses the default min-fill ordering.
pub fn posterior_marginal(
    network: &BayesianNetwork,
    target: usize,
    evidence: &Evidence,
) -> Result<Vec<f64>> {
    posterior_marginal_with(network, target, evidence, EliminationHeuristic::default())
}

/// [`posterior_marginal`] with an explicit ordering heuristic. All factor
/// scratch comes from one per-query [`QueryWorkspace`], so intermediate
/// tables recycle each other's buffers.
pub fn posterior_marginal_with(
    network: &BayesianNetwork,
    target: usize,
    evidence: &Evidence,
    heuristic: EliminationHeuristic,
) -> Result<Vec<f64>> {
    OBS_VE_QUERIES.incr();
    let _span = kert_obs::span("ve.query");
    let n = network.len();
    if target >= n {
        return Err(BayesError::InvalidNode(target));
    }
    if evidence.contains_key(&target) {
        // Degenerate but well-defined: a point mass on the observed state.
        let card = network.variables()[target]
            .cardinality()
            .ok_or_else(|| BayesError::InvalidData("target is not discrete".into()))?;
        let state = evidence[&target];
        if state >= card {
            return Err(BayesError::InvalidData(format!(
                "evidence state {state} out of range for node {target}"
            )));
        }
        let mut v = vec![0.0; card];
        v[state] = 1.0;
        return Ok(v);
    }
    let cards: Vec<usize> = network
        .variables()
        .iter()
        .map(|v| v.cardinality().unwrap_or(0))
        .collect();
    if cards.contains(&0) {
        return Err(BayesError::InvalidData(
            "variable elimination requires an all-discrete network".into(),
        ));
    }
    for (&node, &state) in evidence {
        if node >= n {
            return Err(BayesError::InvalidNode(node));
        }
        if state >= cards[node] {
            return Err(BayesError::InvalidData(format!(
                "evidence state {state} out of range for node {node}"
            )));
        }
    }

    // CPDs → factors, with evidence folded in immediately.
    let ws = &mut QueryWorkspace::new();
    let mut factors: Vec<Factor> = Vec::with_capacity(n);
    for cpd in network.cpds() {
        let mut f = Factor::from_cpd(cpd, &cards)?;
        for (&node, &state) in evidence {
            let reduced = f.reduce_ws(node, state, ws);
            ws.recycle(f);
            f = reduced;
        }
        factors.push(f);
    }

    // Eliminate every hidden variable except the target.
    let to_eliminate: Vec<usize> = (0..n)
        .filter(|i| *i != target && !evidence.contains_key(i))
        .collect();
    eliminate_and_normalize(factors, to_eliminate, target, heuristic, ws)
}

/// Like [`posterior_marginal`], but first prunes *barren* nodes — nodes
/// that are neither the target, nor evidence, nor ancestors of either.
/// Their CPD factors integrate to one and cannot influence the query, so
/// skipping them shrinks the elimination problem, often drastically
/// (querying one service's elapsed time given its upstream neighbours
/// touches only that lineage, not the whole environment).
///
/// This realizes the paper's §7 direction of "employing domain knowledge
/// and decentralization techniques to reduce the cost of probability
/// assessment *after* the model is constructed": the pruned factor set for
/// a service-node query is exactly the data its monitoring agent already
/// holds.
pub fn posterior_marginal_pruned(
    network: &BayesianNetwork,
    target: usize,
    evidence: &Evidence,
) -> Result<Vec<f64>> {
    posterior_marginal_pruned_with(network, target, evidence, EliminationHeuristic::default())
}

/// [`posterior_marginal_pruned`] with an explicit ordering heuristic.
pub fn posterior_marginal_pruned_with(
    network: &BayesianNetwork,
    target: usize,
    evidence: &Evidence,
    heuristic: EliminationHeuristic,
) -> Result<Vec<f64>> {
    OBS_VE_PRUNED_QUERIES.incr();
    let _span = kert_obs::span("ve.query_pruned");
    let n = network.len();
    if target >= n {
        return Err(BayesError::InvalidNode(target));
    }
    // Relevant set: target + evidence nodes + all their ancestors.
    let mut relevant = vec![false; n];
    let mut stack: Vec<usize> = Vec::with_capacity(evidence.len() + 1);
    stack.push(target);
    stack.extend(evidence.keys().copied());
    while let Some(u) = stack.pop() {
        if u >= n {
            return Err(BayesError::InvalidNode(u));
        }
        if relevant[u] {
            continue;
        }
        relevant[u] = true;
        stack.extend_from_slice(network.dag().parents(u));
    }

    if evidence.contains_key(&target) {
        return posterior_marginal(network, target, evidence);
    }
    let cards: Vec<usize> = network
        .variables()
        .iter()
        .map(|v| v.cardinality().unwrap_or(0))
        .collect();
    if (0..n).filter(|&i| relevant[i]).any(|i| cards[i] == 0) {
        return Err(BayesError::InvalidData(
            "variable elimination requires an all-discrete network".into(),
        ));
    }
    for (&node, &state) in evidence {
        if state >= cards[node] {
            return Err(BayesError::InvalidData(format!(
                "evidence state {state} out of range for node {node}"
            )));
        }
    }

    // Factors only for relevant families (ancestor-closure guarantees every
    // parent of a relevant node is relevant, so scopes stay inside the set).
    let ws = &mut QueryWorkspace::new();
    let mut factors: Vec<Factor> = Vec::new();
    for (i, cpd) in network.cpds().iter().enumerate() {
        if !relevant[i] {
            continue;
        }
        let mut f = Factor::from_cpd(cpd, &cards)?;
        for (&node, &state) in evidence {
            let reduced = f.reduce_ws(node, state, ws);
            ws.recycle(f);
            f = reduced;
        }
        factors.push(f);
    }
    let to_eliminate: Vec<usize> = (0..n)
        .filter(|&i| relevant[i] && i != target && !evidence.contains_key(&i))
        .collect();
    eliminate_and_normalize(factors, to_eliminate, target, heuristic, ws)
}

/// Compute the full elimination order up front on the interaction graph of
/// the factor scopes. Eliminating a variable connects its surviving
/// neighbours into a clique, exactly as the factor product will; min-fill
/// picks the variable creating the fewest new edges, min-degree the one
/// with the fewest neighbours. Ties break on (cost, degree, node index) so
/// the order — and therefore every downstream float — is deterministic.
///
/// Crate-visible so the junction-tree compiler ([`crate::compile`]) can
/// triangulate with the very same heuristic and tie-breaking. It takes the
/// scopes alone, so the compiler can order a network whose tables it has
/// not built yet.
pub(crate) fn elimination_ordering<'a>(
    scopes: impl IntoIterator<Item = &'a [usize]>,
    to_eliminate: &[usize],
    heuristic: EliminationHeuristic,
) -> Vec<usize> {
    if heuristic == EliminationHeuristic::Sequential {
        let mut order = to_eliminate.to_vec();
        order.sort_unstable();
        return order;
    }
    let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for scope in scopes {
        for &a in scope {
            let entry = adj.entry(a).or_default();
            entry.extend(scope.iter().copied().filter(|&b| b != a));
        }
    }
    let mut remaining: BTreeSet<usize> = to_eliminate.iter().copied().collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut best: Option<(usize, usize, usize)> = None;
        for &v in &remaining {
            let neigh: Vec<usize> = adj
                .get(&v)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let degree = neigh.len();
            let cost = match heuristic {
                EliminationHeuristic::MinFill => {
                    let mut fill = 0usize;
                    for (i, &u) in neigh.iter().enumerate() {
                        for &w in &neigh[i + 1..] {
                            if !adj[&u].contains(&w) {
                                fill += 1;
                            }
                        }
                    }
                    fill
                }
                EliminationHeuristic::MinDegree => degree,
                EliminationHeuristic::Sequential => unreachable!("handled above"),
            };
            let key = (cost, degree, v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, v) = best.expect("remaining is non-empty");
        let neigh: Vec<usize> = adj
            .remove(&v)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for (i, &u) in neigh.iter().enumerate() {
            if let Some(s) = adj.get_mut(&u) {
                s.remove(&v);
                s.extend(neigh[i + 1..].iter().copied());
            }
            for &w in &neigh[i + 1..] {
                if let Some(s) = adj.get_mut(&w) {
                    s.insert(u);
                }
            }
        }
        remaining.remove(&v);
        order.push(v);
    }
    order
}

/// Shared tail of the elimination algorithms: order, multiply-and-sum-out
/// (in place when the eliminated variable leads the combined scope), final
/// normalization.
fn eliminate_and_normalize(
    mut factors: Vec<Factor>,
    to_eliminate: Vec<usize>,
    target: usize,
    heuristic: EliminationHeuristic,
    ws: &mut QueryWorkspace,
) -> Result<Vec<f64>> {
    for var in elimination_ordering(factors.iter().map(Factor::vars), &to_eliminate, heuristic) {
        let (with_var, without_var): (Vec<Factor>, Vec<Factor>) =
            factors.into_iter().partition(|f| f.vars().contains(&var));
        factors = without_var;
        let mut combined = Factor::unit();
        for f in with_var {
            let next = combined.product_ws(&f, ws);
            ws.recycle(combined);
            ws.recycle(f);
            combined = next;
        }
        factors.push(combined.sum_out_owned_ws(var, ws));
    }

    let mut result = Factor::unit();
    for f in factors {
        let next = result.product_ws(&f, ws);
        ws.recycle(result);
        ws.recycle(f);
        result = next;
    }
    let z = result.normalize();
    if z <= 0.0 {
        return Err(BayesError::Numerical(
            "evidence has zero probability under the model".into(),
        ));
    }
    if result.vars() != [target] {
        return Err(BayesError::Numerical(format!(
            "elimination left scope {:?}, expected [{target}]",
            result.vars()
        )));
    }
    let out = result.values().to_vec();
    ws.recycle(result);
    Ok(out)
}

/// The pre-optimization VE path, verbatim: greedy smallest-combined-scope
/// ordering recomputed at every step, over the naive decode/encode factor
/// kernels. Differential oracle and "before" benchmark side only.
pub mod naive {
    use super::{Evidence, Factor};
    use crate::infer::factor::naive as nf;
    use crate::network::BayesianNetwork;
    use crate::{BayesError, Result};

    /// Original `posterior_marginal` (greedy per-step ordering, naive
    /// kernels).
    pub fn posterior_marginal(
        network: &BayesianNetwork,
        target: usize,
        evidence: &Evidence,
    ) -> Result<Vec<f64>> {
        let n = network.len();
        if target >= n {
            return Err(BayesError::InvalidNode(target));
        }
        if evidence.contains_key(&target) {
            // Delegate the degenerate point-mass case; no kernels involved.
            return super::posterior_marginal(network, target, evidence);
        }
        let cards: Vec<usize> = network
            .variables()
            .iter()
            .map(|v| v.cardinality().unwrap_or(0))
            .collect();
        if cards.contains(&0) {
            return Err(BayesError::InvalidData(
                "variable elimination requires an all-discrete network".into(),
            ));
        }
        for (&node, &state) in evidence {
            if node >= n {
                return Err(BayesError::InvalidNode(node));
            }
            if state >= cards[node] {
                return Err(BayesError::InvalidData(format!(
                    "evidence state {state} out of range for node {node}"
                )));
            }
        }

        let mut factors: Vec<Factor> = Vec::with_capacity(n);
        for cpd in network.cpds() {
            let mut f = nf::from_cpd(cpd, &cards)?;
            for (&node, &state) in evidence {
                f = nf::reduce(&f, node, state);
            }
            factors.push(f);
        }

        let mut to_eliminate: Vec<usize> = (0..n)
            .filter(|i| *i != target && !evidence.contains_key(i))
            .collect();
        while !to_eliminate.is_empty() {
            let (pick_pos, _) = to_eliminate
                .iter()
                .enumerate()
                .map(|(pos, &var)| {
                    let mut scope: Vec<usize> = Vec::new();
                    for f in factors.iter().filter(|f| f.vars().contains(&var)) {
                        scope.extend_from_slice(f.vars());
                    }
                    scope.sort_unstable();
                    scope.dedup();
                    (pos, scope.len())
                })
                .min_by_key(|&(_, size)| size)
                .expect("to_eliminate is non-empty");
            let var = to_eliminate.swap_remove(pick_pos);

            let (with_var, without_var): (Vec<Factor>, Vec<Factor>) =
                factors.into_iter().partition(|f| f.vars().contains(&var));
            factors = without_var;
            let mut combined = Factor::unit();
            for f in with_var {
                combined = nf::product(&combined, &f);
            }
            factors.push(nf::sum_out(&combined, var));
        }

        let mut result = Factor::unit();
        for f in factors {
            result = nf::product(&result, &f);
        }
        let z = result.normalize();
        if z <= 0.0 {
            return Err(BayesError::Numerical(
                "evidence has zero probability under the model".into(),
            ));
        }
        if result.vars() != [target] {
            return Err(BayesError::Numerical(format!(
                "elimination left scope {:?}, expected [{target}]",
                result.vars()
            )));
        }
        Ok(result.values().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{Cpd, TabularCpd};
    use crate::graph::Dag;
    use crate::variable::Variable;

    /// The classic sprinkler network: Cloudy → Sprinkler, Cloudy → Rain,
    /// (Sprinkler, Rain) → WetGrass. Known exact posteriors make it the
    /// canonical correctness check.
    fn sprinkler() -> BayesianNetwork {
        let vars = vec![
            Variable::discrete("cloudy", 2),
            Variable::discrete("sprinkler", 2),
            Variable::discrete("rain", 2),
            Variable::discrete("wet", 2),
        ];
        let mut dag = Dag::new(4);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 3).unwrap();
        dag.add_edge(2, 3).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.5]).unwrap()),
            // P(S|C): C=0 → (0.5, 0.5); C=1 → (0.9, 0.1)
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 2, vec![2], vec![0.5, 0.5, 0.9, 0.1]).unwrap(),
            ),
            // P(R|C): C=0 → (0.8, 0.2); C=1 → (0.2, 0.8)
            Cpd::Tabular(
                TabularCpd::new(2, vec![0], 2, vec![2], vec![0.8, 0.2, 0.2, 0.8]).unwrap(),
            ),
            // P(W|S,R): rows ordered (S,R) = (0,0),(0,1),(1,0),(1,1)
            Cpd::Tabular(
                TabularCpd::new(
                    3,
                    vec![1, 2],
                    2,
                    vec![2, 2],
                    vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99],
                )
                .unwrap(),
            ),
        ];
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    #[test]
    fn prior_marginal_matches_enumeration() {
        let bn = sprinkler();
        // P(R=1) = 0.5·0.2 + 0.5·0.8 = 0.5.
        let p = posterior_marginal(&bn, 2, &Evidence::new()).unwrap();
        assert!((p[1] - 0.5).abs() < 1e-9, "{p:?}");
        // P(S=1) = 0.5·0.5 + 0.5·0.1 = 0.3.
        let ps = posterior_marginal(&bn, 1, &Evidence::new()).unwrap();
        assert!((ps[1] - 0.3).abs() < 1e-9, "{ps:?}");
    }

    #[test]
    fn sprinkler_posterior_given_wet_grass() {
        // Classic result: P(S=1 | W=1) ≈ 0.4298, P(R=1 | W=1) ≈ 0.7079.
        let bn = sprinkler();
        let mut ev = Evidence::new();
        ev.insert(3, 1);
        let ps = posterior_marginal(&bn, 1, &ev).unwrap();
        assert!((ps[1] - 0.4298).abs() < 1e-3, "{ps:?}");
        let pr = posterior_marginal(&bn, 2, &ev).unwrap();
        assert!((pr[1] - 0.7079).abs() < 1e-3, "{pr:?}");
    }

    #[test]
    fn explaining_away() {
        // Observing rain lowers the sprinkler posterior.
        let bn = sprinkler();
        let mut wet = Evidence::new();
        wet.insert(3, 1);
        let p_s_wet = posterior_marginal(&bn, 1, &wet).unwrap()[1];
        wet.insert(2, 1);
        let p_s_wet_rain = posterior_marginal(&bn, 1, &wet).unwrap()[1];
        assert!(p_s_wet_rain < p_s_wet, "{p_s_wet_rain} !< {p_s_wet}");
    }

    #[test]
    fn evidence_on_target_is_a_point_mass() {
        let bn = sprinkler();
        let mut ev = Evidence::new();
        ev.insert(2, 1);
        let p = posterior_marginal(&bn, 2, &ev).unwrap();
        kert_conformance::assert_dist_close!(p, [0.0, 1.0]);
    }

    #[test]
    fn invalid_evidence_is_reported() {
        let bn = sprinkler();
        let mut ev = Evidence::new();
        ev.insert(2, 9);
        assert!(posterior_marginal(&bn, 3, &ev).is_err());
        let mut ev2 = Evidence::new();
        ev2.insert(99, 0);
        assert!(posterior_marginal(&bn, 3, &ev2).is_err());
        assert!(posterior_marginal(&bn, 99, &Evidence::new()).is_err());
    }

    #[test]
    fn pruned_marginals_equal_full_marginals() {
        let bn = sprinkler();
        // Query rain given cloudy: sprinkler and wet-grass are barren.
        let mut ev = Evidence::new();
        ev.insert(0, 1);
        let full = posterior_marginal(&bn, 2, &ev).unwrap();
        let pruned = posterior_marginal_pruned(&bn, 2, &ev).unwrap();
        for (a, b) in full.iter().zip(pruned.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // With downstream evidence nothing can be pruned; results still agree.
        let mut ev2 = Evidence::new();
        ev2.insert(3, 1);
        let full2 = posterior_marginal(&bn, 1, &ev2).unwrap();
        let pruned2 = posterior_marginal_pruned(&bn, 1, &ev2).unwrap();
        for (a, b) in full2.iter().zip(pruned2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pruned_query_on_root_ignores_descendants() {
        // P(cloudy) with no evidence: the pruned run touches a single
        // factor; both must give the prior 0.5.
        let bn = sprinkler();
        let p = posterior_marginal_pruned(&bn, 0, &Evidence::new()).unwrap();
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn every_heuristic_and_the_naive_oracle_agree() {
        let bn = sprinkler();
        let mut ev = Evidence::new();
        ev.insert(3, 1);
        for target in 0..3 {
            let reference = naive::posterior_marginal(&bn, target, &ev).unwrap();
            for h in [
                EliminationHeuristic::MinFill,
                EliminationHeuristic::MinDegree,
                EliminationHeuristic::Sequential,
            ] {
                let p = posterior_marginal_with(&bn, target, &ev, h).unwrap();
                for (a, b) in p.iter().zip(reference.iter()) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{h:?} target {target}: {p:?} vs {reference:?}"
                    );
                }
                let pp = posterior_marginal_pruned_with(&bn, target, &ev, h).unwrap();
                for (a, b) in pp.iter().zip(reference.iter()) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn min_fill_ordering_defers_the_hub() {
        // Interaction graph of the sprinkler net with W observed: C–S, C–R,
        // S–R (from W's reduced factor). Eliminating C first (fill 1 on a
        // triangle: none — S–R already connected)… the key property to pin
        // is determinism and completeness, not one specific order.
        let bn = sprinkler();
        let cards = [2usize, 2, 2, 2];
        let factors: Vec<Factor> = bn
            .cpds()
            .iter()
            .map(|c| Factor::from_cpd(c, &cards).unwrap())
            .map(|f| f.reduce(3, 1))
            .collect();
        let scopes = || factors.iter().map(Factor::vars);
        let a = elimination_ordering(scopes(), &[0, 2], EliminationHeuristic::MinFill);
        let b = elimination_ordering(scopes(), &[0, 2], EliminationHeuristic::MinFill);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(&0) && a.contains(&2));
    }

    #[test]
    fn marginals_sum_to_one() {
        let bn = sprinkler();
        for target in 0..4 {
            let p = posterior_marginal(&bn, target, &Evidence::new()).unwrap();
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
