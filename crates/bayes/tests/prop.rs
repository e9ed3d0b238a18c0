//! Property-based tests for the Bayesian-network engine.

#![allow(clippy::needless_range_loop)] // index loops over coupled structures

use kert_bayes::compile::JunctionTree;
use kert_bayes::cpd::{
    config_count, config_index, decode_config, Cpd, DetNoise, DeterministicCpd, TabularCpd,
};
use kert_bayes::discretize::{ColumnBins, Discretizer};
use kert_bayes::infer::factor::{naive as naive_factor, Factor, QueryWorkspace};
use kert_bayes::infer::ve::{
    naive as naive_ve, posterior_marginal, posterior_marginal_pruned, posterior_marginal_with,
    EliminationHeuristic, Evidence,
};
use kert_bayes::learn::mle::{fit_tabular, ParamOptions};
use kert_bayes::{BayesianNetwork, Dag, Dataset, Expr, Variable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a normalized probability row of length `n`.
fn prob_row(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        for x in &mut v {
            *x /= s;
        }
        v
    })
}

/// Build a factor over the masked subset of a variable universe, reading
/// its table from the front of `pool`. An all-false mask yields an
/// empty-scope (single-value) factor; card-1 variables yield degenerate
/// strides; cards 2..5 give inner runs of 1..625 — never a multiple of
/// the 8-lane chunk width unless by accident.
fn masked_factor(universe_cards: &[usize], mask: &[bool], pool: &[f64]) -> Factor {
    let vars: Vec<usize> = (0..universe_cards.len()).filter(|&i| mask[i]).collect();
    let cards: Vec<usize> = vars.iter().map(|&i| universe_cards[i]).collect();
    let len: usize = cards.iter().product();
    Factor::new(vars, cards, pool[..len].to_vec()).unwrap()
}

/// `prop_assert!`-friendly bitwise comparison of two factors.
fn factor_bits(f: &Factor) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (
        f.vars().to_vec(),
        f.cards().to_vec(),
        f.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Strategy: a random expression over up to `n_vars` variables, depth ≤ 3.
fn expr(n_vars: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..n_vars).prop_map(Expr::Var),
        (-3.0f64..3.0).prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Expr::Add),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Expr::Max),
            proptest::collection::vec((0.1f64..2.0, inner), 1..4).prop_map(Expr::Weighted),
        ]
    })
}

/// Discrete Eq. 4 over the network nodes `parents`: `f` is `e` (over
/// parent positions) plus the sum of the parents, so each parent is read;
/// parent `p`'s states stand for the midpoints `0.5, 1.5, …`, and the
/// child's `card` states split the range at the integers `1, 2, …`.
fn eq4(child: usize, parents: &[usize], e: &Expr, leak: f64, card: usize, cards: &[usize]) -> Cpd {
    let f = Expr::Add(vec![
        e.remap(&|i| parents[i % parents.len()]),
        Expr::sum_of_vars(parents),
    ]);
    let noise = DetNoise::Discrete {
        leak,
        card,
        child_edges: (1..card).map(|k| k as f64).collect(),
        parent_mids: parents
            .iter()
            .map(|&p| (0..cards[p]).map(|s| s as f64 + 0.5).collect())
            .collect(),
    };
    Cpd::Deterministic(DeterministicCpd::from_network_expr(child, &f, noise).unwrap())
}

/// `kert_conformance::gen::random_discrete_network(seed)` plus a discrete
/// deterministic-with-leak sink over the nodes `mask` picks (at least one).
/// With `inner`, a deterministic node with a tabular child comes first
/// (both among the sink's candidate parents), so a deterministic CPD that
/// is not a sink shares the tree. Returns the network and the sink.
fn with_eq4_sink(
    seed: u64,
    mask: &[bool],
    e: &Expr,
    leak: f64,
    inner: bool,
) -> (BayesianNetwork, usize) {
    let base = kert_conformance::gen::random_discrete_network(seed);
    let n = base.len();
    let mut vars = base.variables().to_vec();
    let mut cpds = base.cpds().to_vec();
    let mut cards: Vec<usize> = vars.iter().map(|v| v.cardinality().unwrap()).collect();
    if inner {
        let parents = [0, n - 1];
        cpds.push(eq4(n, &parents, e, 0.1, 3, &cards));
        vars.push(Variable::discrete("inner", 3));
        cards.push(3);
        cpds.push(Cpd::Tabular(
            TabularCpd::new(
                n + 1,
                vec![n],
                2,
                vec![3],
                vec![0.7, 0.3, 0.4, 0.6, 0.2, 0.8],
            )
            .unwrap(),
        ));
        vars.push(Variable::discrete("inner_child", 2));
        cards.push(2);
    }
    let sink = vars.len();
    let mut parents: Vec<usize> = (0..sink).filter(|&v| mask[v % mask.len()]).collect();
    if parents.is_empty() {
        parents.push(sink - 1);
    }
    cpds.push(eq4(sink, &parents, e, leak, 4, &cards));
    vars.push(Variable::discrete("sink", 4));
    let mut dag = Dag::new(vars.len());
    for cpd in &cpds {
        for &p in cpd.parents() {
            dag.add_edge(p, cpd.child()).unwrap();
        }
    }
    (BayesianNetwork::new(vars, dag, cpds).unwrap(), sink)
}

/// `network` plus an isolated binary root, which shares no clique tree with
/// any other node. Returns the network and the root.
fn with_isolated_root(network: &BayesianNetwork) -> (BayesianNetwork, usize) {
    let root = network.len();
    let mut vars = network.variables().to_vec();
    vars.push(Variable::discrete("isolated", 2));
    let mut cpds = network.cpds().to_vec();
    cpds.push(Cpd::Tabular(
        TabularCpd::new(root, vec![], 2, vec![], vec![0.35, 0.65]).unwrap(),
    ));
    let mut dag = Dag::new(vars.len());
    for cpd in &cpds {
        for &p in cpd.parents() {
            dag.add_edge(p, cpd.child()).unwrap();
        }
    }
    (BayesianNetwork::new(vars, dag, cpds).unwrap(), root)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn config_index_is_a_bijection(
        cards in proptest::collection::vec(2usize..5, 1..4),
    ) {
        let total = config_count(&cards);
        let mut seen = vec![false; total];
        let mut states = vec![0usize; cards.len()];
        for idx in 0..total {
            decode_config(idx, &cards, &mut states);
            let back = config_index(&states, &cards);
            prop_assert_eq!(back, idx);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
    }

    #[test]
    fn cpt_rows_always_normalize(
        rows in proptest::collection::vec(prob_row(3), 4),
    ) {
        let table: Vec<f64> = rows.into_iter().flatten().collect();
        let cpt = TabularCpd::new(1, vec![0], 3, vec![4], table).unwrap();
        for j in 0..4 {
            let s: f64 = (0..3).map(|k| cpt.prob(k, &[j])).sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn learned_cpt_reproduces_sample_frequencies(
        states in proptest::collection::vec((0usize..2, 0usize..3), 30..120),
    ) {
        let rows: Vec<Vec<f64>> = states
            .iter()
            .map(|&(p, c)| vec![p as f64, c as f64])
            .collect();
        let data = Dataset::from_rows(vec!["p".into(), "c".into()], rows).unwrap();
        let cpt = fit_tabular(1, &[0], &data, &[2, 3], ParamOptions { dirichlet_alpha: 0.0 })
            .unwrap();
        for p in 0..2usize {
            let total = states.iter().filter(|&&(pp, _)| pp == p).count();
            if total == 0 { continue; }
            for c in 0..3usize {
                let count = states.iter().filter(|&&(pp, cc)| pp == p && cc == c).count();
                let expect = count as f64 / total as f64;
                prop_assert!((cpt.prob(c, &[p]) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn factor_product_is_commutative(
        va in prob_row(4),
        vb in prob_row(2),
    ) {
        let fa = Factor::new(vec![0, 1], vec![2, 2], va).unwrap();
        let fb = Factor::new(vec![1], vec![2], vb).unwrap();
        let ab = fa.product(&fb);
        let ba = fb.product(&fa);
        prop_assert_eq!(ab.vars(), ba.vars());
        for (x, y) in ab.values().iter().zip(ba.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_out_order_does_not_matter(values in prob_row(8)) {
        let f = Factor::new(vec![0, 1, 2], vec![2, 2, 2], values).unwrap();
        let a = f.sum_out(0).sum_out(2);
        let b = f.sum_out(2).sum_out(0);
        prop_assert_eq!(a.vars(), b.vars());
        for (x, y) in a.values().iter().zip(b.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn marginalization_preserves_total_mass(values in prob_row(12)) {
        let f = Factor::new(vec![0, 1], vec![3, 4], values).unwrap();
        let total: f64 = f.values().iter().sum();
        let m = f.sum_out(1);
        let total_m: f64 = m.values().iter().sum();
        prop_assert!((total - total_m).abs() < 1e-12);
    }

    #[test]
    fn linear_expressions_match_their_coefficient_form(
        e in expr(4),
        point in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        if let Ok((b0, coeffs)) = e.linear_coefficients(4) {
            let direct = e.eval(&point);
            let linear: f64 = b0
                + coeffs.iter().zip(point.iter()).map(|(c, x)| c * x).sum::<f64>();
            prop_assert!(
                (direct - linear).abs() < 1e-9 * (1.0 + direct.abs()),
                "{direct} vs {linear}"
            );
        }
    }

    #[test]
    fn expr_eval_is_monotone_in_each_variable_for_positive_weights(
        e in expr(3),
        point in proptest::collection::vec(0.0f64..5.0, 3),
        bump in 0.01f64..2.0,
        which in 0usize..3,
    ) {
        // Add/Max/positive-Weighted expressions are monotone nondecreasing
        // in every variable — the property that makes "faster service ⇒
        // no worse response time" sound.
        let base = e.eval(&point);
        let mut bumped = point.clone();
        bumped[which] += bump;
        prop_assert!(e.eval(&bumped) >= base - 1e-12);
    }

    #[test]
    fn stride_product_matches_naive_oracle_on_random_factors(
        c0 in 2usize..4,
        c1 in 2usize..4,
        c2 in 2usize..4,
        raw_a in proptest::collection::vec(0.01f64..1.0, 16),
        raw_b in proptest::collection::vec(0.01f64..1.0, 16),
        overlap in proptest::bool::ANY,
    ) {
        // A over {0,1}; B over {1,2} (shared var) or {2} (disjoint scopes).
        let fa = Factor::new(vec![0, 1], vec![c0, c1], raw_a[..c0 * c1].to_vec()).unwrap();
        let fb = if overlap {
            Factor::new(vec![1, 2], vec![c1, c2], raw_b[..c1 * c2].to_vec()).unwrap()
        } else {
            Factor::new(vec![2], vec![c2], raw_b[..c2].to_vec()).unwrap()
        };
        let fast = fa.product(&fb);
        let slow = naive_factor::product(&fa, &fb);
        prop_assert_eq!(fast.vars(), slow.vars());
        prop_assert_eq!(fast.cards(), slow.cards());
        for (x, y) in fast.values().iter().zip(slow.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn stride_sum_out_and_reduce_match_naive_oracles(
        c0 in 2usize..4,
        c1 in 2usize..5,
        c2 in 2usize..4,
        raw in proptest::collection::vec(0.01f64..1.0, 48),
        which in 0usize..3,
        state in 0usize..2,
    ) {
        let f = Factor::new(vec![3, 7, 8], vec![c0, c1, c2], raw[..c0 * c1 * c2].to_vec())
            .unwrap();
        let var = [3, 7, 8][which];

        let fast = f.sum_out(var);
        let slow = naive_factor::sum_out(&f, var);
        prop_assert_eq!(fast.vars(), slow.vars());
        for (x, y) in fast.values().iter().zip(slow.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
        let owned = f.clone().sum_out_owned(var);
        for (x, y) in owned.values().iter().zip(slow.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }

        let fast_r = f.reduce(var, state);
        let slow_r = naive_factor::reduce(&f, var, state);
        prop_assert_eq!(fast_r.vars(), slow_r.vars());
        for (x, y) in fast_r.values().iter().zip(slow_r.values().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn min_fill_ve_matches_default_order_ve_and_the_naive_path(
        rows_s in proptest::collection::vec(prob_row(2), 2),
        rows_r in proptest::collection::vec(prob_row(2), 2),
        rows_w in proptest::collection::vec(prob_row(2), 4),
        p_c in 0.1f64..0.9,
        observe_wet in proptest::bool::ANY,
        target in 0usize..3,
    ) {
        // Random-CPT sprinkler-shaped network; every ordering heuristic and
        // the pre-optimization greedy path must produce the same marginals.
        let vars = vec![
            Variable::discrete("c", 2),
            Variable::discrete("s", 2),
            Variable::discrete("r", 2),
            Variable::discrete("w", 2),
        ];
        let mut dag = Dag::new(4);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 3).unwrap();
        dag.add_edge(2, 3).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![1.0 - p_c, p_c]).unwrap()),
            Cpd::Tabular(TabularCpd::new(
                1, vec![0], 2, vec![2], rows_s.concat(),
            ).unwrap()),
            Cpd::Tabular(TabularCpd::new(
                2, vec![0], 2, vec![2], rows_r.concat(),
            ).unwrap()),
            Cpd::Tabular(TabularCpd::new(
                3, vec![1, 2], 2, vec![2, 2], rows_w.concat(),
            ).unwrap()),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let mut ev = Evidence::new();
        if observe_wet {
            ev.insert(3, 1);
        }
        let reference = naive_ve::posterior_marginal(&bn, target, &ev).unwrap();
        for h in [
            EliminationHeuristic::MinFill,
            EliminationHeuristic::MinDegree,
            EliminationHeuristic::Sequential,
        ] {
            let p = posterior_marginal_with(&bn, target, &ev, h).unwrap();
            prop_assert_eq!(p.len(), reference.len());
            for (x, y) in p.iter().zip(reference.iter()) {
                prop_assert!((x - y).abs() < 1e-12, "{:?}: {} vs {}", h, x, y);
            }
        }
    }

    #[test]
    fn ve_marginals_match_sampling_frequencies(
        p_root in 0.1f64..0.9,
        p_match in 0.55f64..0.95,
        seed in 0u64..1_000,
    ) {
        // Two-node chain with parametric CPTs: exact VE vs 40k samples.
        let vars = vec![Variable::discrete("a", 2), Variable::discrete("b", 2)];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![1.0 - p_root, p_root]).unwrap()),
            Cpd::Tabular(TabularCpd::new(
                1,
                vec![0],
                2,
                vec![2],
                vec![p_match, 1.0 - p_match, 1.0 - p_match, p_match],
            ).unwrap()),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let exact = posterior_marginal(&bn, 1, &Evidence::new()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40_000;
        let ones = (0..n).filter(|_| bn.sample_row(&mut rng)[1] == 1.0).count();
        let freq = ones as f64 / n as f64;
        prop_assert!((freq - exact[1]).abs() < 0.02, "{freq} vs {}", exact[1]);
    }

    /// Compiled-engine invariant: on random discrete networks the
    /// calibrated junction-tree marginal of *every* node matches pruned VE
    /// to ≤1e-9, including after setting A∪{x} → A → A∪{x} (the
    /// incremental-invalidation path must leave no stale message behind).
    #[test]
    fn junction_tree_matches_pruned_ve_on_random_networks(
        net_seed in 0u64..400,
        query_seed in 0u64..400,
    ) {
        let bn = kert_conformance::gen::random_discrete_network(net_seed);
        let (_, evidence) = kert_conformance::gen::random_discrete_query(&bn, query_seed);
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        let pins: Vec<(usize, usize)> = evidence.iter().map(|(&k, &v)| (k, v)).collect();

        // Priors, then posteriors under the full evidence set.
        for t in 0..bn.len() {
            let got = jt.marginal(&mut st, t).unwrap();
            let want = posterior_marginal_pruned(&bn, t, &Evidence::new()).unwrap();
            for (&x, &y) in got.iter().zip(&want) {
                kert_conformance::assert_close!(x, y, 1e-9);
            }
        }
        jt.set_evidence(&mut st, &pins).unwrap();
        for t in 0..bn.len() {
            let got = jt.marginal(&mut st, t).unwrap();
            let want = posterior_marginal_pruned(&bn, t, &evidence).unwrap();
            for (&x, &y) in got.iter().zip(&want) {
                kert_conformance::assert_close!(x, y, 1e-9);
            }
        }

        // A∪{x} → A → A∪{x} for a node x outside the evidence set A:
        // after the cycle every marginal must match the evidence-only run.
        if let Some(extra) = (0..bn.len()).find(|v| !evidence.contains_key(v)) {
            let with_extra = [pins.as_slice(), &[(extra, 0)]].concat();
            jt.set_evidence(&mut st, &with_extra).unwrap();
            let _ = jt.marginal(&mut st, extra % bn.len()).unwrap();
            jt.set_evidence(&mut st, &pins).unwrap();
            for t in 0..bn.len() {
                let got = jt.marginal(&mut st, t).unwrap();
                let want = posterior_marginal_pruned(&bn, t, &evidence).unwrap();
                for (&x, &y) in got.iter().zip(&want) {
                    kert_conformance::assert_close!(x, y, 1e-9);
                }
            }
            // Re-enter and compare against a fresh, never-incremental state.
            jt.set_evidence(&mut st, &with_extra).unwrap();
            let mut fresh = jt.new_state();
            jt.set_evidence(&mut fresh, &with_extra).unwrap();
            for t in 0..bn.len() {
                let inc = jt.marginal(&mut st, t).unwrap();
                let dir = jt.marginal(&mut fresh, t).unwrap();
                prop_assert_eq!(inc, dir, "incremental path diverged on target {}", t);
            }
        }
    }

    /// Eq. 4 on a sink is compiled as a lookup, not a clique member: with
    /// the sink unpinned, pinned, and pinned again after A∪{x} → A →
    /// A∪{x} (x the sink), every marginal matches pruned VE (which builds
    /// the dense table) to ≤1e-9 and, bit for bit, a fresh state. A
    /// deterministic node with a child, when present, stays in a clique.
    #[test]
    fn eq4_sinks_match_pruned_ve_as_lookups(
        net_seed in 0u64..400,
        query_seed in 0u64..400,
        mask in proptest::collection::vec(proptest::bool::ANY, 1..10),
        e in expr(4),
        leak in prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
        inner in proptest::bool::ANY,
        state in 0usize..4,
    ) {
        let (bn, sink) = with_eq4_sink(net_seed, &mask, &e, leak, inner);
        let jt = JunctionTree::compile(&bn).unwrap();
        let scopes: Vec<&[usize]> = (0..jt.n_cliques()).map(|i| jt.clique_scope(i)).collect();
        prop_assert!(scopes.iter().all(|c| !c.contains(&sink)), "sink in {:?}", scopes);
        if inner {
            let det = sink - 2;
            prop_assert!(scopes.iter().any(|c| c.contains(&det)), "{det} in no clique");
        }
        let (_, mut evidence) = kert_conformance::gen::random_discrete_query(&bn, query_seed);
        evidence.remove(&sink);
        let pins: Vec<(usize, usize)> = evidence.iter().map(|(&k, &v)| (k, v)).collect();
        let pinned = [pins.as_slice(), &[(sink, state)]].concat();
        let mut st = jt.new_state();
        for set in [&pins, &pinned, &pins, &pinned] {
            jt.set_evidence(&mut st, set).unwrap();
            let ev: Evidence = set.iter().copied().collect();
            let mut fresh = jt.new_state();
            jt.set_evidence(&mut fresh, set).unwrap();
            for t in (0..bn.len()).filter(|t| !ev.contains_key(t)) {
                let got = jt.marginal(&mut st, t).unwrap();
                let want = posterior_marginal_pruned(&bn, t, &ev).unwrap();
                for (&x, &y) in got.iter().zip(&want) {
                    kert_conformance::assert_close!(x, y, 1e-9);
                }
                prop_assert_eq!(
                    got,
                    jt.marginal(&mut fresh, t).unwrap(),
                    "target {} under {:?}: reused state diverged", t, set
                );
            }
        }
    }

    /// A tree computes its priors once, in one pass, and keeps their bits.
    /// On the networks above plus an isolated root `x`, every
    /// evidence-free marginal lies within 1e-9 of pruned VE and is bitwise
    /// the same whether it is the first read of a fresh tree (the read
    /// that runs the pass), is read after every other node, or is read on
    /// a reused state after an A → ∅ evidence round trip. It is also
    /// bitwise the read with only `x` pinned: `x` shares no clique tree
    /// with any other node, so that read is the prior, computed through
    /// the evidence path without the cache.
    #[test]
    fn priors_are_read_once_and_keep_their_bits(
        net_seed in 0u64..400,
        query_seed in 0u64..400,
        mask in proptest::collection::vec(proptest::bool::ANY, 1..10),
        e in expr(4),
        leak in prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
        inner in proptest::bool::ANY,
    ) {
        let (bn, _) = with_eq4_sink(net_seed, &mask, &e, leak, inner);
        let (bn, x) = with_isolated_root(&bn);
        let n = bn.len();
        let first: Vec<Vec<f64>> = (0..n)
            .map(|t| {
                let jt = JunctionTree::compile(&bn).unwrap();
                jt.marginal(&mut jt.new_state(), t).unwrap()
            })
            .collect();
        for (t, prior) in first.iter().enumerate() {
            let want = posterior_marginal_pruned(&bn, t, &Evidence::new()).unwrap();
            for (&a, &b) in prior.iter().zip(&want) {
                kert_conformance::assert_close!(a, b, 1e-9);
            }
        }
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        for _ in 0..2 {
            // The second sweep reads each node after every other one.
            for (t, prior) in first.iter().enumerate() {
                prop_assert_eq!(bits(&jt.marginal(&mut st, t).unwrap()), bits(prior), "node {}", t);
            }
        }
        let (_, evidence) = kert_conformance::gen::random_discrete_query(&bn, query_seed);
        let pins: Vec<(usize, usize)> = evidence.iter().map(|(&k, &v)| (k, v)).collect();
        jt.set_evidence(&mut st, &pins).unwrap();
        for t in 0..n {
            jt.marginal(&mut st, t).unwrap();
        }
        jt.set_evidence(&mut st, &[]).unwrap();
        for (t, prior) in first.iter().enumerate() {
            prop_assert_eq!(bits(&jt.marginal(&mut st, t).unwrap()), bits(prior), "node {} after A → ∅", t);
        }
        jt.set_evidence(&mut st, &[(x, 1)]).unwrap();
        for (t, prior) in first.iter().enumerate().filter(|&(t, _)| t != x) {
            prop_assert_eq!(bits(&jt.marginal(&mut st, t).unwrap()), bits(prior), "node {} with x pinned", t);
        }
    }

    /// Discretization invariant 1: bin boundaries are strictly increasing
    /// (so every state is reachable) and every training point maps to a
    /// valid state whose representative lies inside the training range.
    #[test]
    fn bin_edges_are_monotone_and_every_point_lands_in_a_bin(
        values in proptest::collection::vec(-50.0f64..50.0, 10..80),
        bins in 2usize..7,
    ) {
        let cb = ColumnBins::fit(&values, bins).unwrap();
        prop_assert_eq!(cb.bins(), bins);
        prop_assert_eq!(cb.edges.len(), bins - 1);
        for w in cb.edges.windows(2) {
            prop_assert!(w[1] > w[0], "edges not strictly increasing: {:?}", cb.edges);
        }
        for &v in &values {
            let s = cb.state(v);
            prop_assert!(s < bins, "value {v} mapped to state {s} of {bins}");
        }
        // `state` is monotone in the value, and representatives stay in the
        // observed range (they are within-bin training means).
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for w in sorted.windows(2) {
            prop_assert!(cb.state(w[0]) <= cb.state(w[1]));
        }
        for s in 0..bins {
            let m = cb.midpoint(s);
            prop_assert!(m >= cb.lo && m <= cb.hi, "midpoint {m} outside [{}, {}]", cb.lo, cb.hi);
        }
    }

    /// Discretization invariant 2: the full discretize → CPT → likelihood
    /// pipeline is bit-for-bit deterministic across two independent runs on
    /// the same data — no iteration-order or accumulation nondeterminism.
    #[test]
    fn discretize_cpt_likelihood_pipeline_is_deterministic(
        raw in proptest::collection::vec((0.0f64..10.0, 0.0f64..5.0), 30..80),
        bins in 2usize..5,
    ) {
        let rows: Vec<Vec<f64>> = raw.iter().map(|&(a, b)| vec![a, 0.5 * a + b]).collect();
        let run = || {
            let data =
                Dataset::from_rows(vec!["x".into(), "d".into()], rows.clone()).unwrap();
            let disc = Discretizer::fit(&data, bins).unwrap();
            let states = disc.transform(&data).unwrap();
            let cpt = fit_tabular(
                1,
                &[0],
                &states,
                &[bins, bins],
                ParamOptions { dirichlet_alpha: 0.5 },
            )
            .unwrap();
            let ll: f64 = (0..states.rows())
                .map(|r| {
                    let row = states.row(r);
                    cpt.prob(row[1] as usize, &[row[0] as usize]).ln()
                })
                .sum();
            (disc, cpt, ll)
        };
        let (d1, c1, l1) = run();
        let (d2, c2, l2) = run();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(l1.to_bits(), l2.to_bits(), "likelihood differs: {l1} vs {l2}");
        prop_assert_eq!(bits(c1.table()), bits(c2.table()));
        for c in 0..2 {
            prop_assert_eq!(bits(&d1.column(c).edges), bits(&d2.column(c).edges));
            prop_assert_eq!(bits(&d1.column(c).midpoints), bits(&d2.column(c).midpoints));
        }
    }
}

// Kernel-equivalence properties for the lane-chunked stride kernels: the
// determinism contract says every element-wise kernel is *bitwise* equal
// to the per-entry naive reference (no reassociation), across arbitrary
// scopes and strides — empty scopes, card-1 (single-row) tables, and inner
// runs that are not multiples of the 8-wide lane chunk.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_product_is_bitwise_equal_to_the_reference_on_random_scopes(
        universe in proptest::collection::vec(1usize..=5, 0..5),
        mask_a in proptest::collection::vec(proptest::bool::ANY, 4),
        mask_b in proptest::collection::vec(proptest::bool::ANY, 4),
        pool_a in proptest::collection::vec(0.01f64..2.0, 640),
        pool_b in proptest::collection::vec(0.01f64..2.0, 640),
    ) {
        let fa = masked_factor(&universe, &mask_a[..universe.len()], &pool_a);
        let fb = masked_factor(&universe, &mask_b[..universe.len()], &pool_b);

        let slow = naive_factor::product(&fa, &fb);
        let fast = fa.product(&fb);
        prop_assert_eq!(factor_bits(&fast), factor_bits(&slow));

        // The workspace variant and the in-place subset absorb must agree
        // bit-for-bit with the fresh-allocation path.
        let mut ws = QueryWorkspace::new();
        let fast_ws = fa.product_ws(&fb, &mut ws);
        prop_assert_eq!(factor_bits(&fast_ws), factor_bits(&slow));
        if fb.vars().iter().all(|v| fa.vars().contains(v)) {
            let mut absorbed = fa.clone();
            prop_assert!(absorbed.mul_assign_ws(&fb, &mut ws));
            prop_assert_eq!(factor_bits(&absorbed), factor_bits(&slow));
        }

        // Symmetric scopes: same table either way (values commute).
        let ba = fb.product(&fa);
        prop_assert_eq!(factor_bits(&ba), factor_bits(&slow));
    }

    #[test]
    fn lane_sum_out_and_reduce_are_bitwise_equal_on_random_scopes(
        universe in proptest::collection::vec(1usize..=5, 1..5),
        mask in proptest::collection::vec(proptest::bool::ANY, 4),
        pool in proptest::collection::vec(0.01f64..2.0, 640),
        which in 0usize..4,
        state_pick in 0usize..8,
    ) {
        let f = masked_factor(&universe, &mask[..universe.len()], &pool);
        prop_assume!(!f.vars().is_empty());
        let pos = which % f.vars().len();
        let var = f.vars()[pos];
        let card = f.cards()[pos];

        // sum_out: positive inputs, eliminated states added ascending —
        // identical association to the reference, so bitwise equal.
        let slow = naive_factor::sum_out(&f, var);
        prop_assert_eq!(factor_bits(&f.sum_out(var)), factor_bits(&slow));
        let mut ws = QueryWorkspace::new();
        prop_assert_eq!(factor_bits(&f.sum_out_ws(var, &mut ws)), factor_bits(&slow));
        prop_assert_eq!(
            factor_bits(&f.clone().sum_out_owned(var)),
            factor_bits(&slow)
        );
        prop_assert_eq!(
            factor_bits(&f.clone().sum_out_owned_ws(var, &mut ws)),
            factor_bits(&slow)
        );

        // reduce: pure block copies, bitwise by construction.
        let state = state_pick % card;
        let slow_r = naive_factor::reduce(&f, var, state);
        prop_assert_eq!(factor_bits(&f.reduce(var, state)), factor_bits(&slow_r));
        prop_assert_eq!(
            factor_bits(&f.reduce_ws(var, state, &mut ws)),
            factor_bits(&slow_r)
        );
    }
}
