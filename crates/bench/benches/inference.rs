//! Kernel benchmarks for the inference hot path: factor combination and
//! variable elimination, each measured against its pre-optimization
//! implementation (`naive` modules) — the before/after pair committed to
//! `BENCH_perf.json`.
//!
//! * `factor_product` — stride/odometer product vs per-entry decode/encode
//!   on eDiaMoND-shaped factors (scope overlap, mixed cardinalities);
//! * `factor_sum_out` — linear scatter pass vs decode + inner state sweep;
//! * `ve_query` — a dComp-style posterior on the discrete eDiaMoND
//!   KERT-BN: min-fill ordering + stride kernels vs greedy per-step
//!   ordering + naive kernels;
//! * `junction_tree` — the compiled engine: one-time compilation cost,
//!   steady-state calibrated marginal reads, and a 10-query dComp-style
//!   batch against re-running per-query VE from scratch.

use kert_bayes::compile::JunctionTree;
use kert_bayes::infer::factor::{naive as naive_factor, Factor};
use kert_bayes::infer::ve::{self, naive as naive_ve, Evidence};
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_bench::timing::{before_after, bench, merge_bench_perf};
use kert_core::{DiscreteKertOptions, KertBn};
use serde::Value;
use std::hint::black_box;

/// eDiaMoND-shaped factor pair: the response-node factor over four parents
/// (card 5 each) times an upstream family factor sharing two of them.
fn factor_pair() -> (Factor, Factor) {
    let cards_a = [5usize, 5, 5, 5, 5];
    let len_a: usize = cards_a.iter().product();
    let a = Factor::new(
        vec![0, 1, 2, 3, 6],
        cards_a.to_vec(),
        (0..len_a).map(|i| 1.0 + (i % 17) as f64 * 0.25).collect(),
    )
    .unwrap();
    let cards_b = [5usize, 5, 5];
    let len_b: usize = cards_b.iter().product();
    let b = Factor::new(
        vec![1, 3, 4],
        cards_b.to_vec(),
        (0..len_b).map(|i| 0.5 + (i % 11) as f64 * 0.125).collect(),
    )
    .unwrap();
    (a, b)
}

fn main() {
    println!("== inference kernels ==");
    let (fa, fb) = factor_pair();

    let product_before = bench("factor_product/naive", || {
        naive_factor::product(black_box(&fa), black_box(&fb))
    });
    let product_after = bench("factor_product/stride", || {
        black_box(&fa).product(black_box(&fb))
    });

    let big = fa.product(&fb);
    let sum_before = bench("factor_sum_out/naive", || {
        naive_factor::sum_out(black_box(&big), 3)
    });
    let sum_after = bench("factor_sum_out/stride", || black_box(&big).sum_out(3));

    // Discrete eDiaMoND model, dComp-style query: response time observed in
    // its top bin plus two upstream services, posterior of the hidden X4.
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(1200, 1, 1);
    let model =
        KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default()).unwrap();
    let bn = model.network();
    let d_node = model.d_node();
    let mut evidence = Evidence::new();
    evidence.insert(0, 2);
    evidence.insert(1, 2);
    evidence.insert(d_node, 4);

    let ve_before = bench("ve_query/naive_greedy", || {
        naive_ve::posterior_marginal(black_box(bn), 3, black_box(&evidence)).unwrap()
    });
    let ve_after = bench("ve_query/minfill_stride", || {
        ve::posterior_marginal(black_box(bn), 3, black_box(&evidence)).unwrap()
    });
    let ve_pruned = bench("ve_query/minfill_stride_pruned", || {
        ve::posterior_marginal_pruned(black_box(bn), 3, black_box(&evidence)).unwrap()
    });

    // Sanity: the two paths must agree before their times are comparable.
    let p_naive = naive_ve::posterior_marginal(bn, 3, &evidence).unwrap();
    let p_fast = ve::posterior_marginal(bn, 3, &evidence).unwrap();
    for (a, b) in p_fast.iter().zip(p_naive.iter()) {
        assert!((a - b).abs() < 1e-12, "optimized VE diverged from naive VE");
    }

    // Compiled junction tree on the same model. Compilation is the one-time
    // cost a control period amortizes; the calibrated-marginal read is the
    // steady-state query with evidence already propagated.
    let jt_compile = bench("jt/compile", || {
        JunctionTree::compile(black_box(bn)).unwrap()
    });
    let tree = JunctionTree::compile(bn).unwrap();
    let pins: Vec<(usize, usize)> = evidence.iter().map(|(&n, &s)| (n, s)).collect();
    let mut calibrated = tree.new_state();
    tree.set_evidence(&mut calibrated, &pins).unwrap();
    tree.marginal(&mut calibrated, 3).unwrap(); // calibrate once
    let jt_marginal = bench("jt/calibrated_marginal", || {
        tree.marginal(black_box(&mut calibrated), 3).unwrap()
    });

    // 10-query dComp-style batch: fresh evidence each control period, then
    // the posterior of every hidden service (round-robin to 10 queries).
    // Per-query VE rebuilds the factor stack from the network every time;
    // the compiled engine clears the last period's evidence, enters the
    // new set into a reusable state and reads each marginal off the
    // calibrated tree.
    let hidden: Vec<usize> = (0..bn.len())
        .filter(|n| !evidence.contains_key(n))
        .collect();
    let batch_targets: Vec<usize> = (0..10).map(|i| hidden[i % hidden.len()]).collect();
    let ve_batch = bench("batch_dcomp_10/per_query_ve", || {
        batch_targets
            .iter()
            .map(|&t| ve::posterior_marginal(black_box(bn), t, black_box(&evidence)).unwrap())
            .collect::<Vec<_>>()
    });
    let mut batch_state = tree.new_state();
    let jt_batch = bench("batch_dcomp_10/junction_tree", || {
        tree.set_evidence(&mut batch_state, &[]).unwrap();
        tree.set_evidence(&mut batch_state, &pins).unwrap();
        batch_targets
            .iter()
            .map(|&t| tree.marginal(black_box(&mut batch_state), t).unwrap())
            .collect::<Vec<_>>()
    });

    // Sanity: the compiled engine must agree with VE on every batch query.
    for &t in &batch_targets {
        let want = ve::posterior_marginal(bn, t, &evidence).unwrap();
        let got = tree.marginal(&mut batch_state, t).unwrap();
        for (a, b) in got.iter().zip(want.iter()) {
            assert!((a - b).abs() < 1e-9, "junction tree diverged from VE");
        }
    }

    merge_bench_perf(
        "inference",
        Value::Map(vec![
            (
                "factor_product".into(),
                before_after(&product_before, &product_after),
            ),
            (
                "factor_sum_out".into(),
                before_after(&sum_before, &sum_after),
            ),
            ("ve_query".into(), before_after(&ve_before, &ve_after)),
            ("ve_query_pruned_ns".into(), Value::Num(ve_pruned.median_ns)),
        ]),
    );
    merge_bench_perf(
        "junction_tree",
        Value::Map(vec![
            ("jt_compile_ns".into(), Value::Num(jt_compile.median_ns)),
            (
                "jt_calibrated_marginal_ns".into(),
                Value::Num(jt_marginal.median_ns),
            ),
            (
                "jt_batch_dcomp_ns".into(),
                before_after(&ve_batch, &jt_batch),
            ),
        ]),
    );
}
