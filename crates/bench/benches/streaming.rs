//! Streaming-learning benchmarks, merged into `BENCH_perf.json` as the
//! `streaming` section.
//!
//! The claim under test: a sliding-window refresh through the
//! [`kert_core::StreamingWindow`] sufficient statistics costs `O(delta)` —
//! proportional to the rows entering/leaving — while the conventional
//! path pays a full batch relearn over the whole window every `T_CON`.
//! Measured here:
//!
//! * `update_d{1,4,16}_w1000` — one refresh cycle (insert `d` rows, evict
//!   `d` rows by capacity, refit all CPDs from the statistics) against a
//!   10³-row window;
//! * `update_d4_w4000` — the same delta against a 4× larger window: the
//!   per-update cost must track the delta, not the window;
//! * `batch_relearn_w1000` — the conventional path: `fit_all_parameters`
//!   over the full 10³-row window.
//!
//! Acceptance gate (asserted in full mode): the delta-16 refresh is ≥10×
//! cheaper than the batch relearn at a 10³-row window.

use kert_bayes::learn::mle::{fit_all_parameters, ParamOptions};
use kert_bayes::{Dag, Dataset};
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_bench::timing::{bench, merge_bench_perf, quick_mode};
use kert_core::{ContinuousKertOptions, KertBn, StreamingWindow};
use serde::Value;
use std::hint::black_box;

/// eDiaMoND continuous model plus a row pool large enough to slide any
/// window size used below.
fn setup(pool_rows: usize) -> (KertBn, Dataset) {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(pool_rows, 1, 17);
    let model = KertBn::build_continuous(&env.knowledge, &train, ContinuousKertOptions::default())
        .expect("eDiaMoND builds cleanly");
    (model, train)
}

/// One refresh cycle at delta `d`: stream `d` fresh rows through a full
/// window (each push evicts the oldest row, subtracting it from the
/// sufficient statistics) and refit every learned CPD from them.
fn bench_update(
    name: &str,
    model: &KertBn,
    pool: &Dataset,
    capacity: usize,
    delta: usize,
) -> kert_bench::timing::BenchResult {
    let mut window =
        StreamingWindow::new(model, capacity, ParamOptions::default()).expect("window");
    let mut cursor = 0usize;
    for _ in 0..capacity {
        window.push_row(pool.row(cursor % pool.rows())).unwrap();
        cursor += 1;
    }
    bench(name, move || {
        for _ in 0..delta {
            window.push_row(pool.row(cursor % pool.rows())).unwrap();
            cursor += 1;
        }
        let outcome = window.refresh_outcome(black_box(model)).unwrap();
        black_box(outcome.updates.len())
    })
}

fn main() {
    println!("== streaming ==");
    let (model, pool) = setup(1200);
    let m = model.d_node();

    let d1 = bench_update("streaming/update_d1_w1000", &model, &pool, 1000, 1);
    let d4 = bench_update("streaming/update_d4_w1000", &model, &pool, 1000, 4);
    let d16 = bench_update("streaming/update_d16_w1000", &model, &pool, 1000, 16);
    // Window-size independence: same delta, 4× the window.
    let d4_w4000 = bench_update("streaming/update_d4_w4000", &model, &pool, 4000, 4);

    // The conventional path this replaces: a full batch relearn of the
    // learned nodes over the 10³-row window.
    let vars = model.network().variables()[..m].to_vec();
    let mut dag = Dag::new(m);
    for (from, to) in model.network().dag().edges() {
        if from < m && to < m {
            dag.add_edge(from, to).unwrap();
        }
    }
    let window_cols: Vec<usize> = (0..m).collect();
    let mut window_rows = Dataset::new(
        window_cols
            .iter()
            .map(|&i| model.network().variables()[i].name.clone())
            .collect(),
    );
    for r in 0..1000 {
        let full = pool.row(r % pool.rows());
        window_rows.push_row(full[..m].to_vec()).unwrap();
    }
    let batch = bench("streaming/batch_relearn_w1000", || {
        fit_all_parameters(
            black_box(&vars),
            black_box(&dag),
            black_box(&window_rows),
            ParamOptions::default(),
        )
        .unwrap()
    });

    let speedup_d16 = batch.median_ns / d16.median_ns;
    let window_independence = d4_w4000.median_ns / d4.median_ns;
    println!("streaming/speedup_batch_over_d16          {speedup_d16:>10.2}x");
    println!("streaming/w4000_over_w1000_at_d4          {window_independence:>10.2}x  (≈1 ⇒ delta-bound)");

    if !quick_mode() {
        // The PR's acceptance gate: O(delta) refresh ≥10× below the batch
        // relearn at a 10³-row window with deltas up to 16 rows.
        assert!(
            speedup_d16 >= 10.0,
            "streaming refresh (d=16) only {speedup_d16:.1}x faster than batch relearn"
        );
    }

    merge_bench_perf(
        "streaming",
        Value::Map(vec![
            ("update_d1_w1000_ns".into(), Value::Num(d1.median_ns)),
            ("update_d4_w1000_ns".into(), Value::Num(d4.median_ns)),
            ("update_d16_w1000_ns".into(), Value::Num(d16.median_ns)),
            ("update_d4_w4000_ns".into(), Value::Num(d4_w4000.median_ns)),
            ("batch_relearn_w1000_ns".into(), Value::Num(batch.median_ns)),
            ("speedup_batch_over_d16".into(), Value::Num(speedup_d16)),
            (
                "w4000_over_w1000_at_d4".into(),
                Value::Num(window_independence),
            ),
            (
                "note".into(),
                Value::Str(
                    "update_dK_wN = insert K rows into a full N-row window (evicting K) and \
                     refit all CPDs from sufficient statistics; batch_relearn = the \
                     conventional full-window fit_all_parameters it replaces. Gate: \
                     speedup_batch_over_d16 ≥ 10 at w=1000; w4000_over_w1000_at_d4 ≈ 1 \
                     shows per-update cost tracks the delta, not the window size"
                        .into(),
                ),
            ),
        ]),
    );
}
