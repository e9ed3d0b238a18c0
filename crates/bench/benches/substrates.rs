//! Micro-benchmarks for the substrate layers: the simulator, the
//! linear-algebra kernel, discretization, and K2 scoring — the cost
//! drivers the figure-level numbers decompose into. Printed only; the
//! committed `BENCH_perf.json` tracks the kernel-level before/after pairs
//! from the other bench binaries.

use kert_bayes::discretize::Discretizer;
use kert_bayes::learn::score::{gaussian_bic_family_score, k2_family_score};
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_bench::timing::bench;
use kert_linalg::{Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    println!("== substrates ==");

    for &n in &[6usize, 30] {
        bench(&format!("simulator/run_1000_requests_{n}"), || {
            let mut env = Environment::random(n, ScenarioOptions::default(), 42);
            let mut rng = StdRng::seed_from_u64(1);
            black_box(env.system.run(1_000, &mut rng))
        });
    }

    for &n in &[8usize, 32] {
        // SPD matrix: covariance-like.
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                let v = 0.9f64.powi((i as i32 - j as i32).abs());
                a.set(i, j, v);
            }
        }
        bench(&format!("linalg/cholesky_factor_{n}"), || {
            Cholesky::factor(black_box(&a)).unwrap()
        });
        let ch = Cholesky::factor(&a).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        bench(&format!("linalg/cholesky_solve_{n}"), || {
            ch.solve(black_box(rhs.clone())).unwrap()
        });
    }

    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (train, _) = env.datasets(1200, 1, 3);
    bench("discretize/fit_transform_1200x7", || {
        let disc = Discretizer::fit(black_box(&train), 5).unwrap();
        black_box(disc.transform(&train).unwrap())
    });

    let disc = Discretizer::fit(&train, 5).unwrap();
    let states = disc.transform(&train).unwrap();
    let cards = vec![5usize; 7];
    bench("score/k2_family_score_1200_rows", || {
        k2_family_score(6, black_box(&[0, 1, 3]), &states, &cards).unwrap()
    });
    bench("score/gaussian_bic_family_score_1200_rows", || {
        gaussian_bic_family_score(6, black_box(&[0, 1, 3]), &train).unwrap()
    });
}
