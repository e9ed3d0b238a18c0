//! Ablations: quantifying the design choices the paper argues in prose.
//!
//! Three studies, each pinned to a specific passage:
//!
//! 1. **Learning-free Naive-BN baseline** (§4.2): the paper "quickly
//!    dismissed" replacing K2 by a fixed naive structure; we measure the
//!    accuracy it actually costs.
//! 2. **Sequential update vs windowed reconstruction** (§2): old data
//!    "lingers in the updated model and adversely impacts its accuracy" —
//!    we change the environment mid-stream and compare prediction error of
//!    a cumulative updater against the sliding-window reconstruction.
//! 3. **Barren-node pruning for inference** (§7 future work): cheaper
//!    probability assessment after construction, with exactness preserved.

use std::time::Instant;

use kert_agents::{CumulativeUpdater, ReconstructionWindow};
use kert_bayes::infer::ve::{posterior_marginal, posterior_marginal_pruned, Evidence};
use kert_core::posterior::{query_posterior, McOptions};
use kert_core::{DiscreteKertOptions, KertBn, NrtBn, NrtOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Environment, ScenarioOptions};

/// Results of the naive-baseline ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NaiveAblation {
    /// `log₁₀ p(test)` of the knowledge-enhanced model.
    pub kert_accuracy: f64,
    /// `log₁₀ p(test)` of the K2-learned NRT-BN.
    pub nrt_accuracy: f64,
    /// `log₁₀ p(test)` of the learning-free naive structure.
    pub naive_accuracy: f64,
    /// Service-to-service edges in the naive model (always 0 — the
    /// interpretability loss).
    pub naive_service_edges: usize,
    /// Service-to-service edges the K2 model recovered.
    pub nrt_service_edges: usize,
}

/// Run the §4.2 naive-baseline ablation on the eDiaMoND test-bed.
pub fn naive_baseline(seed: u64) -> NaiveAblation {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let (data, _) = env.datasets(1_500, 1, seed);
    let (train, test) = data.split_at(1_200);

    let kert = KertBn::build_discrete(&env.knowledge, &train, DiscreteKertOptions::default())
        .expect("builds");
    let mut rng = StdRng::seed_from_u64(seed ^ 1);
    let nrt = NrtBn::build_discrete(&train, NrtOptions::default(), &mut rng).expect("builds");
    let naive = NrtBn::build_naive_discrete(&train, NrtOptions::default()).expect("builds");

    let service_edges =
        |dag: &kert_bayes::Dag| dag.edges().filter(|&(a, b)| a < 6 && b < 6).count();
    NaiveAblation {
        kert_accuracy: kert.accuracy(&test).expect("finite"),
        nrt_accuracy: nrt.accuracy(&test).expect("finite"),
        naive_accuracy: naive.accuracy(&test).expect("finite"),
        naive_service_edges: service_edges(naive.network().dag()),
        nrt_service_edges: service_edges(nrt.network().dag()),
    }
}

/// Results of the update-vs-reconstruct ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateAblation {
    /// |predicted mean D − actual| for the windowed reconstruction.
    pub windowed_error: f64,
    /// Same for the cumulative (never-forgetting) updater.
    pub cumulative_error: f64,
    /// Training rows the cumulative updater dragged into its last rebuild.
    pub cumulative_rows: usize,
    /// Training rows in the last reconstruction window.
    pub windowed_rows: usize,
}

/// Run the §2 update-vs-reconstruct ablation: the remote service becomes
/// 2× faster halfway through; both schemes rebuild afterwards; both are
/// asked for the expected response time of the *new* regime.
pub fn update_vs_reconstruct(seed: u64) -> UpdateAblation {
    let mut env = Environment::ediamond(ScenarioOptions::default());
    let alpha = 100usize;
    let k = 2usize;
    let names: Vec<String> = (0..6)
        .map(|i| format!("X{}", i + 1))
        .chain(std::iter::once("D".into()))
        .collect();
    let schedule = kert_agents::ModelSchedule {
        t_data: 10.0,
        alpha_model: alpha,
        k,
    };
    let mut window = ReconstructionWindow::new(schedule, names.clone()).expect("valid");
    let mut cumulative = CumulativeUpdater::new(alpha, names).expect("valid");

    let mut windowed_model = None;
    let mut cumulative_model = None;
    let fit = |train: &kert_bayes::Dataset| {
        KertBn::build_discrete(&env_knowledge(), train, DiscreteKertOptions::default())
            .expect("builds")
    };
    // Phase 1: 4 rebuild cycles of the slow regime.
    let feed = |env: &mut Environment,
                cycles: usize,
                seed: u64,
                window: &mut ReconstructionWindow,
                cumulative: &mut CumulativeUpdater,
                windowed_model: &mut Option<KertBn>,
                cumulative_model: &mut Option<KertBn>| {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cycles * alpha {
            let batch = env.system.run(1, &mut rng).to_dataset(None);
            if let Some(train) = window.push_interval(&batch).expect("schema fixed") {
                *windowed_model = Some(fit(&train));
            }
            if let Some(train) = cumulative.push_interval(&batch).expect("schema fixed") {
                *cumulative_model = Some(fit(&train));
            }
        }
    };
    feed(
        &mut env,
        4,
        seed,
        &mut window,
        &mut cumulative,
        &mut windowed_model,
        &mut cumulative_model,
    );
    // The remote site is upgraded.
    env.scale_service(3, 0.5);
    feed(
        &mut env,
        2,
        seed ^ 7,
        &mut window,
        &mut cumulative,
        &mut windowed_model,
        &mut cumulative_model,
    );

    // Probe the new regime.
    let (probe, _) = env.datasets(300, 1, seed ^ 9);
    let actual = kert_linalg::stats::mean(&probe.column(6));
    let mut q_rng = StdRng::seed_from_u64(seed ^ 11);
    let mut predict = |m: &KertBn| {
        query_posterior(m, &[], m.d_node(), McOptions::default(), &mut q_rng)
            .expect("inference runs")
            .mean()
    };
    let windowed = windowed_model.expect("six rebuilds happened");
    let cumulative_m = cumulative_model.expect("six rebuilds happened");
    UpdateAblation {
        windowed_error: (predict(&windowed) - actual).abs(),
        cumulative_error: (predict(&cumulative_m) - actual).abs(),
        cumulative_rows: cumulative.accumulated_rows(),
        windowed_rows: schedule.points_per_window(),
    }
}

/// eDiaMoND knowledge (helper kept out of the closure for borrow clarity).
fn env_knowledge() -> kert_workflow::WorkflowKnowledge {
    kert_workflow::derive_structure(
        &kert_workflow::ediamond_workflow(),
        6,
        &kert_workflow::ResourceMap::new(),
    )
    .expect("valid")
}

/// Results of the inference-pruning ablation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruningAblation {
    /// Seconds per full-network VE query.
    pub full_secs: f64,
    /// Seconds per barren-pruned VE query.
    pub pruned_secs: f64,
    /// Maximum absolute difference between the two posteriors (exactness).
    pub max_abs_diff: f64,
}

/// Run the §7 inference-pruning ablation: on an 8-service discrete model,
/// query an upstream service's posterior — everything downstream is
/// barren. (The environment is kept small and the bins coarse because the
/// *unpruned* comparator must materialize `D`'s deterministic CPD as a
/// dense factor of `binsⁿ⁺¹` entries — the very exponential object the
/// paper's Eq. 4 construction avoids learning; pruning sidesteps
/// materializing it at all.)
pub fn inference_pruning(seed: u64) -> PruningAblation {
    let n = 8usize;
    let mut env = Environment::random(n, ScenarioOptions::default(), seed);
    let (train, _) = env.datasets(800, 1, seed ^ 3);
    let model = KertBn::build_discrete(
        &env.knowledge,
        &train,
        DiscreteKertOptions {
            bins: 4,
            ..Default::default()
        },
    )
    .expect("builds");

    // Target: a root service (no parents): maximal downstream barrenness.
    let target = model
        .network()
        .dag()
        .roots()
        .into_iter()
        .find(|&r| r < n)
        .expect("some service is a root");
    let evidence = Evidence::new();

    let reps = 5;
    let t0 = Instant::now();
    let mut full = Vec::new();
    for _ in 0..reps {
        full = posterior_marginal(model.network(), target, &evidence).expect("runs");
    }
    let full_secs = t0.elapsed().as_secs_f64() / reps as f64;

    let t1 = Instant::now();
    let mut pruned = Vec::new();
    for _ in 0..reps {
        pruned = posterior_marginal_pruned(model.network(), target, &evidence).expect("runs");
    }
    let pruned_secs = t1.elapsed().as_secs_f64() / reps as f64;

    let max_abs_diff = full
        .iter()
        .zip(pruned.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    PruningAblation {
        full_secs,
        pruned_secs,
        max_abs_diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_structure_loses_interpretability_and_accuracy() {
        // §4.2's dismissal, verbatim: "not only is a learning-free NRT-BN
        // even less accurate (than a NRT-BN) by construction, but its use
        // will result in complete loss of model interpretability".
        let r = naive_baseline(77);
        assert_eq!(r.naive_service_edges, 0, "no causal edges survive");
        assert!(r.nrt_service_edges > 0, "K2 recovers causal edges");
        assert!(
            r.nrt_accuracy >= r.naive_accuracy - 0.02 * r.naive_accuracy.abs(),
            "learned NRT {} vs naive {}",
            r.nrt_accuracy,
            r.naive_accuracy
        );
        assert!(r.kert_accuracy.is_finite());
    }

    #[test]
    fn windowed_reconstruction_tracks_change_better_than_cumulative_update() {
        let r = update_vs_reconstruct(101);
        assert!(
            r.windowed_error < r.cumulative_error,
            "windowed {} vs cumulative {}",
            r.windowed_error,
            r.cumulative_error
        );
        assert!(r.cumulative_rows > r.windowed_rows);
    }

    #[test]
    fn pruning_is_exact_and_not_slower() {
        let r = inference_pruning(55);
        assert!(r.max_abs_diff < 1e-9, "pruning must be exact");
        // Pruned path should win clearly on a 17-node network with a
        // barren majority; allow slack for timing noise.
        assert!(
            r.pruned_secs <= r.full_secs,
            "pruned {} vs full {}",
            r.pruned_secs,
            r.full_secs
        );
    }
}
