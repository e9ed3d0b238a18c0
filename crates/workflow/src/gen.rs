//! Random workflow generation for the scaling experiments.
//!
//! Figures 3–5 of the paper use simulated environments of 10–100 services
//! "assembled together by different workflows". This generator produces a
//! random composition of sequence/parallel/choice/loop constructs that uses
//! each of the `n` services exactly once, with tunable construct mix —
//! enough variety to exercise every reduction rule while keeping the
//! derived structure a realistic call graph.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::construct::{LoopSpec, Workflow};

/// Tuning knobs for [`random_workflow`].
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Probability that a composite block is parallel (vs. sequential).
    pub parallel_prob: f64,
    /// Probability that a composite block is a probabilistic choice.
    pub choice_prob: f64,
    /// Probability of wrapping a generated block in a fixed-count loop.
    pub loop_prob: f64,
    /// Maximum branches of a composite block.
    pub max_branches: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            parallel_prob: 0.35,
            choice_prob: 0.1,
            loop_prob: 0.05,
            max_branches: 4,
        }
    }
}

impl GenOptions {
    /// Sequence-only compositions: the response expression is a plain sum,
    /// so a continuous KERT-BN built on it is exactly linear-Gaussian —
    /// the family the conformance crate's closed-form oracle can solve.
    pub fn sequential_only() -> Self {
        GenOptions {
            parallel_prob: 0.0,
            choice_prob: 0.0,
            loop_prob: 0.0,
            max_branches: 4,
        }
    }
}

/// Generate a random workflow using services `0..n` exactly once each.
///
/// Deterministic for a fixed RNG state; `n = 0` panics (no empty
/// workflows), `n = 1` yields a single task.
pub fn random_workflow<R: Rng + ?Sized>(n: usize, options: GenOptions, rng: &mut R) -> Workflow {
    assert!(n >= 1, "a workflow needs at least one service");
    let mut services: Vec<usize> = (0..n).collect();
    services.shuffle(rng);
    build(&services, options, rng)
}

fn build<R: Rng + ?Sized>(services: &[usize], options: GenOptions, rng: &mut R) -> Workflow {
    let wf = if services.len() == 1 {
        Workflow::Task(services[0])
    } else {
        // Split the service pool into 2..=max_branches contiguous chunks.
        let branches = rng.gen_range(2..=options.max_branches).min(services.len());
        let mut cut_points: Vec<usize> = (1..services.len()).collect();
        cut_points.shuffle(rng);
        let mut cuts: Vec<usize> = cut_points.into_iter().take(branches - 1).collect();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(services.len());
        let parts: Vec<Workflow> = cuts
            .windows(2)
            .map(|w| build(&services[w[0]..w[1]], options, rng))
            .collect();

        let roll: f64 = rng.gen();
        if roll < options.parallel_prob {
            Workflow::Par(parts)
        } else if roll < options.parallel_prob + options.choice_prob {
            // Random positive probabilities normalized to 1.
            let mut weights: Vec<f64> = parts.iter().map(|_| rng.gen_range(0.1..1.0)).collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            // Guard against rounding drift pushing the sum off 1.
            let drift: f64 = 1.0 - weights.iter().sum::<f64>();
            weights[0] += drift;
            Workflow::Choice(weights.into_iter().zip(parts).collect())
        } else {
            Workflow::Seq(parts)
        }
    };
    if rng.gen::<f64>() < options.loop_prob {
        Workflow::Loop {
            body: Box::new(wf),
            spec: LoopSpec::Count(rng.gen_range(2..=3)),
        }
    } else {
        wf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::{derive_structure, ResourceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_service_used_exactly_once() {
        let mut rng = StdRng::seed_from_u64(1);
        for &n in &[1usize, 2, 5, 17, 50] {
            let wf = random_workflow(n, GenOptions::default(), &mut rng);
            assert_eq!(wf.services(), (0..n).collect::<Vec<_>>(), "n={n}");
            assert_eq!(wf.task_count(), n, "n={n}");
            assert!(wf.validate(n).is_ok());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = random_workflow(20, GenOptions::default(), &mut StdRng::seed_from_u64(7));
        let b = random_workflow(20, GenOptions::default(), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = random_workflow(20, GenOptions::default(), &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn generated_workflows_compile_to_structures() {
        let mut rng = StdRng::seed_from_u64(3);
        for seed in 0..20u64 {
            let _ = seed;
            let n = rng.gen_range(2..40);
            let wf = random_workflow(n, GenOptions::default(), &mut rng);
            let k = derive_structure(&wf, n, &ResourceMap::new()).unwrap();
            // Edges reference valid services and contain no self-loops.
            for &(a, b) in &k.upstream_edges {
                assert!(a < n && b < n && a != b);
            }
            // The response expression covers every service that can be on
            // the critical path (all of them, by construction).
            assert_eq!(k.response_expr.variables(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_heavy_options_produce_max_nodes() {
        let opts = GenOptions {
            parallel_prob: 1.0,
            choice_prob: 0.0,
            loop_prob: 0.0,
            max_branches: 3,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let wf = random_workflow(10, opts, &mut rng);
        let expr = crate::reduction::response_time_expr(&wf);
        assert!(!expr.is_linear(), "all-parallel workflow must contain max");
    }

    #[test]
    fn sequential_only_options_produce_linear_expr() {
        let opts = GenOptions {
            parallel_prob: 0.0,
            choice_prob: 0.0,
            loop_prob: 0.0,
            max_branches: 4,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let wf = random_workflow(10, opts, &mut rng);
        let expr = crate::reduction::response_time_expr(&wf);
        assert!(expr.is_linear());
    }
}
