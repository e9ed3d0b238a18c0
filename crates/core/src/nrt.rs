//! NRT-BN — the Naive Response Time Bayesian Network baseline.
//!
//! Everything is learned from data: the structure by the K2 algorithm
//! (random node orderings; optionally many restarts as in §5.3) and then
//! every CPD by maximum likelihood. This is the "pure statistical learning"
//! school the paper contrasts against: no knowledge needed, but the
//! structure search costs `O(n²)` family-score evaluations per ordering and
//! the response node's CPD must be learned like any other — both costs
//! KERT-BN avoids.

use std::sync::OnceLock;
use std::time::Instant;

use kert_bayes::compile::JunctionTree;
use kert_bayes::discretize::Discretizer;
use kert_bayes::learn::k2::{k2_search, k2_with_random_restarts, K2Options, K2Result};
use kert_bayes::learn::mle::{fit_all_parameters, ParamOptions};
use kert_bayes::learn::score::FamilyScore;
use kert_bayes::{BayesianNetwork, Dataset, Variable};
use rand::Rng;

use crate::posterior::sealed::Compiled;
use crate::posterior::{compile_once, ResponseTimeModel};
use crate::report::BuildReport;
use crate::{CoreError, Result};

/// Options for NRT-BN construction.
#[derive(Debug, Clone, Copy)]
pub struct NrtOptions {
    /// Maximum parents per node in the K2 search.
    pub max_parents: usize,
    /// K2 restarts with fresh random orderings (≥ 1). §4 uses one ordering;
    /// §5.3 runs "repeatedly with different random orderings".
    pub restarts: usize,
    /// Discretization for the discrete variant.
    pub bins: usize,
    /// CPT smoothing.
    pub params: ParamOptions,
}

impl Default for NrtOptions {
    fn default() -> Self {
        NrtOptions {
            max_parents: 3,
            restarts: 1,
            bins: 5,
            params: ParamOptions::default(),
        }
    }
}

/// A constructed NRT-BN.
#[derive(Debug)]
pub struct NrtBn {
    network: BayesianNetwork,
    d_node: usize,
    discretizer: Option<Discretizer>,
    report: BuildReport,
    /// The junction tree of the network, compiled on first use. Nothing
    /// changes an NRT-BN's network after construction, so it is never
    /// dropped.
    tree: OnceLock<JunctionTree>,
}

impl NrtBn {
    /// Build a continuous NRT-BN from a dataset with columns `X₁…X_n, D`:
    /// K2 with the Gaussian-BIC family score, then linear-Gaussian fits.
    pub fn build_continuous<R: Rng + ?Sized>(
        train: &Dataset,
        options: NrtOptions,
        rng: &mut R,
    ) -> Result<Self> {
        if train.columns() < 2 || train.is_empty() {
            return Err(CoreError::BadRequest(
                "need a non-empty dataset with at least two columns".into(),
            ));
        }
        let n_nodes = train.columns();
        let variables: Vec<Variable> = train
            .names()
            .iter()
            .map(|n| Variable::continuous(n.clone()))
            .collect();
        let cards = vec![0usize; n_nodes];

        let structure_start = Instant::now();
        let k2 = run_k2(
            train,
            &cards,
            K2Options {
                score: FamilyScore::GaussianBic,
                max_parents: options.max_parents,
            },
            options.restarts,
            rng,
        )?;
        let structure_time = structure_start.elapsed();

        let param_start = Instant::now();
        let cpds = fit_all_parameters(&variables, &k2.dag, train, options.params)?;
        let parameter_time = param_start.elapsed();

        let network = BayesianNetwork::new(variables, k2.dag, cpds)?;
        Ok(NrtBn {
            network,
            d_node: n_nodes - 1,
            discretizer: None,
            report: BuildReport {
                structure_time,
                parameter_time,
                score_evaluations: k2.evaluations,
            },
            tree: OnceLock::new(),
        })
    }

    /// Build a discrete NRT-BN: discretize, K2 with the Cooper–Herskovits
    /// score, then CPT fits.
    pub fn build_discrete<R: Rng + ?Sized>(
        train: &Dataset,
        options: NrtOptions,
        rng: &mut R,
    ) -> Result<Self> {
        if train.columns() < 2 || train.is_empty() {
            return Err(CoreError::BadRequest(
                "need a non-empty dataset with at least two columns".into(),
            ));
        }
        let n_nodes = train.columns();

        let param_prep_start = Instant::now();
        let discretizer = Discretizer::fit(train, options.bins)?;
        let states = discretizer.transform(train)?;
        let discretize_time = param_prep_start.elapsed();

        let variables: Vec<Variable> = train
            .names()
            .iter()
            .map(|n| Variable::discrete(n.clone(), options.bins))
            .collect();
        let cards = vec![options.bins; n_nodes];

        let structure_start = Instant::now();
        let k2 = run_k2(
            &states,
            &cards,
            K2Options {
                score: FamilyScore::K2,
                max_parents: options.max_parents,
            },
            options.restarts,
            rng,
        )?;
        let structure_time = structure_start.elapsed();

        let param_start = Instant::now();
        let cpds = fit_all_parameters(&variables, &k2.dag, &states, options.params)?;
        let parameter_time = param_start.elapsed() + discretize_time;

        let network = BayesianNetwork::new(variables, k2.dag, cpds)?;
        Ok(NrtBn {
            network,
            d_node: n_nodes - 1,
            discretizer: Some(discretizer),
            report: BuildReport {
                structure_time,
                parameter_time,
                score_evaluations: k2.evaluations,
            },
            tree: OnceLock::new(),
        })
    }

    /// Build a *learning-free* discrete NRT-BN with the classic Naive-Bayes
    /// structure: the response node (last column) is the sole parent of
    /// every service node, no structure search at all.
    ///
    /// §4.2 of the paper considers exactly this shortcut to close NRT-BN's
    /// cost gap and "quickly dismisses" it: it is less accurate by
    /// construction and destroys the model's interpretability (the
    /// service-to-service causal edges). It is implemented here so the
    /// dismissal can be reproduced quantitatively (see the ablation bench).
    pub fn build_naive_discrete(train: &Dataset, options: NrtOptions) -> Result<Self> {
        if train.columns() < 2 || train.is_empty() {
            return Err(CoreError::BadRequest(
                "need a non-empty dataset with at least two columns".into(),
            ));
        }
        let n_nodes = train.columns();
        let d_node = n_nodes - 1;

        let param_prep_start = Instant::now();
        let discretizer = Discretizer::fit(train, options.bins)?;
        let states = discretizer.transform(train)?;
        let discretize_time = param_prep_start.elapsed();

        let variables: Vec<Variable> = train
            .names()
            .iter()
            .map(|n| Variable::discrete(n.clone(), options.bins))
            .collect();

        // "Structure learning": a fixed star — effectively free.
        let structure_start = Instant::now();
        let mut dag = kert_bayes::Dag::new(n_nodes);
        for i in 0..d_node {
            dag.add_edge(d_node, i)?;
        }
        let structure_time = structure_start.elapsed();

        let param_start = Instant::now();
        let cpds = fit_all_parameters(&variables, &dag, &states, options.params)?;
        let parameter_time = param_start.elapsed() + discretize_time;

        let network = BayesianNetwork::new(variables, dag, cpds)?;
        Ok(NrtBn {
            network,
            d_node,
            discretizer: Some(discretizer),
            report: BuildReport {
                structure_time,
                parameter_time,
                score_evaluations: 0,
            },
            tree: OnceLock::new(),
        })
    }

    /// Reassemble a model from persisted parts.
    pub(crate) fn from_parts(
        network: BayesianNetwork,
        d_node: usize,
        discretizer: Option<Discretizer>,
    ) -> Self {
        NrtBn {
            network,
            d_node,
            discretizer,
            report: BuildReport::default(),
            tree: OnceLock::new(),
        }
    }

    /// The learned network.
    pub fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    /// Index of the response-time node (last column).
    pub fn d_node(&self) -> usize {
        self.d_node
    }

    /// The discretizer, for discrete models.
    pub fn discretizer(&self) -> Option<&Discretizer> {
        self.discretizer.as_ref()
    }

    /// Construction cost breakdown.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Data-fitting accuracy `log₁₀ p(test | model)`.
    pub fn accuracy(&self, test: &Dataset) -> Result<f64> {
        match &self.discretizer {
            Some(disc) => {
                let states = disc.transform(test)?;
                Ok(self.network.log10_likelihood(&states)?)
            }
            None => Ok(self.network.log10_likelihood(test)?),
        }
    }
}

impl ResponseTimeModel for NrtBn {
    fn network(&self) -> &BayesianNetwork {
        &self.network
    }

    fn discretizer(&self) -> Option<&Discretizer> {
        self.discretizer.as_ref()
    }
}

impl Compiled for NrtBn {
    fn compiled_tree(&self) -> Result<&JunctionTree> {
        compile_once(&self.tree, &self.network, self.discretizer.as_ref())
    }
}

fn run_k2<R: Rng + ?Sized>(
    data: &Dataset,
    cards: &[usize],
    options: K2Options,
    restarts: usize,
    rng: &mut R,
) -> Result<K2Result> {
    if restarts <= 1 {
        // Single random ordering — §4's setting.
        use rand::seq::SliceRandom;
        let mut ordering: Vec<usize> = (0..data.columns()).collect();
        ordering.shuffle(rng);
        Ok(k2_search(&ordering, data, cards, options)?)
    } else {
        Ok(k2_with_random_restarts(
            data, cards, options, restarts, rng,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::ediamond_workflow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ediamond_dataset(rows: usize, seed: u64) -> Dataset {
        let wf = ediamond_workflow();
        let stations = (0..6)
            .map(|_| ServiceConfig::single(Dist::Exponential { mean: 0.05 }))
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.4 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        sys.run(rows, &mut rng).to_dataset(None)
    }

    #[test]
    fn continuous_nrt_builds_and_scores() {
        let data = ediamond_dataset(600, 10);
        let (train, test) = data.split_at(400);
        let mut rng = StdRng::seed_from_u64(1);
        let model = NrtBn::build_continuous(&train, NrtOptions::default(), &mut rng).unwrap();
        assert_eq!(model.network().len(), 7);
        assert!(model.report().score_evaluations > 0);
        assert!(model.accuracy(&test).unwrap().is_finite());
    }

    #[test]
    fn discrete_nrt_builds_and_scores() {
        let data = ediamond_dataset(600, 11);
        let (train, test) = data.split_at(450);
        let mut rng = StdRng::seed_from_u64(2);
        let model = NrtBn::build_discrete(&train, NrtOptions::default(), &mut rng).unwrap();
        assert!(model.discretizer().is_some());
        let acc = model.accuracy(&test).unwrap();
        assert!(acc.is_finite() && acc < 0.0);
    }

    #[test]
    fn restarts_improve_or_match_single_run_accuracy() {
        let data = ediamond_dataset(500, 12);
        let (train, test) = data.split_at(400);
        let single = NrtBn::build_discrete(
            &train,
            NrtOptions {
                restarts: 1,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        let multi = NrtBn::build_discrete(
            &train,
            NrtOptions {
                restarts: 8,
                ..Default::default()
            },
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        // More restarts must cost more evaluations…
        assert!(multi.report().score_evaluations > single.report().score_evaluations);
        // …and the better-scoring structure should not fit much worse.
        let acc_single = single.accuracy(&test).unwrap();
        let acc_multi = multi.accuracy(&test).unwrap();
        assert!(acc_multi > acc_single - 0.1 * acc_single.abs());
    }

    #[test]
    fn structure_learning_dominates_construction() {
        // The cost asymmetry the paper's Figure 4 rests on.
        let data = ediamond_dataset(400, 13);
        let mut rng = StdRng::seed_from_u64(4);
        let model = NrtBn::build_continuous(&data, NrtOptions::default(), &mut rng).unwrap();
        assert!(model.report().structure_time >= model.report().parameter_time / 4);
    }

    #[test]
    fn naive_baseline_is_free_but_uninterpretable() {
        let data = ediamond_dataset(600, 14);
        let (train, test) = data.split_at(500);
        let naive = NrtBn::build_naive_discrete(&train, NrtOptions::default()).unwrap();
        // Learning-free: no score evaluations at all.
        assert_eq!(naive.report().score_evaluations, 0);
        // Structure: D is the sole parent of every service node — no
        // service-to-service edges survive (the interpretability loss the
        // paper calls out).
        for i in 0..6 {
            assert_eq!(naive.network().dag().parents(i), &[6]);
        }
        assert!(naive.network().dag().parents(6).is_empty());
        assert!(naive.accuracy(&test).unwrap().is_finite());
    }

    #[test]
    fn naive_baseline_is_no_more_accurate_than_learned_nrt() {
        // The quantitative half of §4.2's dismissal, on a decent window.
        let data = ediamond_dataset(1_000, 15);
        let (train, test) = data.split_at(800);
        let naive = NrtBn::build_naive_discrete(&train, NrtOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let learned = NrtBn::build_discrete(&train, NrtOptions::default(), &mut rng).unwrap();
        let acc_naive = naive.accuracy(&test).unwrap();
        let acc_learned = learned.accuracy(&test).unwrap();
        assert!(
            acc_learned >= acc_naive - 0.02 * acc_naive.abs(),
            "learned {acc_learned} vs naive {acc_naive}"
        );
    }

    #[test]
    fn degenerate_datasets_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = Dataset::new(vec!["a".into(), "b".into()]);
        assert!(NrtBn::build_continuous(&empty, NrtOptions::default(), &mut rng).is_err());
        let one_col = Dataset::from_rows(vec!["a".into()], vec![vec![1.0]]).unwrap();
        assert!(NrtBn::build_discrete(&one_col, NrtOptions::default(), &mut rng).is_err());
    }
}
