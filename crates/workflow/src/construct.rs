//! Workflow constructs: sequence, parallel, choice, loop.
//!
//! These are the four composition operators of Cardoso et al. (the method
//! the paper cites for deriving `f`); any service-oriented application in
//! scope is a finite composition of them over atomic service invocations.

use serde::{Deserialize, Serialize};

use crate::{Result, WorkflowError};

/// Index of a service within an environment (`0..n_services`).
pub type ServiceId = usize;

/// How a loop's iteration count is specified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LoopSpec {
    /// A fixed number of iterations (≥ 1).
    Count(usize),
    /// Geometric retry loop: after each iteration, continue with probability
    /// `p ∈ [0, 1)`; expected iterations `1/(1−p)`.
    Geometric {
        /// Continuation probability.
        continue_prob: f64,
    },
}

impl LoopSpec {
    /// Expected number of iterations.
    pub fn expected_iterations(&self) -> f64 {
        match *self {
            LoopSpec::Count(k) => k as f64,
            LoopSpec::Geometric { continue_prob } => 1.0 / (1.0 - continue_prob),
        }
    }
}

/// A workflow: how a user transaction traverses services.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workflow {
    /// Invocation of a single service.
    Task(ServiceId),
    /// Sub-workflows executed one after another.
    Seq(Vec<Workflow>),
    /// Sub-workflows executed concurrently; the transaction proceeds when
    /// all branches complete (AND-join).
    Par(Vec<Workflow>),
    /// Exactly one branch executes, chosen with the given probability
    /// (XOR-split). Probabilities must be positive and sum to 1.
    Choice(Vec<(f64, Workflow)>),
    /// The body executes one or more times.
    Loop {
        /// The repeated sub-workflow.
        body: Box<Workflow>,
        /// Iteration-count model.
        spec: LoopSpec,
    },
}

impl Workflow {
    /// Sequence constructor (validating non-emptiness).
    pub fn seq(parts: Vec<Workflow>) -> Result<Workflow> {
        if parts.is_empty() {
            return Err(WorkflowError::EmptyConstruct("sequence"));
        }
        Ok(Workflow::Seq(parts))
    }

    /// Choice constructor (validating the probability vector).
    pub fn choice(branches: Vec<(f64, Workflow)>) -> Result<Workflow> {
        if branches.is_empty() {
            return Err(WorkflowError::EmptyConstruct("choice"));
        }
        let total: f64 = branches.iter().map(|(p, _)| p).sum();
        if branches.iter().any(|(p, _)| *p <= 0.0) || (total - 1.0).abs() > 1e-9 {
            return Err(WorkflowError::BadProbabilities(format!(
                "probabilities {:?} (sum {total})",
                branches.iter().map(|(p, _)| *p).collect::<Vec<_>>()
            )));
        }
        Ok(Workflow::Choice(branches))
    }

    /// Loop constructor (validating the spec).
    pub fn repeat(body: Workflow, spec: LoopSpec) -> Result<Workflow> {
        match spec {
            LoopSpec::Count(0) => Err(WorkflowError::BadLoop("zero iteration count".into())),
            LoopSpec::Geometric { continue_prob } if !(0.0..1.0).contains(&continue_prob) => Err(
                WorkflowError::BadLoop(format!("continue probability {continue_prob}")),
            ),
            _ => Ok(Workflow::Loop {
                body: Box::new(body),
                spec,
            }),
        }
    }

    /// Recursively validate an already-built tree (for workflows assembled
    /// by hand rather than through the checked constructors).
    pub fn validate(&self, n_services: usize) -> Result<()> {
        match self {
            Workflow::Task(s) => {
                if *s >= n_services {
                    Err(WorkflowError::UnknownService(*s))
                } else {
                    Ok(())
                }
            }
            Workflow::Seq(parts) => {
                if parts.is_empty() {
                    return Err(WorkflowError::EmptyConstruct("sequence"));
                }
                parts.iter().try_for_each(|p| p.validate(n_services))
            }
            Workflow::Par(branches) => {
                if branches.is_empty() {
                    return Err(WorkflowError::EmptyConstruct("parallel"));
                }
                branches.iter().try_for_each(|b| b.validate(n_services))
            }
            Workflow::Choice(branches) => {
                if branches.is_empty() {
                    return Err(WorkflowError::EmptyConstruct("choice"));
                }
                let total: f64 = branches.iter().map(|(p, _)| p).sum();
                if branches.iter().any(|(p, _)| *p <= 0.0) || (total - 1.0).abs() > 1e-9 {
                    return Err(WorkflowError::BadProbabilities(format!("sum {total}")));
                }
                branches
                    .iter()
                    .try_for_each(|(_, b)| b.validate(n_services))
            }
            Workflow::Loop { body, spec } => {
                match spec {
                    LoopSpec::Count(0) => {
                        return Err(WorkflowError::BadLoop("zero iteration count".into()))
                    }
                    LoopSpec::Geometric { continue_prob }
                        if !(0.0..1.0).contains(continue_prob) =>
                    {
                        return Err(WorkflowError::BadLoop(format!(
                            "continue probability {continue_prob}"
                        )))
                    }
                    _ => {}
                }
                body.validate(n_services)
            }
        }
    }

    /// All services referenced, ascending and deduplicated.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut out = Vec::new();
        self.collect_services(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_services(&self, out: &mut Vec<ServiceId>) {
        match self {
            Workflow::Task(s) => out.push(*s),
            Workflow::Seq(parts) | Workflow::Par(parts) => {
                for p in parts {
                    p.collect_services(out);
                }
            }
            Workflow::Choice(branches) => {
                for (_, b) in branches {
                    b.collect_services(out);
                }
            }
            Workflow::Loop { body, .. } => body.collect_services(out),
        }
    }

    /// Number of `Task` leaves (with multiplicity).
    pub fn task_count(&self) -> usize {
        match self {
            Workflow::Task(_) => 1,
            Workflow::Seq(parts) | Workflow::Par(parts) => {
                parts.iter().map(Workflow::task_count).sum()
            }
            Workflow::Choice(branches) => branches.iter().map(|(_, b)| b.task_count()).sum(),
            Workflow::Loop { body, .. } => body.task_count(),
        }
    }

    /// True if a `Par` construct appears anywhere inside a `Loop` body.
    ///
    /// This is the one shape for which the realized response-time
    /// reduction is an *inequality* rather than an identity: a looped
    /// service's monitoring point accumulates its iterations into a single
    /// measurement, and `max(Σaᵢ, Σbᵢ) ≤ Σ max(aᵢ, bᵢ)`, so the reduced
    /// `f(𝕏)` lower-bounds the measured `D`. See
    /// [`crate::reduction::response_time_expr`].
    pub fn has_parallel_under_loop(&self) -> bool {
        fn walk(wf: &Workflow, under_loop: bool) -> bool {
            match wf {
                Workflow::Task(_) => false,
                Workflow::Seq(parts) => parts.iter().any(|p| walk(p, under_loop)),
                Workflow::Par(parts) => under_loop || parts.iter().any(|p| walk(p, under_loop)),
                Workflow::Choice(branches) => branches.iter().any(|(_, b)| walk(b, under_loop)),
                Workflow::Loop { body, .. } => walk(body, true),
            }
        }
        walk(self, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_constructors_validate() {
        assert!(Workflow::seq(vec![]).is_err());
        assert!(Workflow::choice(vec![]).is_err());
        assert!(Workflow::choice(vec![(0.5, Workflow::Task(0))]).is_err());
        assert!(
            Workflow::choice(vec![(1.5, Workflow::Task(0)), (-0.5, Workflow::Task(1))]).is_err()
        );
        assert!(Workflow::repeat(Workflow::Task(0), LoopSpec::Count(0)).is_err());
        assert!(Workflow::repeat(
            Workflow::Task(0),
            LoopSpec::Geometric { continue_prob: 1.0 }
        )
        .is_err());
        assert!(Workflow::repeat(Workflow::Task(0), LoopSpec::Count(3)).is_ok());
    }

    #[test]
    fn validate_walks_the_tree() {
        let wf = Workflow::Seq(vec![
            Workflow::Task(0),
            Workflow::Par(vec![Workflow::Task(1), Workflow::Task(5)]),
        ]);
        assert!(wf.validate(6).is_ok());
        assert_eq!(wf.validate(3), Err(WorkflowError::UnknownService(5)));
    }

    #[test]
    fn services_dedup_and_sort() {
        let wf = Workflow::Seq(vec![
            Workflow::Task(3),
            Workflow::Choice(vec![(0.4, Workflow::Task(1)), (0.6, Workflow::Task(3))]),
        ]);
        assert_eq!(wf.services(), vec![1, 3]);
        assert_eq!(wf.task_count(), 3);
    }

    #[test]
    fn loop_bodies_count_once() {
        let wf = Workflow::Seq(vec![
            Workflow::Task(0),
            Workflow::Loop {
                body: Box::new(Workflow::Task(1)),
                spec: LoopSpec::Count(4),
            },
        ]);
        assert_eq!(wf.task_count(), 2);
    }

    #[test]
    fn parallel_under_loop_detection() {
        let plain_par = Workflow::Par(vec![Workflow::Task(0), Workflow::Task(1)]);
        assert!(!plain_par.has_parallel_under_loop());

        let par_in_loop = Workflow::Loop {
            body: Box::new(Workflow::Seq(vec![
                Workflow::Task(2),
                Workflow::Par(vec![Workflow::Task(0), Workflow::Task(1)]),
            ])),
            spec: LoopSpec::Count(2),
        };
        assert!(par_in_loop.has_parallel_under_loop());

        let loop_in_par = Workflow::Par(vec![
            Workflow::Loop {
                body: Box::new(Workflow::Task(0)),
                spec: LoopSpec::Count(2),
            },
            Workflow::Task(1),
        ]);
        assert!(!loop_in_par.has_parallel_under_loop());
    }

    #[test]
    fn expected_iterations() {
        assert_eq!(LoopSpec::Count(5).expected_iterations(), 5.0);
        assert!(
            (LoopSpec::Geometric { continue_prob: 0.5 }.expected_iterations() - 2.0).abs() < 1e-12
        );
    }
}
