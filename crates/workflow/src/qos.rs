//! Analytical expected-QoS evaluation.
//!
//! The classic Cardoso computation: given per-service expected elapsed
//! times, evaluate the expected end-to-end response time through the
//! workflow algebra. This is the "analytical modeling" school the paper
//! contrasts with statistical learning — implemented here both as a
//! baseline and as a sanity oracle for simulator output.

use crate::construct::Workflow;
use crate::reduction::expected_qos_expr;

/// Expected end-to-end response time given per-service expected elapsed
/// times (`means[s]` for service `s`).
///
/// Note the parallel construct uses `max` of branch *expectations*, which
/// lower-bounds the true `E[max]`; the bound is tight when one branch
/// dominates (the common case for local-vs-remote paths).
pub fn expected_response_time(workflow: &Workflow, means: &[f64]) -> f64 {
    expected_qos_expr(workflow).eval(means)
}

/// Expected number of invocations of each service per request
/// (`out[s]` for service `s`, over `n_services` ids).
///
/// Choices weight branch visits by probability; loops multiply by expected
/// iterations. Used to size workloads: the expected work a request brings
/// to station `s` is `visits[s] · mean_service_time[s]`, so the arrival
/// rate that keeps every station below a target utilization is
/// `ρ_target / max_s (visits[s] · mean[s])`.
pub fn expected_visits(workflow: &Workflow, n_services: usize) -> Vec<f64> {
    let mut visits = vec![0.0; n_services];
    accumulate_visits(workflow, 1.0, &mut visits);
    visits
}

fn accumulate_visits(workflow: &Workflow, weight: f64, visits: &mut [f64]) {
    match workflow {
        Workflow::Task(s) => visits[*s] += weight,
        Workflow::Seq(parts) | Workflow::Par(parts) => {
            for p in parts {
                accumulate_visits(p, weight, visits);
            }
        }
        Workflow::Choice(branches) => {
            for (p, b) in branches {
                accumulate_visits(b, weight * p, visits);
            }
        }
        Workflow::Loop { body, spec } => {
            accumulate_visits(body, weight * spec.expected_iterations(), visits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ediamond::ediamond_workflow;

    /// How much the expected response time drops when service `s` is
    /// accelerated by `factor` (e.g. `0.9` = 10% faster), everything else
    /// fixed.
    fn acceleration_impact(workflow: &Workflow, means: &[f64], s: usize, factor: f64) -> f64 {
        let baseline = expected_response_time(workflow, means);
        let mut scaled = means.to_vec();
        scaled[s] *= factor;
        baseline - expected_response_time(workflow, &scaled)
    }

    #[test]
    fn expected_response_time_of_ediamond() {
        let wf = ediamond_workflow();
        // Means: X1=1, X2=2, X3=3, X4=4, X5=5, X6=6 → 1+2+max(8,10)=13.
        let means = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(expected_response_time(&wf, &means), 13.0);
    }

    #[test]
    fn accelerating_off_critical_path_has_no_impact() {
        // This is the paper's §5.2 motivation: speeding a service invoked
        // in parallel with a much slower one buys nothing.
        let wf = ediamond_workflow();
        let means = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // remote path dominates
        let local_impact = acceleration_impact(&wf, &means, 2, 0.5);
        let remote_impact = acceleration_impact(&wf, &means, 3, 0.5);
        assert_eq!(local_impact, 0.0);
        assert!(remote_impact > 0.0);
    }

    #[test]
    fn sequential_services_always_matter() {
        let wf = ediamond_workflow();
        let means = [10.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let impact = acceleration_impact(&wf, &means, 0, 0.9);
        assert!((impact - 1.0).abs() < 1e-12); // 10% of 10.
    }

    #[test]
    fn expected_visits_accounts_for_choice_and_loops() {
        use crate::construct::LoopSpec;
        let wf = Workflow::Seq(vec![
            Workflow::Task(0),
            Workflow::Choice(vec![(0.25, Workflow::Task(1)), (0.75, Workflow::Task(2))]),
            Workflow::Loop {
                body: Box::new(Workflow::Task(3)),
                spec: LoopSpec::Count(3),
            },
        ]);
        let v = expected_visits(&wf, 4);
        assert_eq!(v, vec![1.0, 0.25, 0.75, 3.0]);
        // eDiaMoND: every service exactly once.
        let e = expected_visits(&ediamond_workflow(), 6);
        assert_eq!(e, vec![1.0; 6]);
    }
}
