//! Model-construction cost accounting.
//!
//! Figures 3–5 of the paper plot *construction time*, split into the two
//! phases the paper analyzes: structure determination (expensive for
//! NRT-BN, free for KERT-BN) and parameter learning (full for NRT-BN,
//! partial and optionally decentralized for KERT-BN).

use std::time::Duration;

/// Cost breakdown of one model construction.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Time to obtain the DAG (K2 search for NRT-BN; knowledge compilation
    /// for KERT-BN — microseconds).
    pub structure_time: Duration,
    /// Effective parameter-learning time: the sequential sum for
    /// centralized learning, the per-node maximum for decentralized
    /// learning (each agent runs on its own machine).
    pub parameter_time: Duration,
    /// Family-score evaluations performed during structure search (0 for
    /// KERT-BN) — the `O(n²)` driver behind Figure 4's superlinear curve.
    pub score_evaluations: usize,
}

impl BuildReport {
    /// Total effective construction time.
    pub fn total(&self) -> Duration {
        self.structure_time + self.parameter_time
    }

    /// Total in seconds (for plotting).
    pub fn total_secs(&self) -> f64 {
        self.total().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = BuildReport {
            structure_time: Duration::from_millis(30),
            parameter_time: Duration::from_millis(70),
            score_evaluations: 12,
        };
        assert_eq!(r.total(), Duration::from_millis(100));
        assert!((r.total_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = BuildReport::default();
        assert_eq!(r.total(), Duration::ZERO);
    }
}
