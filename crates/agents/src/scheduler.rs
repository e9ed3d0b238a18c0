//! The periodic model-(re)construction scheme of §2.
//!
//! Two equations govern when models are rebuilt and on how much data:
//!
//! ```text
//! T_CON = α_model · T_DATA          (Eq. 2)
//! W     = K · T_CON                 (Eq. 1)
//! ```
//!
//! `T_DATA` is the monitoring cadence, `α_model` the Model Construction
//! Coefficient (how many collection intervals one construction interval
//! spans), and `K` the Environmental Correlation Metric (how many
//! construction intervals of history remain statistically relevant —
//! fast-changing autonomic environments get small `K`). `K · α_model` is
//! the number of data points available to each reconstruction.

use kert_bayes::Dataset;
use serde::{Deserialize, Serialize};

use crate::{AgentError, Result};

/// The paper's reconstruction-schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelSchedule {
    /// Data collection interval `T_DATA` (seconds).
    pub t_data: f64,
    /// Model construction coefficient `α_model` (collection intervals per
    /// construction interval).
    pub alpha_model: usize,
    /// Environmental correlation metric `K` (construction intervals of
    /// usable history).
    pub k: usize,
}

impl ModelSchedule {
    /// The §4 simulation setting: `T_DATA = 10 s`, `K = 3`.
    pub fn simulation_section(alpha_model: usize) -> Self {
        ModelSchedule {
            t_data: 10.0,
            alpha_model,
            k: 3,
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<()> {
        if self.t_data <= 0.0 || !self.t_data.is_finite() {
            return Err(AgentError::BadSchedule(format!("T_DATA = {}", self.t_data)));
        }
        if self.alpha_model == 0 {
            return Err(AgentError::BadSchedule("α_model = 0".into()));
        }
        if self.k == 0 {
            return Err(AgentError::BadSchedule("K = 0".into()));
        }
        Ok(())
    }

    /// Construction interval `T_CON = α_model · T_DATA` (seconds).
    pub fn t_con(&self) -> f64 {
        self.alpha_model as f64 * self.t_data
    }

    /// Sliding window `W = K · T_CON` (seconds).
    pub fn window(&self) -> f64 {
        self.k as f64 * self.t_con()
    }

    /// Data points available per reconstruction: `K · α_model`.
    pub fn points_per_window(&self) -> usize {
        self.k * self.alpha_model
    }

    /// Whether a model built in `build_time` seconds is *feasible* at this
    /// schedule: construction must finish before the next one is due.
    pub fn is_feasible(&self, build_time: f64) -> bool {
        build_time <= self.t_con()
    }
}

/// A sliding-window data buffer driving periodic reconstructions.
///
/// Feed it the dataset batch of each collection interval; every `α_model`
/// batches it signals that a reconstruction is due and exposes the last
/// `K · α_model` points as the training window.
#[derive(Debug, Clone)]
pub struct ReconstructionWindow {
    schedule: ModelSchedule,
    buffer: Dataset,
    batches_since_build: usize,
    rebuilds: usize,
}

impl ReconstructionWindow {
    /// Create an empty window for a dataset schema.
    pub fn new(schedule: ModelSchedule, column_names: Vec<String>) -> Result<Self> {
        schedule.validate()?;
        Ok(ReconstructionWindow {
            schedule,
            buffer: Dataset::new(column_names),
            batches_since_build: 0,
            rebuilds: 0,
        })
    }

    /// Number of reconstructions triggered so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Push one collection interval's data (typically one row; bursty
    /// intervals may carry several). Returns the training window when a
    /// reconstruction is due, `None` otherwise.
    pub fn push_interval(&mut self, batch: &Dataset) -> Result<Option<Dataset>> {
        self.buffer
            .extend_from(batch)
            .map_err(|e| AgentError::BadLocalData(e.to_string()))?;
        self.batches_since_build += 1;
        if self.batches_since_build < self.schedule.alpha_model {
            return Ok(None);
        }
        self.batches_since_build = 0;
        self.rebuilds += 1;
        // Slide: keep at most W worth of rows (one row per interval makes
        // rows ≈ intervals; bursty feeds just keep the most recent points).
        let keep = self.schedule.points_per_window();
        self.buffer = self.buffer.tail(keep);
        Ok(Some(self.buffer.clone()))
    }
}

/// The naive alternative §2 argues against: *sequential update* without a
/// window. All data since the beginning of time feeds every rebuild, so
/// "out-of-date information lingers in the updated model and adversely
/// impacts its accuracy" after the environment changes. Implemented for
/// the update-vs-reconstruct ablation.
#[derive(Debug, Clone)]
pub struct CumulativeUpdater {
    alpha_model: usize,
    buffer: Dataset,
    batches_since_build: usize,
    rebuilds: usize,
}

impl CumulativeUpdater {
    /// Create an empty accumulator rebuilding every `alpha_model` batches.
    pub fn new(alpha_model: usize, column_names: Vec<String>) -> Result<Self> {
        if alpha_model == 0 {
            return Err(AgentError::BadSchedule("α_model = 0".into()));
        }
        Ok(CumulativeUpdater {
            alpha_model,
            buffer: Dataset::new(column_names),
            batches_since_build: 0,
            rebuilds: 0,
        })
    }

    /// Number of rebuilds triggered so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Rows accumulated so far (never shrinks — that is the point).
    pub fn accumulated_rows(&self) -> usize {
        self.buffer.rows()
    }

    /// Push one collection interval's data; returns the *entire history*
    /// as the training set when a rebuild is due.
    pub fn push_interval(&mut self, batch: &Dataset) -> Result<Option<Dataset>> {
        self.buffer
            .extend_from(batch)
            .map_err(|e| AgentError::BadLocalData(e.to_string()))?;
        self.batches_since_build += 1;
        if self.batches_since_build < self.alpha_model {
            return Ok(None);
        }
        self.batches_since_build = 0;
        self.rebuilds += 1;
        Ok(Some(self.buffer.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equations_1_and_2() {
        // The paper's §4 numbers: α = 12, T_DATA = 10 s, K = 3
        // → T_CON = 2 min, 36 points.
        let s = ModelSchedule::simulation_section(12);
        assert_eq!(s.t_con(), 120.0);
        assert_eq!(s.window(), 360.0);
        assert_eq!(s.points_per_window(), 36);
        // §4's largest setting: α = 360 → 1080 points, T_CON = 60 min.
        let big = ModelSchedule::simulation_section(360);
        assert_eq!(big.t_con(), 3600.0);
        assert_eq!(big.points_per_window(), 1080);
    }

    #[test]
    fn testbed_numbers() {
        // §5 quotes T_DATA = 20 s, α = 120, K = 10, "T_CON = 20 minutes" and
        // 1200 training points. The points figure (K·α = 1200) is consistent,
        // but α·T_DATA is 2400 s = 40 min, not 20 — a small arithmetic slip
        // in the paper. We keep Eq. 2 authoritative.
        let s = ModelSchedule {
            t_data: 20.0,
            alpha_model: 120,
            k: 10,
        };
        assert_eq!(s.t_con(), 2400.0);
        assert_eq!(s.points_per_window(), 1200);
    }

    #[test]
    fn feasibility_check() {
        let s = ModelSchedule::simulation_section(12);
        assert!(s.is_feasible(100.0));
        assert!(!s.is_feasible(121.0));
    }

    #[test]
    fn validation() {
        assert!(ModelSchedule {
            t_data: 0.0,
            alpha_model: 1,
            k: 1
        }
        .validate()
        .is_err());
        assert!(ModelSchedule {
            t_data: 1.0,
            alpha_model: 0,
            k: 1
        }
        .validate()
        .is_err());
        assert!(ModelSchedule {
            t_data: 1.0,
            alpha_model: 1,
            k: 0
        }
        .validate()
        .is_err());
    }

    fn one_row(v: f64) -> Dataset {
        Dataset::from_rows(vec!["x".into()], vec![vec![v]]).unwrap()
    }

    #[test]
    fn window_triggers_every_alpha_batches_and_slides() {
        let schedule = ModelSchedule {
            t_data: 1.0,
            alpha_model: 3,
            k: 2,
        };
        let mut w = ReconstructionWindow::new(schedule, vec!["x".into()]).unwrap();
        let mut windows = Vec::new();
        for i in 0..12 {
            if let Some(train) = w.push_interval(&one_row(i as f64)).unwrap() {
                windows.push(train);
            }
        }
        // 12 intervals / α=3 → 4 rebuilds.
        assert_eq!(windows.len(), 4);
        assert_eq!(w.rebuilds(), 4);
        // First rebuild sees 3 points; later ones are capped at K·α = 6.
        assert_eq!(windows[0].rows(), 3);
        assert_eq!(windows[1].rows(), 6);
        assert_eq!(windows[3].rows(), 6);
        // Sliding: the last window holds the 6 most recent values.
        let last = &windows[3];
        assert_eq!(last.column(0), vec![6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn cumulative_updater_never_forgets() {
        let mut u = CumulativeUpdater::new(2, vec!["x".into()]).unwrap();
        let mut trainings = Vec::new();
        for i in 0..8 {
            if let Some(t) = u.push_interval(&one_row(i as f64)).unwrap() {
                trainings.push(t);
            }
        }
        assert_eq!(u.rebuilds(), 4);
        // Training sets grow without bound: 2, 4, 6, 8 rows.
        let sizes: Vec<usize> = trainings.iter().map(|t| t.rows()).collect();
        assert_eq!(sizes, vec![2, 4, 6, 8]);
        // The very first value is still in the last training set.
        assert_eq!(trainings[3].get(0, 0), 0.0);
        assert!(CumulativeUpdater::new(0, vec!["x".into()]).is_err());
    }

    #[test]
    fn schema_mismatch_is_reported() {
        let schedule = ModelSchedule {
            t_data: 1.0,
            alpha_model: 2,
            k: 1,
        };
        let mut w = ReconstructionWindow::new(schedule, vec!["x".into()]).unwrap();
        let bad = Dataset::new(vec!["y".into()]);
        assert!(w.push_interval(&bad).is_err());
    }
}
