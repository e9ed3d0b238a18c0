//! Discretization of continuous measurements.
//!
//! The paper's test-bed section (§5) uses *discrete* KERT-BNs: elapsed-time
//! measurements are binned into a small number of states. This module
//! provides equal-frequency binning fitted on training data, plus the bin
//! metadata (interior edges, representative midpoints)
//! that the deterministic CPD needs to evaluate `f` on state indices.

use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::{BayesError, Result};

/// Discretization of a single continuous column into `bins` states.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnBins {
    /// Interior cut points, ascending, length `bins − 1`. Value `v` maps to
    /// state `#{e ∈ edges : v ≥ e}`.
    pub edges: Vec<f64>,
    /// Representative value per state: the mean of the training values
    /// falling in the bin (its centroid). On skewed data this is a far
    /// better stand-in than the geometric bin center — the outer bin of a
    /// heavy-tailed column is dragged toward the max by a single outlier,
    /// and a sum of center-based representatives then systematically
    /// overshoots. Empty bins (possible after tie-nudging of
    /// equal-frequency edges) fall back to the geometric center.
    pub midpoints: Vec<f64>,
    /// Smallest training value (lower boundary of bin 0).
    pub lo: f64,
    /// Largest training value (upper boundary of the last bin).
    pub hi: f64,
}

impl ColumnBins {
    /// Fit equal-frequency bins on training values.
    pub fn fit(values: &[f64], bins: usize) -> Result<Self> {
        if bins < 2 {
            return Err(BayesError::InvalidData(format!(
                "need at least 2 bins, got {bins}"
            )));
        }
        if values.is_empty() {
            return Err(BayesError::InvalidData("cannot fit bins on no data".into()));
        }
        let (lo, hi) = kert_linalg::stats::min_max(values);
        // Bins holding (approximately) equal numbers of training points.
        let mut edges: Vec<f64> = (1..bins)
            .map(|k| kert_linalg::stats::quantile(values, k as f64 / bins as f64))
            .collect();
        // Quantiles of heavily tied data may repeat; nudge to keep edges
        // strictly increasing so every state is reachable.
        for i in 1..edges.len() {
            if edges[i] <= edges[i - 1] {
                edges[i] = edges[i - 1].next_up();
            }
        }
        // Representatives: within-bin training means, geometric centers for
        // empty bins.
        let mut sums = vec![0.0f64; bins];
        let mut counts = vec![0usize; bins];
        for &v in values {
            let s = edges.iter().take_while(|&&e| v >= e).count();
            sums[s] += v;
            counts[s] += 1;
        }
        let mut bounds = Vec::with_capacity(bins + 1);
        bounds.push(lo);
        bounds.extend_from_slice(&edges);
        bounds.push(hi);
        let midpoints = (0..bins)
            .map(|s| {
                if counts[s] > 0 {
                    sums[s] / counts[s] as f64
                } else {
                    0.5 * (bounds[s] + bounds[s + 1])
                }
            })
            .collect();
        Ok(ColumnBins {
            edges,
            midpoints,
            lo,
            hi,
        })
    }

    /// Number of states.
    pub fn bins(&self) -> usize {
        self.edges.len() + 1
    }

    /// Map a value to its state index (values outside the training range
    /// clamp to the outer bins).
    pub fn state(&self, value: f64) -> usize {
        self.edges.iter().take_while(|&&e| value >= e).count()
    }

    /// Representative value of a state.
    pub fn midpoint(&self, state: usize) -> f64 {
        self.midpoints[state.min(self.midpoints.len() - 1)]
    }

    /// Value interval `[lower, upper)` covered by a state, with the
    /// training min/max closing the outer bins.
    pub fn bounds(&self, state: usize) -> (f64, f64) {
        let state = state.min(self.edges.len());
        let lower = if state == 0 {
            self.lo
        } else {
            self.edges[state - 1]
        };
        let upper = if state == self.edges.len() {
            self.hi
        } else {
            self.edges[state]
        };
        (lower, upper)
    }
}

/// A discretizer over all columns of a dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Discretizer {
    columns: Vec<ColumnBins>,
}

impl Discretizer {
    /// Fit per-column bins on a training dataset (same bin count for every
    /// column).
    pub fn fit(data: &Dataset, bins: usize) -> Result<Self> {
        let columns = (0..data.columns())
            .map(|c| ColumnBins::fit(&data.column(c), bins))
            .collect::<Result<Vec<_>>>()?;
        Ok(Discretizer { columns })
    }

    /// Number of columns the discretizer covers.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// Bins for column `c`.
    pub fn column(&self, c: usize) -> &ColumnBins {
        &self.columns[c]
    }

    /// Transform a continuous dataset into a dataset of state indices
    /// (stored as `f64`, per the [`Dataset`] convention).
    pub fn transform(&self, data: &Dataset) -> Result<Dataset> {
        if data.columns() != self.columns.len() {
            return Err(BayesError::InvalidData(format!(
                "discretizer covers {} columns, dataset has {}",
                self.columns.len(),
                data.columns()
            )));
        }
        let mut out = Dataset::new(data.names().to_vec());
        for r in 0..data.rows() {
            let row: Vec<f64> = data
                .row(r)
                .iter()
                .zip(self.columns.iter())
                .map(|(&v, bins)| bins.state(v) as f64)
                .collect();
            out.push_row(row)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range_at_known_quantiles() {
        // Eleven evenly spaced points: the k/5 quantiles fall exactly on
        // the points 2, 4, 6 and 8.
        let values: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let bins = ColumnBins::fit(&values, 5).unwrap();
        assert_eq!(bins.bins(), 5);
        assert_eq!(bins.edges, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(bins.state(0.0), 0);
        assert_eq!(bins.state(1.99), 0);
        assert_eq!(bins.state(2.0), 1);
        assert_eq!(bins.state(10.0), 4);
        // Out-of-range clamps.
        assert_eq!(bins.state(-5.0), 0);
        assert_eq!(bins.state(100.0), 4);
    }

    #[test]
    fn representatives_are_within_bin_means() {
        let values: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let bins = ColumnBins::fit(&values, 5).unwrap();
        // Bin 0 holds {0, 1}, bin 1 holds {2, 3}, …, bin 4 holds {8, 9, 10}.
        assert_eq!(bins.midpoints, vec![0.5, 2.5, 4.5, 6.5, 9.0]);
        assert_eq!(bins.midpoint(2), 4.5);
    }

    #[test]
    fn skewed_data_representatives_track_the_mass_not_the_range() {
        // 99 points near zero plus one huge outlier: the top bin's
        // representative must sit on its data, not halfway to the outlier.
        let mut values: Vec<f64> = (0..99).map(|i| i as f64 * 0.01).collect();
        values.push(1000.0);
        let bins = ColumnBins::fit(&values, 4).unwrap();
        let top = *bins.midpoints.last().unwrap();
        let lower_sane = bins.midpoints[..3].iter().all(|&m| m < 1.0);
        assert!(lower_sane, "midpoints={:?}", bins.midpoints);
        // Top bin: ~25 points below 1.0 and the 1000.0 outlier → mean ≈ 40,
        // far below the geometric center (~500).
        assert!(top < 100.0, "top representative {top}");
    }

    #[test]
    fn equal_frequency_balances_counts() {
        // Skewed data: bins of equal value width would cram most points
        // into bin 0.
        let mut values: Vec<f64> = (0..90).map(|i| i as f64 * 0.01).collect();
        values.extend((0..10).map(|i| 100.0 + i as f64));
        let bins = ColumnBins::fit(&values, 4).unwrap();
        let mut counts = vec![0usize; 4];
        for &v in &values {
            counts[bins.state(v)] += 1;
        }
        for &c in &counts {
            assert!(c >= 10, "counts={counts:?}");
        }
    }

    #[test]
    fn ties_do_not_collapse_edges() {
        let values = vec![1.0; 50];
        let bins = ColumnBins::fit(&values, 4).unwrap();
        for w in bins.edges.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(ColumnBins::fit(&[], 3).is_err());
        assert!(ColumnBins::fit(&[1.0, 2.0], 1).is_err());
    }

    #[test]
    fn discretizer_transform_roundtrip_shape() {
        let data = Dataset::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![0.0, 100.0], vec![5.0, 200.0], vec![10.0, 300.0]],
        )
        .unwrap();
        let disc = Discretizer::fit(&data, 2).unwrap();
        let states = disc.transform(&data).unwrap();
        assert_eq!(states.rows(), 3);
        assert_eq!(states.get(0, 0), 0.0);
        assert_eq!(states.get(2, 0), 1.0);
        assert_eq!(states.get(0, 1), 0.0);
        assert_eq!(states.get(2, 1), 1.0);
        assert!(disc.columns.iter().all(|c| c.bins() == 2));
    }

    #[test]
    fn transform_rejects_wrong_width() {
        let data = Dataset::from_rows(vec!["a".into()], vec![vec![1.0], vec![2.0]]).unwrap();
        let disc = Discretizer::fit(&data, 2).unwrap();
        let other = Dataset::new(vec!["a".into(), "b".into()]);
        assert!(disc.transform(&other).is_err());
    }
}
