//! Column-labelled datasets.
//!
//! One [`Dataset`] serves both model families: values are stored as `f64`;
//! a discrete view interprets them as state indices (the discretizer
//! produces exactly that). Rows are observations (one per monitored request
//! or reporting interval), columns are variables in network node order.

use serde::{Deserialize, Serialize};

use crate::{BayesError, Result};

/// A rectangular dataset: `rows` observations of `columns()` variables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    names: Vec<String>,
    /// Row-major values, `rows × names.len()`.
    values: Vec<f64>,
}

impl Dataset {
    /// Create an empty dataset with the given column names.
    pub fn new(names: Vec<String>) -> Self {
        Dataset {
            names,
            values: Vec::new(),
        }
    }

    /// Build from a row-major matrix of values.
    pub fn from_rows(names: Vec<String>, rows: Vec<Vec<f64>>) -> Result<Self> {
        let mut ds = Dataset::new(names);
        for row in rows {
            ds.push_row(row)?;
        }
        Ok(ds)
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        if self.names.is_empty() {
            0
        } else {
            self.values.len() / self.names.len()
        }
    }

    /// True if the dataset holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Append a row; its length must match the column count.
    pub fn push_row(&mut self, row: Vec<f64>) -> Result<()> {
        if row.len() != self.columns() {
            return Err(BayesError::InvalidData(format!(
                "row has {} values, dataset has {} columns",
                row.len(),
                self.columns()
            )));
        }
        self.values.extend(row);
        Ok(())
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        let c = self.columns();
        &self.values[r * c..(r + 1) * c]
    }

    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.columns() + col]
    }

    /// Copy a column out by index.
    pub fn column(&self, col: usize) -> Vec<f64> {
        (0..self.rows()).map(|r| self.get(r, col)).collect()
    }

    /// The last `k` rows as a new dataset (the sliding window `W` of the
    /// paper's reconstruction scheme keeps only recent data).
    pub fn tail(&self, k: usize) -> Dataset {
        let rows = self.rows();
        let start = rows.saturating_sub(k);
        let mut out = Dataset::new(self.names.clone());
        for r in start..rows {
            out.values.extend_from_slice(self.row(r));
        }
        out
    }

    /// Split into `(train, test)` with the first `train_rows` rows in train.
    pub fn split_at(&self, train_rows: usize) -> (Dataset, Dataset) {
        let rows = self.rows();
        let cut = train_rows.min(rows);
        let mut train = Dataset::new(self.names.clone());
        let mut test = Dataset::new(self.names.clone());
        for r in 0..cut {
            train.values.extend_from_slice(self.row(r));
        }
        for r in cut..rows {
            test.values.extend_from_slice(self.row(r));
        }
        (train, test)
    }

    /// Project onto a subset of columns (in the order given), copying.
    pub fn project(&self, cols: &[usize]) -> Result<Dataset> {
        for &c in cols {
            if c >= self.columns() {
                return Err(BayesError::InvalidNode(c));
            }
        }
        let names = cols.iter().map(|&c| self.names[c].clone()).collect();
        let mut out = Dataset::new(names);
        for r in 0..self.rows() {
            let row = self.row(r);
            out.values.extend(cols.iter().map(|&c| row[c]));
        }
        Ok(out)
    }

    /// Append all rows of another dataset with identical columns.
    pub fn extend_from(&mut self, other: &Dataset) -> Result<()> {
        if other.names != self.names {
            return Err(BayesError::InvalidData(
                "extend_from: column names differ".into(),
            ));
        }
        self.values.extend_from_slice(&other.values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Dataset {
        Dataset::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
        )
        .unwrap()
    }

    #[test]
    fn shape_and_access() {
        let ds = demo();
        assert_eq!(ds.rows(), 3);
        assert_eq!(ds.columns(), 2);
        assert_eq!(ds.get(1, 1), 20.0);
        assert_eq!(ds.row(2), &[3.0, 30.0]);
        assert_eq!(ds.column(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ragged_row_rejected() {
        let mut ds = demo();
        assert!(ds.push_row(vec![1.0]).is_err());
        assert_eq!(ds.rows(), 3);
    }

    #[test]
    fn tail_keeps_most_recent() {
        let ds = demo();
        let t = ds.tail(2);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.row(0), &[2.0, 20.0]);
        // Tail larger than the dataset returns everything.
        assert_eq!(ds.tail(100).rows(), 3);
    }

    #[test]
    fn split_and_project() {
        let ds = demo();
        let (train, test) = ds.split_at(2);
        assert_eq!(train.rows(), 2);
        assert_eq!(test.rows(), 1);
        assert_eq!(test.row(0), &[3.0, 30.0]);

        let p = ds.project(&[1]).unwrap();
        assert_eq!(p.names(), &["b".to_string()]);
        assert_eq!(p.column(0), vec![10.0, 20.0, 30.0]);
        assert!(ds.project(&[5]).is_err());
    }

    #[test]
    fn extend_requires_matching_schema() {
        let mut a = demo();
        let b = demo();
        a.extend_from(&b).unwrap();
        assert_eq!(a.rows(), 6);
        let c = Dataset::new(vec!["x".into(), "b".into()]);
        assert!(a.extend_from(&c).is_err());
    }
}
