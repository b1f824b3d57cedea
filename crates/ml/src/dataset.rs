//! Feature matrices, labels and dataset splits.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The learning task of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Binary classification with labels in {0, 1}.
    BinaryClassification,
    /// Multi-class classification with labels in {0, .., n_classes − 1}.
    MultiClassification {
        /// Number of classes.
        n_classes: usize,
    },
    /// Regression with real-valued labels.
    Regression,
}

impl Task {
    /// True for (binary or multi-class) classification.
    pub fn is_classification(&self) -> bool {
        !matches!(self, Task::Regression)
    }

    /// Number of classes (1 for regression, 2 for binary).
    pub fn n_classes(&self) -> usize {
        match self {
            Task::BinaryClassification => 2,
            Task::MultiClassification { n_classes } => *n_classes,
            Task::Regression => 1,
        }
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Build from row-major data. Panics when `data.len() != rows * cols`.
    pub fn new(data: Vec<f64>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { data, rows, cols }
    }

    /// A rows×cols matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a slice of rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            data,
            rows: n_rows,
            cols: n_cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Value at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Set the value at (`row`, `col`).
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.cols + col] = value;
    }

    /// Column `j` copied into a vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Select a subset of rows (in order, duplicates allowed).
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            rows: indices.len(),
            cols: self.cols,
        }
    }

    /// Append a column, returning a new matrix.
    pub fn with_column(&self, col: &[f64]) -> Matrix {
        assert_eq!(col.len(), self.rows, "column length mismatch");
        let mut data = Vec::with_capacity(self.rows * (self.cols + 1));
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.push(col[i]);
        }
        Matrix {
            data,
            rows: self.rows,
            cols: self.cols + 1,
        }
    }
}

/// A labelled dataset: features, labels, feature names and a task type.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix, one row per example.
    pub x: Matrix,
    /// Labels (class index for classification, target for regression).
    pub y: Vec<f64>,
    /// Feature names (same order as matrix columns).
    pub feature_names: Vec<String>,
    /// The learning task.
    pub task: Task,
}

impl Dataset {
    /// Build a dataset, checking that shapes agree.
    pub fn new(x: Matrix, y: Vec<f64>, feature_names: Vec<String>, task: Task) -> Self {
        assert_eq!(x.rows(), y.len(), "labels must match matrix rows");
        assert_eq!(
            x.cols(),
            feature_names.len(),
            "names must match matrix columns"
        );
        Dataset {
            x,
            y,
            feature_names,
            task,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Subset of rows.
    pub fn take(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.take_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            feature_names: self.feature_names.clone(),
            task: self.task,
        }
    }

    /// Append a feature column (e.g. a freshly generated FeatAug feature).
    pub fn with_feature(&self, name: impl Into<String>, values: &[f64]) -> Dataset {
        let mut names = self.feature_names.clone();
        names.push(name.into());
        Dataset {
            x: self.x.with_column(values),
            y: self.y.clone(),
            feature_names: names,
            task: self.task,
        }
    }

    /// Deterministic shuffled split into (train, valid, test) with the given fractions
    /// (test gets the remainder). Fractions must sum to at most 1.
    pub fn split3(&self, train: f64, valid: f64, seed: u64) -> (Dataset, Dataset, Dataset) {
        let [train_idx, valid_idx, test_idx] = self.split3_indices(train, valid, seed);
        (
            self.take(&train_idx),
            self.take(&valid_idx),
            self.take(&test_idx),
        )
    }

    /// The row indices [`Dataset::split3`] takes for (train, valid, test), in order.
    pub fn split3_indices(&self, train: f64, valid: f64, seed: u64) -> [Vec<usize>; 3] {
        assert!(train + valid <= 1.0 + 1e-9, "fractions exceed 1");
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let n_train = (self.len() as f64 * train).round() as usize;
        let n_valid = (self.len() as f64 * valid).round() as usize;
        let n_train = n_train.min(self.len());
        let n_valid = n_valid.min(self.len() - n_train);
        let test_idx = indices.split_off(n_train + n_valid);
        let valid_idx = indices.split_off(n_train);
        [indices, valid_idx, test_idx]
    }

    /// Deterministic shuffled (train, valid) split.
    pub fn split2(&self, train: f64, seed: u64) -> (Dataset, Dataset) {
        let (a, b, c) = self.split3(train, 1.0 - train, seed);
        debug_assert_eq!(c.len(), 0);
        (a, b)
    }

    /// Replace non-finite feature values with per-column means computed over finite entries
    /// (columns that are entirely non-finite become 0). Returns the per-column means used,
    /// so validation/test data can be imputed consistently via [`Dataset::impute_with`].
    pub fn impute_mean(&mut self) -> Vec<f64> {
        let cols = self.x.cols();
        let mut means = vec![0.0; cols];
        for j in 0..cols {
            let col = self.x.column(j);
            let finite: Vec<f64> = col.iter().copied().filter(|v| v.is_finite()).collect();
            let mean = if finite.is_empty() {
                0.0
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            means[j] = mean;
        }
        self.impute_with(&means);
        means
    }

    /// Replace non-finite feature values with the provided per-column fill values.
    pub fn impute_with(&mut self, fill: &[f64]) {
        assert_eq!(fill.len(), self.x.cols());
        for i in 0..self.x.rows() {
            for j in 0..self.x.cols() {
                if !self.x.get(i, j).is_finite() {
                    self.x.set(i, j, fill[j]);
                }
            }
        }
    }

    /// Standardise features to zero mean / unit variance, returning the (mean, std) pairs so
    /// other splits can be transformed consistently via [`Dataset::standardize_with`].
    pub fn standardize(&mut self) -> Vec<(f64, f64)> {
        let cols = self.x.cols();
        let rows = self.x.rows();
        let mut stats = Vec::with_capacity(cols);
        for j in 0..cols {
            let col = self.x.column(j);
            let mean = col.iter().sum::<f64>() / rows.max(1) as f64;
            let var = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / rows.max(1) as f64;
            let std = var.sqrt().max(1e-12);
            stats.push((mean, std));
        }
        self.standardize_with(&stats);
        stats
    }

    /// Apply a previously computed standardisation.
    pub fn standardize_with(&mut self, stats: &[(f64, f64)]) {
        assert_eq!(stats.len(), self.x.cols());
        for i in 0..self.x.rows() {
            for j in 0..self.x.cols() {
                let (mean, std) = stats[j];
                let v = (self.x.get(i, j) - mean) / std;
                self.x.set(i, j, v);
            }
        }
    }

    /// Fraction of examples with the positive label (binary classification sanity check).
    pub fn positive_rate(&self) -> f64 {
        if self.y.is_empty() {
            return 0.0;
        }
        self.y.iter().filter(|&&y| y > 0.5).count() as f64 / self.y.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        Dataset::new(
            Matrix::from_rows(&rows),
            y,
            vec!["a".into(), "b".into()],
            Task::BinaryClassification,
        )
    }

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
        let taken = m.take_rows(&[1, 1]);
        assert_eq!(taken.rows(), 2);
        assert_eq!(taken.get(0, 1), 4.0);
        let wider = m.with_column(&[9.0, 8.0]);
        assert_eq!(wider.cols(), 3);
        assert_eq!(wider.get(0, 2), 9.0);
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn matrix_shape_checked() {
        let _ = Matrix::new(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[test]
    fn split3_partitions_all_rows() {
        let d = toy(100);
        let (tr, va, te) = d.split3(0.6, 0.2, 7);
        assert_eq!(tr.len() + va.len() + te.len(), 100);
        assert_eq!(tr.len(), 60);
        assert_eq!(va.len(), 20);
        // Deterministic given the seed.
        let (tr2, _, _) = d.split3(0.6, 0.2, 7);
        assert_eq!(tr.y, tr2.y);
        // Different seed shuffles differently (overwhelmingly likely).
        let (tr3, _, _) = d.split3(0.6, 0.2, 8);
        assert_ne!(tr.x, tr3.x);
    }

    #[test]
    fn with_feature_appends_column() {
        let d = toy(4);
        let d2 = d.with_feature("new", &[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(d2.n_features(), 3);
        assert_eq!(d2.feature_names.last().unwrap(), "new");
        assert_eq!(d2.x.get(2, 2), 9.0);
    }

    #[test]
    fn impute_replaces_non_finite() {
        let mut d = Dataset::new(
            Matrix::from_rows(&[vec![1.0, f64::NAN], vec![3.0, 4.0]]),
            vec![0.0, 1.0],
            vec!["a".into(), "b".into()],
            Task::BinaryClassification,
        );
        let means = d.impute_mean();
        assert_eq!(means, vec![2.0, 4.0]);
        assert_eq!(d.x.get(0, 1), 4.0);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let mut d = toy(50);
        d.standardize();
        for j in 0..d.n_features() {
            let col = d.x.column(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            let var: f64 =
                col.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn task_helpers() {
        assert!(Task::BinaryClassification.is_classification());
        assert!(!Task::Regression.is_classification());
        assert_eq!(Task::MultiClassification { n_classes: 4 }.n_classes(), 4);
        assert_eq!(Task::Regression.n_classes(), 1);
    }

    #[test]
    fn positive_rate() {
        let d = toy(10);
        assert!((d.positive_rate() - 0.5).abs() < 1e-9);
    }
}
