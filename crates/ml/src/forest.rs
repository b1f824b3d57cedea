//! Random forests: bootstrap-aggregated CART trees with per-split feature subsampling.
//!
//! This is the paper's "RF" downstream model. Binary classification averages the trees'
//! positive-class probabilities, multi-class classification averages full class distributions,
//! and regression averages leaf means.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, Matrix, Task};
use crate::model::Model;
use crate::tree::{ColumnRanks, DecisionTree, SplitCriterion, TreeConfig};

/// Random-forest hyperparameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth configuration. `max_features` defaults to sqrt(n_features) when `None`.
    pub tree: TreeConfig,
    /// Bootstrap sample fraction.
    pub sample_fraction: f64,
    /// RNG seed (per-tree seeds are derived from it).
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 30,
            tree: TreeConfig {
                max_depth: 8,
                ..TreeConfig::default()
            },
            sample_fraction: 1.0,
            seed: 42,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    cfg: ForestConfig,
    task: Task,
    trees: Vec<DecisionTree>,
    n_features: usize,
    fitted: bool,
}

impl RandomForest {
    /// Create an unfitted forest.
    pub fn new(cfg: ForestConfig) -> Self {
        RandomForest {
            cfg,
            task: Task::BinaryClassification,
            trees: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }

    /// Mean split-gain importance per feature, normalised to sum to 1 (all-zero when the forest
    /// never split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            for (j, v) in t.feature_importances().iter().enumerate() {
                imp[j] += v;
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    fn criterion(&self) -> SplitCriterion {
        match self.task {
            Task::Regression => SplitCriterion::Variance,
            Task::BinaryClassification => SplitCriterion::Gini { n_classes: 2 },
            Task::MultiClassification { n_classes } => SplitCriterion::Gini { n_classes },
        }
    }
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(ForestConfig::default())
    }
}

impl Model for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.task = data.task;
        self.n_features = data.n_features();
        let mut train = data.clone();
        train.impute_mean();

        let mut tree_cfg = self.cfg.tree.clone();
        if tree_cfg.max_features.is_none() {
            let k = (data.n_features() as f64).sqrt().ceil() as usize;
            tree_cfg.max_features = Some(k.max(1));
        }

        self.trees.clear();
        let n = train.len();
        let sample_size = ((n as f64) * self.cfg.sample_fraction).round().max(1.0) as usize;
        for t in 0..self.cfg.n_trees {
            let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(t as u64));
            // Bootstrap sample with replacement.
            let indices: Vec<usize> = (0..sample_size).map(|_| rng.gen_range(0..n)).collect();
            let sub = train.take(&indices);
            let mut tree = DecisionTree::new(self.criterion(), tree_cfg.clone());
            tree.fit(&ColumnRanks::new(&sub.x), &sub.y, &mut rng);
            self.trees.push(tree);
        }
        self.fitted = true;
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "predict called before fit");
        let n = x.rows();
        match self.task {
            Task::Regression => {
                let mut out = vec![0.0; n];
                for tree in &self.trees {
                    for (o, p) in out.iter_mut().zip(tree.predict(x)) {
                        *o += p;
                    }
                }
                out.iter()
                    .map(|v| v / self.trees.len().max(1) as f64)
                    .collect()
            }
            Task::BinaryClassification => {
                let mut out = vec![0.0; n];
                for tree in &self.trees {
                    for (o, probs) in out.iter_mut().zip(tree.predict_proba(x)) {
                        *o += probs.get(1).copied().unwrap_or(0.0);
                    }
                }
                out.iter()
                    .map(|v| v / self.trees.len().max(1) as f64)
                    .collect()
            }
            Task::MultiClassification { n_classes } => {
                let mut probs = vec![vec![0.0; n_classes]; n];
                for tree in &self.trees {
                    for (acc, p) in probs.iter_mut().zip(tree.predict_proba(x)) {
                        for (a, v) in acc.iter_mut().zip(p) {
                            *a += v;
                        }
                    }
                }
                probs
                    .iter()
                    .map(|p| {
                        p.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(c, _)| c as f64)
                            .unwrap_or(0.0)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, auc, rmse};

    fn xor_dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 20) % 15) as f64 / 15.0;
            rows.push(vec![a, b]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        Dataset::new(
            Matrix::from_rows(&rows),
            y,
            vec!["a".into(), "b".into()],
            Task::BinaryClassification,
        )
    }

    #[test]
    fn forest_solves_xor_binary() {
        let data = xor_dataset();
        let mut rf = RandomForest::default();
        rf.fit(&data);
        let probs = rf.predict(&data.x);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        assert!(auc(&data.y, &probs) > 0.95);
    }

    #[test]
    fn forest_regression_fits_nonlinear_target() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin() * 3.0).collect();
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y.clone(),
            vec!["x".into()],
            Task::Regression,
        );
        let mut rf = RandomForest::default();
        rf.fit(&data);
        let preds = rf.predict(&data.x);
        assert!(rmse(&y, &preds) < 0.5, "rmse = {}", rmse(&y, &preds));
    }

    #[test]
    fn forest_multiclass_predicts_class_indices() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..240 {
            let c = i % 3;
            rows.push(vec![c as f64 * 5.0 + (i % 7) as f64 * 0.1, (i % 11) as f64]);
            y.push(c as f64);
        }
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y.clone(),
            vec!["x".into(), "noise".into()],
            Task::MultiClassification { n_classes: 3 },
        );
        let mut rf = RandomForest::default();
        rf.fit(&data);
        let preds = rf.predict(&data.x);
        assert!(preds.iter().all(|p| [0.0, 1.0, 2.0].contains(p)));
        assert!(accuracy(&y, &preds) > 0.9);
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let data = xor_dataset();
        let mut a = RandomForest::new(ForestConfig {
            n_trees: 5,
            ..ForestConfig::default()
        });
        let mut b = RandomForest::new(ForestConfig {
            n_trees: 5,
            ..ForestConfig::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict(&data.x), b.predict(&data.x));
    }

    #[test]
    fn importances_sum_to_one_and_favor_signal() {
        let data = xor_dataset().with_feature("noise", &vec![1.0; 300]);
        let mut rf = RandomForest::default();
        rf.fit(&data);
        let imp = rf.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[2] < imp[0] && imp[2] < imp[1]);
    }
}
