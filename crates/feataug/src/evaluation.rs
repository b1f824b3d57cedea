//! Evaluating candidate features and augmented training tables with the downstream model.
//!
//! The paper's oracle is `L(A(D^q_train), D^q_valid)` (Problem 1): split the augmented training
//! table, train the downstream model on the train split and read its validation loss. This
//! module wraps that loop:
//!
//! * [`FeatureEvaluator`] holds the encoded base training table once and scores individual
//!   candidate feature vectors against it (used inside the search loop),
//! * [`evaluate_table`] scores an entire augmented table on a train/valid/test protocol (used to
//!   report the final numbers of the experiment tables).

use std::borrow::Cow;
use std::sync::OnceLock;

use feataug_ml::{evaluate, Dataset, EvalResult, ModelKind, Task};
use feataug_tabular::Table;

use crate::encoding::table_to_dataset;
use crate::problem::AugTask;

/// Default train/valid/test fractions (paper Section VII-A6: 0.6 / 0.2 / 0.2).
pub const SPLIT: (f64, f64) = (0.6, 0.2);

/// Scores candidate features by training the downstream model on
/// (base features + the candidate) and reading the validation metric.
#[derive(Debug, Clone)]
pub struct FeatureEvaluator {
    base: Dataset,
    model: ModelKind,
    seed: u64,
    /// The base table's (train, valid) split, made on first use: every candidate is scored on
    /// these halves with its column appended, instead of re-splitting base + candidate.
    halves: OnceLock<Halves>,
    /// Memoized base validation loss. The base table never changes for the
    /// evaluator's lifetime, yet `base_loss` is consulted once per candidate
    /// that fails to materialise — without memoization each such candidate
    /// would retrain the downstream model from scratch.
    base_loss: OnceLock<f64>,
}

impl FeatureEvaluator {
    /// Build an evaluator from the task's training table (key columns excluded from features).
    pub fn new(task: &AugTask, model: ModelKind, seed: u64) -> Self {
        let base = table_to_dataset(
            &task.train,
            &task.label_column,
            &task.key_columns,
            task.task,
        );
        FeatureEvaluator {
            base,
            model,
            seed,
            halves: OnceLock::new(),
            base_loss: OnceLock::new(),
        }
    }

    fn halves(&self) -> &Halves {
        self.halves.get_or_init(|| {
            let train_fraction = SPLIT.0 + SPLIT.1;
            // The rows `split2` takes, so appending a candidate to each half equals splitting
            // the base table with the candidate appended.
            let [train_rows, valid_rows, _] =
                self.base
                    .split3_indices(train_fraction, 1.0 - train_fraction, self.seed);
            Halves {
                train: self.base.take(&train_rows),
                valid: self.base.take(&valid_rows),
                train_rows,
                valid_rows,
            }
        })
    }

    /// The downstream model kind this evaluator trains.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The base dataset (without any generated features).
    pub fn base_dataset(&self) -> &Dataset {
        &self.base
    }

    /// Validation loss of the base table without any augmentation (lower is better).
    /// Trained once and memoized: the base table and split are fixed, so every
    /// later call returns the cached value.
    pub fn base_loss(&self) -> f64 {
        *self.base_loss.get_or_init(|| {
            let halves = self.halves();
            evaluate(self.model, &halves.train, &halves.valid).loss
        })
    }

    /// Validation loss after appending one candidate feature vector (aligned with the training
    /// table's rows). Lower is better.
    pub fn loss_with_feature(&self, name: &str, values: &[f64]) -> f64 {
        self.result_with([(name, values)]).loss
    }

    /// Validation result after appending several candidate features.
    pub fn result_with_features(&self, features: &[(String, Vec<f64>)]) -> EvalResult {
        self.result_with(
            features
                .iter()
                .map(|(name, values)| (name.as_str(), &values[..])),
        )
    }

    fn result_with<'f>(
        &self,
        features: impl IntoIterator<Item = (&'f str, &'f [f64])>,
    ) -> EvalResult {
        let halves = self.halves();
        let (mut train, mut valid) = (Cow::Borrowed(&halves.train), Cow::Borrowed(&halves.valid));
        for (name, values) in features {
            assert_eq!(values.len(), self.base.len(), "feature length mismatch");
            let column = |rows: &[usize]| rows.iter().map(|&i| values[i]).collect::<Vec<f64>>();
            train = Cow::Owned(train.with_feature(name, &column(&halves.train_rows)));
            valid = Cow::Owned(valid.with_feature(name, &column(&halves.valid_rows)));
        }
        evaluate(self.model, &train, &valid)
    }

    /// The learning task being evaluated.
    pub fn task(&self) -> Task {
        self.base.task
    }
}

/// The base table's train and valid halves, with the base row each of their rows came from.
#[derive(Debug, Clone)]
struct Halves {
    train: Dataset,
    valid: Dataset,
    train_rows: Vec<usize>,
    valid_rows: Vec<usize>,
}

/// Train on 60%, validate on 20% and report the metric on the held-out 20% test split of an
/// augmented training table — the protocol behind the paper's result tables.
pub fn evaluate_table(
    augmented: &Table,
    label_column: &str,
    exclude: &[String],
    task: Task,
    model: ModelKind,
    seed: u64,
) -> EvalResult {
    let data = table_to_dataset(augmented, label_column, exclude, task);
    let (train, _valid, test) = data.split3(SPLIT.0, SPLIT.1, seed);
    // The search used the validation split; final numbers are reported on the test split. The
    // model is retrained on the train split only, mirroring the paper's protocol.
    evaluate(model, &train, &test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_ml::Metric;
    use feataug_tabular::Column;

    fn task() -> AugTask {
        let n = 300;
        let keys: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
        let ages: Vec<i64> = (0..n).map(|i| 20 + (i % 50) as i64).collect();
        let labels: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
        let mut train = Table::new("d");
        train.add_column("k", Column::from_strings(&keys)).unwrap();
        train.add_column("age", Column::from_i64s(&ages)).unwrap();
        train
            .add_column("label", Column::from_i64s(&labels))
            .unwrap();

        let mut relevant = Table::new("r");
        relevant
            .add_column("k", Column::from_strings(&keys))
            .unwrap();
        relevant
            .add_column("x", Column::from_f64s(&vec![1.0; n]))
            .unwrap();
        AugTask::new(
            train,
            relevant,
            vec!["k".into()],
            "label",
            Task::BinaryClassification,
        )
    }

    #[test]
    fn informative_feature_beats_base_loss() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let base = evaluator.base_loss();
        let labels = t.labels().unwrap();
        let informative: Vec<f64> = labels.iter().map(|&y| y * 4.0 + 0.1).collect();
        let with = evaluator.loss_with_feature("good", &informative);
        assert!(
            with < base,
            "informative feature should lower the loss ({with} vs {base})"
        );
    }

    #[test]
    fn base_loss_is_trained_once_and_memoized() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        assert!(
            evaluator.base_loss.get().is_none(),
            "constructor must not train eagerly"
        );
        let first = evaluator.base_loss();
        assert_eq!(
            evaluator.base_loss.get().copied(),
            Some(first),
            "first call must populate the memo"
        );
        // Repeated calls (generate()'s phase 2 makes one per failed candidate)
        // read the memo instead of retraining.
        assert_eq!(evaluator.base_loss().to_bits(), first.to_bits());
        // Clones carry the memo with them.
        assert_eq!(evaluator.clone().base_loss.get().copied(), Some(first));
    }

    #[test]
    fn noise_feature_does_not_dramatically_help() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let noise: Vec<f64> = (0..t.train.num_rows())
            .map(|i| ((i * 37) % 23) as f64)
            .collect();
        let with = evaluator.loss_with_feature("noise", &noise);
        // For a balanced random label, AUC stays near 0.5 -> loss near -0.5.
        assert!(
            with > -0.75,
            "noise feature should not look great, got {with}"
        );
    }

    #[test]
    fn multiple_features_accumulate() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let labels = t.labels().unwrap();
        let f1: Vec<f64> = labels.iter().map(|&y| y + 0.2).collect();
        let f2: Vec<f64> = labels.iter().map(|&y| 1.0 - y).collect();
        let result =
            evaluator.result_with_features(&[("a".to_string(), f1), ("b".to_string(), f2)]);
        assert_eq!(result.metric, Metric::Auc);
        assert!(result.value > 0.9);
    }

    #[test]
    fn cached_halves_score_like_splitting_the_augmented_table() {
        let t = task();
        let labels = t.labels().unwrap();
        let f1: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| y + ((i * 7) % 5) as f64 * 0.3)
            .collect();
        let f2: Vec<f64> = (0..labels.len()).map(|i| ((i * 13) % 11) as f64).collect();
        for model in [ModelKind::Linear, ModelKind::GradientBoosting] {
            let evaluator = FeatureEvaluator::new(&t, model, 3);
            let base = evaluator.base_dataset();
            let (train, valid) = base.with_feature("f1", &f1).split2(SPLIT.0 + SPLIT.1, 3);
            let expected = evaluate(model, &train, &valid).loss;
            let loss = evaluator.loss_with_feature("f1", &f1);
            assert_eq!(loss.to_bits(), expected.to_bits(), "{model}: one feature");

            let both = base.with_feature("f1", &f1).with_feature("f2", &f2);
            let (train, valid) = both.split2(SPLIT.0 + SPLIT.1, 3);
            let expected = evaluate(model, &train, &valid);
            let result = evaluator.result_with_features(&[
                ("f1".to_string(), f1.clone()),
                ("f2".to_string(), f2.clone()),
            ]);
            assert_eq!(
                result.loss.to_bits(),
                expected.loss.to_bits(),
                "{model}: two features"
            );

            let (train, valid) = base.split2(SPLIT.0 + SPLIT.1, 3);
            let expected = evaluate(model, &train, &valid).loss;
            assert_eq!(
                evaluator.base_loss().to_bits(),
                expected.to_bits(),
                "{model}: base"
            );
        }
    }

    #[test]
    fn evaluate_table_reports_test_metric() {
        let t = task();
        let result = evaluate_table(
            &t.train,
            "label",
            &t.key_columns,
            Task::BinaryClassification,
            ModelKind::Linear,
            7,
        );
        assert_eq!(result.metric, Metric::Auc);
        assert!((0.0..=1.0).contains(&result.value));
    }
}
