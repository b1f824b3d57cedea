//! Property-based tests for the ML substrate: metric ranges, split invariants, prediction
//! shape/ranges for every model family, and the tree grower against a reference copy of the
//! sort-per-node grower it replaced.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use feataug_ml::dataset::{Dataset, Matrix, Task};
use feataug_ml::metrics::{accuracy, auc, f1_macro, log_loss, rmse};
use feataug_ml::tree::{ColumnRanks, DecisionTree, Node, SplitCriterion, TreeConfig};
use feataug_ml::{evaluate, Metric, ModelKind};

fn dataset_from(rows: &[(f64, f64)], labels: &[f64], task: Task) -> Dataset {
    let matrix_rows: Vec<Vec<f64>> = rows.iter().map(|(a, b)| vec![*a, *b]).collect();
    Dataset::new(
        Matrix::from_rows(&matrix_rows),
        labels.to_vec(),
        vec!["a".into(), "b".into()],
        task,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn auc_bounded_and_antisymmetric(
        scores in proptest::collection::vec(-10.0f64..10.0, 4..60),
        labels_raw in proptest::collection::vec(0u8..2, 4..60),
    ) {
        let n = scores.len().min(labels_raw.len());
        let y: Vec<f64> = labels_raw[..n].iter().map(|&v| v as f64).collect();
        let s = &scores[..n];
        let a = auc(&y, s);
        prop_assert!((0.0..=1.0).contains(&a));
        // Negating the scores flips the AUC around 0.5.
        let neg: Vec<f64> = s.iter().map(|v| -v).collect();
        let b = auc(&y, &neg);
        prop_assert!((a + b - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_ranges(
        preds in proptest::collection::vec(0.0f64..1.0, 2..50),
        labels_raw in proptest::collection::vec(0u8..2, 2..50),
    ) {
        let n = preds.len().min(labels_raw.len());
        let y: Vec<f64> = labels_raw[..n].iter().map(|&v| v as f64).collect();
        let p = &preds[..n];
        prop_assert!((0.0..=1.0).contains(&accuracy(&y, p)));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f1_macro(&y, &y)));
        prop_assert!(rmse(&y, p) >= 0.0);
        prop_assert!(log_loss(&y, p) >= 0.0);
    }

    #[test]
    fn split_partitions_and_preserves_rows(
        n in 10usize..200,
        train_frac in 0.1f64..0.8,
        seed in 0u64..1000,
    ) {
        let rows: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, (i * 3 % 7) as f64)).collect();
        let labels: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let data = dataset_from(&rows, &labels, Task::BinaryClassification);
        let (train, valid, test) = data.split3(train_frac, (1.0 - train_frac) / 2.0, seed);
        prop_assert_eq!(train.len() + valid.len() + test.len(), n);
        prop_assert_eq!(train.n_features(), 2);
    }

    #[test]
    fn binary_models_emit_probabilities(
        seed in 0u64..100,
        n in 40usize..120,
    ) {
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| (((i + seed as usize) % 10) as f64, (i % 4) as f64))
            .collect();
        let labels: Vec<f64> = rows.iter().map(|(a, _)| if *a > 4.5 { 1.0 } else { 0.0 }).collect();
        let data = dataset_from(&rows, &labels, Task::BinaryClassification);
        let (train, valid) = data.split2(0.7, seed);
        for kind in [ModelKind::Linear, ModelKind::GradientBoosting, ModelKind::RandomForest] {
            let result = evaluate(kind, &train, &valid);
            prop_assert_eq!(result.metric, Metric::Auc);
            prop_assert!((0.0..=1.0).contains(&result.value), "{kind}: {}", result.value);
        }
    }
}

/// The tree grower before the rank presort, kept verbatim as the oracle for
/// [`DecisionTree`]: per node and feature it collects, sorts and dedups the
/// values, and per threshold it partitions the rows into two new `Vec`s and
/// sums each side again.
mod reference {
    use feataug_ml::dataset::Matrix;
    use feataug_ml::tree::{Node, SplitCriterion, TreeConfig};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;

    pub struct Tree {
        pub cfg: TreeConfig,
        pub criterion: SplitCriterion,
        pub nodes: Vec<Node>,
        pub importances: Vec<f64>,
    }

    pub struct GrowTarget<'a> {
        pub y: &'a [f64],
        pub grad_hess: Option<(&'a [f64], &'a [f64])>,
    }

    impl Tree {
        pub fn fit(
            criterion: SplitCriterion,
            cfg: TreeConfig,
            x: &Matrix,
            target: &GrowTarget<'_>,
            rng: &mut StdRng,
        ) -> Tree {
            let mut tree = Tree {
                cfg,
                criterion,
                nodes: Vec::new(),
                importances: vec![0.0; x.cols()],
            };
            tree.grow(x, target, (0..x.rows()).collect(), 0, rng);
            tree
        }

        fn leaf_value(&self, target: &GrowTarget<'_>, indices: &[usize]) -> (f64, Vec<f64>) {
            match (&self.criterion, target.grad_hess) {
                (_, Some((grad, hess))) => {
                    let g: f64 = indices.iter().map(|&i| grad[i]).sum();
                    let h: f64 = indices.iter().map(|&i| hess[i]).sum();
                    (-g / (h + self.cfg.lambda), Vec::new())
                }
                (SplitCriterion::Variance, None) => {
                    let mean = indices.iter().map(|&i| target.y[i]).sum::<f64>()
                        / indices.len().max(1) as f64;
                    (mean, Vec::new())
                }
                (SplitCriterion::Gini { n_classes }, None) => {
                    let mut counts = vec![0.0; *n_classes];
                    for &i in indices {
                        let c = (target.y[i].round() as usize).min(n_classes - 1);
                        counts[c] += 1.0;
                    }
                    let total: f64 = counts.iter().sum();
                    let probs: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();
                    let majority = probs
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(c, _)| c as f64)
                        .unwrap_or(0.0);
                    (majority, probs)
                }
            }
        }

        fn impurity(&self, target: &GrowTarget<'_>, indices: &[usize]) -> f64 {
            if indices.is_empty() {
                return 0.0;
            }
            match (&self.criterion, target.grad_hess) {
                (_, Some((grad, hess))) => {
                    let g: f64 = indices.iter().map(|&i| grad[i]).sum();
                    let h: f64 = indices.iter().map(|&i| hess[i]).sum();
                    -(g * g) / (h + self.cfg.lambda)
                }
                (SplitCriterion::Variance, None) => {
                    let n = indices.len() as f64;
                    let mean = indices.iter().map(|&i| target.y[i]).sum::<f64>() / n;
                    indices
                        .iter()
                        .map(|&i| (target.y[i] - mean).powi(2))
                        .sum::<f64>()
                }
                (SplitCriterion::Gini { n_classes }, None) => {
                    let mut counts = vec![0.0; *n_classes];
                    for &i in indices {
                        let c = (target.y[i].round() as usize).min(n_classes - 1);
                        counts[c] += 1.0;
                    }
                    let n: f64 = counts.iter().sum();
                    let gini = 1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>();
                    gini * n
                }
            }
        }

        fn grow(
            &mut self,
            x: &Matrix,
            target: &GrowTarget<'_>,
            indices: Vec<usize>,
            depth: usize,
            rng: &mut StdRng,
        ) -> usize {
            let make_leaf = |tree: &mut Tree, indices: &[usize]| -> usize {
                let (value, class_probs) = tree.leaf_value(target, indices);
                tree.nodes.push(Node::Leaf { value, class_probs });
                tree.nodes.len() - 1
            };

            if depth >= self.cfg.max_depth
                || indices.len() < self.cfg.min_samples_split
                || indices.len() < 2 * self.cfg.min_samples_leaf
            {
                return make_leaf(self, &indices);
            }

            let parent_impurity = self.impurity(target, &indices);

            let mut features: Vec<usize> = (0..x.cols()).collect();
            if let Some(k) = self.cfg.max_features {
                features.shuffle(rng);
                features.truncate(k.max(1).min(x.cols()));
            }

            let mut best: Option<(f64, usize, f64)> = None;
            for &f in &features {
                let mut vals: Vec<f64> = indices
                    .iter()
                    .map(|&i| x.get(i, f))
                    .filter(|v| v.is_finite())
                    .collect();
                if vals.len() < 2 {
                    continue;
                }
                vals.sort_by(|a, b| a.total_cmp(b));
                vals.dedup();
                if vals.len() < 2 {
                    continue;
                }
                let step = (vals.len() as f64 / (self.cfg.n_thresholds + 1) as f64).max(1.0);
                let mut thresholds: Vec<f64> = Vec::new();
                let mut pos = step;
                while (pos as usize) < vals.len() {
                    let a = vals[pos as usize - 1];
                    let b = vals[pos as usize];
                    thresholds.push((a + b) / 2.0);
                    pos += step;
                }
                if thresholds.is_empty() {
                    thresholds.push((vals[0] + vals[vals.len() - 1]) / 2.0);
                }

                for &t in &thresholds {
                    let (mut left, mut right) = (Vec::new(), Vec::new());
                    for &i in &indices {
                        let v = x.get(i, f);
                        if !v.is_finite() || v <= t {
                            left.push(i);
                        } else {
                            right.push(i);
                        }
                    }
                    if left.len() < self.cfg.min_samples_leaf
                        || right.len() < self.cfg.min_samples_leaf
                    {
                        continue;
                    }
                    let gain = parent_impurity
                        - self.impurity(target, &left)
                        - self.impurity(target, &right);
                    if gain > 1e-12 && best.as_ref().map(|(g, _, _)| gain > *g).unwrap_or(true) {
                        best = Some((gain, f, t));
                    }
                }
            }

            match best {
                None => make_leaf(self, &indices),
                Some((gain, feature, threshold)) => {
                    self.importances[feature] += gain;
                    let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
                    for &i in &indices {
                        let v = x.get(i, feature);
                        if !v.is_finite() || v <= threshold {
                            left_idx.push(i);
                        } else {
                            right_idx.push(i);
                        }
                    }
                    self.nodes.push(Node::Leaf {
                        value: 0.0,
                        class_probs: Vec::new(),
                    });
                    let node_idx = self.nodes.len() - 1;
                    let left = self.grow(x, target, left_idx, depth + 1, rng);
                    let right = self.grow(x, target, right_idx, depth + 1, rng);
                    self.nodes[node_idx] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    node_idx
                }
            }
        }
    }
}

/// A tree's nodes with every float as its bit pattern, so `-0.0`/`0.0` and
/// NaN payloads count as differences.
fn node_bits(nodes: &[Node]) -> Vec<String> {
    nodes
        .iter()
        .map(|node| match node {
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => format!(
                "split f{feature} t{:016x} l{left} r{right}",
                threshold.to_bits()
            ),
            Node::Leaf { value, class_probs } => {
                let probs: Vec<String> = class_probs
                    .iter()
                    .map(|p| format!("{:016x}", p.to_bits()))
                    .collect();
                format!("leaf v{:016x} p{probs:?}", value.to_bits())
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A feature column drawn from a small palette, so values repeat, plus the
/// adversarial floats: NaN, ±inf, `-0.0` next to `0.0`, neighbouring floats
/// whose midpoint rounds onto one of them, and magnitudes whose sum overflows.
fn adversarial_column(rng: &mut StdRng, rows: usize) -> Vec<f64> {
    let a: f64 = rng.gen_range(-4.0..4.0);
    let mut palette = vec![a, a.next_up(), a.next_up().next_up(), -0.0, 0.0];
    for _ in 0..rng.gen_range(0..12usize) {
        palette.push((rng.gen_range(-50.0..50.0f64) * 4.0).round() / 4.0);
    }
    if rng.gen_bool(0.3) {
        palette.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    }
    if rng.gen_bool(0.2) {
        palette.extend([f64::MAX, f64::MAX.next_down(), -f64::MAX]);
    }
    (0..rows)
        .map(|_| {
            if rng.gen_bool(0.3) {
                rng.gen_range(-10.0..10.0)
            } else {
                palette[rng.gen_range(0..palette.len())]
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The rank-presorted, allocation-free grower builds the very tree the
    /// sort-per-node grower did: same nodes, thresholds, leaf values and
    /// importances, bit for bit, under all three criteria, with and without
    /// feature subsampling.
    #[test]
    fn grower_matches_reference_bit_for_bit(
        seed in 0u64..u64::MAX,
        rows in 2usize..90,
        cols in 1usize..5,
        criterion_idx in 0usize..3,
        subsample in proptest::bool::ANY,
    ) {
        let mut gen = StdRng::seed_from_u64(seed);
        let columns: Vec<Vec<f64>> = (0..cols).map(|_| adversarial_column(&mut gen, rows)).collect();
        let x = Matrix::from_rows(
            &(0..rows).map(|i| columns.iter().map(|c| c[i]).collect()).collect::<Vec<_>>(),
        );
        // Signed-zero hessians at λ = -0.0 make a side's `H + λ` a signed zero,
        // so the sign each side's sum starts from shows up in the gain.
        let zero_hess = gen.gen_bool(0.3);
        let cfg = TreeConfig {
            max_depth: gen.gen_range(0..7),
            min_samples_split: gen.gen_range(0..6),
            min_samples_leaf: gen.gen_range(0..4),
            max_features: subsample.then(|| gen.gen_range(0..cols + 1)),
            n_thresholds: gen.gen_range(0..20),
            lambda: if zero_hess { -0.0 } else { [0.0, 1.0][gen.gen_range(0..2usize)] },
        };
        let n_classes = gen.gen_range(2..5usize);
        let y: Vec<f64> = (0..rows)
            .map(|_| match criterion_idx {
                1 => gen.gen_range(0..n_classes + 1) as f64,
                _ => [gen.gen_range(-3.0..3.0), 1.0, -0.0, 0.0][gen.gen_range(0..4usize)],
            })
            .collect();
        let hess: Vec<f64> = (0..rows)
            .map(|_| match zero_hess {
                true => [1.0, 0.0, -0.0, -0.0][gen.gen_range(0..4usize)],
                false => [gen.gen_range(0.0..1.0), 0.25, 0.0, -0.0][gen.gen_range(0..4usize)],
            })
            .collect();
        let criterion = if criterion_idx == 1 {
            SplitCriterion::Gini { n_classes }
        } else {
            SplitCriterion::Variance
        };
        let grow_seed = gen.gen::<u64>();

        let ranks = ColumnRanks::new(&x);
        let mut tree = DecisionTree::new(criterion, cfg.clone());
        let target = if criterion_idx == 2 {
            tree.fit_grad_hess(&ranks, &y, &hess, &mut StdRng::seed_from_u64(grow_seed));
            reference::GrowTarget { y: &y, grad_hess: Some((&y, &hess)) }
        } else {
            tree.fit(&ranks, &y, &mut StdRng::seed_from_u64(grow_seed));
            reference::GrowTarget { y: &y, grad_hess: None }
        };
        let oracle = reference::Tree::fit(
            criterion,
            cfg,
            &x,
            &target,
            &mut StdRng::seed_from_u64(grow_seed),
        );
        prop_assert_eq!(node_bits(tree.nodes()), node_bits(&oracle.nodes));
        prop_assert_eq!(bits(tree.feature_importances()), bits(&oracle.importances));
    }
}
