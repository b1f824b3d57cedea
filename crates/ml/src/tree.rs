//! CART decision trees.
//!
//! A single tree implementation serves three callers:
//!
//! * [`crate::forest::RandomForest`] — classification (gini) and regression (variance) trees with
//!   per-split random feature subsampling,
//! * [`crate::gbdt::GradientBoosting`] — second-order regression trees fitted to
//!   gradient/hessian statistics (XGBoost-style leaf weights `-G / (H + λ)`),
//! * the "FT + GBDT selector" baseline — via accumulated split-gain feature importances.
//!
//! # Split search
//!
//! Trees grow on a [`ColumnRanks`] presort, built once per feature matrix and shared by every
//! tree fitted to it (all boosting rounds; one forest tree per bootstrap sample). It holds, per
//! feature, the sorted distinct finite values and each row's rank among them; non-finite values
//! share a sentinel rank that always goes left. At a node of `n` rows, each candidate feature
//!
//! 1. marks the ranks its rows hold, which yields the node's distinct values in order without a
//!    sort,
//! 2. places up to `n_thresholds + 1` cut points between them (see [`TreeConfig::n_thresholds`]),
//! 3. scores each cut in one pass over the node's rows (two for [`SplitCriterion::Variance`],
//!    which needs each side's mean first), comparing ranks rather than values and accumulating
//!    both sides' statistics without allocating.
//!
//! The per-side sums add the same values in the same row order as summing each side on its own,
//! so the chosen splits are exact, not approximated. A node costs
//! O(features × (n + thresholds × n)), plus a scan over the feature's distinct-value count for
//! the marks.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::dataset::Matrix;

/// What the tree optimises at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitCriterion {
    /// Variance reduction on a real-valued target (regression / boosting residuals).
    Variance,
    /// Gini impurity reduction on integer class labels.
    Gini {
        /// Number of classes.
        n_classes: usize,
    },
}

/// Tree growth hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of candidate features examined at each split (`None` = all features).
    pub max_features: Option<usize>,
    /// Spacing of the candidate thresholds per feature (quantile-based). A node holding `m`
    /// distinct values of a feature steps through them in strides of `m / (n_thresholds + 1)`
    /// (at least 1), cutting midway between neighbours, so it tries at most
    /// `n_thresholds + 1` thresholds: 19 distinct values give 17 cuts at the default 16. With
    /// `0`, the single cut is midway between the smallest and largest value.
    pub n_thresholds: usize,
    /// L2 regularisation on leaf weights (used by the second-order fit).
    pub lambda: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 6,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            n_thresholds: 16,
            lambda: 1.0,
        }
    }
}

/// The rank of a non-finite value: below every finite rank, so it always goes left.
const MISSING: u32 = 0;

/// A per-feature rank presort of a feature matrix, built once and shared by every tree grown on
/// that matrix.
#[derive(Debug, Clone)]
pub struct ColumnRanks {
    rows: usize,
    /// Per feature, the sorted distinct finite values (`-0.0` and `0.0` are one value).
    values: Vec<Vec<f64>>,
    /// Column-major: `ranks[f * rows + i]` is one plus the position of row `i`'s value in
    /// `values[f]`, or [`MISSING`] when the value is not finite.
    ranks: Vec<u32>,
}

impl ColumnRanks {
    /// Rank every feature of `x`.
    pub fn new(x: &Matrix) -> Self {
        let rows = x.rows();
        assert!(u32::try_from(rows).is_ok(), "too many rows to rank");
        let mut values = Vec::with_capacity(x.cols());
        let mut ranks = vec![MISSING; rows * x.cols()];
        let mut order: Vec<usize> = Vec::with_capacity(rows);
        for f in 0..x.cols() {
            let column = &mut ranks[f * rows..(f + 1) * rows];
            order.clear();
            order.extend((0..rows).filter(|&i| x.get(i, f).is_finite()));
            order.sort_by(|&a, &b| x.get(a, f).total_cmp(&x.get(b, f)));
            let mut distinct: Vec<f64> = Vec::new();
            for &i in &order {
                let v = x.get(i, f);
                // `!=` treats -0.0 and 0.0 as one value.
                if distinct.last() != Some(&v) {
                    distinct.push(v);
                }
                column[i] = distinct.len() as u32;
            }
            values.push(distinct);
        }
        ColumnRanks {
            rows,
            values,
            ranks,
        }
    }

    /// Number of features ranked.
    fn cols(&self) -> usize {
        self.values.len()
    }

    /// Rank of every row on feature `f`.
    fn column(&self, f: usize) -> &[u32] {
        &self.ranks[f * self.rows..(f + 1) * self.rows]
    }

    /// The finite value of rank `rank` on feature `f`.
    fn value(&self, f: usize, rank: u32) -> f64 {
        self.values[f][rank as usize - 1]
    }

    /// The highest rank whose value is `<= threshold` on feature `f`: a row goes left exactly
    /// when its rank is at most this.
    fn cut(&self, f: usize, threshold: f64) -> u32 {
        self.values[f].partition_point(|d| *d <= threshold) as u32
    }
}

/// Positions `p` in a node's `m` sorted distinct values where a cut falls between values
/// `p - 1` and `p`: the float stride of [`TreeConfig::n_thresholds`], accumulated.
fn cut_positions(m: usize, n_thresholds: usize) -> impl Iterator<Item = usize> {
    let step = (m as f64 / (n_thresholds + 1) as f64).max(1.0);
    std::iter::successors(Some(step), move |pos| Some(pos + step))
        .map(|pos| pos as usize)
        .take_while(move |&pos| pos < m)
}

/// A tree node: either an internal split or a leaf.
#[derive(Debug, Clone)]
pub enum Node {
    /// Rows whose feature value is `<= threshold` or not finite go to `left`, others to `right`.
    Split {
        /// Feature column tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child in [`DecisionTree::nodes`].
        left: usize,
        /// Index of the right child in [`DecisionTree::nodes`].
        right: usize,
    },
    /// A terminal node.
    Leaf {
        /// Leaf mean, boosting weight or majority class.
        value: f64,
        /// Per-class probabilities (classification trees only; empty otherwise).
        class_probs: Vec<f64>,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    cfg: TreeConfig,
    criterion: SplitCriterion,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

/// Per-example statistics handed to the growing procedure.
struct GrowTarget<'a> {
    /// Regression target or class label.
    y: &'a [f64],
    /// Optional gradient/hessian pairs for second-order fitting.
    grad_hess: Option<(&'a [f64], &'a [f64])>,
}

/// Buffers reused across one tree's nodes, so scoring a threshold allocates nothing.
struct Scratch {
    /// `seen[r]`: rank `r` occurs at the node (cleared again while collecting `present`).
    seen: Vec<bool>,
    /// The node's distinct finite ranks on the current feature, ascending.
    present: Vec<u32>,
    /// Per-class counts of the left and right sides (gini).
    counts: [Vec<f64>; 2],
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(criterion: SplitCriterion, cfg: TreeConfig) -> Self {
        DecisionTree {
            cfg,
            criterion,
            nodes: Vec::new(),
            importances: Vec::new(),
        }
    }

    /// Fit on a plain target (class labels for [`SplitCriterion::Gini`], real targets for
    /// [`SplitCriterion::Variance`]) over the ranked feature matrix `x`. `rng` drives the
    /// per-split feature subsampling.
    pub fn fit(&mut self, x: &ColumnRanks, y: &[f64], rng: &mut StdRng) {
        self.grow_root(x, &GrowTarget { y, grad_hess: None }, rng);
    }

    /// Fit a second-order regression tree to gradients/hessians (XGBoost-style) over the ranked
    /// feature matrix `x`. Leaf values are `-G / (H + λ)`; split gain is the standard
    /// second-order gain.
    pub fn fit_grad_hess(&mut self, x: &ColumnRanks, grad: &[f64], hess: &[f64], rng: &mut StdRng) {
        assert_eq!(grad.len(), hess.len());
        let target = GrowTarget {
            y: grad,
            grad_hess: Some((grad, hess)),
        };
        self.grow_root(x, &target, rng);
    }

    /// Predicted value per row: leaf mean (regression), leaf weight (boosting) or majority class
    /// (classification).
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Per-class probabilities (classification trees only).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<Vec<f64>> {
        (0..x.rows())
            .map(|i| self.leaf_of(x.row(i)).1.clone())
            .collect()
    }

    /// Accumulated split-gain importance per feature (unnormalised).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// The fitted nodes; the root is node 0.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.leaf_of(row).0
    }

    fn leaf_of(&self, row: &[f64]) -> (f64, &Vec<f64>) {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value, class_probs } => return (*value, class_probs),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[*feature];
                    // Missing values follow the left branch.
                    idx = if !v.is_finite() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn leaf_value(&self, target: &GrowTarget<'_>, indices: &[usize]) -> (f64, Vec<f64>) {
        match (&self.criterion, target.grad_hess) {
            (_, Some((grad, hess))) => {
                let g: f64 = indices.iter().map(|&i| grad[i]).sum();
                let h: f64 = indices.iter().map(|&i| hess[i]).sum();
                (-g / (h + self.cfg.lambda), Vec::new())
            }
            (SplitCriterion::Variance, None) => {
                let mean =
                    indices.iter().map(|&i| target.y[i]).sum::<f64>() / indices.len().max(1) as f64;
                (mean, Vec::new())
            }
            (SplitCriterion::Gini { n_classes }, None) => {
                let mut counts = vec![0.0; *n_classes];
                for &i in indices {
                    counts[class_of(target.y[i], *n_classes)] += 1.0;
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

    /// Impurities of the rows `goes_left` sends left and of the rest, under the configured
    /// criterion (lower is purer; for the second-order fit the negative gain term
    /// `-G² / (H + λ)`), or `None` when a side has fewer than `min_leaf` rows. Each side's sums
    /// add its values in `indices` order, starting from -0.0 like `Iterator::sum`, in one pass
    /// over `indices` (two for the variance, which needs each side's mean first); an empty side
    /// scores `0.0`.
    // Forced inline: a 400-row boosting fit (`cargo bench --bench gbdt`) measured about 15%
    // faster than with the compiler's own inlining choice for this per-cut call.
    #[inline(always)]
    fn side_impurities(
        &self,
        target: &GrowTarget<'_>,
        indices: &[usize],
        goes_left: impl Fn(usize) -> bool,
        min_leaf: usize,
        counts: &mut [Vec<f64>; 2],
    ) -> Option<(f64, f64)> {
        let sized = |n_left: usize| n_left >= min_leaf && indices.len() - n_left >= min_leaf;
        let side = |n: usize, impurity: f64| if n == 0 { 0.0 } else { impurity };
        match (&self.criterion, target.grad_hess) {
            (_, Some((grad, hess))) => {
                let (mut gl, mut hl, mut gr, mut hr) = (-0.0, -0.0, -0.0, -0.0);
                let mut n_left = 0;
                for &i in indices {
                    if goes_left(i) {
                        gl += grad[i];
                        hl += hess[i];
                        n_left += 1;
                    } else {
                        gr += grad[i];
                        hr += hess[i];
                    }
                }
                if !sized(n_left) {
                    return None;
                }
                let lambda = self.cfg.lambda;
                Some((
                    side(n_left, -(gl * gl) / (hl + lambda)),
                    side(indices.len() - n_left, -(gr * gr) / (hr + lambda)),
                ))
            }
            (SplitCriterion::Variance, None) => {
                let y = target.y;
                let (mut sl, mut sr) = (-0.0, -0.0);
                let mut n_left = 0;
                for &i in indices {
                    if goes_left(i) {
                        sl += y[i];
                        n_left += 1;
                    } else {
                        sr += y[i];
                    }
                }
                if !sized(n_left) {
                    return None;
                }
                let n_right = indices.len() - n_left;
                let (ml, mr) = (sl / n_left as f64, sr / n_right as f64);
                let (mut vl, mut vr) = (-0.0, -0.0);
                for &i in indices {
                    if goes_left(i) {
                        vl += (y[i] - ml).powi(2);
                    } else {
                        vr += (y[i] - mr).powi(2);
                    }
                }
                Some((side(n_left, vl), side(n_right, vr)))
            }
            (SplitCriterion::Gini { n_classes }, None) => {
                let [left_counts, right_counts] = counts;
                left_counts.fill(0.0);
                right_counts.fill(0.0);
                let mut n_left = 0;
                for &i in indices {
                    let c = class_of(target.y[i], *n_classes);
                    if goes_left(i) {
                        left_counts[c] += 1.0;
                        n_left += 1;
                    } else {
                        right_counts[c] += 1.0;
                    }
                }
                if !sized(n_left) {
                    return None;
                }
                Some((
                    side(n_left, gini(left_counts)),
                    side(indices.len() - n_left, gini(right_counts)),
                ))
            }
        }
    }

    fn grow_root(&mut self, x: &ColumnRanks, target: &GrowTarget<'_>, rng: &mut StdRng) {
        self.importances = vec![0.0; x.cols()];
        self.nodes.clear();
        let n_classes = match self.criterion {
            SplitCriterion::Gini { n_classes } => n_classes,
            SplitCriterion::Variance => 0,
        };
        let max_rank = x.values.iter().map(Vec::len).max().unwrap_or(0);
        let mut scratch = Scratch {
            seen: vec![false; max_rank + 1],
            present: Vec::with_capacity(max_rank),
            counts: [vec![0.0; n_classes], vec![0.0; n_classes]],
        };
        self.grow(x, target, (0..x.rows).collect(), 0, rng, &mut scratch);
    }

    fn grow(
        &mut self,
        x: &ColumnRanks,
        target: &GrowTarget<'_>,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
        scratch: &mut Scratch,
    ) -> usize {
        let make_leaf = |tree: &mut DecisionTree, indices: &[usize]| -> usize {
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

        let (parent_impurity, _) = self
            .side_impurities(target, &indices, |_| true, 0, &mut scratch.counts)
            .expect("no side has fewer than 0 rows");

        // Candidate features: all, or a random subset of `max_features`.
        let mut features: Vec<usize> = (0..x.cols()).collect();
        if let Some(k) = self.cfg.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(x.cols()));
        }

        let mut best: Option<(f64, usize, f64, u32)> = None; // (gain, feature, threshold, cut)
        for &f in &features {
            let ranks = x.column(f);
            // The node's distinct finite values, ascending: mark their ranks, then sweep.
            for &i in &indices {
                scratch.seen[ranks[i] as usize] = true;
            }
            scratch.seen[MISSING as usize] = false;
            scratch.present.clear();
            for (rank, seen) in scratch.seen[..=x.values[f].len()].iter_mut().enumerate() {
                if std::mem::take(seen) {
                    scratch.present.push(rank as u32);
                }
            }
            let m = scratch.present.len();
            if m < 2 {
                continue;
            }
            let present = &scratch.present;
            let value_at = |p: usize| x.value(f, present[p]);
            let mut thresholds = cut_positions(m, self.cfg.n_thresholds)
                .map(|pos| (value_at(pos - 1) + value_at(pos)) / 2.0)
                .peekable();
            let fallback = thresholds
                .peek()
                .is_none()
                .then(|| (value_at(0) + value_at(m - 1)) / 2.0);

            for t in thresholds.chain(fallback) {
                let cut = x.cut(f, t);
                let Some((left, right)) = self.side_impurities(
                    target,
                    &indices,
                    |i| ranks[i] <= cut,
                    self.cfg.min_samples_leaf,
                    &mut scratch.counts,
                ) else {
                    continue;
                };
                let gain = parent_impurity - left - right;
                if gain > 1e-12 && best.as_ref().map(|(g, ..)| gain > *g).unwrap_or(true) {
                    best = Some((gain, f, t, cut));
                }
            }
        }

        match best {
            None => make_leaf(self, &indices),
            Some((gain, feature, threshold, cut)) => {
                self.importances[feature] += gain;
                let ranks = x.column(feature);
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| ranks[i] <= cut);
                // Reserve the split node position, then grow children.
                self.nodes.push(Node::Leaf {
                    value: 0.0,
                    class_probs: Vec::new(),
                });
                let node_idx = self.nodes.len() - 1;
                let left = self.grow(x, target, left_idx, depth + 1, rng, scratch);
                let right = self.grow(x, target, right_idx, depth + 1, rng, scratch);
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

/// Class index of a label, clamped into `0..n_classes`.
fn class_of(label: f64, n_classes: usize) -> usize {
    (label.round() as usize).min(n_classes - 1)
}

/// Gini impurity of a set of rows, from its per-class counts, weighted by its size.
fn gini(counts: &[f64]) -> f64 {
    let n: f64 = counts.iter().sum();
    let gini = 1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>();
    gini * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn xor_data() -> (Matrix, Vec<f64>) {
        // A non-linear pattern a linear model cannot fit: y = (x0 > 0.5) XOR (x1 > 0.5).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 20) % 10) as f64 / 10.0;
            rows.push(vec![a, b]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit(&ColumnRanks::new(&x), &y, &mut rng());
        let preds = tree.predict(&x);
        assert!((preds[0] - 1.0).abs() < 0.3);
        assert!((preds[99] - 5.0).abs() < 0.3);
    }

    #[test]
    fn classification_tree_solves_xor() {
        let (x, y) = xor_data();
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&ColumnRanks::new(&x), &y, &mut rng());
        let preds = tree.predict(&x);
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, y)| (**p - **y).abs() < 0.5)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "accuracy = {acc}");
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let (x, y) = xor_data();
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&ColumnRanks::new(&x), &y, &mut rng());
        for p in tree.predict_proba(&x) {
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn grad_hess_tree_moves_towards_negative_gradient() {
        // Gradients all +1 on the left half, -1 on the right half; hessians 1.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let grad: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { -1.0 }).collect();
        let hess = vec![1.0; 100];
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit_grad_hess(&ColumnRanks::new(&x), &grad, &hess, &mut rng());
        let preds = tree.predict(&x);
        // Leaf weight = -G/(H+1): left ≈ -50/51, right ≈ +50/51.
        assert!(preds[0] < -0.5);
        assert!(preds[99] > 0.5);
    }

    #[test]
    fn importances_prefer_informative_feature() {
        let (x, y) = xor_data();
        // Add a constant noise feature as column 2.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..x.rows() {
            let mut r = x.row(i).to_vec();
            r.push(0.0);
            rows.push(r);
        }
        let x2 = Matrix::from_rows(&rows);
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&ColumnRanks::new(&x2), &y, &mut rng());
        let imp = tree.feature_importances();
        assert!(imp[0] > 0.0);
        assert!(imp[1] > 0.0);
        assert_eq!(imp[2], 0.0);
    }

    #[test]
    fn missing_values_go_left_without_panicking() {
        let rows = vec![vec![1.0], vec![2.0], vec![f64::NAN], vec![4.0]];
        let x = Matrix::from_rows(&rows);
        let y = vec![1.0, 1.0, 5.0, 5.0];
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit(&ColumnRanks::new(&x), &y, &mut rng());
        let preds = tree.predict(&x);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn n_thresholds_yields_up_to_one_more_cut() {
        // The float stride 19 / 17 accumulates to just under 19 at its 17th step.
        assert_eq!(cut_positions(19, 16).count(), 17);
        assert_eq!(cut_positions(19, 16).last(), Some(18));
        for m in 2..600 {
            let cuts = cut_positions(m, 16).count();
            assert!((1..=17).contains(&cuts), "{m} values gave {cuts} cuts");
        }
        // With no thresholds the stride spans every value; the grower then cuts once, midway
        // between the extremes.
        assert_eq!(cut_positions(19, 0).count(), 0);
    }

    #[test]
    fn column_ranks_merge_signed_zeros_and_send_non_finite_left() {
        let x = Matrix::from_rows(&[
            vec![0.0],
            vec![f64::NAN],
            vec![-0.0],
            vec![1.0],
            vec![f64::NEG_INFINITY],
            vec![-1.0],
        ]);
        let ranks = ColumnRanks::new(&x);
        assert_eq!(ranks.column(0), &[2, MISSING, 2, 3, MISSING, 1]);
        assert_eq!(ranks.cut(0, -0.5), 1);
        assert_eq!(ranks.cut(0, 0.0), 2);
        assert_eq!(ranks.cut(0, f64::INFINITY), 3);
    }

    #[test]
    fn max_depth_zero_yields_single_leaf() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let mut tree = DecisionTree::new(SplitCriterion::Variance, cfg);
        tree.fit(&ColumnRanks::new(&x), &y, &mut rng());
        let preds = tree.predict(&x);
        let first = preds[0];
        assert!(preds.iter().all(|&p| (p - first).abs() < 1e-12));
    }
}
