//! Impurity measures and best-split search for CART trees.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Criterion {
    /// Gini impurity (the paper's setting, scikit-learn default).
    #[default]
    Gini,
    /// Shannon entropy (information gain).
    Entropy,
}

impl Criterion {
    /// Impurity of a class-count histogram under this criterion.
    pub fn impurity(self, counts: &[usize]) -> f64 {
        match self {
            Criterion::Gini => gini(counts),
            Criterion::Entropy => entropy(counts),
        }
    }
}

/// Shannon entropy (bits) of a class-count histogram.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Gini impurity of a class-count histogram.
///
/// `1 - Σ p_c²`; zero for pure nodes, approaching `1 - 1/C` for uniform
/// mixtures over `C` classes.
pub fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

/// A candidate axis-aligned split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Feature column to test.
    pub feature: usize,
    /// Samples with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Impurity decrease, weighted by the node's sample fraction of `n_total`.
    pub weighted_decrease: f64,
}

/// Margin, in weighted-decrease units, by which the integer Gini score of
/// a boundary must fall short of the best split so far before the float
/// evaluation is skipped. The float decrease differs from its exact value
/// by at most `(n_classes + 10)` units of 2^-53 (~2e-15 for the paper's 8
/// classes), so the margin is over 100x the worst-case gap for up to
/// [`PREFILTER_MAX_CLASSES`] classes.
const PREFILTER_MARGIN: f64 = 2e-12;

/// Class count above which the float rounding bound would no longer sit
/// 100x inside [`PREFILTER_MARGIN`], so every boundary is scored in float.
const PREFILTER_MAX_CLASSES: usize = 128;

/// Exact presorted split search over one training set.
///
/// Built once per fit: the training rows (duplicates included, as in a
/// bootstrap sample) are gathered into local samples `0..n`, and each
/// feature's local ids are sorted by value once. A tree node is a range
/// `lo..hi` that is shared by all feature orders; [`partition`] splits it
/// in place, keeping every order sorted within both children, so no node
/// ever sorts again.
///
/// Candidate boundaries are scored with the same Gini/entropy expression
/// and tie rule as a per-node sort-and-scan, so the fitted trees are bit
/// for bit the same. For Gini, an exact integer score rules out most
/// boundaries first: with `Σl²`/`Σr²` the sums of squared class counts on
/// each side, a split's child impurity is `1 - S/n` where
/// `S = Σl²/n_l + Σr²/n_r`, and boundaries whose `S` falls more than
/// [`PREFILTER_MARGIN`] short of the best split so far cannot win and are
/// never evaluated in float.
///
/// [`partition`]: SplitSearch::partition
pub(crate) struct SplitSearch {
    /// Local sample count.
    n: usize,
    /// The searched features, ascending: every column except those that
    /// repeat an earlier one.
    features: Vec<usize>,
    n_classes: usize,
    /// Column-major `n × features.len()` feature values of the local
    /// samples.
    values: Vec<f64>,
    /// Class of each local sample.
    labels: Vec<u32>,
    /// `max(features.len(), 1)` arrays of `n` local ids. Within every
    /// node range, array `k` is sorted by the value of `features[k]`
    /// (array 0 stays in sample order when there are no features).
    order: Vec<u32>,
    /// Per local id: does it go left under the split being applied.
    goes_left: Vec<bool>,
    /// Right-hand ids during a stable partition.
    scratch: Vec<u32>,
    /// Class histograms of the node and of each side of a boundary.
    parent: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
}

/// An unsigned key that sorts like [`f64::total_cmp`]: negative values
/// have all bits flipped, non-negative ones only the sign bit.
fn total_order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl SplitSearch {
    /// Gathers `rows` of `data` and presorts every feature. Sample `i` is
    /// `rows[i]`, so the root node is `0..rows.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or the class count does not fit in `u32`.
    pub(crate) fn new(data: &Dataset, rows: &[usize]) -> Self {
        let n = rows.len();
        let width = data.n_features();
        let n_classes = data.n_classes();
        assert!(
            u32::try_from(n).is_ok() && u32::try_from(n_classes).is_ok(),
            "training set too large for the split search"
        );
        // A column that repeats an earlier one bit for bit on these rows
        // offers the same candidates with the same decreases at every
        // node, and ties keep the earliest feature, so it can never be
        // chosen: only first copies are kept.
        let column_hash = |col: &[f64]| {
            col.iter().fold(0u64, |h, v| {
                (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
            })
        };
        let mut values: Vec<f64> = Vec::with_capacity(n * width);
        let mut features: Vec<usize> = Vec::with_capacity(width);
        let mut hashes: Vec<u64> = Vec::with_capacity(width);
        for f in 0..width {
            let start = values.len();
            values.extend(rows.iter().map(|&r| data.row(r)[f]));
            let (kept, col) = values.split_at(start);
            let hash = column_hash(col);
            let repeats = kept.chunks_exact(n).zip(&hashes).any(|(other, &h)| {
                h == hash
                    && other
                        .iter()
                        .zip(col)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if repeats {
                values.truncate(start);
            } else {
                features.push(f);
                hashes.push(hash);
            }
        }
        let labels = rows.iter().map(|&r| data.label(r) as u32).collect();
        let mut order: Vec<u32> = Vec::with_capacity(n * features.len().max(1));
        let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(n);
        for col in values.chunks_exact(n) {
            // Equal values never bound a candidate split, so stability
            // is irrelevant.
            keyed.clear();
            keyed.extend(col.iter().zip(0..).map(|(&v, id)| (total_order_key(v), id)));
            keyed.sort_unstable_by_key(|&(key, _)| key);
            order.extend(keyed.iter().map(|&(_, id)| id));
        }
        if features.is_empty() {
            order.extend(0..n as u32);
        }
        Self {
            n,
            features,
            n_classes,
            values,
            labels,
            order,
            goes_left: vec![false; n],
            scratch: vec![0; n],
            parent: vec![0; n_classes],
            left: vec![0; n_classes],
            right: vec![0; n_classes],
        }
    }

    /// Class histogram of the node `lo..hi`.
    pub(crate) fn class_counts(&self, lo: usize, hi: usize) -> Vec<usize> {
        let mut counts = vec![0; self.n_classes];
        for &id in &self.order[lo..hi] {
            counts[self.labels[id as usize] as usize] += 1;
        }
        counts
    }

    /// Finds the best split of node `lo..hi` over every feature.
    ///
    /// Returns `None` when no split satisfies `min_leaf` on both sides or
    /// no feature separates the samples. `n_total` is the size of the
    /// full training set, used to weight the impurity decrease for
    /// feature importances (matching scikit-learn's convention).
    pub(crate) fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        min_leaf: usize,
        n_total: usize,
        criterion: Criterion,
    ) -> Option<Split> {
        let n = hi - lo;
        if n < 2 * min_leaf.max(1) {
            return None;
        }
        let Self {
            n: stride,
            features,
            n_classes,
            values,
            labels,
            order,
            parent,
            left,
            right,
            ..
        } = self;
        parent.fill(0);
        for &id in &order[lo..hi] {
            parent[labels[id as usize] as usize] += 1;
        }
        let parent_impurity = criterion.impurity(parent);
        if parent_impurity == 0.0 {
            return None;
        }
        // The integer score `Σl²·n_r + Σr²·n_l` is at most `n³/4`, so it
        // is exact in an f64 below 2^53.
        let prefilter = criterion == Criterion::Gini
            && *n_classes <= PREFILTER_MAX_CLASSES
            && (n as f64).powi(3) <= (1u64 << 53) as f64;
        let mut scan = NodeScan {
            criterion,
            n,
            n_total,
            min_leaf: min_leaf.max(1),
            labels,
            parent,
            parent_sq: parent.iter().map(|&c| (c * c) as u64).sum(),
            parent_impurity,
            prefilter,
            best: None,
            s_floor: f64::NEG_INFINITY,
        };
        for (k, &f) in features.iter().enumerate() {
            scan.feature(
                f,
                &values[k * *stride..(k + 1) * *stride],
                &order[k * *stride + lo..k * *stride + hi],
                left,
                right,
            );
        }
        scan.best
    }

    /// Applies `split` to node `lo..hi`: every feature order is stably
    /// partitioned in place into the samples with
    /// `x[feature] <= threshold` followed by the rest. Returns the index
    /// where the right child starts.
    ///
    /// Membership is decided by that predicate, not by the boundary the
    /// split was found at: for adjacent floats the midpoint threshold can
    /// round onto the right-hand value.
    pub(crate) fn partition(&mut self, lo: usize, hi: usize, split: &Split) -> usize {
        let n = self.n;
        let k = self
            .features
            .binary_search(&split.feature)
            .expect("split on a searched feature");
        let col = &self.values[k * n..(k + 1) * n];
        for &id in &self.order[lo..hi] {
            self.goes_left[id as usize] = col[id as usize] <= split.threshold;
        }
        let mut mid = lo;
        for ord in self.order.chunks_exact_mut(n) {
            let ord = &mut ord[lo..hi];
            // Branch-free: each id is written to both sides and only the
            // side it belongs to advances.
            let (mut n_left, mut n_right) = (0, 0);
            for i in 0..ord.len() {
                let id = ord[i];
                let go_left = self.goes_left[id as usize];
                ord[n_left] = id;
                self.scratch[n_right] = id;
                n_left += usize::from(go_left);
                n_right += usize::from(!go_left);
            }
            ord[n_left..].copy_from_slice(&self.scratch[..n_right]);
            mid = lo + n_left;
        }
        mid
    }
}

/// One node's split search: the node's constants and the best split so
/// far.
struct NodeScan<'a> {
    criterion: Criterion,
    /// Samples in the node.
    n: usize,
    /// Samples in the training set.
    n_total: usize,
    /// `min_samples_leaf`, at least 1.
    min_leaf: usize,
    /// Class of each local sample.
    labels: &'a [u32],
    /// The node's class histogram, its sum of squares and its impurity.
    parent: &'a [usize],
    parent_sq: u64,
    parent_impurity: f64,
    /// Whether the integer Gini prefilter is sound for this node.
    prefilter: bool,
    best: Option<Split>,
    /// Boundaries whose score `S` is below `s_floor` cannot beat `best`
    /// (-inf while there is no best or no prefilter).
    s_floor: f64,
}

impl NodeScan<'_> {
    /// Scans every boundary of `feature`, whose column is `col` and whose
    /// node samples in ascending value order are `ord`. `left`/`right`
    /// are scratch histograms.
    fn feature(
        &mut self,
        feature: usize,
        col: &[f64],
        ord: &[u32],
        left: &mut [usize],
        right: &mut [usize],
    ) {
        let (n, m, labels) = (self.n, self.min_leaf, self.labels);
        left.fill(0);
        right.copy_from_slice(self.parent);
        let (mut left_sq, mut right_sq) = (0u64, self.parent_sq);
        // Boundary `i` follows sorted position `i`; past `n - m` the right
        // side would hold fewer than `min_leaf` samples.
        for (i, pair) in ord[..n - m + 1].windows(2).enumerate() {
            let id = pair[0] as usize;
            let l = labels[id] as usize;
            left_sq += 2 * left[l] as u64 + 1;
            left[l] += 1;
            right[l] -= 1;
            right_sq -= 2 * right[l] as u64 + 1;
            let v = col[id];
            let next_v = col[pair[1] as usize];
            let n_left = i + 1;
            let n_right = n - n_left;
            // `S·n_l·n_r`; without the prefilter `s_floor` stays -inf and
            // the wrapped value is never read.
            let score = left_sq
                .wrapping_mul(n_right as u64)
                .wrapping_add(right_sq.wrapping_mul(n_left as u64)) as i64
                as f64;
            // Equal values cannot be split apart. Boundaries between them
            // are common and unpredictable, so they get an infinite floor
            // instead of a branch of their own.
            let floor = std::hint::select_unpredictable(v == next_v, f64::INFINITY, self.s_floor);
            if n_left >= m && score >= floor * (n_left * n_right) as i64 as f64 {
                self.consider(feature, n_left, v, next_v, left, right);
            }
        }
    }

    /// Scores the boundary between `v` and `next_v` with the reference
    /// impurity expression and keeps it if it beats the best so far.
    #[cold]
    #[inline(never)]
    fn consider(
        &mut self,
        feature: usize,
        n_left: usize,
        v: f64,
        next_v: f64,
        left: &[usize],
        right: &[usize],
    ) {
        let n = self.n;
        let n_right = n - n_left;
        let criterion = self.criterion;
        let child = (n_left as f64 * criterion.impurity(left)
            + n_right as f64 * criterion.impurity(right))
            / n as f64;
        let decrease = (n as f64 / self.n_total as f64) * (self.parent_impurity - child);
        // Zero-decrease splits are kept (like scikit-learn's splitter):
        // XOR-style problems need a first split that only pays off one
        // level deeper. Ties keep the earliest feature/threshold for
        // determinism.
        if decrease >= 0.0
            && self
                .best
                .as_ref()
                .is_none_or(|b| decrease > b.weighted_decrease)
        {
            self.best = Some(Split {
                feature,
                threshold: 0.5 * (v + next_v),
                weighted_decrease: decrease,
            });
            if self.prefilter {
                self.s_floor = (decrease - PREFILTER_MARGIN) * self.n_total as f64
                    + n as f64 * (1.0 - self.parent_impurity);
            }
        }
    }
}

/// Finds the best Gini split of `rows` over `features`.
///
/// Returns `None` when no split satisfies `min_leaf` on both sides or no
/// feature separates the samples. `n_total` is the size of the full
/// training set, used to weight the impurity decrease for feature
/// importances (matching scikit-learn's convention).
#[cfg(test)]
pub(crate) fn best_split(
    data: &Dataset,
    rows: &[usize],
    features: &[usize],
    min_leaf: usize,
    n_total: usize,
) -> Option<Split> {
    best_split_with(data, rows, features, min_leaf, n_total, Criterion::Gini)
}

/// [`best_split`] under an explicit impurity criterion.
///
/// This per-node sort-and-scan is the reference the presorted
/// [`SplitSearch`] must reproduce bit for bit; it is kept only as the
/// test oracle.
#[cfg(test)]
pub(crate) fn best_split_with(
    data: &Dataset,
    rows: &[usize],
    features: &[usize],
    min_leaf: usize,
    n_total: usize,
    criterion: Criterion,
) -> Option<Split> {
    let n = rows.len();
    if n < 2 * min_leaf.max(1) {
        return None;
    }
    let mut parent_counts = vec![0usize; data.n_classes()];
    for &r in rows {
        parent_counts[data.label(r)] += 1;
    }
    let parent_gini = criterion.impurity(&parent_counts);
    if parent_gini == 0.0 {
        return None;
    }

    let mut best: Option<Split> = None;
    let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(n);
    for &f in features {
        scratch.clear();
        scratch.extend(rows.iter().map(|&r| (data.row(r)[f], data.label(r))));
        scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN features"));

        let mut left = vec![0usize; data.n_classes()];
        let mut right = parent_counts.clone();
        for i in 0..n - 1 {
            let (v, l) = scratch[i];
            left[l] += 1;
            right[l] -= 1;
            let next_v = scratch[i + 1].0;
            if v == next_v {
                continue; // cannot split between equal values
            }
            let n_left = i + 1;
            let n_right = n - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let child = (n_left as f64 * criterion.impurity(&left)
                + n_right as f64 * criterion.impurity(&right))
                / n as f64;
            let decrease = (n as f64 / n_total as f64) * (parent_gini - child);
            // Zero-decrease splits are kept (like scikit-learn's splitter):
            // XOR-style problems need a first split that only pays off one
            // level deeper. Ties keep the earliest feature/threshold for
            // determinism.
            if decrease >= 0.0 && best.as_ref().is_none_or(|b| decrease > b.weighted_decrease) {
                best = Some(Split {
                    feature: f,
                    threshold: 0.5 * (v + next_v),
                    weighted_decrease: decrease,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(rows: Vec<Vec<f64>>, labels: Vec<usize>) -> Dataset {
        let width = rows[0].len();
        let names = (0..width).map(|i| format!("f{i}")).collect();
        Dataset::new(rows, labels, names, 3).expect("valid dataset")
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn finds_perfect_split() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        let s = best_split(&d, &[0, 1, 2, 3], &[0], 1, 4).expect("split");
        assert_eq!(s.feature, 0);
        assert!(s.threshold > 2.0 && s.threshold < 10.0);
        // Perfect split of a 50/50 node: decrease = parent gini = 0.5.
        assert!((s.weighted_decrease - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pure_node_has_no_split() {
        let d = data(vec![vec![1.0], vec![2.0]], vec![1, 1]);
        assert!(best_split(&d, &[0, 1], &[0], 1, 2).is_none());
    }

    #[test]
    fn constant_feature_has_no_split() {
        let d = data(vec![vec![3.0], vec![3.0]], vec![0, 1]);
        assert!(best_split(&d, &[0, 1], &[0], 1, 2).is_none());
    }

    #[test]
    fn min_leaf_is_respected() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            vec![0, 1, 1, 1],
        );
        // min_leaf = 3 cannot be satisfied on 4 samples.
        assert!(best_split(&d, &[0, 1, 2, 3], &[0], 3, 4).is_none());
        // min_leaf = 2 forces the only legal threshold (2.5).
        let s = best_split(&d, &[0, 1, 2, 3], &[0], 2, 4).expect("split");
        assert!((s.threshold - 2.5).abs() < 1e-12);
        assert!(best_split(&d, &[0, 1, 2, 3], &[0], 1, 4).is_some());
    }

    #[test]
    fn picks_most_informative_feature() {
        // f0 is noise, f1 separates perfectly.
        let d = data(
            vec![
                vec![5.0, 1.0],
                vec![1.0, 2.0],
                vec![5.0, 10.0],
                vec![1.0, 11.0],
            ],
            vec![0, 0, 2, 2],
        );
        let s = best_split(&d, &[0, 1, 2, 3], &[0, 1], 1, 4).expect("split");
        assert_eq!(s.feature, 1);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(&[10, 0]), 0.0);
        assert!((entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[4, 4, 4, 4]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_criterion_finds_the_same_perfect_split() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        let s = best_split_with(&d, &[0, 1, 2, 3], &[0], 1, 4, Criterion::Entropy).expect("split");
        assert_eq!(s.feature, 0);
        assert!(s.threshold > 2.0 && s.threshold < 10.0);
        // Perfect split of a 50/50 node: decrease = 1 bit.
        assert!((s.weighted_decrease - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_scales_with_node_fraction() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        // Same node, but pretend it is half of a bigger training set.
        let s = best_split(&d, &[0, 1, 2, 3], &[0], 1, 8).expect("split");
        assert!((s.weighted_decrease - 0.25).abs() < 1e-12);
    }
}

/// Bit-identity of the presorted [`SplitSearch`] fit against the per-node
/// sort-and-scan oracle ([`best_split_with`] inside
/// `DecisionTree::fit_rows_reference`).
#[cfg(test)]
mod split_oracle {
    use super::*;
    use crate::tree::{DecisionTree, NodeView, TreeParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn data(rows: Vec<Vec<f64>>, labels: Vec<usize>, n_classes: usize) -> Dataset {
        let width = rows.first().map_or(0, Vec::len);
        let names = (0..width).map(|i| format!("f{i}")).collect();
        Dataset::new(rows, labels, names, n_classes).expect("valid dataset")
    }

    /// Fits `rows` with both splitters and demands the same nodes,
    /// thresholds and importances down to the bit. Returns the tree.
    fn fit_both(d: &Dataset, rows: &[usize], params: TreeParams) -> DecisionTree {
        let mut fast = DecisionTree::new(params);
        fast.fit_rows(d, rows);
        let mut oracle = DecisionTree::new(params);
        oracle.fit_rows_reference(d, rows);
        assert_eq!(fast.node_count(), oracle.node_count(), "node count");
        for id in 0..fast.node_count() {
            match (fast.node(id), oracle.node(id)) {
                (
                    NodeView::Internal {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                    },
                    NodeView::Internal {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                    },
                ) => assert!(
                    (fa, ta.to_bits(), la, ra) == (fb, tb.to_bits(), lb, rb),
                    "node {id}: feature {fa} <= {ta:e} vs oracle feature {fb} <= {tb:e}"
                ),
                (a, b) => assert_eq!(a, b, "node {id}"),
            }
        }
        let bits = |t: &DecisionTree| -> Vec<u64> {
            t.feature_importances()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&fast), bits(&oracle), "importances");
        fast
    }

    fn all_rows(d: &Dataset) -> Vec<usize> {
        (0..d.len()).collect()
    }

    /// Values that tie heavily, including both zeros and a tiny magnitude,
    /// but no adjacent pair whose midpoint rounds onto the larger value.
    const POOL: [f64; 9] = [-0.0, 0.0, 1.0, -1.0, 2.5, 3.0, 1e-300, -7.25, 1e6];

    /// A random dataset, training-row list and parameter set drawn from
    /// `seed`: constant, pooled, small-integer, continuous and repeated
    /// columns; duplicate rows; full, subset or bootstrap row lists.
    fn random_case(seed: u64) -> (Dataset, Vec<usize>, TreeParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..60usize);
        let width = rng.gen_range(1..6usize);
        let n_classes = rng.gen_range(1..5usize);
        let kinds: Vec<usize> = (0..width).map(|_| rng.gen_range(0..5usize)).collect();
        let constant = POOL[rng.gen_range(0..POOL.len())];
        let mut feats: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = rng.gen_range(0..n_classes);
            if i > 0 && rng.gen_range(0..5u32) == 0 {
                let j = rng.gen_range(0..i);
                feats.push(feats[j].clone());
                labels.push(label);
                continue;
            }
            let mut row: Vec<f64> = Vec::with_capacity(width);
            for &k in &kinds {
                let v = match k {
                    0 => constant,
                    1 => POOL[rng.gen_range(0..POOL.len())],
                    2 => rng.gen_range(0..3u32) as f64,
                    3 => rng.gen_range(-1.0..1.0),
                    // A copy of the first column.
                    _ => row.first().copied().unwrap_or(constant),
                };
                row.push(v);
            }
            feats.push(row);
            labels.push(label);
        }
        let rows: Vec<usize> = match rng.gen_range(0..3u32) {
            0 => (0..n).collect(),
            1 => (0..n).filter(|_| rng.gen_range(0..3u32) > 0).collect(),
            _ => (0..n).map(|_| rng.gen_range(0..n)).collect(),
        };
        let rows = if rows.is_empty() { vec![0] } else { rows };
        let params = TreeParams {
            max_depth: [0, 1, 2, 3, 16][rng.gen_range(0..5usize)],
            min_samples_split: rng.gen_range(2..7usize),
            min_samples_leaf: rng.gen_range(1..5usize),
            criterion: if rng.gen_range(0..2u32) == 0 {
                Criterion::Gini
            } else {
                Criterion::Entropy
            },
        };
        (data(feats, labels, n_classes), rows, params)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn presorted_fit_matches_reference(seed in 0u64..u64::MAX) {
            let (d, rows, params) = random_case(seed);
            fit_both(&d, &rows, params);
        }
    }

    #[test]
    fn bootstrap_rows_with_duplicates() {
        let d = data(
            (0..12)
                .map(|i| vec![(i % 5) as f64, (i * 7 % 11) as f64])
                .collect(),
            (0..12).map(|i| i % 3).collect(),
            3,
        );
        let rows = [3, 3, 7, 0, 11, 11, 11, 5, 2, 9, 9, 1];
        let t = fit_both(&d, &rows, TreeParams::default());
        assert!(t.node_count() > 1);
    }

    #[test]
    fn repeated_columns_are_never_chosen() {
        // Columns 1 and 2 repeat column 0 on the training rows (not on
        // row 5, which is left out), and column 3 differs in one zero's
        // sign only.
        let d = data(
            vec![
                vec![0.0, 0.0, 0.0, -0.0],
                vec![1.0, 1.0, 1.0, 1.0],
                vec![2.0, 2.0, 2.0, 2.0],
                vec![3.0, 3.0, 3.0, 3.0],
                vec![4.0, 4.0, 4.0, 4.0],
                vec![5.0, 5.0, 9.0, 5.0],
            ],
            vec![0, 1, 0, 1, 1, 0],
            2,
        );
        let t = fit_both(&d, &[0, 1, 2, 3, 4], TreeParams::default());
        assert!(t.node_count() > 1);
        assert_eq!(&t.feature_importances()[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn signed_zeros_tie() {
        // -0.0 == 0.0: no boundary between them, whatever their order.
        let d = data(
            vec![
                vec![0.0],
                vec![-0.0],
                vec![0.0],
                vec![-0.0],
                vec![1.0],
                vec![-1.0],
            ],
            vec![0, 1, 1, 0, 1, 0],
            2,
        );
        let t = fit_both(&d, &all_rows(&d), TreeParams::default());
        for id in 0..t.node_count() {
            if let NodeView::Internal { threshold, .. } = t.node(id) {
                assert!(
                    threshold == 0.5 || threshold == -0.5,
                    "split inside the zeros: {threshold}"
                );
            }
        }
    }

    #[test]
    fn midpoint_rounding_onto_the_right_value() {
        // 1+eps and 1+2eps are adjacent; their midpoint rounds to even,
        // which is the larger value, so `<=` sends it left.
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 + 2.0 * f64::EPSILON;
        assert_eq!(0.5 * (a + b), b);
        let d = data(vec![vec![a], vec![b], vec![5.0]], vec![0, 1, 1], 2);
        let params = TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        };
        let t = fit_both(&d, &all_rows(&d), params);
        let NodeView::Internal {
            threshold,
            left,
            right,
            ..
        } = t.node(0)
        else {
            panic!("root must split");
        };
        assert_eq!(threshold, b);
        // {a, b} went left and tie-breaks to class 1; 5.0 went right.
        assert_eq!(t.node(left), NodeView::Leaf { class: 1 });
        assert_eq!(t.node(right), NodeView::Leaf { class: 1 });
    }

    #[test]
    fn prefilter_defers_near_ties_to_the_float_expression() {
        // Classes 1/8/3. Each single-boundary feature splits off a left
        // side with the same exact Gini score (S = 22/3): f0 takes
        // {0, 3, 3}, f1 takes {0, 1, 2}. The float decreases differ in
        // the last bits and the later feature wins on `>`. Without the
        // margin the prefilter floor, rounded from the first decrease,
        // lies above S and would skip f1.
        let labels = vec![0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2];
        let left0 = [1, 2, 3, 9, 10, 11];
        let left1 = [1, 9, 10];
        let d = data(
            (0..12)
                .map(|i| {
                    vec![
                        f64::from(!left0.contains(&i)),
                        f64::from(!left1.contains(&i)),
                    ]
                })
                .collect(),
            labels,
            3,
        );
        let rows = all_rows(&d);
        let d0 = best_split(&d, &rows, &[0], 1, 12)
            .expect("split")
            .weighted_decrease;
        let d1 = best_split(&d, &rows, &[1], 1, 12)
            .expect("split")
            .weighted_decrease;
        assert!(d1 > d0 && d1 - d0 < 1e-15, "{d0:e} vs {d1:e}");
        for max_depth in [1, 16] {
            let t = fit_both(
                &d,
                &rows,
                TreeParams {
                    max_depth,
                    ..TreeParams::default()
                },
            );
            assert!(matches!(t.node(0), NodeView::Internal { feature: 1, .. }));
        }
    }

    #[test]
    fn degenerate_nodes() {
        // One sample.
        let d = data(vec![vec![1.0, 2.0]], vec![1], 3);
        assert_eq!(fit_both(&d, &[0], TreeParams::default()).node_count(), 1);
        // A single class: the root is pure.
        let d = data((0..6).map(|i| vec![i as f64]).collect(), vec![2; 6], 3);
        let t = fit_both(&d, &all_rows(&d), TreeParams::default());
        assert_eq!(t.node(0), NodeView::Leaf { class: 2 });
        // min_samples_leaf that no split of 5 samples can meet.
        let d = data(
            (0..5).map(|i| vec![i as f64]).collect(),
            vec![0, 1, 0, 1, 0],
            2,
        );
        let params = TreeParams {
            min_samples_leaf: 3,
            ..TreeParams::default()
        };
        assert_eq!(fit_both(&d, &all_rows(&d), params).node_count(), 1);
        // No features at all.
        let d = data(vec![vec![], vec![]], vec![0, 1], 2);
        assert_eq!(
            fit_both(&d, &all_rows(&d), TreeParams::default()).node_count(),
            1
        );
    }
}
