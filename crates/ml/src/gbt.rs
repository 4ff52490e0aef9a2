//! Gradient-boosted shallow trees (one-vs-rest, L2 boosting).
//!
//! The zoo's second ensemble: for each class an additive model
//! `F_c(x) = base_c + Σ_r value_{c,r}(x)` is fitted to the 0/1 class
//! indicator by repeated residual fitting. Each round grows a *shallow*
//! CART tree with the existing [`crate::split`] machinery — the structure
//! is found by splitting on the residual *sign* (a two-class problem the
//! Gini splitter handles natively) and the leaf values are then refit as
//! the mean residual of the training samples that land in each leaf
//! (Friedman-style leaf refitting), scaled by the shrinkage rate.
//!
//! The fit is completely deterministic — no subsampling, no feature
//! bagging — so repeated cross-validation is bit-identical at any
//! `--cv-threads`. The `seed` hyperparameter exists for protocol parity
//! with [`crate::forest::ForestParams`] (per-repetition seeding flows
//! through [`crate::cv::repeated_cross_val_predict`]'s `make` closure)
//! but introduces no randomness today.

use crate::cv::Classifier;
use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeParams};
use serde::{Deserialize, Serialize};

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GbtParams {
    /// Boosting rounds per class (trees in each one-vs-rest ensemble).
    pub n_rounds: usize,
    /// Shrinkage (learning rate) applied to every leaf value. `0.0` is
    /// legal and freezes the model at its class-prior base scores.
    pub shrinkage: f64,
    /// Parameters of the per-round shallow trees. The default caps depth
    /// at 3 — boosting wants weak learners, not the deep CART the paper
    /// serves standalone.
    pub tree: TreeParams,
    /// Seed for protocol parity with the forest; the fit itself is
    /// deterministic and does not consume randomness.
    pub seed: u64,
}

impl Default for GbtParams {
    fn default() -> Self {
        Self {
            n_rounds: 30,
            shrinkage: 0.3,
            tree: TreeParams {
                max_depth: 3,
                ..TreeParams::default()
            },
            seed: 0,
        }
    }
}

/// One boosting stage: the structure tree plus refit leaf values
/// (indexed by node id; internal-node slots stay 0 and are never read).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Stage {
    tree: DecisionTree,
    leaf_values: Vec<f64>,
}

impl Stage {
    fn value(&self, x: &[f64]) -> f64 {
        self.leaf_values[self.tree.leaf_id(x)]
    }
}

/// A fitted one-vs-rest gradient-boosted tree ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbt {
    params: GbtParams,
    /// Per-class prior (mean of the 0/1 indicator on the training rows).
    base: Vec<f64>,
    /// `stages[c]` is class `c`'s ensemble in round order.
    stages: Vec<Vec<Stage>>,
    n_features: usize,
    n_classes: usize,
}

impl Gbt {
    /// Creates an unfitted model with `params`.
    pub fn new(params: GbtParams) -> Self {
        Self {
            params,
            base: Vec::new(),
            stages: Vec::new(),
            n_features: 0,
            n_classes: 0,
        }
    }

    /// Fits on all rows of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(&mut self, data: &Dataset) {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.fit_rows(data, &rows);
    }

    /// Fits on a row subset (used by cross-validation).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        assert!(!rows.is_empty(), "cannot fit on an empty training set");
        self.n_features = data.n_features();
        self.n_classes = data.n_classes();
        self.base = vec![0.0; self.n_classes];
        self.stages = vec![Vec::new(); self.n_classes];

        // Materialise the training subset once; every boosting round
        // relabels the same feature matrix with the residual sign.
        let n = rows.len();
        let mut sub = Dataset::new(
            rows.iter().map(|&r| data.row(r).to_vec()).collect(),
            vec![0; n],
            data.feature_names().to_vec(),
            2,
        )
        .expect("residual-sign dataset is valid by construction");

        for c in 0..self.n_classes {
            let y: Vec<f64> = rows
                .iter()
                .map(|&r| if data.label(r) == c { 1.0 } else { 0.0 })
                .collect();
            let prior = y.iter().sum::<f64>() / n as f64;
            self.base[c] = prior;
            let mut score = vec![prior; n];

            for _round in 0..self.params.n_rounds {
                // Residuals of the L2 loss; their sign is the 2-class
                // problem the Gini splitter searches structure on.
                sub.relabel(|i| usize::from(y[i] - score[i] > 0.0));
                let mut tree = DecisionTree::new(self.params.tree);
                tree.fit(&sub);

                // Refit leaf values as the mean residual per leaf, with
                // shrinkage folded in so prediction is a plain sum.
                let mut sums = vec![0.0; tree.node_count()];
                let mut counts = vec![0usize; tree.node_count()];
                let leaf_ids: Vec<usize> = (0..n).map(|i| tree.leaf_id(sub.row(i))).collect();
                for i in 0..n {
                    sums[leaf_ids[i]] += y[i] - score[i];
                    counts[leaf_ids[i]] += 1;
                }
                let leaf_values: Vec<f64> = sums
                    .iter()
                    .zip(&counts)
                    .map(|(&s, &k)| {
                        if k == 0 {
                            0.0
                        } else {
                            self.params.shrinkage * (s / k as f64)
                        }
                    })
                    .collect();
                for i in 0..n {
                    score[i] += leaf_values[leaf_ids[i]];
                }
                self.stages[c].push(Stage { tree, leaf_values });
            }
        }
    }

    /// Per-class additive scores for one feature vector, in the exact
    /// accumulation order the flat compiler replays (base, then rounds in
    /// order) so both paths produce bit-identical sums.
    pub fn scores(&self, x: &[f64]) -> Vec<f64> {
        assert!(
            !self.stages.is_empty(),
            "scores called on an unfitted model"
        );
        (0..self.n_classes)
            .map(|c| {
                let mut s = self.base[c];
                for stage in &self.stages[c] {
                    s += stage.value(x);
                }
                s
            })
            .collect()
    }

    /// Predicts the class of one feature vector: argmax of the per-class
    /// scores, ties resolved to the lowest class index.
    ///
    /// # Panics
    ///
    /// Panics if the model is unfitted or `x` is shorter than the
    /// training feature count.
    pub fn predict(&self, x: &[f64]) -> usize {
        let scores = self.scores(x);
        let mut best = 0;
        for (c, &s) in scores.iter().enumerate().skip(1) {
            if s > scores[best] {
                best = c;
            }
        }
        best
    }

    /// The hyperparameters this model was configured with.
    pub fn params(&self) -> &GbtParams {
        &self.params
    }

    /// Number of classes seen at fit time (0 for an unfitted model).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features seen at fit time (0 for an unfitted model).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Per-class base scores (class priors on the training rows).
    pub fn base_scores(&self) -> &[f64] {
        &self.base
    }

    /// Iterates class `c`'s ensemble in round order as
    /// `(structure tree, leaf values indexed by node id)` — the flat
    /// compiler's input.
    pub fn stages(&self, c: usize) -> impl Iterator<Item = (&DecisionTree, &[f64])> {
        self.stages[c]
            .iter()
            .map(|s| (&s.tree, s.leaf_values.as_slice()))
    }

    /// Total tree count across all class ensembles.
    pub fn n_trees(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }
}

impl Classifier for Gbt {
    fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        Gbt::fit_rows(self, data, rows);
    }
    fn predict(&self, x: &[f64]) -> usize {
        Gbt::predict(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(rows: Vec<Vec<f64>>, labels: Vec<usize>, n_classes: usize) -> Dataset {
        let width = rows[0].len();
        let names = (0..width).map(|i| format!("f{i}")).collect();
        Dataset::new(rows, labels, names, n_classes).expect("valid dataset")
    }

    fn blobs() -> Dataset {
        // Three well-separated 1-D blobs.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, centre) in [0.0, 10.0, 20.0].iter().enumerate() {
            for i in 0..8 {
                rows.push(vec![centre + i as f64 * 0.1, 1.0]);
                labels.push(c);
            }
        }
        data(rows, labels, 3)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let d = blobs();
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&d);
        for i in 0..d.len() {
            assert_eq!(m.predict(d.row(i)), d.label(i), "row {i}");
        }
    }

    #[test]
    fn learns_xor() {
        let d = data(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0, 1, 1, 0],
            2,
        );
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&d);
        for i in 0..d.len() {
            assert_eq!(m.predict(d.row(i)), d.label(i));
        }
    }

    #[test]
    fn single_class_fold_predicts_that_class() {
        // A CV fold can present one class only; every other class's
        // indicator is identically zero and must not destabilise the fit.
        let d = data(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![2, 2, 2, 2],
            5,
        );
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&d);
        for x in [-10.0, 0.0, 1.5, 99.0] {
            assert_eq!(m.predict(&[x]), 2);
        }
    }

    #[test]
    fn constant_features_fall_back_to_majority() {
        let d = data(
            vec![vec![7.0], vec![7.0], vec![7.0], vec![7.0], vec![7.0]],
            vec![1, 1, 1, 0, 0],
            2,
        );
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&d);
        // No feature separates anything: base scores decide, and the
        // majority class has the larger prior.
        assert_eq!(m.predict(&[7.0]), 1);
        assert_eq!(m.predict(&[0.0]), 1);
    }

    #[test]
    fn zero_shrinkage_freezes_at_the_prior() {
        let d = blobs();
        let mut m = Gbt::new(GbtParams {
            shrinkage: 0.0,
            ..GbtParams::default()
        });
        m.fit(&d);
        // Every leaf value is 0, so scores equal the class priors
        // (uniform here) and argmax tie-breaks to class 0 everywhere.
        let scores = m.scores(&[15.0, 1.0]);
        for (c, s) in scores.iter().enumerate() {
            assert_eq!(*s, m.base_scores()[c]);
        }
        assert_eq!(m.predict(&[0.0, 1.0]), 0);
        assert_eq!(m.predict(&[20.0, 1.0]), 0);
    }

    #[test]
    fn fit_is_deterministic() {
        let d = blobs();
        let mut a = Gbt::new(GbtParams::default());
        let mut b = Gbt::new(GbtParams::default());
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn shrinkage_trades_rounds_for_step_size() {
        // With a tiny number of rounds, larger shrinkage must move the
        // scores further from the prior on the training set.
        let d = blobs();
        let fit = |shrinkage| {
            let mut m = Gbt::new(GbtParams {
                n_rounds: 2,
                shrinkage,
                ..GbtParams::default()
            });
            m.fit(&d);
            let s = m.scores(d.row(0));
            (s[0] - m.base_scores()[0]).abs()
        };
        assert!(fit(0.5) > fit(0.05));
    }
}
