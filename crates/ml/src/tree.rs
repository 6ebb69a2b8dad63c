//! CART decision tree classifier (Gini impurity, numeric features).
//!
//! Split search is *presorted*: [`Classifier::fit`] sorts every feature's
//! sample order once, and each node derives its own ordered view by a
//! stable partition of its parent's — no node ever re-sorts. The scheme
//! produces node-for-node identical trees (structure, thresholds,
//! tie-breaks) to the naive per-node re-sorting search, which is kept as
//! [`DecisionTree::fit_naive`] so the equivalence tests and the
//! `perfcheck` speedup report can compare both paths.

use crate::{Classifier, Dataset};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (`None` = grow until pure).
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples every leaf must keep.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all); random forests pass
    /// `sqrt(dim)` here.
    pub max_features: Option<usize>,
    /// Seed for the per-split feature subsampling.
    pub seed: u64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the left child in the node arena; right child is
        /// `left + 1` would not hold in general, so both are stored.
        left: usize,
        right: usize,
    },
}

/// CART decision tree classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    nodes: Vec<Node>,
    n_classes: usize,
    dim: usize,
}

impl DecisionTree {
    /// New untrained tree with the given parameters.
    pub fn new(params: DecisionTreeParams) -> Self {
        DecisionTree {
            params,
            nodes: Vec::new(),
            n_classes: 0,
            dim: 0,
        }
    }

    /// New untrained tree with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(DecisionTreeParams::default())
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / t;
                p * p
            })
            .sum::<f64>()
    }

    /// Naive split search (the pre-presort reference): re-sorts a
    /// `(value, label)` scratch per feature at every node.
    fn best_split_naive(
        &self,
        data: &Dataset,
        indices: &[usize],
        features: &[usize],
        scratch: &mut Vec<(f64, usize)>,
    ) -> Option<(usize, f64, f64)> {
        let n = indices.len();
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in features {
            scratch.clear();
            scratch.extend(indices.iter().map(|&i| (data.x[i][f], data.y[i])));
            scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

            let mut left_counts = vec![0usize; data.n_classes];
            let mut right_counts = vec![0usize; data.n_classes];
            for &(_, label) in scratch.iter() {
                right_counts[label] += 1;
            }
            for split_at in 1..n {
                let (v_prev, label_prev) = scratch[split_at - 1];
                left_counts[label_prev] += 1;
                right_counts[label_prev] -= 1;
                let v_next = scratch[split_at].0;
                if v_next <= v_prev {
                    continue; // no threshold separates equal values
                }
                if split_at < min_leaf || n - split_at < min_leaf {
                    continue;
                }
                let g = (split_at as f64 * Self::gini(&left_counts, split_at)
                    + (n - split_at) as f64 * Self::gini(&right_counts, n - split_at))
                    / n as f64;
                let threshold = v_prev + (v_next - v_prev) / 2.0;
                let better = match best {
                    None => true,
                    Some((_, _, bg)) => g < bg - 1e-15,
                };
                if better {
                    best = Some((f, threshold, g));
                }
            }
        }
        best
    }

    /// Presorted split search: scan each feature's samples through the
    /// node's presorted column instead of re-sorting. The class counts are
    /// integers, so the weighted Gini at every candidate boundary — and
    /// therefore the chosen split — is bit-identical to the naive search.
    fn best_split_presorted(
        &self,
        data: &Dataset,
        cols: &[Vec<u32>],
        features: &[usize],
        left_counts: &mut [usize],
        right_counts: &mut [usize],
    ) -> Option<(usize, f64, f64)> {
        let min_leaf = self.params.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in features {
            let col = &cols[f];
            let n = col.len();
            left_counts.fill(0);
            right_counts.fill(0);
            for &i in col.iter() {
                right_counts[data.y[i as usize]] += 1;
            }
            for split_at in 1..n {
                let prev = col[split_at - 1] as usize;
                let v_prev = data.x[prev][f];
                let label_prev = data.y[prev];
                left_counts[label_prev] += 1;
                right_counts[label_prev] -= 1;
                let v_next = data.x[col[split_at] as usize][f];
                if v_next <= v_prev {
                    continue; // no threshold separates equal values
                }
                if split_at < min_leaf || n - split_at < min_leaf {
                    continue;
                }
                let g = (split_at as f64 * Self::gini(left_counts, split_at)
                    + (n - split_at) as f64 * Self::gini(right_counts, n - split_at))
                    / n as f64;
                let threshold = v_prev + (v_next - v_prev) / 2.0;
                let better = match best {
                    None => true,
                    Some((_, _, bg)) => g < bg - 1e-15,
                };
                if better {
                    best = Some((f, threshold, g));
                }
            }
        }
        best
    }

    /// Majority class of a node's class-count histogram (ties break to the
    /// highest class index, as `max_by_key` keeps the last maximum).
    fn majority_of(counts: &[usize]) -> usize {
        counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    /// Presorted recursive builder: `cols[f]` holds this node's samples in
    /// ascending feature-`f` order; children inherit their orders by a
    /// stable partition on the chosen split, so no node ever sorts.
    #[allow(clippy::too_many_arguments)] // recursion state, not an API
    fn build_presorted(
        &mut self,
        data: &Dataset,
        indices: &[u32],
        cols: Vec<Vec<u32>>,
        depth: usize,
        rng: &mut StdRng,
        left_buf: &mut Vec<usize>,
        right_buf: &mut Vec<usize>,
    ) -> usize {
        let mut counts = vec![0usize; data.n_classes];
        for &i in indices {
            counts[data.y[i as usize]] += 1;
        }
        let majority = Self::majority_of(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < self.params.min_samples_split {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        // Feature subsample (random forests); all features otherwise.
        let mut feats: Vec<usize> = (0..data.dim()).collect();
        if let Some(m) = self.params.max_features {
            feats.shuffle(rng);
            feats.truncate(m.max(1).min(data.dim()));
            feats.sort_unstable(); // deterministic scan order
        }

        // Note: like scikit-learn, zero-gain splits are accepted — greedy
        // Gini cannot see the XOR-style interactions that only pay off one
        // level deeper. Recursion still terminates because a found split
        // always separates distinct feature values.
        let Some((feature, threshold, gain_gini)) =
            self.best_split_presorted(data, &cols, &feats, left_buf, right_buf)
        else {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        };
        // Reject only splits that *worsen* impurity (possible with feature
        // subsampling on noisy nodes).
        let parent_gini = Self::gini(&counts, indices.len());
        if gain_gini > parent_gini + 1e-12 {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let goes_left = |i: u32| data.x[i as usize][feature] <= threshold;
        let (left_idx, right_idx): (Vec<u32>, Vec<u32>) =
            indices.iter().partition(|&&i| goes_left(i));
        let (mut left_cols, mut right_cols) = (
            Vec::with_capacity(cols.len()),
            Vec::with_capacity(cols.len()),
        );
        for col in cols {
            let mut l = Vec::with_capacity(left_idx.len());
            let mut r = Vec::with_capacity(right_idx.len());
            for i in col {
                if goes_left(i) {
                    l.push(i);
                } else {
                    r.push(i);
                }
            }
            left_cols.push(l);
            right_cols.push(r);
        }

        // Reserve this node's slot, then build children.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: majority }); // placeholder
        let left = self.build_presorted(
            data,
            &left_idx,
            left_cols,
            depth + 1,
            rng,
            left_buf,
            right_buf,
        );
        let right = self.build_presorted(
            data,
            &right_idx,
            right_cols,
            depth + 1,
            rng,
            left_buf,
            right_buf,
        );
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Naive recursive builder (kept verbatim as the equivalence-test and
    /// speedup-measurement reference; see [`DecisionTree::fit_naive`]).
    fn build_naive(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        depth: usize,
        rng: &mut StdRng,
        scratch: &mut Vec<(f64, usize)>,
    ) -> usize {
        let mut counts = vec![0usize; data.n_classes];
        for &i in indices {
            counts[data.y[i]] += 1;
        }
        let majority = Self::majority_of(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if pure || depth_capped || indices.len() < self.params.min_samples_split {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let mut feats: Vec<usize> = (0..data.dim()).collect();
        if let Some(m) = self.params.max_features {
            feats.shuffle(rng);
            feats.truncate(m.max(1).min(data.dim()));
            feats.sort_unstable(); // deterministic scan order
        }

        let Some((feature, threshold, gain_gini)) =
            self.best_split_naive(data, indices, &feats, scratch)
        else {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        };
        let parent_gini = Self::gini(&counts, indices.len());
        if gain_gini > parent_gini + 1e-12 {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.x[i][feature] <= threshold);

        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { class: majority }); // placeholder
        let left = self.build_naive(data, &left_idx, depth + 1, rng, scratch);
        let right = self.build_naive(data, &right_idx, depth + 1, rng, scratch);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Fit with the naive per-node re-sorting split search. This is the
    /// pre-presort implementation, retained so tests can prove the
    /// presorted [`Classifier::fit`] grows bit-identical trees.
    #[doc(hidden)]
    pub fn fit_naive(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.nodes.clear();
        self.n_classes = data.n_classes;
        self.dim = data.dim();
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut scratch = Vec::new();
        self.build_naive(data, &indices, 0, &mut rng, &mut scratch);
    }
}

/// Sort every feature's sample order once: `cols[f]` lists all sample
/// indices in ascending order of feature `f`, ties in sample order. The
/// per-node views derived from these by stable partition present values
/// in exactly the order a per-node sort would, so split search over them
/// is equivalent — without the per-node `O(n log n)`.
pub(crate) fn presort_columns(x: &[Vec<f64>], dim: usize) -> Vec<Vec<u32>> {
    let n = x.len() as u32;
    (0..dim)
        .map(|f| {
            let mut idx: Vec<u32> = (0..n).collect();
            idx.sort_unstable_by(|&a, &b| {
                x[a as usize][f]
                    .total_cmp(&x[b as usize][f])
                    .then(a.cmp(&b))
            });
            idx
        })
        .collect()
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        self.nodes.clear();
        self.n_classes = data.n_classes;
        self.dim = data.dim();
        let indices: Vec<u32> = (0..data.len() as u32).collect();
        let cols = presort_columns(&data.x, data.dim());
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut left_buf = vec![0usize; data.n_classes];
        let mut right_buf = vec![0usize; data.n_classes];
        self.build_presorted(
            data,
            &indices,
            cols,
            0,
            &mut rng,
            &mut left_buf,
            &mut right_buf,
        );
    }

    fn predict_one(&self, x: &[f64]) -> usize {
        assert!(!self.nodes.is_empty(), "predict before fit");
        assert_eq!(x.len(), self.dim, "feature width mismatch");
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "DT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        // XOR with slight jitter: needs depth 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (a, b, l) in [(0.0, 0.0, 0), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)] {
            for j in 0..4 {
                let eps = j as f64 * 0.01;
                x.push(vec![a + eps, b - eps]);
                y.push(l);
            }
        }
        Dataset::new(x, y, 2)
    }

    #[test]
    fn learns_xor() {
        let data = xor_dataset();
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        let preds = t.predict(&data.x);
        assert_eq!(preds, data.y);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn max_depth_limits_tree() {
        let data = xor_dataset();
        let mut t = DecisionTree::new(DecisionTreeParams {
            max_depth: Some(1),
            ..Default::default()
        });
        t.fit(&data);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn pure_dataset_yields_single_leaf() {
        let data = Dataset::new(vec![vec![1.0], vec![2.0], vec![3.0]], vec![1, 1, 1], 2);
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[99.0]), 1);
    }

    #[test]
    fn constant_features_yield_majority_leaf() {
        let data = Dataset::new(vec![vec![5.0], vec![5.0], vec![5.0]], vec![0, 1, 1], 2);
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_one(&[5.0]), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = xor_dataset();
        let mut t = DecisionTree::new(DecisionTreeParams {
            min_samples_leaf: 8,
            ..Default::default()
        });
        t.fit(&data);
        // With 16 samples and min leaf 8 only one split is possible.
        assert!(t.depth() <= 1);
    }

    #[test]
    fn deterministic_with_feature_subsampling() {
        let data = xor_dataset();
        let params = DecisionTreeParams {
            max_features: Some(1),
            seed: 3,
            ..Default::default()
        };
        let mut a = DecisionTree::new(params.clone());
        let mut b = DecisionTree::new(params);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn separable_threshold_is_midpoint() {
        let data = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
            2,
        );
        let mut t = DecisionTree::with_defaults();
        t.fit(&data);
        assert_eq!(t.predict_one(&[5.9]), 0);
        assert_eq!(t.predict_one(&[6.1]), 1);
    }

    #[test]
    #[should_panic]
    fn predict_before_fit_panics() {
        DecisionTree::with_defaults().predict_one(&[1.0]);
    }
}
