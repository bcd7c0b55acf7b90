//! Pure-Rust CART classifier over format labels.
//!
//! Classic top-down induction (Breiman et al.): at every node try all
//! axis-aligned splits on all features, keep the one with the largest Gini
//! impurity reduction, recurse until the node is pure or a pruning limit
//! (depth, leaf size, minimum gain) fires. Everything is deterministic:
//! candidate thresholds are midpoints between consecutive *distinct* sorted
//! values and ties in gain break towards the lower feature index, then the
//! lower threshold — so the same samples always grow the same tree,
//! whatever the sample order.

use crate::features::NUM_FEATURES;
use dls_sparse::telemetry::format_index;
use dls_sparse::Format;

/// Pruning limits for tree induction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum split depth (root = depth 0; a tree of only a leaf has
    /// depth 0).
    pub max_depth: usize,
    /// Minimum samples on each side of a split.
    pub min_leaf: usize,
    /// Minimum Gini gain for a split to be kept. Strictly positive, so
    /// every kept split strictly reduces weighted impurity.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 8, min_leaf: 3, min_gain: 1e-9 }
    }
}

/// Per-class sample counts, indexed by [`format_index`].
pub type ClassCounts = [usize; Format::ALL.len()];

/// One tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node: predict `format` (the majority class here during
    /// training); `counts` keeps the full training-class histogram for
    /// introspection and confidence reporting.
    Leaf {
        /// Majority class at this leaf.
        format: Format,
        /// Non-zero training counts per class, in [`Format::ALL`] order.
        counts: Vec<(Format, usize)>,
    },
    /// Internal node: `x[feature] <= threshold` goes left, else right.
    Split {
        /// Feature index into the [`crate::features::featurize`] vector.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `x[feature] <= threshold`.
        left: Box<Node>,
        /// Subtree for `x[feature] > threshold`.
        right: Box<Node>,
    },
}

/// A trained CART decision tree mapping feature vectors to formats.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: TreeParams,
    root: Node,
}

/// Gini impurity `1 - Σ p_k²` of a class histogram.
pub fn gini(counts: &ClassCounts) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>()
}

fn counts_of(ys: &[Format], idx: &[usize]) -> ClassCounts {
    let mut counts = [0usize; Format::ALL.len()];
    for &i in idx {
        counts[format_index(ys[i])] += 1;
    }
    counts
}

/// Majority class; ties break towards the earlier [`Format::ALL`] entry.
fn majority(counts: &ClassCounts) -> Format {
    let best = (0..counts.len()).max_by_key(|&k| counts[k]).expect("non-empty class space");
    Format::ALL[best]
}

fn leaf(counts: &ClassCounts) -> Node {
    let named: Vec<(Format, usize)> =
        Format::ALL.iter().map(|&f| (f, counts[format_index(f)])).filter(|&(_, c)| c > 0).collect();
    Node::Leaf { format: majority(counts), counts: named }
}

struct BestSplit {
    gain: f64,
    feature: usize,
    threshold: f64,
}

impl DecisionTree {
    /// Trains a tree on `(xs[i], ys[i])` pairs. Panics on empty or
    /// mismatched inputs — training sets are produced by this crate's own
    /// grid, so emptiness is a bug, not a user error.
    pub fn train(xs: &[[f64; NUM_FEATURES]], ys: &[Format], params: TreeParams) -> Self {
        assert_eq!(xs.len(), ys.len(), "every sample needs a label");
        assert!(!xs.is_empty(), "cannot train on an empty sample set");
        assert!(params.min_gain > 0.0, "min_gain must be strictly positive");
        assert!(params.min_leaf >= 1, "min_leaf must be at least 1");
        let idx: Vec<usize> = (0..xs.len()).collect();
        let root = build(xs, ys, &idx, &params, 0);
        Self { params, root }
    }

    /// Rebuilds a tree from deserialised parts (used by model loading).
    pub fn from_parts(params: TreeParams, root: Node) -> Self {
        Self { params, root }
    }

    /// The pruning parameters the tree was trained with.
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The root node, for serialisation and structural checks.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Predicted format for one feature vector.
    pub fn predict(&self, x: &[f64; NUM_FEATURES]) -> Format {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { format, .. } => return *format,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Prediction plus a confidence in `[0, 1]`: the majority-class share
    /// of the reached leaf's training histogram (1.0 for a pure leaf).
    pub fn predict_with_confidence(&self, x: &[f64; NUM_FEATURES]) -> (Format, f64) {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { format, counts } => {
                    let total: usize = counts.iter().map(|&(_, c)| c).sum();
                    let own =
                        counts.iter().find(|&&(f, _)| f == *format).map(|&(_, c)| c).unwrap_or(0);
                    let conf = if total == 0 { 0.0 } else { own as f64 / total as f64 };
                    return (*format, conf);
                }
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Prediction plus the decision path, rendered with `names` (one per
    /// feature index) — the human-readable "why" for selection reports.
    pub fn explain(
        &self,
        x: &[f64; NUM_FEATURES],
        names: &[&str; NUM_FEATURES],
    ) -> (Format, String) {
        let mut node = &self.root;
        let mut path = String::new();
        loop {
            match node {
                Node::Leaf { format, counts } => {
                    let total: usize = counts.iter().map(|&(_, c)| c).sum();
                    let own =
                        counts.iter().find(|&&(f, _)| f == *format).map(|&(_, c)| c).unwrap_or(0);
                    if path.is_empty() {
                        path.push_str("(root)");
                    }
                    return (*format, format!("{path} => {format} [{own}/{total} training]"));
                }
                Node::Split { feature, threshold, left, right } => {
                    if !path.is_empty() {
                        path.push_str(", ");
                    }
                    let went_left = x[*feature] <= *threshold;
                    path.push_str(&format!(
                        "{}{}{threshold:.3}",
                        names[*feature],
                        if went_left { "<=" } else { ">" },
                    ));
                    node = if went_left { left } else { right };
                }
            }
        }
    }

    /// Maximum depth (a single leaf is depth 0).
    pub fn depth(&self) -> usize {
        fn d(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// How many internal nodes split on each feature — a crude but
    /// serde-free importance measure for `dls selector-info`.
    pub fn feature_split_counts(&self) -> [usize; NUM_FEATURES] {
        fn walk(node: &Node, acc: &mut [usize; NUM_FEATURES]) {
            if let Node::Split { feature, left, right, .. } = node {
                acc[*feature] += 1;
                walk(left, acc);
                walk(right, acc);
            }
        }
        let mut acc = [0usize; NUM_FEATURES];
        walk(&self.root, &mut acc);
        acc
    }

    /// The set of formats the tree can ever predict (union of leaf
    /// majorities) — by construction a subset of the training labels.
    pub fn predictable_formats(&self) -> Vec<Format> {
        fn walk(node: &Node, acc: &mut Vec<Format>) {
            match node {
                Node::Leaf { format, .. } => {
                    if !acc.contains(format) {
                        acc.push(*format);
                    }
                }
                Node::Split { left, right, .. } => {
                    walk(left, acc);
                    walk(right, acc);
                }
            }
        }
        let mut acc = Vec::new();
        walk(&self.root, &mut acc);
        acc
    }
}

fn build(
    xs: &[[f64; NUM_FEATURES]],
    ys: &[Format],
    idx: &[usize],
    params: &TreeParams,
    depth: usize,
) -> Node {
    let counts = counts_of(ys, idx);
    let parent_gini = gini(&counts);
    let n = idx.len();
    if depth >= params.max_depth || n < 2 * params.min_leaf || parent_gini == 0.0 {
        return leaf(&counts);
    }

    let mut best: Option<BestSplit> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // `feature` indexes the per-sample feature arrays, not `xs` itself.
    #[allow(clippy::needless_range_loop)]
    for feature in 0..NUM_FEATURES {
        order.clear();
        order.extend_from_slice(idx);
        // Secondary sort on the index keeps the scan deterministic when
        // feature values tie.
        order.sort_by(|&a, &b| {
            xs[a][feature].partial_cmp(&xs[b][feature]).expect("finite features").then(a.cmp(&b))
        });
        let mut left = [0usize; Format::ALL.len()];
        for k in 0..n - 1 {
            left[format_index(ys[order[k]])] += 1;
            let (lo, hi) = (xs[order[k]][feature], xs[order[k + 1]][feature]);
            if lo == hi {
                continue; // not a class boundary in feature space
            }
            let nl = k + 1;
            let nr = n - nl;
            if nl < params.min_leaf || nr < params.min_leaf {
                continue;
            }
            let mut right = counts;
            for (r, l) in right.iter_mut().zip(left.iter()) {
                *r -= l;
            }
            let weighted = (nl as f64 * gini(&left) + nr as f64 * gini(&right)) / n as f64;
            let gain = parent_gini - weighted;
            if gain <= params.min_gain {
                continue;
            }
            // Midpoint, guarded against rounding up to `hi` (which would
            // send equal-to-hi samples left and break the partition).
            let mid = lo + (hi - lo) / 2.0;
            let threshold = if mid < hi { mid } else { lo };
            let replace = match &best {
                None => true,
                Some(b) => {
                    gain > b.gain + 1e-12
                        || ((gain - b.gain).abs() <= 1e-12
                            && (feature, threshold) < (b.feature, b.threshold))
                }
            };
            if replace {
                best = Some(BestSplit { gain, feature, threshold });
            }
        }
    }

    match best {
        None => leaf(&counts),
        Some(BestSplit { feature, threshold, .. }) => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| xs[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(xs, ys, &li, params, depth + 1)),
                right: Box::new(build(xs, ys, &ri, params, depth + 1)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FEATURE_NAMES;

    fn xy(rows: &[([f64; NUM_FEATURES], Format)]) -> (Vec<[f64; NUM_FEATURES]>, Vec<Format>) {
        (rows.iter().map(|r| r.0).collect(), rows.iter().map(|r| r.1).collect())
    }

    fn vecf(d: f64, pad: f64) -> [f64; NUM_FEATURES] {
        let mut x = [0.0; NUM_FEATURES];
        x[3] = d; // density
        x[7] = pad; // ell_padding
        x
    }

    #[test]
    fn learns_a_single_threshold() {
        // density >= 0.5 ⇒ DEN, else CSR: one split suffices.
        let rows: Vec<_> = (0..20)
            .map(|k| {
                let d = k as f64 / 19.0;
                (vecf(d, 0.0), if d >= 0.5 { Format::Den } else { Format::Csr })
            })
            .collect();
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.n_leaves(), 2);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), *y);
        }
        assert_eq!(tree.feature_split_counts()[3], 1, "split is on density");
    }

    #[test]
    fn learns_a_two_level_rule() {
        // DEN if dense; otherwise ELL when padding small, CSR when large.
        let mut rows = Vec::new();
        for k in 0..10 {
            rows.push((vecf(0.9, k as f64 / 10.0), Format::Den));
            rows.push((vecf(0.05, 0.02 * k as f64), Format::Ell));
            rows.push((vecf(0.05, 0.5 + 0.04 * k as f64), Format::Csr));
        }
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), *y);
        }
        assert!(tree.depth() <= 3);
        let predictable = tree.predictable_formats();
        assert_eq!(predictable.len(), 3);
        for f in [Format::Csr, Format::Den, Format::Ell] {
            assert!(predictable.contains(&f), "missing {f}");
        }
    }

    #[test]
    fn pure_training_set_is_a_single_leaf() {
        let rows: Vec<_> = (0..8).map(|k| (vecf(k as f64, 0.0), Format::Dia)).collect();
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&vecf(99.0, 0.3)), Format::Dia);
    }

    #[test]
    fn min_leaf_bounds_leaf_populations() {
        // 3 DEN among 17 CSR: min_leaf = 5 cannot isolate a pure DEN leaf
        // (it may still split off a mixed-but-purer region — that is CART
        // working as intended), but every leaf must hold >= min_leaf
        // training samples.
        let mut rows = Vec::new();
        for k in 0..3 {
            rows.push((vecf(0.9 + 0.01 * k as f64, 0.0), Format::Den));
        }
        for k in 0..17 {
            rows.push((vecf(0.01 * k as f64, 0.0), Format::Csr));
        }
        let (xs, ys) = xy(&rows);
        let pruned =
            DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 5, ..Default::default() });
        fn smallest_leaf(node: &Node) -> usize {
            match node {
                Node::Leaf { counts, .. } => counts.iter().map(|&(_, c)| c).sum(),
                Node::Split { left, right, .. } => smallest_leaf(left).min(smallest_leaf(right)),
            }
        }
        assert!(smallest_leaf(pruned.root()) >= 5);
        // min_leaf = 11 forbids every split of 20 samples outright.
        let stump =
            DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 11, ..Default::default() });
        assert_eq!(stump.n_leaves(), 1);
        assert_eq!(stump.predict(&vecf(0.95, 0.0)), Format::Csr, "majority wins at the stump");
        let free = DecisionTree::train(&xs, &ys, TreeParams { min_leaf: 1, ..Default::default() });
        assert_eq!(free.predict(&vecf(0.95, 0.0)), Format::Den);
    }

    #[test]
    fn max_depth_zero_is_a_majority_stump() {
        let rows = [
            (vecf(0.1, 0.0), Format::Csr),
            (vecf(0.2, 0.0), Format::Csr),
            (vecf(0.9, 0.0), Format::Den),
        ];
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams { max_depth: 0, ..Default::default() });
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&vecf(0.9, 0.0)), Format::Csr);
    }

    #[test]
    fn training_is_order_invariant() {
        let mut rows = Vec::new();
        for k in 0..12 {
            let d = k as f64 / 11.0;
            rows.push((vecf(d, 1.0 - d), if d > 0.6 { Format::Den } else { Format::Coo }));
        }
        let (xs, ys) = xy(&rows);
        let a = DecisionTree::train(&xs, &ys, TreeParams::default());
        let rev_xs: Vec<_> = xs.iter().rev().copied().collect();
        let rev_ys: Vec<_> = ys.iter().rev().copied().collect();
        let b = DecisionTree::train(&rev_xs, &rev_ys, TreeParams::default());
        for x in &xs {
            assert_eq!(a.predict(x), b.predict(x));
        }
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.n_leaves(), b.n_leaves());
    }

    #[test]
    fn explain_walks_the_path() {
        let rows: Vec<_> = (0..20)
            .map(|k| {
                let d = k as f64 / 19.0;
                (vecf(d, 0.0), if d >= 0.5 { Format::Den } else { Format::Csr })
            })
            .collect();
        let (xs, ys) = xy(&rows);
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        let (fmt, why) = tree.explain(&vecf(0.8, 0.0), &FEATURE_NAMES);
        assert_eq!(fmt, Format::Den);
        assert!(why.contains("density>"), "{why}");
        assert!(why.contains("=> DEN"), "{why}");
        assert!(why.contains("training"), "{why}");
    }
}
