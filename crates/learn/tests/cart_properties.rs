//! Property-based tests for the CART trainer's structural invariants:
//!
//! 1. every internal split strictly reduces weighted Gini impurity on the
//!    training samples that reach it,
//! 2. predictions always return a format that appeared in the training
//!    labels (the tree cannot invent classes),
//! 3. model JSON round-trips to an identical tree (same structure, same
//!    predictions, byte-identical re-serialisation).

use dls_learn::{DecisionTree, ModelMeta, Node, TrainedModel, TreeParams, NUM_FEATURES};
use dls_sparse::Format;
use proptest::prelude::*;

/// Strategy: a labelled training set with 2..60 samples over a compressed
/// 3-feature subspace (indices 0, 3, 7), labels from the basic five.
fn arb_training_set() -> impl Strategy<Value = (Vec<[f64; NUM_FEATURES]>, Vec<Format>)> {
    let sample = (0u8..5, -8i32..=8, -8i32..=8, -8i32..=8).prop_map(|(label, a, b, c)| {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = a as f64 / 4.0;
        x[3] = b as f64 / 8.0;
        x[7] = c as f64 / 2.0;
        (x, Format::BASIC[label as usize])
    });
    proptest::collection::vec(sample, 2..60)
        .prop_map(|rows| (rows.iter().map(|r| r.0).collect(), rows.iter().map(|r| r.1).collect()))
}

/// Strategy: pruning parameters in sensible ranges.
fn arb_params() -> impl Strategy<Value = TreeParams> {
    (0usize..10, 1usize..6).prop_map(|(max_depth, min_leaf)| TreeParams {
        max_depth,
        min_leaf,
        min_gain: 1e-9,
    })
}

/// Gini impurity of a label multiset.
fn gini_of(labels: &[Format]) -> f64 {
    let mut counts = [0usize; Format::ALL.len()];
    for &l in labels {
        counts[dls_sparse::telemetry::format_index(l)] += 1;
    }
    dls_learn::gini(&counts)
}

/// Walks the tree alongside the samples that reach each node, checking the
/// strict-Gini-reduction invariant at every split.
fn check_splits_reduce_gini(node: &Node, xs: &[[f64; NUM_FEATURES]], ys: &[Format], idx: &[usize]) {
    if let Node::Split { feature, threshold, left, right } = node {
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][*feature] <= *threshold);
        assert!(!li.is_empty() && !ri.is_empty(), "split must separate samples");
        let labels = |ids: &[usize]| ids.iter().map(|&i| ys[i]).collect::<Vec<_>>();
        let parent = gini_of(&labels(idx));
        let n = idx.len() as f64;
        let weighted = li.len() as f64 / n * gini_of(&labels(&li))
            + ri.len() as f64 / n * gini_of(&labels(&ri));
        assert!(
            weighted < parent,
            "split on feature {feature} @ {threshold} does not reduce Gini: \
             {weighted} !< {parent}"
        );
        check_splits_reduce_gini(left, xs, ys, &li);
        check_splits_reduce_gini(right, xs, ys, &ri);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariant 1: every kept split strictly reduces weighted Gini.
    #[test]
    fn splits_strictly_reduce_gini((xs, ys) in arb_training_set(), params in arb_params()) {
        let tree = DecisionTree::train(&xs, &ys, params);
        let idx: Vec<usize> = (0..xs.len()).collect();
        check_splits_reduce_gini(tree.root(), &xs, &ys, &idx);
    }

    /// Invariant 2: predictions come from the training label set — on the
    /// training samples themselves and on arbitrary unseen points.
    #[test]
    fn predictions_stay_in_the_training_label_set(
        (xs, ys) in arb_training_set(),
        params in arb_params(),
        probe in proptest::collection::vec(-100i32..=100, NUM_FEATURES),
    ) {
        let tree = DecisionTree::train(&xs, &ys, params);
        for x in &xs {
            prop_assert!(ys.contains(&tree.predict(x)));
        }
        let mut x = [0.0; NUM_FEATURES];
        for (slot, v) in x.iter_mut().zip(&probe) {
            *slot = *v as f64 / 7.0;
        }
        prop_assert!(ys.contains(&tree.predict(&x)), "unseen point predicted unseen class");
        for f in tree.predictable_formats() {
            prop_assert!(ys.contains(&f));
        }
    }

    /// Invariant 3: JSON round trip is the identity — structurally, on
    /// predictions, and on the serialised bytes.
    #[test]
    fn model_json_round_trips((xs, ys) in arb_training_set(), params in arb_params()) {
        let tree = DecisionTree::train(&xs, &ys, params);
        let model = TrainedModel {
            meta: ModelMeta {
                seed: 1,
                grid: "proptest".into(),
                samples: xs.len(),
                measured: 0,
                analytic_fallback: 0,
                analytic: xs.len(),
            },
            tree,
            blocks: None,
        };
        let doc = model.to_json();
        let restored = TrainedModel::from_json(&doc).expect("own output must parse");
        prop_assert_eq!(&restored, &model);
        prop_assert_eq!(restored.to_json(), doc, "canonical form");
        for x in &xs {
            prop_assert_eq!(restored.tree.predict(x), model.tree.predict(x));
        }
    }
}
