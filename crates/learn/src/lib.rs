#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dls-learn
//!
//! Learned format selection: replaces the hand-written decision rules with
//! a decision tree trained on labelled synthetic matrices, following the
//! paper's observation that the influencing parameters (Table IV) predict
//! the fastest format.
//!
//! The pipeline has four layers:
//!
//! 1. **Grid** ([`grid`]) — sweep the synthetic generators over the nine
//!    structural parameters, producing a cloud of small matrices around
//!    every format's home territory and the boundaries between them.
//! 2. **Labels** ([`label`]) — for each matrix, find the fastest of the
//!    five basic formats, either by timing real SMSV sweeps (with an
//!    agreement-and-margin gate against timer noise) or analytically from
//!    Table II storage under a flat bandwidth profile.
//! 3. **Tree** ([`tree`]) — a pure-Rust CART trainer (Gini impurity,
//!    depth/leaf/gain pruning, fully deterministic). No external ML
//!    dependency; models persist as hand-rolled JSON ([`persist`]). The
//!    same induction machinery re-targeted at a continuous response lives
//!    in [`regress`] ([`RegressionTree`], variance-reduction splits) and
//!    powers `dls-serve`'s learned latency predictor.
//! 4. **Selector** ([`selector`]) — [`LearnedSelector`] implements
//!    `dls_core::FormatSelector`, so a trained model drops into
//!    `LayoutScheduler::with_selector`, composes with `TuningCache`
//!    memoisation and `ReactiveScheduler` re-scheduling, and is graded
//!    against the rules and the empirical oracle by [`eval`].
//! 5. **Online** ([`online`]) — closes the loop: production telemetry
//!    ([`LabeledObservation`], [`ObservationRing`], JSONL log) feeds
//!    background retraining ([`retrain_online`]) that merges measured
//!    production labels with the synthetic grid and refits the one tree,
//!    and gates low-confidence predictions back to the analytic rules
//!    ([`HybridSelector`]). The serve-side recording/swap half lives in
//!    `dls-serve::feedback`.

pub mod block;
pub mod eval;
pub mod features;
pub mod grid;
pub mod label;
pub mod online;
pub mod persist;
pub mod regress;
pub mod selector;
pub mod tree;

pub use block::{analytic_block, measured_block, BlockModel, BlockSample, BLOCK_CANDIDATES};
pub use eval::{evaluate, split_holdout, EvalSummary};
pub use features::{featurize, FEATURE_NAMES, NUM_FEATURES};
pub use grid::{training_grid, GridCase, GridConfig};
pub use label::{label_case, LabelMode, LabelSource, LabelledSample};
pub use online::{
    model_regret, observations_from_reactive, observations_to_samples, parse_jsonl_log,
    retrain_online, HybridSelector, LabeledObservation, ObservationRing, OnlineOutcome,
    OnlineTrainConfig, DEFAULT_MIN_CONFIDENCE,
};
pub use persist::{ModelError, ModelMeta, TrainedModel, MIN_MODEL_VERSION, MODEL_VERSION};
pub use regress::{RegressNode, RegressParams, RegressionTree};
pub use selector::LearnedSelector;
pub use tree::{gini, DecisionTree, Node, TreeParams};

use dls_sparse::Format;

/// End-to-end training configuration for [`train_selector`].
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Master seed for grid generation.
    pub seed: u64,
    /// Quick mode: a seeded subset of the grid (CI smoke runs).
    pub quick: bool,
    /// Labelling mode (measured with analytic fallback, or pure analytic).
    pub mode: LabelMode,
    /// Tree pruning parameters.
    pub params: TreeParams,
    /// Holdout stride: every `holdout_stride`-th sample is held out of
    /// training and used only for evaluation.
    pub holdout_stride: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            seed: GridConfig::default().seed,
            quick: false,
            mode: LabelMode::default(),
            params: TreeParams::default(),
            holdout_stride: 5,
        }
    }
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained model (tree + provenance).
    pub model: TrainedModel,
    /// Labelled samples the tree was fitted on.
    pub train: Vec<LabelledSample>,
    /// Held-out labelled samples (never seen during fitting).
    pub holdout: Vec<LabelledSample>,
}

/// Runs the full pipeline: generate the grid, label every case, split off a
/// holdout set, fit the tree. Deterministic whenever `cfg.mode` is analytic.
pub fn train_selector(cfg: &TrainConfig) -> TrainOutcome {
    let grid_cfg = GridConfig { seed: cfg.seed, quick: cfg.quick, ..Default::default() };
    let cases = training_grid(&grid_cfg);
    let samples: Vec<LabelledSample> =
        cases.iter().map(|c| label_case(&c.desc, &c.matrix, cfg.mode)).collect();

    // Block-size calibration rides the same grid: every (format, cell) is
    // swept over the candidate block sizes and one regression tree per
    // format learns the winning block from the cell's features.
    let mut block_samples = Vec::new();
    for (case, sample) in cases.iter().zip(&samples) {
        for &fmt in Format::ALL.iter().filter(|f| f.has_blocked_kernel()) {
            block_samples.push(BlockSample {
                format: fmt,
                x: sample.x,
                block: block::block_for_case(fmt, &case.matrix, &sample.features, cfg.mode),
            });
        }
    }
    let blocks = BlockModel::train(&block_samples);

    let (train, holdout) = split_holdout(samples, cfg.holdout_stride);

    let xs: Vec<_> = train.iter().map(|s| s.x).collect();
    let ys: Vec<_> = train.iter().map(|s| s.label).collect();
    let tree = DecisionTree::train(&xs, &ys, cfg.params);

    let count = |src: LabelSource| train.iter().filter(|s| s.source == src).count();
    let model = TrainedModel {
        meta: ModelMeta {
            seed: cfg.seed,
            grid: if cfg.quick { "quick".into() } else { "full".into() },
            samples: train.len(),
            measured: count(LabelSource::Measured),
            analytic_fallback: count(LabelSource::AnalyticFallback),
            analytic: count(LabelSource::Analytic),
        },
        tree,
        blocks: Some(blocks),
    };
    TrainOutcome { model, train, holdout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::Format;

    fn analytic_cfg(quick: bool) -> TrainConfig {
        TrainConfig { quick, mode: LabelMode::analytic_flat(), ..Default::default() }
    }

    #[test]
    fn pipeline_trains_an_accurate_tree() {
        let out = train_selector(&analytic_cfg(false));
        assert!(out.train.len() >= 48, "train set has {}", out.train.len());
        assert!(out.holdout.len() >= 12, "holdout has {}", out.holdout.len());

        // On its own training set the tree should be near-perfect …
        let picks: Vec<Format> = out.train.iter().map(|s| out.model.tree.predict(&s.x)).collect();
        let train_eval = evaluate("learned", &out.train, &picks);
        assert!(train_eval.agreement >= 0.9, "train agreement {}", train_eval.agreement);

        // … and must generalise to matrices it never saw.
        let picks: Vec<Format> = out.holdout.iter().map(|s| out.model.tree.predict(&s.x)).collect();
        let hold_eval = evaluate("learned", &out.holdout, &picks);
        assert!(hold_eval.agreement >= 0.8, "holdout agreement {}", hold_eval.agreement);
    }

    #[test]
    fn analytic_training_is_fully_deterministic() {
        let a = train_selector(&analytic_cfg(true));
        let b = train_selector(&analytic_cfg(true));
        assert_eq!(a.model, b.model);
        assert_eq!(a.model.to_json(), b.model.to_json());
    }

    #[test]
    fn meta_counts_add_up() {
        let out = train_selector(&analytic_cfg(true));
        let m = &out.model.meta;
        assert_eq!(m.samples, out.train.len());
        assert_eq!(m.measured + m.analytic_fallback + m.analytic, m.samples);
        assert_eq!(m.analytic, m.samples, "analytic mode labels everything analytically");
        assert_eq!(m.grid, "quick");
    }

    #[test]
    fn trained_model_round_trips_through_json() {
        let out = train_selector(&analytic_cfg(true));
        let restored = TrainedModel::from_json(&out.model.to_json()).unwrap();
        for s in out.train.iter().chain(&out.holdout) {
            assert_eq!(restored.tree.predict(&s.x), out.model.tree.predict(&s.x), "{}", s.desc);
        }
    }
}
