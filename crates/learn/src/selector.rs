//! [`LearnedSelector`]: a trained decision tree behind the scheduler's
//! [`FormatSelector`] extension point.
//!
//! Drop-in alternative to the rule-based/cost-model/empirical strategies:
//! `LayoutScheduler::with_selector(LearnedSelector::new(model))`. Composes
//! with everything else built on the trait — wrap it in a `TuningCache` to
//! memoise predictions, or hand it to a `ReactiveScheduler` as the
//! re-scheduling strategy.

use crate::features::{featurize, FEATURE_NAMES};
use crate::persist::TrainedModel;
use dls_core::{
    default_block, BandwidthProfile, CostModelSelector, FormatScore, FormatSelector,
    SelectionReport,
};
use dls_sparse::{Format, MatrixFeatures, TripletMatrix};
use std::path::Path;

/// Format selector backed by a trained CART model.
#[derive(Debug, Clone)]
pub struct LearnedSelector {
    model: TrainedModel,
}

impl LearnedSelector {
    /// Wraps a trained model.
    pub fn new(model: TrainedModel) -> Self {
        Self { model }
    }

    /// Loads a model file (as written by `dls train-selector`).
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, crate::persist::ModelError> {
        TrainedModel::load_file(path).map(Self::new)
    }

    /// The underlying model (for introspection, e.g. `dls selector-info`).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Predicted format for raw features, without building a report.
    pub fn predict(&self, f: &MatrixFeatures) -> Format {
        self.model.predict(&featurize(f))
    }

    /// Tuned kernel block size for `format` on a matrix with features `f`:
    /// the learned per-(format, dataset) block when the model carries block
    /// trees, the engine default otherwise.
    pub fn tuned_block(&self, format: Format, f: &MatrixFeatures) -> usize {
        match &self.model.blocks {
            Some(blocks) => blocks.tuned_block(format, &featurize(f)),
            None => default_block(format),
        }
    }
}

impl FormatSelector for LearnedSelector {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let _ = t;
        let x = featurize(f);
        let (chosen, path) = self.model.tree.explain(&x, &FEATURE_NAMES);
        // The tree emits a class, not per-format scores; attach the flat
        // storage model's predicted times so downstream consumers (regret
        // reports, telemetry) still see a full ranking. The *chosen* format
        // is the tree's — scores are advisory.
        let cost = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        let scores: Vec<FormatScore> = Format::BASIC
            .iter()
            .map(|&fmt| FormatScore::new(fmt, cost.predicted_time(fmt, f)))
            .collect();
        SelectionReport {
            chosen,
            block: self.tuned_block(chosen, f),
            features: *f,
            scores,
            reason: format!("learned tree: {path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{training_grid, GridConfig};
    use crate::label::{label_case, LabelMode};
    use crate::persist::ModelMeta;
    use crate::tree::{DecisionTree, TreeParams};
    use dls_core::LayoutScheduler;
    use dls_core::TuningCache;
    use dls_data::controlled::diag_matrix;

    fn quick_model() -> TrainedModel {
        // Full grid, analytic labels: cheap (no timing) and deterministic,
        // with every format's home region represented.
        let cases = training_grid(&GridConfig::default());
        let samples: Vec<_> = cases
            .iter()
            .map(|c| label_case(&c.desc, &c.matrix, LabelMode::analytic_flat()))
            .collect();
        let xs: Vec<_> = samples.iter().map(|s| s.x).collect();
        let ys: Vec<_> = samples.iter().map(|s| s.label).collect();
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        TrainedModel {
            meta: ModelMeta {
                seed: GridConfig::default().seed,
                grid: "full".into(),
                samples: samples.len(),
                measured: 0,
                analytic_fallback: 0,
                analytic: samples.len(),
            },
            tree,
            blocks: None,
        }
    }

    #[test]
    fn slots_into_the_scheduler() {
        let sel = LearnedSelector::new(quick_model());
        let scheduler = LayoutScheduler::with_selector(sel);
        let t = diag_matrix(128, 128, 256, 2, 1);
        let scheduled = scheduler.schedule(&t);
        let r = scheduled.report();
        assert!(Format::BASIC.contains(&r.chosen));
        assert!(r.reason.starts_with("learned tree:"), "{}", r.reason);
        assert_eq!(r.scores.len(), Format::BASIC.len());
        // A near-pure diagonal matrix is squarely in the training
        // distribution: the analytic oracle labels it DIA and the tree must
        // have learned that region.
        assert_eq!(r.chosen, Format::Dia, "{}", r.reason);
    }

    #[test]
    fn report_explains_the_decision_path() {
        let sel = LearnedSelector::new(quick_model());
        let t = diag_matrix(128, 128, 256, 2, 2);
        let f = MatrixFeatures::from_triplets(&t);
        let r = sel.select(&t, &f);
        assert!(r.reason.contains("=>"), "path rendered: {}", r.reason);
        assert!(r.reason.contains("training"), "leaf confidence rendered: {}", r.reason);
    }

    #[test]
    fn composes_with_the_tuning_cache() {
        let mut cached = TuningCache::new(LearnedSelector::new(quick_model()));
        let t = diag_matrix(128, 128, 256, 2, 3);
        let f = MatrixFeatures::from_triplets(&t);
        let first = cached.select(&t, &f);
        let second = cached.select(&t, &f);
        assert_eq!(first.chosen, second.chosen);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 1);
    }

    #[test]
    fn tuned_block_lands_in_the_report() {
        use crate::block::{analytic_block, BlockModel, BlockSample, BLOCK_CANDIDATES};
        use crate::features::featurize;
        let mut model = quick_model();
        // Without block trees: engine default for the chosen format.
        let t = diag_matrix(128, 128, 256, 2, 4);
        let f = MatrixFeatures::from_triplets(&t);
        let sel = LearnedSelector::new(model.clone());
        assert_eq!(sel.select(&t, &f).block, dls_core::default_block(sel.predict(&f)));
        // With block trees: the learned tuned block.
        let mut samples = Vec::new();
        for case in training_grid(&GridConfig { quick: true, ..Default::default() }) {
            let cf = MatrixFeatures::from_triplets(&case.matrix);
            for &fmt in Format::ALL.iter().filter(|x| x.has_blocked_kernel()) {
                samples.push(BlockSample {
                    format: fmt,
                    x: featurize(&cf),
                    block: analytic_block(fmt, &cf),
                });
            }
        }
        model.blocks = Some(BlockModel::train(&samples));
        let sel = LearnedSelector::new(model);
        let r = sel.select(&t, &f);
        assert_eq!(r.block, sel.tuned_block(r.chosen, &f));
        assert!(BLOCK_CANDIDATES.contains(&r.block), "block {} is a candidate", r.block);
    }

    #[test]
    fn predict_agrees_with_select() {
        let sel = LearnedSelector::new(quick_model());
        for case in training_grid(&GridConfig { quick: true, ..Default::default() }) {
            let f = MatrixFeatures::from_triplets(&case.matrix);
            assert_eq!(sel.predict(&f), sel.select(&case.matrix, &f).chosen, "{}", case.desc);
        }
    }
}
