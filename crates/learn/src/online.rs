//! Online learning: production telemetry → labelled observations →
//! background retraining → confidence-gated hybrid selection.
//!
//! The offline pipeline ([`crate::train_selector`]) freezes its model at
//! ship time. This module closes the loop the paper never had:
//!
//! 1. **[`LabeledObservation`]** — one executed SMSV sweep as seen in
//!    production (the nine influencing parameters, the format that ran,
//!    the tuned block, the coalesced batch size, measured nanoseconds).
//!    Observations serialise to hand-rolled JSONL, one object per line.
//! 2. **[`ObservationRing`]** — a bounded, thread-safe ring the serve
//!    executor and `ReactiveScheduler` telemetry append into; when full
//!    the oldest observation is overwritten. A retrainer drains it.
//! 3. **[`observations_to_samples`]** — observations grouped by matrix
//!    fingerprint become [`LabelledSample`]s: measured seconds-per-vector
//!    for formats production actually ran, analytic estimates (rescaled to
//!    the measured reference) for the rest.
//! 4. **[`retrain_online`]** — merges production samples with the
//!    synthetic grid (recency-weighted) and refits the one CART.
//! 5. **[`HybridSelector`]** — confidence-gated ML+rule selection: the
//!    tree decides when the purity of the leaf it lands in clears a
//!    threshold, the paper's analytic rules decide otherwise (cf.
//!    SNIPPETS.md `MLLoopOptSelector`), with fallback counts for
//!    telemetry.
//!
//! The serve-side half (recording site, background thread, regret-guarded
//! hot swap) lives in `dls-serve::feedback`.

use crate::eval::{evaluate, split_holdout, EvalSummary};
use crate::features::{featurize, NUM_FEATURES};
use crate::grid::{training_grid, GridConfig};
use crate::label::{label_case, LabelMode, LabelSource, LabelledSample};
use crate::persist::{ModelMeta, TrainedModel};
use crate::selector::LearnedSelector;
use crate::tree::{DecisionTree, TreeParams};
use dls_core::json::{escape, number, parse};
use dls_core::{
    BandwidthProfile, CostModelSelector, FormatSelector, ReactiveReport, RuleBasedSelector,
    SelectionReport,
};
use dls_sparse::{Format, MatrixFeatures, TripletMatrix};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One executed sweep observed in production — the unit of the telemetry
/// training log.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledObservation {
    /// Monotonic sequence number, assigned by the ring on append.
    pub seq: u64,
    /// Extracted influencing parameters of the matrix that was served.
    pub features: MatrixFeatures,
    /// Format that executed the sweep.
    pub format: Format,
    /// Tuned kernel block size in effect.
    pub block: usize,
    /// Vectors coalesced into the sweep.
    pub batch: usize,
    /// Measured wall time of the whole sweep, nanoseconds.
    pub nanos: u64,
}

impl LabeledObservation {
    /// Feature vector for training.
    pub fn x(&self) -> [f64; NUM_FEATURES] {
        featurize(&self.features)
    }

    /// Seconds per vector — the unit comparable across batch sizes.
    pub fn secs_per_vector(&self) -> f64 {
        self.nanos as f64 * 1e-9 / self.batch.max(1) as f64
    }

    /// One JSONL line (no trailing newline). Canonical: parsing and
    /// re-encoding is byte-identical.
    pub fn to_jsonl(&self) -> String {
        let f = &self.features;
        format!(
            "{{\"seq\":{},\"m\":{},\"n\":{},\"nnz\":{},\"ndig\":{},\"dnnz\":{},\
             \"mdim\":{},\"adim\":{},\"vdim\":{},\"density\":{},\
             \"format\":{},\"block\":{},\"batch\":{},\"nanos\":{}}}",
            self.seq,
            f.m,
            f.n,
            f.nnz,
            f.ndig,
            number(f.dnnz),
            f.mdim,
            number(f.adim),
            number(f.vdim),
            number(f.density),
            escape(&self.format.to_string()),
            self.block,
            self.batch,
            self.nanos,
        )
    }

    /// Parses one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        let usize_of = |key: &str| -> Result<usize, String> {
            v.req(key)?.as_usize().ok_or_else(|| format!("\"{key}\" must be a count"))
        };
        let f64_of = |key: &str| -> Result<f64, String> {
            v.req(key)?.as_f64().ok_or_else(|| format!("\"{key}\" must be a number"))
        };
        let u64_of = |key: &str| -> Result<u64, String> {
            v.req(key)?.as_u64().ok_or_else(|| format!("\"{key}\" must be a count"))
        };
        let name = v.req("format")?.as_str().ok_or("\"format\" must be a string")?;
        Ok(Self {
            seq: u64_of("seq")?,
            features: MatrixFeatures {
                m: usize_of("m")?,
                n: usize_of("n")?,
                nnz: usize_of("nnz")?,
                ndig: usize_of("ndig")?,
                dnnz: f64_of("dnnz")?,
                mdim: usize_of("mdim")?,
                adim: f64_of("adim")?,
                vdim: f64_of("vdim")?,
                density: f64_of("density")?,
            },
            format: Format::from_str(name).map_err(|e| e.to_string())?,
            block: usize_of("block")?,
            batch: usize_of("batch")?,
            nanos: u64_of("nanos")?,
        })
    }
}

/// Bounded, thread-safe observation ring. Appenders never block on a slow
/// retrainer: when the ring is full the **oldest** observation is dropped
/// (and counted), so the log always holds the most recent window of
/// production traffic.
#[derive(Debug)]
pub struct ObservationRing {
    cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<LabeledObservation>>,
}

impl ObservationRing {
    /// Creates a ring holding at most `cap` observations (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            buf: Mutex::new(VecDeque::with_capacity(cap.max(1))),
        }
    }

    /// Appends one observation, assigning its sequence number. Returns the
    /// assigned sequence. Overwrites the oldest entry when full.
    pub fn append(&self, mut obs: LabeledObservation) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        obs.seq = seq;
        let mut buf = self.buf.lock().expect("observation ring poisoned");
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(obs);
        seq
    }

    /// Takes everything currently buffered, oldest first.
    pub fn drain(&self) -> Vec<LabeledObservation> {
        let mut buf = self.buf.lock().expect("observation ring poisoned");
        buf.drain(..).collect()
    }

    /// Observations currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("observation ring poisoned").len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum observations held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total observations ever appended.
    pub fn total_appended(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Observations overwritten before being drained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drains the ring and writes one JSONL line per observation.
    pub fn flush_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<usize> {
        let drained = self.drain();
        for obs in &drained {
            writeln!(out, "{}", obs.to_jsonl())?;
        }
        Ok(drained.len())
    }
}

/// Parses a JSONL log (as written by [`ObservationRing::flush_jsonl`]).
/// Blank lines are skipped; a malformed line fails with its line number.
pub fn parse_jsonl_log(text: &str) -> Result<Vec<LabeledObservation>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(LabeledObservation::from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Mines a [`ReactiveReport`] for observations: every format the reactive
/// run actually executed becomes one observation carrying that format's
/// mean measured time per call. Lives here (not in `dls-core`) so the core
/// crate stays free of learning dependencies; callers append the result to
/// an [`ObservationRing`].
pub fn observations_from_reactive(report: &ReactiveReport) -> Vec<LabeledObservation> {
    report
        .telemetry
        .per_format
        .iter()
        .filter(|t| t.calls > 0 && t.nanos > 0)
        .map(|t| LabeledObservation {
            seq: 0, // assigned on append
            features: report.initial.features,
            format: t.format,
            block: report.initial.block,
            batch: 1, // SMO kernel rows are single-vector sweeps
            nanos: (t.nanos / t.calls).max(1),
        })
        .collect()
}

/// Quantised fingerprint: observations of the same matrix group together.
fn fingerprint(f: &MatrixFeatures) -> [u64; 9] {
    [
        f.m as u64,
        f.n as u64,
        f.nnz as u64,
        f.ndig as u64,
        f.mdim as u64,
        f.dnnz.to_bits(),
        f.adim.to_bits(),
        f.vdim.to_bits(),
        f.density.to_bits(),
    ]
}

fn analytic_scores(f: &MatrixFeatures) -> [f64; Format::BASIC.len()] {
    let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
    let mut scores = [0.0; Format::BASIC.len()];
    for (i, &fmt) in Format::BASIC.iter().enumerate() {
        scores[i] = sel.predicted_time(fmt, f);
    }
    scores
}

fn argmin(scores: &[f64]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s < scores[best] {
            best = i;
        }
    }
    best
}

/// Converts production observations into labelled training samples.
///
/// Observations are grouped by matrix fingerprint. Within a group, each
/// *observed* basic format gets the mean measured seconds-per-vector;
/// unobserved formats get the analytic prediction rescaled so the analytic
/// and measured scales agree on the most-observed format (the same
/// calibration trick `MispredictDetector` uses). The label is the argmin;
/// its provenance is [`LabelSource::Measured`] when the winner was
/// actually measured, [`LabelSource::AnalyticFallback`] when the rescaled
/// analytic estimate of an unobserved format wins. Observations of derived
/// (non-basic) formats are skipped — the label space is the basic five.
pub fn observations_to_samples(obs: &[LabeledObservation]) -> Vec<LabelledSample> {
    struct Group {
        features: MatrixFeatures,
        first_seq: u64,
        // Per basic format: (sum secs/vector, count).
        sums: [(f64, u64); Format::BASIC.len()],
    }
    let mut order: Vec<Group> = Vec::new();
    let mut index: HashMap<[u64; 9], usize> = HashMap::new();
    for o in obs {
        let Some(fi) = Format::BASIC.iter().position(|&f| f == o.format) else {
            continue;
        };
        let key = fingerprint(&o.features);
        let gi = *index.entry(key).or_insert_with(|| {
            order.push(Group {
                features: o.features,
                first_seq: o.seq,
                sums: [(0.0, 0); Format::BASIC.len()],
            });
            order.len() - 1
        });
        let slot = &mut order[gi].sums[fi];
        slot.0 += o.secs_per_vector();
        slot.1 += 1;
    }

    order
        .into_iter()
        .map(|g| {
            let analytic = analytic_scores(&g.features);
            // Reference: the most-observed format (ties to the earlier
            // Format::BASIC entry) anchors the analytic→measured rescale.
            let reference = g
                .sums
                .iter()
                .enumerate()
                .max_by_key(|(_, &(_, c))| c)
                .map(|(i, _)| i)
                .expect("basic format space is non-empty");
            let measured_ref = g.sums[reference].0 / g.sums[reference].1.max(1) as f64;
            let ratio = if analytic[reference] > 0.0 && measured_ref > 0.0 {
                measured_ref / analytic[reference]
            } else {
                1.0
            };
            let mut scores = [0.0; Format::BASIC.len()];
            let mut observed = [false; Format::BASIC.len()];
            for (i, &(sum, count)) in g.sums.iter().enumerate() {
                if count > 0 {
                    scores[i] = sum / count as f64;
                    observed[i] = true;
                } else {
                    scores[i] = analytic[i] * ratio;
                }
            }
            let best = argmin(&scores);
            LabelledSample {
                desc: format!("online#{}", g.first_seq),
                features: g.features,
                x: featurize(&g.features),
                label: Format::BASIC[best],
                scores,
                source: if observed[best] {
                    LabelSource::Measured
                } else {
                    LabelSource::AnalyticFallback
                },
            }
        })
        .collect()
}

/// Knobs for one online retraining cycle.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTrainConfig {
    /// Seed for grid generation.
    pub seed: u64,
    /// Quick (CI-sized) synthetic grid instead of the full one.
    pub quick_grid: bool,
    /// Tree pruning parameters.
    pub params: TreeParams,
    /// Holdout stride over the synthetic grid; the held-out slice doubles
    /// as the trusted replay slice for the swap guard.
    pub holdout_stride: usize,
    /// Replication weight of each production-derived sample relative to a
    /// grid sample — production evidence is measured on *this* machine and
    /// workload, so it outweighs the synthetic prior.
    pub production_weight: usize,
    /// Extra multiplier for the most recent half of production samples.
    pub recency_boost: usize,
}

impl Default for OnlineTrainConfig {
    fn default() -> Self {
        Self {
            seed: GridConfig::default().seed,
            quick_grid: false,
            params: TreeParams::default(),
            holdout_stride: 5,
            production_weight: 3,
            recency_boost: 2,
        }
    }
}

/// Everything one online retraining cycle produces.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The candidate model.
    pub model: TrainedModel,
    /// Trusted replay slice: grid samples never seen during fitting. The
    /// swap guard replays candidate and incumbent over this slice, so a
    /// poisoned telemetry log cannot also poison its own acceptance test.
    pub holdout: Vec<LabelledSample>,
    /// Candidate holdout agreement.
    pub holdout_accuracy: f64,
    /// Distinct production-derived samples merged into training.
    pub production_samples: usize,
}

/// Replays `model` over `slice` and grades it against the oracle scores.
pub fn model_regret(model: &TrainedModel, name: &str, slice: &[LabelledSample]) -> EvalSummary {
    let picks: Vec<Format> = slice.iter().map(|s| model.predict(&s.x)).collect();
    evaluate(name, slice, &picks)
}

/// One retraining cycle: synthetic grid (analytic labels, deterministic —
/// this runs on a background thread, so no timing) merged with production
/// observations, recency-weighted, refit. Whether the candidate replaces
/// the incumbent is the caller's call (the serve side replays both over
/// [`OnlineOutcome::holdout`]).
pub fn retrain_online(
    cfg: &OnlineTrainConfig,
    observations: &[LabeledObservation],
) -> OnlineOutcome {
    let grid_cfg = GridConfig { seed: cfg.seed, quick: cfg.quick_grid, ..Default::default() };
    let cases = training_grid(&grid_cfg);
    let grid_samples: Vec<LabelledSample> =
        cases.iter().map(|c| label_case(&c.desc, &c.matrix, LabelMode::analytic_flat())).collect();
    let (grid_train, holdout) = split_holdout(grid_samples, cfg.holdout_stride.max(2));

    let production = observations_to_samples(observations);
    let n_production = production.len();

    // Weighted merge by replication: the CART trainer is unweighted, so a
    // sample with weight w appears w times. Production outweighs the
    // synthetic prior, and the most recent half of production (groups are
    // ordered by first appearance in the log) gets a further boost.
    let mut xs: Vec<[f64; NUM_FEATURES]> = Vec::new();
    let mut ys: Vec<Format> = Vec::new();
    let mut measured = 0usize;
    let mut analytic_fallback = 0usize;
    let mut analytic = 0usize;
    for s in &grid_train {
        xs.push(s.x);
        ys.push(s.label);
        analytic += 1;
    }
    let recent_from = n_production / 2;
    for (i, s) in production.iter().enumerate() {
        let weight = cfg.production_weight.max(1)
            * if i >= recent_from { cfg.recency_boost.max(1) } else { 1 };
        for _ in 0..weight {
            xs.push(s.x);
            ys.push(s.label);
            match s.source {
                LabelSource::Measured => measured += 1,
                LabelSource::AnalyticFallback => analytic_fallback += 1,
                LabelSource::Analytic => analytic += 1,
            }
        }
    }

    let tree = DecisionTree::train(&xs, &ys, cfg.params);
    let model = TrainedModel {
        meta: ModelMeta {
            seed: cfg.seed,
            grid: "online".into(),
            samples: xs.len(),
            measured,
            analytic_fallback,
            analytic,
        },
        tree,
        blocks: None,
    };
    let holdout_accuracy = model_regret(&model, "tree", &holdout).agreement;
    OnlineOutcome { model, holdout, holdout_accuracy, production_samples: n_production }
}

/// Confidence-gated hybrid selector: the learned tree decides when its
/// confidence — the purity of the leaf the query lands in — clears
/// `min_confidence`; below that, the paper's analytic rules decide.
/// Fallback counts are exposed for telemetry.
#[derive(Debug)]
pub struct HybridSelector {
    learned: LearnedSelector,
    rules: RuleBasedSelector,
    min_confidence: f64,
    decisions: AtomicU64,
    fallbacks: AtomicU64,
}

/// Default confidence gate: the tree's leaf must be at least 75% pure for
/// the learned pick to stand on its own.
pub const DEFAULT_MIN_CONFIDENCE: f64 = 0.75;

impl HybridSelector {
    /// Wraps a trained model with the default gate and host-tuned rules.
    pub fn new(model: TrainedModel) -> Self {
        Self::with_confidence(model, DEFAULT_MIN_CONFIDENCE)
    }

    /// Wraps a trained model with an explicit confidence gate.
    pub fn with_confidence(model: TrainedModel, min_confidence: f64) -> Self {
        Self {
            learned: LearnedSelector::new(model),
            rules: RuleBasedSelector::for_host(),
            min_confidence,
            decisions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        self.learned.model()
    }

    /// The confidence gate.
    pub fn min_confidence(&self) -> f64 {
        self.min_confidence
    }

    /// Selections made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Selections that fell back to the analytic rules.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Fraction of selections decided by the rules (0 when unused).
    pub fn fallback_rate(&self) -> f64 {
        let d = self.decisions();
        if d == 0 {
            0.0
        } else {
            self.fallbacks() as f64 / d as f64
        }
    }
}

impl FormatSelector for HybridSelector {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let x = featurize(f);
        let (format, confidence) = self.model().predict_with_confidence(&x);
        if confidence >= self.min_confidence {
            let mut report = self.learned.select(t, f);
            report.chosen = format;
            report.block = self.learned.tuned_block(format, f);
            report.reason = format!(
                "hybrid learned (confidence {confidence:.2} >= {:.2}): {}",
                self.min_confidence, report.reason,
            );
            report
        } else {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            let mut report = self.rules.select(t, f);
            report.block = self.learned.tuned_block(report.chosen, f);
            report.reason = format!(
                "hybrid rule fallback (confidence {confidence:.2} < {:.2} for {format}): {}",
                self.min_confidence, report.reason,
            );
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::controlled::{diag_matrix, mdim_matrix};
    use std::sync::Arc;

    // A CSR-shaped matrix (nnz = 2·m concentrated in one wide row): CSR is
    // both the analytic winner and the plausible measured one, so rescaled
    // analytic estimates of unobserved formats cannot undercut it.
    fn obs(m: usize, nnz: usize, format: Format, nanos: u64, batch: usize) -> LabeledObservation {
        let t = mdim_matrix(m, m, nnz, m, 2);
        LabeledObservation {
            seq: 0,
            features: MatrixFeatures::from_triplets(&t),
            format,
            block: 8,
            batch,
            nanos,
        }
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let o = obs(128, 256, Format::Dia, 12_345, 4);
        let line = o.to_jsonl();
        let restored = LabeledObservation::from_jsonl(&line).unwrap();
        assert_eq!(restored, o);
        assert_eq!(restored.to_jsonl(), line, "encoding is canonical");
    }

    #[test]
    fn jsonl_log_round_trips_through_flush() {
        let ring = ObservationRing::new(8);
        for k in 0..5u64 {
            ring.append(obs(64 + k as usize, 128, Format::Csr, 1000 + k, 1));
        }
        let mut bytes = Vec::new();
        let n = ring.flush_jsonl(&mut bytes).unwrap();
        assert_eq!(n, 5);
        assert!(ring.is_empty(), "flush drains");
        let text = String::from_utf8(bytes).unwrap();
        let restored = parse_jsonl_log(&text).unwrap();
        assert_eq!(restored.len(), 5);
        assert_eq!(restored[0].seq, 0);
        assert_eq!(restored[4].seq, 4);
        assert!(parse_jsonl_log("{\"seq\":}").is_err(), "malformed lines are rejected");
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = ObservationRing::new(3);
        for k in 0..5 {
            ring.append(obs(64, 128, Format::Csr, 1000 + k, 1));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_appended(), 5);
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        // Seqs 0 and 1 were overwritten; the newest three survive in order.
        let seqs: Vec<u64> = drained.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2, "draining does not count as dropping");
    }

    #[test]
    fn concurrent_append_while_drain_loses_nothing_below_capacity() {
        // Appenders and a drainer race; every appended observation must end
        // up either in some drain batch or still buffered — none vanish and
        // none duplicate (the ring never overflows in this test).
        let ring = Arc::new(ObservationRing::new(100_000));
        let n_threads = 4;
        let per_thread = 500;
        let drained = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for k in 0..per_thread {
                    ring.append(obs(64, 128, Format::Csr, (t * per_thread + k) as u64 + 1, 1));
                }
            }));
        }
        let drainer = {
            let ring = Arc::clone(&ring);
            let drained = Arc::clone(&drained);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let batch = ring.drain();
                    drained.lock().unwrap().extend(batch);
                    std::thread::yield_now();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        drainer.join().unwrap();
        let mut all = drained.lock().unwrap().clone();
        all.extend(ring.drain());
        assert_eq!(all.len(), n_threads * per_thread);
        let mut seqs: Vec<u64> = all.iter().map(|o| o.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), n_threads * per_thread, "every seq exactly once");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn observed_winner_is_labelled_measured() {
        // Same matrix observed under two formats; CSR measured much faster.
        let mut observations = vec![
            obs(128, 256, Format::Csr, 1_000, 1),
            obs(128, 256, Format::Dia, 50_000, 1),
            obs(128, 256, Format::Csr, 1_200, 1),
        ];
        for (i, o) in observations.iter_mut().enumerate() {
            o.seq = i as u64;
        }
        let samples = observations_to_samples(&observations);
        assert_eq!(samples.len(), 1, "one fingerprint group");
        let s = &samples[0];
        assert_eq!(s.label, Format::Csr);
        assert_eq!(s.source, LabelSource::Measured);
        // CSR's score is the mean of its two measurements.
        assert!((s.score_of(Format::Csr).unwrap() - 1.1e-6).abs() < 1e-12);
        // DIA keeps its own measurement rather than an analytic guess.
        assert!((s.score_of(Format::Dia).unwrap() - 5e-5).abs() < 1e-12);
    }

    #[test]
    fn derived_format_observations_are_skipped() {
        let observations = vec![obs(128, 256, Format::Hyb, 1_000, 1)];
        assert!(observations_to_samples(&observations).is_empty());
    }

    #[test]
    fn retrain_merges_production_into_the_tree() {
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let base = retrain_online(&cfg, &[]);
        assert!(base.holdout_accuracy > 0.5);
        assert_eq!(base.production_samples, 0);

        // Production observations land in the meta counts.
        let mut observations =
            vec![obs(200, 400, Format::Csr, 900, 1), obs(200, 400, Format::Dia, 90_000, 1)];
        for (i, o) in observations.iter_mut().enumerate() {
            o.seq = i as u64;
        }
        let with_prod = retrain_online(&cfg, &observations);
        assert_eq!(with_prod.production_samples, 1);
        assert!(with_prod.model.meta.measured > 0, "production samples counted as measured");
        assert_eq!(with_prod.model.meta.grid, "online");
    }

    #[test]
    fn retraining_is_deterministic() {
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let observations = vec![obs(96, 192, Format::Ell, 2_000, 2)];
        let a = retrain_online(&cfg, &observations);
        let b = retrain_online(&cfg, &observations);
        assert_eq!(a.model, b.model);
        assert_eq!(a.model.to_json(), b.model.to_json());
    }

    #[test]
    fn hybrid_selector_gates_on_confidence() {
        let cfg = OnlineTrainConfig { quick_grid: true, ..Default::default() };
        let model = retrain_online(&cfg, &[]).model;
        let t = diag_matrix(128, 128, 256, 2, 1);
        let f = MatrixFeatures::from_triplets(&t);

        // Gate at 0: the learned model always decides.
        let trusting = HybridSelector::with_confidence(model.clone(), 0.0);
        let r = trusting.select(&t, &f);
        assert!(r.reason.starts_with("hybrid learned"), "{}", r.reason);
        assert_eq!(trusting.decisions(), 1);
        assert_eq!(trusting.fallbacks(), 0);

        // Gate above 1: everything falls back to the rules.
        let skeptical = HybridSelector::with_confidence(model, 1.1);
        let r = skeptical.select(&t, &f);
        assert!(r.reason.starts_with("hybrid rule fallback"), "{}", r.reason);
        assert_eq!(skeptical.fallbacks(), 1);
        assert!((skeptical.fallback_rate() - 1.0).abs() < 1e-12);
        // The rules know a diagonal matrix when they see one.
        assert_eq!(r.chosen, Format::Dia, "{}", r.reason);
    }
}
