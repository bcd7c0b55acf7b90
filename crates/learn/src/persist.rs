//! Hand-rolled JSON persistence for trained models.
//!
//! Same approach as `TelemetrySnapshot` and the tuning cache: a per-type
//! writer emitting a versioned document, with parsing delegated to
//! `dls_core::json`. The document stores the feature schema by name and the
//! loader rejects models whose schema differs from the running binary's
//! [`FEATURE_NAMES`] — a model trained against one featurisation must never
//! silently mis-predict under another.
//!
//! Load failures are typed ([`ModelError`]): an unsupported document
//! version reports the version range this build reads, a malformed member
//! reports the dotted path of the offending field (`"meta.seed"`,
//! `"tree.left.leaf.counts[1]"`). Unknown members are ignored, so documents
//! written by a newer build of the *same* version family (extra optional
//! sections) still load — forward compatibility is by addition only.
//!
//! ```json
//! {"version":2,
//!  "meta":{"seed":7,"grid":"full","samples":80,"measured":61,
//!          "analytic_fallback":19,"analytic":0},
//!  "features":["log2_m", ...],
//!  "params":{"max_depth":8,"min_leaf":3,"min_gain":1e-9},
//!  "tree":{"split":{"feature":3,"threshold":0.52,
//!                   "left":{"leaf":{"format":"CSR","counts":[["CSR",12]]}},
//!                   "right":...}}}
//! ```
//!
//! Version history: v1 = single tree (+ optional `"blocks"`); v2 added an
//! optional `"ensemble"` section (a bagged forest). The forest is gone, so
//! this build ignores that section like any unknown member: a v2 document
//! that carries one loads as its tree, which is always present. v1
//! documents load unchanged; this build always writes v2.

use crate::block::BlockModel;
use crate::features::FEATURE_NAMES;
use crate::regress::{RegressNode, RegressParams, RegressionTree};
use crate::tree::{DecisionTree, Node, TreeParams};
use dls_core::json::{escape, number, parse, JsonValue};
use dls_sparse::Format;
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Document format version this build writes.
pub const MODEL_VERSION: u64 = 2;

/// Oldest document format version this build still reads.
pub const MIN_MODEL_VERSION: u64 = 1;

/// Typed model-load failure: what went wrong and exactly where.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The document is not valid JSON at all.
    Json(String),
    /// The document's `version` is outside the readable range.
    Version {
        /// Version declared by the document.
        found: u64,
        /// Oldest version this build reads ([`MIN_MODEL_VERSION`]).
        min_supported: u64,
        /// Newest version this build reads ([`MODEL_VERSION`]).
        max_supported: u64,
    },
    /// The stored feature schema differs from this build's
    /// [`FEATURE_NAMES`].
    Schema {
        /// Feature names the document was trained against.
        found: Vec<String>,
    },
    /// A member is missing or has the wrong shape; `path` is the dotted
    /// location inside the document (e.g. `"meta.seed"`,
    /// `"tree.left.leaf.format"`).
    Field {
        /// Dotted path of the offending member.
        path: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The model file could not be read.
    Io {
        /// Path of the file.
        file: String,
        /// Operating-system error text.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(msg) => write!(f, "model document is not valid JSON: {msg}"),
            Self::Version { found, min_supported, max_supported } => write!(
                f,
                "unsupported model version {found} (this build reads \
                 {min_supported}..={max_supported}) — retrain with `dls train-selector`"
            ),
            Self::Schema { found } => write!(
                f,
                "feature schema mismatch: model has {found:?}, this build expects \
                 {FEATURE_NAMES:?} — retrain with `dls train-selector`"
            ),
            Self::Field { path, reason } => write!(f, "model field \"{path}\": {reason}"),
            Self::Io { file, reason } => write!(f, "cannot read {file}: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Legacy callers still thread `String` errors; keep `?` working for them.
impl From<ModelError> for String {
    fn from(e: ModelError) -> Self {
        e.to_string()
    }
}

fn field_err(path: &str, reason: impl Into<String>) -> ModelError {
    ModelError::Field { path: path.to_string(), reason: reason.into() }
}

/// Fetches `key` from an object, reporting the full dotted path on absence.
fn member<'a>(v: &'a JsonValue, key: &str, path: &str) -> Result<&'a JsonValue, ModelError> {
    v.get(key).ok_or_else(|| field_err(&join(path, key), "missing"))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn want_u64(v: &JsonValue, path: &str) -> Result<u64, ModelError> {
    v.as_u64().ok_or_else(|| field_err(path, "must be a non-negative integer"))
}

fn want_usize(v: &JsonValue, path: &str) -> Result<usize, ModelError> {
    v.as_usize().ok_or_else(|| field_err(path, "must be a non-negative integer"))
}

fn want_f64(v: &JsonValue, path: &str) -> Result<f64, ModelError> {
    v.as_f64().ok_or_else(|| field_err(path, "must be a number"))
}

fn want_str<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, ModelError> {
    v.as_str().ok_or_else(|| field_err(path, "must be a string"))
}

fn want_arr<'a>(v: &'a JsonValue, path: &str) -> Result<&'a [JsonValue], ModelError> {
    v.as_arr().ok_or_else(|| field_err(path, "must be an array"))
}

/// Provenance of a trained model: how its training set was built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMeta {
    /// Master seed of the training grid.
    pub seed: u64,
    /// Grid flavour: `"full"`, `"quick"` or `"online"`.
    pub grid: String,
    /// Total training samples.
    pub samples: usize,
    /// Samples labelled by trusted measurement.
    pub measured: usize,
    /// Samples where measurement was noisy and the analytic model decided.
    pub analytic_fallback: usize,
    /// Samples labelled analytically by request.
    pub analytic: usize,
}

/// A trained tree plus its provenance — the unit of persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    /// Training provenance.
    pub meta: ModelMeta,
    /// The decision tree itself.
    pub tree: DecisionTree,
    /// Learned per-format tuned block sizes; `None` for models trained
    /// before the block-calibration sweep existed.
    pub blocks: Option<BlockModel>,
}

fn node_json(node: &Node, out: &mut String) {
    match node {
        Node::Leaf { format, counts } => {
            out.push_str("{\"leaf\":{\"format\":");
            out.push_str(&escape(&format.to_string()));
            out.push_str(",\"counts\":[");
            for (i, (f, c)) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{c}]", escape(&f.to_string())));
            }
            out.push_str("]}}");
        }
        Node::Split { feature, threshold, left, right } => {
            out.push_str(&format!(
                "{{\"split\":{{\"feature\":{feature},\"threshold\":{},\"left\":",
                number(*threshold)
            ));
            node_json(left, out);
            out.push_str(",\"right\":");
            node_json(right, out);
            out.push_str("}}");
        }
    }
}

fn parse_node(v: &JsonValue, path: &str) -> Result<Node, ModelError> {
    if let Some(leaf) = v.get("leaf") {
        let path = join(path, "leaf");
        let format = parse_format(member(leaf, "format", &path)?, &join(&path, "format"))?;
        let counts_path = join(&path, "counts");
        let mut counts = Vec::new();
        for (i, pair) in want_arr(member(leaf, "counts", &path)?, &counts_path)?.iter().enumerate()
        {
            let entry_path = format!("{counts_path}[{i}]");
            let pair = want_arr(pair, &entry_path)?;
            if pair.len() != 2 {
                return Err(field_err(&entry_path, "must be a [format, n] pair"));
            }
            let f = parse_format(&pair[0], &format!("{entry_path}[0]"))?;
            let n = want_usize(&pair[1], &format!("{entry_path}[1]"))?;
            counts.push((f, n));
        }
        Ok(Node::Leaf { format, counts })
    } else if let Some(split) = v.get("split") {
        let path = join(path, "split");
        let fpath = join(&path, "feature");
        let feature = want_usize(member(split, "feature", &path)?, &fpath)?;
        if feature >= FEATURE_NAMES.len() {
            return Err(field_err(
                &fpath,
                format!("index {feature} out of range (max {})", FEATURE_NAMES.len() - 1),
            ));
        }
        let threshold = want_f64(member(split, "threshold", &path)?, &join(&path, "threshold"))?;
        Ok(Node::Split {
            feature,
            threshold,
            left: Box::new(parse_node(member(split, "left", &path)?, &join(&path, "left"))?),
            right: Box::new(parse_node(member(split, "right", &path)?, &join(&path, "right"))?),
        })
    } else {
        Err(field_err(path, "node must have a \"leaf\" or \"split\" member"))
    }
}

fn parse_format(v: &JsonValue, path: &str) -> Result<Format, ModelError> {
    let name = want_str(v, path)?;
    Format::from_str(name).map_err(|e| field_err(path, e.to_string()))
}

fn regress_node_json(node: &RegressNode, out: &mut String) {
    match node {
        RegressNode::Leaf { value, n } => {
            out.push_str(&format!("{{\"leaf\":{{\"value\":{},\"n\":{n}}}}}", number(*value)));
        }
        RegressNode::Split { feature, threshold, left, right } => {
            out.push_str(&format!(
                "{{\"split\":{{\"feature\":{feature},\"threshold\":{},\"left\":",
                number(*threshold)
            ));
            regress_node_json(left, out);
            out.push_str(",\"right\":");
            regress_node_json(right, out);
            out.push_str("}}");
        }
    }
}

fn parse_regress_node(v: &JsonValue, path: &str) -> Result<RegressNode, ModelError> {
    if let Some(leaf) = v.get("leaf") {
        let path = join(path, "leaf");
        Ok(RegressNode::Leaf {
            value: want_f64(member(leaf, "value", &path)?, &join(&path, "value"))?,
            n: want_usize(member(leaf, "n", &path)?, &join(&path, "n"))?,
        })
    } else if let Some(split) = v.get("split") {
        let path = join(path, "split");
        let fpath = join(&path, "feature");
        let feature = want_usize(member(split, "feature", &path)?, &fpath)?;
        if feature >= FEATURE_NAMES.len() {
            return Err(field_err(
                &fpath,
                format!("index {feature} out of range (max {})", FEATURE_NAMES.len() - 1),
            ));
        }
        Ok(RegressNode::Split {
            feature,
            threshold: want_f64(member(split, "threshold", &path)?, &join(&path, "threshold"))?,
            left: Box::new(parse_regress_node(
                member(split, "left", &path)?,
                &join(&path, "left"),
            )?),
            right: Box::new(parse_regress_node(
                member(split, "right", &path)?,
                &join(&path, "right"),
            )?),
        })
    } else {
        Err(field_err(path, "regression node must have a \"leaf\" or \"split\" member"))
    }
}

fn blocks_json(blocks: &BlockModel, out: &mut String) {
    out.push('{');
    for (i, (fmt, tree)) in blocks.trees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p = tree.params();
        out.push_str(&format!(
            "{}:{{\"params\":{{\"max_depth\":{},\"min_leaf\":{},\"min_gain\":{}}},\"tree\":",
            escape(&fmt.to_string()),
            p.max_depth,
            p.min_leaf,
            number(p.min_gain)
        ));
        regress_node_json(tree.root(), out);
        out.push('}');
    }
    out.push('}');
}

fn parse_blocks(v: &JsonValue, path: &str) -> Result<BlockModel, ModelError> {
    let members = match v {
        JsonValue::Obj(members) => members,
        _ => return Err(field_err(path, "must be an object")),
    };
    let mut trees = Vec::new();
    for (name, entry) in members {
        let entry_path = join(path, name);
        let fmt = Format::from_str(name).map_err(|e| field_err(&entry_path, e.to_string()))?;
        let p = member(entry, "params", &entry_path)?;
        let ppath = join(&entry_path, "params");
        let params = RegressParams {
            max_depth: want_usize(member(p, "max_depth", &ppath)?, &join(&ppath, "max_depth"))?,
            min_leaf: want_usize(member(p, "min_leaf", &ppath)?, &join(&ppath, "min_leaf"))?,
            min_gain: want_f64(member(p, "min_gain", &ppath)?, &join(&ppath, "min_gain"))?,
        };
        let root =
            parse_regress_node(member(entry, "tree", &entry_path)?, &join(&entry_path, "tree"))?;
        trees.push((fmt, RegressionTree::from_parts(FEATURE_NAMES.len(), params, root)));
    }
    Ok(BlockModel { trees })
}

impl TrainedModel {
    /// Serialises the model to its versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"version\":{MODEL_VERSION},\"meta\":{{"));
        out.push_str(&format!(
            "\"seed\":{},\"grid\":{},\"samples\":{},\"measured\":{},\
             \"analytic_fallback\":{},\"analytic\":{}}}",
            self.meta.seed,
            escape(&self.meta.grid),
            self.meta.samples,
            self.meta.measured,
            self.meta.analytic_fallback,
            self.meta.analytic,
        ));
        out.push_str(",\"features\":[");
        for (i, name) in FEATURE_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(name));
        }
        out.push_str("],\"params\":{");
        let p = self.tree.params();
        out.push_str(&format!(
            "\"max_depth\":{},\"min_leaf\":{},\"min_gain\":{}",
            p.max_depth,
            p.min_leaf,
            number(p.min_gain)
        ));
        out.push_str("},\"tree\":");
        node_json(self.tree.root(), &mut out);
        if let Some(blocks) = &self.blocks {
            out.push_str(",\"blocks\":");
            blocks_json(blocks, &mut out);
        }
        out.push('}');
        out
    }

    /// Parses a model document, validating version and feature schema.
    pub fn from_json(doc: &str) -> Result<Self, ModelError> {
        let v = parse(doc).map_err(ModelError::Json)?;
        let version = want_u64(member(&v, "version", "")?, "version")?;
        if !(MIN_MODEL_VERSION..=MODEL_VERSION).contains(&version) {
            return Err(ModelError::Version {
                found: version,
                min_supported: MIN_MODEL_VERSION,
                max_supported: MODEL_VERSION,
            });
        }
        let names = want_arr(member(&v, "features", "")?, "features")?;
        let stored: Vec<&str> = names.iter().filter_map(|n| n.as_str()).collect();
        if stored != FEATURE_NAMES {
            return Err(ModelError::Schema {
                found: stored.iter().map(|s| s.to_string()).collect(),
            });
        }
        let m = member(&v, "meta", "")?;
        let meta = ModelMeta {
            seed: want_u64(member(m, "seed", "meta")?, "meta.seed")?,
            grid: want_str(member(m, "grid", "meta")?, "meta.grid")?.to_string(),
            samples: want_usize(member(m, "samples", "meta")?, "meta.samples")?,
            measured: want_usize(member(m, "measured", "meta")?, "meta.measured")?,
            analytic_fallback: want_usize(
                member(m, "analytic_fallback", "meta")?,
                "meta.analytic_fallback",
            )?,
            analytic: want_usize(member(m, "analytic", "meta")?, "meta.analytic")?,
        };
        let p = member(&v, "params", "")?;
        let params = TreeParams {
            max_depth: want_usize(member(p, "max_depth", "params")?, "params.max_depth")?,
            min_leaf: want_usize(member(p, "min_leaf", "params")?, "params.min_leaf")?,
            min_gain: want_f64(member(p, "min_gain", "params")?, "params.min_gain")?,
        };
        let root = parse_node(member(&v, "tree", "")?, "tree")?;
        // "blocks" is optional: models trained before block calibration
        // existed load fine and fall back to the engine default block.
        let blocks = match v.get("blocks") {
            Some(b) => Some(parse_blocks(b, "blocks")?),
            None => None,
        };
        Ok(Self { meta, tree: DecisionTree::from_parts(params, root), blocks })
    }

    /// Writes the model to `path`.
    pub fn save_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a model from `path`.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let doc = std::fs::read_to_string(path.as_ref()).map_err(|e| ModelError::Io {
            file: path.as_ref().display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json(&doc)
    }

    /// Predicted format.
    pub fn predict(&self, x: &[f64; crate::features::NUM_FEATURES]) -> Format {
        self.tree.predict(x)
    }

    /// Prediction plus a confidence in `[0, 1]`: the leaf purity
    /// (majority-class fraction of the leaf's training histogram).
    pub fn predict_with_confidence(
        &self,
        x: &[f64; crate::features::NUM_FEATURES],
    ) -> (Format, f64) {
        self.tree.predict_with_confidence(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NUM_FEATURES;

    fn sample_model() -> TrainedModel {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..24 {
            let mut x = [0.0; NUM_FEATURES];
            x[3] = k as f64 / 23.0; // density
            x[5] = if k % 2 == 0 { 0.9 } else { 0.1 }; // dia_fill
            xs.push(x);
            ys.push(if x[3] > 0.6 {
                Format::Den
            } else if x[5] > 0.5 {
                Format::Dia
            } else {
                Format::Csr
            });
        }
        let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
        TrainedModel {
            meta: ModelMeta {
                seed: 7,
                grid: "full".into(),
                samples: 24,
                measured: 20,
                analytic_fallback: 4,
                analytic: 0,
            },
            tree,
            blocks: None,
        }
    }

    fn sample_model_with_blocks() -> TrainedModel {
        use crate::block::{BlockModel, BlockSample};
        use dls_sparse::MAX_SMSV_BLOCK;
        let mut samples = Vec::new();
        for k in 0..12 {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = k as f64; // log2_m
            for fmt in [Format::Csr, Format::Ell] {
                samples.push(BlockSample {
                    format: fmt,
                    x,
                    block: if k < 6 { MAX_SMSV_BLOCK } else { 4 },
                });
            }
        }
        TrainedModel { blocks: Some(BlockModel::train(&samples)), ..sample_model() }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let model = sample_model();
        let doc = model.to_json();
        let restored = TrainedModel::from_json(&doc).unwrap();
        assert_eq!(restored, model);
        // Canonical form: re-serialisation is byte-identical.
        assert_eq!(restored.to_json(), doc);
    }

    #[test]
    fn block_model_round_trips_and_predicts_identically() {
        let model = sample_model_with_blocks();
        let doc = model.to_json();
        assert!(doc.contains("\"blocks\":"), "block trees persisted");
        let restored = TrainedModel::from_json(&doc).unwrap();
        assert_eq!(restored, model);
        assert_eq!(restored.to_json(), doc, "serialisation is canonical");
        let (orig, rest) = (model.blocks.unwrap(), restored.blocks.unwrap());
        for k in 0..12 {
            let mut x = [0.0; NUM_FEATURES];
            x[0] = k as f64;
            for fmt in [Format::Csr, Format::Ell, Format::Coo, Format::Csc] {
                assert_eq!(orig.tuned_block(fmt, &x), rest.tuned_block(fmt, &x), "{fmt}");
            }
        }
    }

    #[test]
    fn documents_with_an_ensemble_section_load_as_their_tree() {
        // Documents written while the bagged forest existed carry an
        // "ensemble" array of trees after the main tree. The section is now
        // ignored like any unknown member; the model is the main tree.
        let model = sample_model();
        let doc = model.to_json();
        let node = &doc[doc.find("\"tree\":").unwrap() + "\"tree\":".len()..doc.len() - 1];
        let with_forest = format!("{},\"ensemble\":[{node},{node}]}}", &doc[..doc.len() - 1]);
        let restored = TrainedModel::from_json(&with_forest).unwrap();
        assert_eq!(restored, model);
        assert_eq!(restored.to_json(), doc, "re-saving drops the section");
    }

    #[test]
    fn restored_model_predicts_identically() {
        let model = sample_model();
        let restored = TrainedModel::from_json(&model.to_json()).unwrap();
        for k in 0..50 {
            let mut x = [0.0; NUM_FEATURES];
            x[3] = k as f64 / 49.0;
            x[5] = 1.0 - x[3];
            assert_eq!(model.tree.predict(&x), restored.tree.predict(&x));
        }
    }

    #[test]
    fn save_and_load_file() {
        let model = sample_model();
        let path = std::env::temp_dir().join("dls_learn_model_test.json");
        model.save_file(&path).unwrap();
        let restored = TrainedModel::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored, model);
    }

    #[test]
    fn load_reports_typed_errors_with_field_paths() {
        assert!(matches!(TrainedModel::from_json(""), Err(ModelError::Json(_))));
        assert_eq!(
            TrainedModel::from_json("{}"),
            Err(ModelError::Field { path: "version".into(), reason: "missing".into() })
        );
        let doc = sample_model().to_json();
        // Future version: typed error carrying the supported range.
        let bad = doc.replacen("\"version\":2", "\"version\":99", 1);
        assert_eq!(
            TrainedModel::from_json(&bad),
            Err(ModelError::Version { found: 99, min_supported: 1, max_supported: 2 })
        );
        let rendered = TrainedModel::from_json(&bad).unwrap_err().to_string();
        assert!(rendered.contains("version 99"), "{rendered}");
        assert!(rendered.contains("1..=2"), "{rendered}");
        // Wrong feature schema.
        let bad = doc.replacen("log2_m", "log3_m", 1);
        match TrainedModel::from_json(&bad) {
            Err(ModelError::Schema { found }) => assert_eq!(found[0], "log3_m"),
            other => panic!("expected schema error, got {other:?}"),
        }
        // Unknown format name in a leaf: the error names the exact member.
        let bad = doc.replacen("\"CSR\"", "\"XYZ\"", 1);
        match TrainedModel::from_json(&bad) {
            Err(ModelError::Field { path, .. }) => {
                assert!(path.starts_with("tree."), "path locates the node: {path}")
            }
            other => panic!("expected field error, got {other:?}"),
        }
        // Wrong member type.
        let bad = doc.replacen("\"seed\":7", "\"seed\":\"x\"", 1);
        assert_eq!(
            TrainedModel::from_json(&bad),
            Err(ModelError::Field {
                path: "meta.seed".into(),
                reason: "must be a non-negative integer".into()
            })
        );
        // Out-of-range feature index must not panic.
        let bad = doc.replacen("\"feature\":", "\"feature\":97", 1);
        let _ = TrainedModel::from_json(&bad);
    }

    #[test]
    fn v1_documents_still_load() {
        let model = sample_model();
        let v1 = model.to_json().replacen("\"version\":2", "\"version\":1", 1);
        let restored = TrainedModel::from_json(&v1).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn v2_documents_with_unknown_optional_fields_still_load() {
        // Forward compatibility: a newer build of the v2 family may add
        // optional sections; this build must ignore them, not reject.
        let model = sample_model();
        let doc = model.to_json();
        let extended = doc.replacen(
            "\"meta\":",
            "\"calibration\":{\"host\":\"other\",\"runs\":3},\"notes\":[1,2],\"meta\":",
            1,
        );
        let restored = TrainedModel::from_json(&extended).unwrap();
        assert_eq!(restored, model);
    }
}
