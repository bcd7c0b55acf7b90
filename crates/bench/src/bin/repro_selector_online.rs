//! Cross-machine online-learning evaluation: a selector trained on one
//! `dls-hw` machine profile is deployed under another, and the online
//! retraining loop (production telemetry merged with the synthetic prior)
//! is graded against the frozen model it replaces.
//!
//! Each platform's [`dls_hw::Platform::format_bandwidth`] profile induces a
//! different labelling oracle over the same synthetic grid — CPUs stream
//! CSR/COO near peak while wide-SIMD/SIMT machines favour the regular
//! formats — so a CART frozen at training time carries the *training*
//! machine's format ranking to the test machine. The online path instead
//! sees production sweeps measured under the test machine's oracle and
//! retrains. Both are graded on held-out grid matrices the retrainer never
//! fit, under the test machine's oracle: agreement with its winner and
//! regret (how much slower the pick is than that winner).
//!
//! Usage: `repro_selector_online [--quick] [--check] [--seed N] [out.json]`
//! (default out: `BENCH_selector.json`). `--check` exits non-zero unless
//! online mean regret is no worse than the frozen CART's on every
//! cross-machine pair.

use dls_core::json::JsonValue;
use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_hw::{Platform, PLATFORMS};
use dls_learn::{
    evaluate, retrain_online, training_grid, DecisionTree, EvalSummary, GridConfig, LabelMode,
    LabeledObservation, OnlineTrainConfig, TreeParams,
};
use dls_sparse::Format;

/// Machine the frozen model is trained on (the paper's measurement host).
const TRAIN_PLATFORM: &str = "8-core CPU";

struct PairResult {
    test_platform: &'static str,
    rows: Vec<EvalSummary>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| GridConfig::default().seed);
    let out_path = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--seed"))
        .map(|(_, a)| a)
        .find(|a| a.ends_with(".json"))
        .cloned()
        .unwrap_or_else(|| "BENCH_selector.json".into());

    let train_platform =
        Platform::by_name(TRAIN_PLATFORM).expect("train platform exists in dls-hw");
    println!("# Online selector — cross-machine regret (train on {TRAIN_PLATFORM})");
    println!("# grid={} seed={seed}\n", if quick { "quick" } else { "full" });

    // One grid, labelled per platform: the matrices are shared, only the
    // bandwidth profile (and hence the winning format) changes.
    let grid_cfg = GridConfig { seed, quick, ..Default::default() };
    let cases = training_grid(&grid_cfg);
    let label_under = |p: &Platform| {
        let mode = LabelMode::Analytic { bandwidth: p.format_bandwidth() };
        cases.iter().map(|c| dls_learn::label_case(&c.desc, &c.matrix, mode)).collect::<Vec<_>>()
    };
    let stride = 5usize;
    let is_holdout = |i: usize| i % stride == stride - 1;

    // Frozen CART: fitted once, on the training machine's oracle.
    let train_samples = label_under(train_platform);
    let xs: Vec<_> = train_samples
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_holdout(*i))
        .map(|(_, s)| s.x)
        .collect();
    let ys: Vec<_> = train_samples
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_holdout(*i))
        .map(|(_, s)| s.label)
        .collect();
    let frozen = DecisionTree::train(&xs, &ys, TreeParams::default());

    let rules = LayoutScheduler::with_strategy(SelectionStrategy::RuleBased);
    let cfg = OnlineTrainConfig { seed, quick_grid: quick, ..Default::default() };
    let mut pairs: Vec<PairResult> = Vec::new();

    for test_platform in &PLATFORMS {
        let test_samples = label_under(test_platform);
        let holdout: Vec<_> = test_samples
            .iter()
            .enumerate()
            .filter(|(i, _)| is_holdout(*i))
            .map(|(_, s)| s.clone())
            .collect();

        // Production telemetry on the test machine: every format's sweep
        // time for the matrices production actually served (the train
        // split — the holdout stays unseen by every learner).
        let observations: Vec<LabeledObservation> = test_samples
            .iter()
            .enumerate()
            .filter(|(i, _)| !is_holdout(*i))
            .flat_map(|(i, s)| {
                Format::BASIC.iter().enumerate().map(move |(k, &format)| LabeledObservation {
                    seq: (i * Format::BASIC.len() + k) as u64,
                    features: s.features,
                    format,
                    block: 1,
                    batch: 1,
                    nanos: ((s.scores[k] * 1e9).max(1.0)) as u64,
                })
            })
            .collect();

        let online = retrain_online(&cfg, &observations);

        let grade = |name: &str, picks: Vec<Format>| evaluate(name, &holdout, &picks);
        let rows = vec![
            grade("oracle", holdout.iter().map(|s| s.label).collect()),
            grade(
                "rule(paper)",
                cases
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| is_holdout(*i))
                    .map(|(_, c)| rules.select_only(&c.matrix).chosen)
                    .collect(),
            ),
            grade("frozen", holdout.iter().map(|s| frozen.predict(&s.x)).collect()),
            grade("online", holdout.iter().map(|s| online.model.predict(&s.x)).collect()),
        ];

        println!(
            "## test machine: {} ({} production sweeps)",
            test_platform.name,
            observations.len()
        );
        println!(
            "{:<12} {:>5}  {:>10}  {:>12}  {:>11}",
            "selector", "n", "agreement", "mean regret", "max regret"
        );
        for row in &rows {
            println!("{}", row.render_row());
        }
        println!();

        pairs.push(PairResult { test_platform: test_platform.name, rows });
    }

    let summary_json = |e: &EvalSummary| {
        JsonValue::obj([
            ("selector", JsonValue::from(e.name.as_str())),
            ("n", JsonValue::from(e.n as u64)),
            ("agreement", JsonValue::from(e.agreement)),
            ("mean_regret", JsonValue::from(e.mean_regret)),
            ("max_regret", JsonValue::from(e.max_regret)),
        ])
    };
    let doc = JsonValue::obj([
        ("bench", JsonValue::from("selector_online")),
        ("grid", JsonValue::from(if quick { "quick" } else { "full" })),
        ("seed", JsonValue::from(seed)),
        ("train_platform", JsonValue::from(TRAIN_PLATFORM)),
        (
            "pairs",
            JsonValue::Arr(
                pairs
                    .iter()
                    .map(|p| {
                        JsonValue::obj([
                            ("test_platform", JsonValue::from(p.test_platform)),
                            (
                                "selectors",
                                JsonValue::Arr(p.rows.iter().map(summary_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write json");
    println!("# wrote {out_path}");

    // The gate the CI runs: crossing machines, the online loop must be at
    // least as good as the model it hot-swaps out. (A hair of slack covers
    // float jitter in the regret means; the win is usually decisive.)
    if check {
        let mut failures = Vec::new();
        for p in &pairs {
            if p.test_platform == TRAIN_PLATFORM {
                continue; // same-machine row is a sanity baseline, not a gate
            }
            let regret_of = |name: &str| {
                p.rows.iter().find(|r| r.name == name).map(|r| r.mean_regret).unwrap_or(f64::NAN)
            };
            let (online_r, frozen_r) = (regret_of("online"), regret_of("frozen"));
            if online_r.is_nan() || online_r > frozen_r + 1e-9 {
                failures.push(format!(
                    "{}: online mean regret {online_r:.4} > frozen {frozen_r:.4}",
                    p.test_platform
                ));
            }
        }
        if failures.is_empty() {
            println!("# check: PASS — online regret <= frozen on all cross-machine pairs");
        } else {
            for f in &failures {
                eprintln!("# check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
