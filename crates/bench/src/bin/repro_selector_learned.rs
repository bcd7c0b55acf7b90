//! Learned-selector ablation: rules vs trained tree vs the labelling
//! oracle, on held-out synthetic matrices the tree never saw.
//!
//! Trains a fresh model on the `dls-learn` grid (measured labels by
//! default; `--analytic` for a deterministic storage-model oracle), holds
//! out every 5th case, and grades each selector's *choice* by agreement
//! with the oracle winner and by regret — how much slower the chosen
//! format's oracle time is than the winner's.
//!
//! Usage: `repro_selector_learned [--quick] [--analytic] [--seed N]`

use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_learn::{
    evaluate, training_grid, DecisionTree, GridConfig, LabelMode, LabelSource, LearnedSelector,
    ModelMeta, TrainedModel, TreeParams,
};
use dls_sparse::Format;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let analytic = args.iter().any(|a| a == "--analytic");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| GridConfig::default().seed);

    let mode = if analytic { LabelMode::analytic_flat() } else { LabelMode::default() };
    let grid_cfg = GridConfig { seed, quick, ..Default::default() };

    println!("# Learned-selector ablation — choice quality on held-out grid matrices");
    println!(
        "# grid={} seed={seed} labels={}\n",
        if quick { "quick" } else { "full" },
        if analytic { "analytic(flat)" } else { "measured (analytic fallback)" }
    );

    // Generate + label once, keeping matrices paired with their samples so
    // the rule-based selectors (which inspect the matrix) can be graded on
    // the same holdout.
    let cases = training_grid(&grid_cfg);
    let labelled: Vec<_> =
        cases.iter().map(|c| (c, dls_learn::label_case(&c.desc, &c.matrix, mode))).collect();
    let stride = 5usize;
    let (train, holdout): (Vec<_>, Vec<_>) =
        labelled.into_iter().enumerate().partition(|(i, _)| i % stride != stride - 1);
    let train: Vec<_> = train.into_iter().map(|(_, p)| p).collect();
    let holdout: Vec<_> = holdout.into_iter().map(|(_, p)| p).collect();

    let xs: Vec<_> = train.iter().map(|(_, s)| s.x).collect();
    let ys: Vec<_> = train.iter().map(|(_, s)| s.label).collect();
    let tree = DecisionTree::train(&xs, &ys, TreeParams::default());
    let count = |src: LabelSource| train.iter().filter(|(_, s)| s.source == src).count();
    let model = TrainedModel {
        meta: ModelMeta {
            seed,
            grid: if quick { "quick".into() } else { "full".into() },
            samples: train.len(),
            measured: count(LabelSource::Measured),
            analytic_fallback: count(LabelSource::AnalyticFallback),
            analytic: count(LabelSource::Analytic),
        },
        tree,
        blocks: None,
    };
    println!(
        "trained on {} samples ({} measured, {} fallback, {} analytic); \
         tree depth {} with {} leaves; holdout {} matrices\n",
        model.meta.samples,
        model.meta.measured,
        model.meta.analytic_fallback,
        model.meta.analytic,
        model.tree.depth(),
        model.tree.n_leaves(),
        holdout.len()
    );

    let hold_samples: Vec<_> = holdout.iter().map(|(_, s)| s.clone()).collect();
    let learned = LearnedSelector::new(model);
    let mut rows = Vec::new();

    // The oracle grades itself perfectly — printed as the reference row.
    let oracle_picks: Vec<Format> = hold_samples.iter().map(|s| s.label).collect();
    rows.push(evaluate("oracle", &hold_samples, &oracle_picks));

    for (name, strategy) in [
        ("rule(paper)", SelectionStrategy::RuleBased),
        ("rule(host)", SelectionStrategy::RuleBasedHost),
        ("cost-model", SelectionStrategy::CostModel),
    ] {
        let sched = LayoutScheduler::with_strategy(strategy);
        let picks: Vec<Format> =
            holdout.iter().map(|(c, _)| sched.select_only(&c.matrix).chosen).collect();
        rows.push(evaluate(name, &hold_samples, &picks));
    }
    let picks: Vec<Format> = hold_samples.iter().map(|s| learned.predict(&s.features)).collect();
    rows.push(evaluate("learned", &hold_samples, &picks));

    println!(
        "{:<12} {:>5}  {:>10}  {:>12}  {:>11}",
        "selector", "n", "agreement", "mean regret", "max regret"
    );
    for row in &rows {
        println!("{}", row.render_row());
    }

    // Per-matrix disagreements, so a surprising row can be diagnosed.
    println!("\n# learned-vs-oracle disagreements:");
    let mut any = false;
    for (s, &pick) in hold_samples.iter().zip(&picks) {
        if pick != s.label {
            any = true;
            let regret = s
                .score_of(pick)
                .map(|t| t / s.score_of(s.label).unwrap() - 1.0)
                .unwrap_or(f64::NAN);
            println!(
                "#   {:<28} oracle={} learned={} (+{:.1}%)",
                s.desc,
                s.label,
                pick,
                regret * 100.0
            );
        }
    }
    if !any {
        println!("#   (none)");
    }
    println!("\n# Reading: `learned` should match or beat `rule(paper)` on agreement —");
    println!("# the tree was fitted to this oracle's labels on neighbouring matrices.");
    println!("# Regret is the fairer metric: a wrong pick that is 2% slower matters");
    println!("# less than one that is 5x slower.");
}
