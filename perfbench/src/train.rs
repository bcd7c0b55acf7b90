//! The training workloads: the paper's pipeline (extract → select →
//! convert, then SMO) over Table VI twins, with the kernel cache either
//! large enough for the whole kernel matrix or a small share of it.

use crate::inputs::{self, derive};
use crate::metrics::{Metrics, BASIC_FORMATS};
use crate::speed;
use crate::stats::{geomean, median, Outcome, Tally};
use crate::trace::{self, ReqId, TracedMatrix, Tracer};
use crate::Run;
use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_data::DatasetSpec;
use dls_sparse::{
    AnyMatrix, Format, InstrumentedMatrix, MatrixFeatures, Scalar, SmsvCounters, SmsvSnapshot,
    SparseVec, TripletMatrix,
};
use dls_svm::smo::{train_with_stats, SmoParams, SmoStats};
use dls_svm::{PredictWorkspace, SvmError, SvmModel};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Probe vectors per dataset for the output check.
const PROBES: usize = 64;
/// Probe batches of [`BATCH`] vectors per dataset for the output check.
const BATCHES: usize = 16;
/// Vectors per batch prediction.
pub const BATCH: usize = 32;
/// The interactive latency limit.
pub const SLO: Duration = Duration::from_millis(10);

/// Which datasets a pass trains, and with which SMO budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Every Table VI twin with `SmoParams::default()`: a 64 MiB cache,
    /// enough for every twin's kernel matrix, and training to convergence.
    Cached,
    /// [`LOW_CACHE`]: a cache of 1/40 of each dataset's kernel-matrix bytes
    /// and a fixed iteration budget per dataset (or convergence, if sooner).
    LowCache,
    /// The two small models `serve-mixed` hosts, quick-trained with the
    /// repository's serving-harness settings (τ = 1e-2, at most 2000
    /// iterations, 8 MiB cache).
    Quick,
}

/// Datasets of the low-cache workload with their iteration budgets: one
/// per basic format the scheduler picks (ELL, CSR, COO, DIA, DEN).
/// The budgets stay below the iteration count at which any seed's twin
/// converges, so every pass does the same number of iterations.
const LOW_CACHE: [(&str, usize); 5] =
    [("adult", 600), ("aloi", 600), ("mnist", 150), ("trefethen", 800), ("connect-4", 400)];

impl Regime {
    /// Independent input instances per run. Passes cycle through them, so
    /// one draw of the data that trains unusually fast or slow moves the
    /// result less.
    pub fn instances(self) -> u64 {
        match self {
            Regime::Cached => 5,
            Regime::LowCache => 6,
            Regime::Quick => 16,
        }
    }
}

/// One dataset of one instance, with its oracle.
pub struct Case {
    /// Dataset name.
    pub name: &'static str,
    /// The (shrunk) spec the twin was generated from.
    pub spec: DatasetSpec,
    t: TripletMatrix,
    y: Vec<Scalar>,
    /// Everything but `block_size`, which comes from the schedule.
    params: SmoParams,
    probes: Vec<SparseVec>,
    /// Bit patterns of the reference model's decision values on `probes`.
    expect: Vec<u64>,
}

/// The twins `serve-mixed` hosts, with their extra shrink factors. mnist
/// shrinks by 16 (28 rows), not the serving harness's 128: a 4-row twin
/// draws a single class often enough to fail training on some seeds.
pub const QUICK: [(&str, usize); 2] = [("adult", 8), ("mnist", 16)];

/// Builds one instance of a regime's datasets, each with its oracle.
pub fn cases(regime: Regime, seed: u64) -> Vec<Case> {
    let sets: Vec<(&'static str, usize)> = match regime {
        Regime::Cached => dls_data::specs::TABLE6_DATASETS.iter().map(|&n| (n, 1)).collect(),
        Regime::LowCache => LOW_CACHE.iter().map(|&(n, _)| (n, 1)).collect(),
        Regime::Quick => QUICK.to_vec(),
    };
    sets.into_iter()
        .enumerate()
        .map(|(i, (name, extra))| {
            let spec = inputs::spec(name, extra);
            let (t, y) = inputs::twin(&spec, seed);
            let mut params = SmoParams::default();
            match regime {
                Regime::Cached => {}
                Regime::LowCache => {
                    params.max_iterations = LOW_CACHE[i].1;
                    params.cache_bytes = t.rows() * t.rows() * 8 / 40;
                }
                Regime::Quick => {
                    params.tolerance = 1e-2;
                    params.max_iterations = 2_000;
                    params.cache_bytes = 8 << 20;
                }
            }
            let probes = inputs::queries(&spec, seed ^ 0x5052_4f42, PROBES);
            // The oracle: fixed CSR, one kernel row per miss, same budget.
            let csr = AnyMatrix::from_triplets(Format::Csr, &t.clone().compact());
            let reference = SmoParams { block_size: 1, ..params };
            let (model, _) =
                train_with_stats(&csr, &y, &reference).expect("reference training succeeds");
            let expect = probes.iter().map(|p| model.decision_function(p).to_bits()).collect();
            Case { name: spec.name, spec, t, y, params, probes, expect }
        })
        .collect()
}

/// What the output check of one pass collected.
#[derive(Default)]
pub struct Check {
    /// Trainings attempted and how they ended.
    pub tally: Tally,
    /// Milliseconds per single-probe prediction, by dataset.
    interactive_ms: BTreeMap<&'static str, Vec<f64>>,
    interactive_in_slo: u64,
    /// Milliseconds per 32-probe batch prediction, by dataset.
    batch_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Check {
    /// Times and checks the trained model on the probes: one
    /// `decision_function` per probe and [`BATCHES`] blocked batches.
    /// Latencies are kept in reference milliseconds: `speed` is the
    /// host-speed factor sampled before the dataset (see [`speed`]).
    fn model(&mut self, c: &Case, result: &Result<(SvmModel, SmoStats), SvmError>, speed: f64) {
        let Ok((model, _)) = result else {
            self.tally.add(Outcome::Error);
            return;
        };
        let mut ok = true;
        for (p, &want) in c.probes.iter().zip(&c.expect) {
            let start = Instant::now();
            let got = model.decision_function(p);
            let took = start.elapsed();
            let same = got.to_bits() == want;
            ok &= same;
            self.interactive_ms.entry(c.name).or_default().push(took.as_secs_f64() * 1e3 * speed);
            self.interactive_in_slo += u64::from(same && took <= SLO);
        }
        let mut ws = PredictWorkspace::new();
        // The first call lowers the support vectors; time steady state.
        model.predict_batch(&c.probes[..1], &mut ws);
        for b in 0..BATCHES {
            let idx: Vec<usize> = (0..BATCH).map(|j| (b * 7 + j * 3) % c.probes.len()).collect();
            let xs: Vec<SparseVec> = idx.iter().map(|&i| c.probes[i].clone()).collect();
            let start = Instant::now();
            let got = model.predict_batch(&xs, &mut ws);
            let took = start.elapsed().as_secs_f64() * 1e3 * speed;
            self.batch_ms.entry(c.name).or_default().push(took);
            ok &= idx.iter().zip(&got).all(|(&i, g)| g.to_bits() == c.expect[i]);
        }
        self.tally.add(if ok { Outcome::Ok } else { Outcome::Mismatch });
    }
}

/// Timings of one untraced pass, per dataset.
pub struct Pass {
    /// Seconds in `schedule()`.
    schedule_s: Vec<f64>,
    /// Seconds in SMO.
    smo_s: Vec<f64>,
    /// Host-speed factor sampled before the dataset: seconds times it are
    /// reference seconds.
    speed: Vec<f64>,
    /// The trained models, in dataset order.
    pub models: Vec<SvmModel>,
}

impl Pass {
    /// Seconds of `schedule()` plus SMO over the pass's datasets, as
    /// measured.
    fn train_s(&self) -> f64 {
        self.schedule_s.iter().sum::<f64>() + self.smo_s.iter().sum::<f64>()
    }
}

/// One pass as a user runs it: `schedule()` then SMO, per dataset.
pub fn pass(cases: &[Case], strategy: SelectionStrategy, check: &mut Check) -> Pass {
    let mut p =
        Pass { schedule_s: Vec::new(), smo_s: Vec::new(), speed: Vec::new(), models: Vec::new() };
    for c in cases {
        let speed = speed::factor();
        let start = Instant::now();
        let scheduled = LayoutScheduler::with_strategy(strategy).schedule(&c.t);
        let scheduled_at = Instant::now();
        let params = SmoParams { block_size: scheduled.report().block, ..c.params };
        let result = train_with_stats(scheduled.matrix(), &c.y, &params);
        let done = Instant::now();
        p.schedule_s.push((scheduled_at - start).as_secs_f64());
        p.smo_s.push((done - scheduled_at).as_secs_f64());
        p.speed.push(speed);
        check.model(c, &result, speed);
        if let Ok((model, _)) = result {
            p.models.push(model);
        }
    }
    p
}

/// `(setup_s, train_s)` of repeated passes over one instance, in reference
/// seconds: the median over passes of each dataset's `schedule()` time and
/// of its `schedule()` plus SMO time, summed over datasets. Taking medians
/// per dataset keeps a burst of interference during one training out of
/// the figure.
pub fn pass_medians(passes: &[Pass]) -> (f64, f64) {
    let datasets = passes[0].smo_s.len();
    let per_dataset = |f: &dyn Fn(&Pass, usize) -> f64| -> f64 {
        (0..datasets).map(|i| median(&passes.iter().map(|p| f(p, i)).collect::<Vec<_>>())).sum()
    };
    (
        per_dataset(&|p, i| p.schedule_s[i] * p.speed[i]),
        per_dataset(&|p, i| (p.schedule_s[i] + p.smo_s[i]) * p.speed[i]),
    )
}

/// Runs an end-to-end (untraced) training workload.
pub fn run(regime: Regime, run: &Run) -> Result<(Metrics, Tally), String> {
    let instances: Vec<Vec<Case>> =
        (0..regime.instances()).map(|k| cases(regime, derive(run.seed, k))).collect();
    let mut check = Check::default();
    let mut passes: Vec<Vec<Pass>> = instances.iter().map(|_| Vec::new()).collect();
    let clock = Instant::now();
    // Whole rounds, so every instance is measured equally often, and at
    // least three: each dataset then holds 16 × 3 × 5 or more batch
    // latencies, enough for its p95 to keep ten beyond it.
    while clock.elapsed() < run.seconds || passes[0].len() < 3 {
        for (k, cases) in instances.iter().enumerate() {
            let mut p = pass(cases, SelectionStrategy::RuleBased, &mut check);
            p.models.clear();
            passes[k].push(p);
        }
    }
    let k = instances.len() as f64;
    let (setup_s, train_s) = passes
        .iter()
        .map(|p| pass_medians(p))
        .fold((0.0, 0.0), |(s, t), (ps, pt)| (s + ps / k, t + pt / k));
    let schedule_ms: Vec<f64> = passes
        .iter()
        .flatten()
        .flat_map(|p| p.schedule_s.iter().zip(&p.speed).map(|(s, f)| s * f * 1e3))
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("train_s", train_s);
    m.set("schedule_p50_ms", median(&schedule_ms));
    // Each dataset's latencies cluster apart from the others', so the median
    // of the pooled samples hops between clusters from run to run. The
    // typical latency is the geometric mean of the per-dataset medians. The
    // interactive p99 comes from the pooled samples. The pooled batch p95
    // falls among the slowest few trained models of the run and hopped
    // between them from seed to seed (34% spread over ten seeds), so it is
    // the geometric mean of the per-dataset p95s, like the median.
    let typical =
        |by: &BTreeMap<_, Vec<f64>>| geomean(&by.values().map(|v| median(v)).collect::<Vec<_>>());
    let pooled =
        |by: &BTreeMap<_, Vec<f64>>| vec![by.values().flatten().copied().collect::<Vec<_>>()];
    let (_, p99) = crate::median_and_tail("interactive", &pooled(&check.interactive_ms), 99.0)?;
    let batch_p95s = check
        .batch_ms
        .values()
        .map(|v| crate::median_and_tail("batch", std::slice::from_ref(v), 95.0).map(|(_, t)| t))
        .collect::<Result<Vec<_>, _>>()?;
    let p95 = geomean(&batch_p95s);
    let sent: usize = check.interactive_ms.values().map(Vec::len).sum();
    m.set("interactive_p50_ms", typical(&check.interactive_ms));
    m.set("interactive_p99_ms", p99);
    m.set("interactive_slo_share", check.interactive_in_slo as f64 / sent.max(1) as f64);
    m.set("batch_p50_ms", typical(&check.batch_ms));
    m.set("batch_p95_ms", p95);
    m.set("ok_share", check.tally.ok_share());
    Ok((m, check.tally))
}

/// Per-layer figures of one traced pass.
struct TracedPass {
    spans: Vec<trace::Span>,
    counters: std::sync::Arc<SmsvCounters>,
    chosen: Vec<Format>,
    /// Solver counters per dataset; `None` where training failed.
    stats: Vec<Option<SmoStats>>,
}

/// One pass with every layer call wrapped in a span. The scheduler's three
/// steps are called one by one, exactly as `schedule()` sequences them.
fn traced_pass(cases: &[Case], tracer: Tracer, check: &mut Check) -> TracedPass {
    let counters = SmsvCounters::shared();
    let scheduler = LayoutScheduler::new();
    let mut chosen = Vec::new();
    let mut stats = Vec::new();
    for c in cases {
        let req = ReqId::Dataset(c.name);
        let (matrix, report) = tracer.span("core.schedule", req, || {
            let t: Cow<'_, TripletMatrix> = if c.t.is_compact() {
                Cow::Borrowed(&c.t)
            } else {
                Cow::Owned(c.t.clone().compact())
            };
            let features = tracer.span("core.extract", req, || MatrixFeatures::from_triplets(&t));
            let report =
                tracer.span("core.select", req, || scheduler.selector().select(&t, &features));
            let matrix =
                tracer.span("core.convert", req, || AnyMatrix::from_triplets(report.chosen, &t));
            (matrix, report)
        });
        chosen.push(report.chosen);
        let matrix =
            TracedMatrix::new(InstrumentedMatrix::new(matrix, counters.clone()), &tracer, req);
        let params = SmoParams { block_size: report.block, ..c.params };
        let result = tracer.span("svm.train", req, || train_with_stats(&matrix, &c.y, &params));
        stats.push(result.as_ref().ok().map(|(_, s)| *s));
        // The traced run reports no latencies, so they stay as measured.
        check.model(c, &result, 1.0);
    }
    TracedPass { spans: tracer.spans(), counters, chosen, stats }
}

/// Runs a training workload traced.
pub fn run_traced(regime: Regime, run: &Run, spans_out: &mut Vec<trace::Span>) -> (Metrics, Tally) {
    let cases = cases(regime, derive(run.seed, 0));
    let mut check = Check::default();
    let m = traced_rounds(&cases, run.seconds, &mut check, spans_out);
    (m, check.tally)
}

/// Rounds of an untraced pass, a traced pass and a fixed-CSR pass over
/// one instance, alternating their order, for at least `seconds` and two
/// rounds. Each metric is the median over rounds.
pub fn traced_rounds(
    cases: &[Case],
    seconds: Duration,
    check: &mut Check,
    spans_out: &mut Vec<trace::Span>,
) -> Metrics {
    let mut rows: Vec<Metrics> = Vec::new();
    // Per dataset, per round: adaptive SMO s, fixed-CSR SMO s, SMSV share
    // of traced SMO time, kernel rows per iteration.
    let mut per_dataset: Vec<Vec<[f64; 4]>> = vec![Vec::new(); cases.len()];
    let mut chosen = Vec::new();
    let clock = Instant::now();
    while clock.elapsed() < seconds || rows.len() < 2 {
        let (mut plain, mut csr, mut traced) = (None, None, None);
        let order: [u8; 3] = if rows.len().is_multiple_of(2) { [0, 1, 2] } else { [2, 1, 0] };
        for which in order {
            match which {
                0 => plain = Some(pass(cases, SelectionStrategy::RuleBased, check)),
                1 => traced = Some(traced_pass(cases, Tracer::new(), check)),
                _ => csr = Some(pass(cases, SelectionStrategy::Fixed(Format::Csr), check)),
            }
        }
        let (plain, csr, traced) = (plain.unwrap(), csr.unwrap(), traced.unwrap());
        rows.push(layer_metrics(&plain, &csr, &traced));
        for (i, c) in cases.iter().enumerate() {
            let of = |name: &str| -> f64 {
                let req = ReqId::Dataset(c.name);
                traced
                    .spans
                    .iter()
                    .filter(|s| s.name == name && s.req == req)
                    .map(|s| s.secs())
                    .sum()
            };
            let rows_per_iter =
                traced.stats[i].map_or(0.0, |s| s.smsv_count as f64 / s.iterations.max(1) as f64);
            per_dataset[i].push([
                plain.smo_s[i],
                csr.smo_s[i],
                of("sparse.smsv") / of("svm.train"),
                rows_per_iter,
            ]);
        }
        chosen = traced.chosen;
        trace::append(spans_out, traced.spans);
    }
    eprintln!("# dataset        format  smo_s  csr_smo_s  ratio  smsv_share  rows/iter");
    for ((c, rounds), format) in cases.iter().zip(&per_dataset).zip(&chosen) {
        let med = |k: usize| median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>());
        eprintln!(
            "# {:<14} {:<6} {:>6.3} {:>10.3} {:>6.2} {:>11.2} {:>10.2}",
            c.name,
            format.name(),
            med(0),
            med(1),
            med(0) / med(1),
            med(2),
            med(3)
        );
    }
    let mut m = Metrics::default();
    for name in rows[0].names() {
        let xs: Vec<f64> = rows.iter().filter_map(|r| r.get(name)).collect();
        m.set(name, median(&xs));
    }
    // Per round the svm self time is exactly the train spans minus their
    // SMSV children; keep that identity across the medians.
    let smsv = m.get("sparse.smsv_s").expect("set by layer_metrics");
    m.set("svm.self_s", m.get("svm.train_s").expect("set by layer_metrics") - smsv);
    m
}

/// Per-layer metrics of one round.
fn layer_metrics(plain: &Pass, csr: &Pass, traced: &TracedPass) -> Metrics {
    let spans = &traced.spans;
    let mut m = Metrics::default();
    m.set("core.extract_s", trace::total_secs(spans, "core.extract"));
    m.set("core.select_s", trace::total_secs(spans, "core.select"));
    m.set("core.convert_s", trace::total_secs(spans, "core.convert"));
    m.set("core.self_s", trace::layer_self_secs(spans, "core"));
    for f in BASIC_FORMATS {
        m.set(
            format!("core.chosen.{f}"),
            traced.chosen.iter().filter(|c| c.name() == f).count() as f64,
        );
    }
    let ratios: Vec<f64> = plain.smo_s.iter().zip(&csr.smo_s).map(|(a, c)| a / c).collect();
    m.set("core.csr_ratio", geomean(&ratios));
    let stats = || traced.stats.iter().flatten();
    let iterations: usize = stats().map(|s| s.iterations).sum();
    let rows: u64 = stats().map(|s| s.smsv_count).sum();
    let hits: u64 = stats().map(|s| s.cache_hits).sum();
    m.set("svm.train_s", trace::total_secs(spans, "svm.train"));
    m.set("svm.iterations", iterations as f64);
    m.set("svm.self_s", trace::layer_self_secs(spans, "svm"));
    m.set("svm.rows_per_iter", rows as f64 / iterations.max(1) as f64);
    m.set("svm.cache_hit_ratio", hits as f64 / (2 * iterations).max(1) as f64);
    m.set("sparse.smsv_calls", trace::count(spans, "sparse.smsv") as f64);
    m.set("sparse.smsv_s", trace::total_secs(spans, "sparse.smsv"));
    sparse_format_metrics(&mut m, &traced.counters.snapshot());
    let traced_s =
        trace::total_secs(spans, "core.schedule") + trace::total_secs(spans, "svm.train");
    m.set("trace.overhead_share", (traced_s - plain.train_s()) / plain.train_s());
    m
}

/// `sparse.<FMT>.ns_per_row` and `sparse.<FMT>.gb_per_s` from SMSV
/// counters; bytes are computed (matrix storage per sweep), not measured.
/// A format no kernel call used reads 0.
pub fn sparse_format_metrics(m: &mut Metrics, counters: &SmsvSnapshot) {
    for f in BASIC_FORMATS {
        let format: Format = f.parse().expect("basic format names parse");
        let s = counters.sample(format);
        let (ns_per_row, gb_per_s) = if s.calls == 0 || s.nanos == 0 {
            (0.0, 0.0)
        } else {
            (s.nanos as f64 / s.calls as f64, s.bytes as f64 / s.nanos as f64)
        };
        m.set(format!("sparse.{f}.ns_per_row"), ns_per_row);
        m.set(format!("sparse.{f}.gb_per_s"), gb_per_s);
    }
}
