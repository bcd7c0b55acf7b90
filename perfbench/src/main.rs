//! End-to-end and per-layer benchmark of SVM training and serving.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-cached|train-lowcache|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it measures the per-layer metrics, records a
//! span around every call into a layer, and writes the spans to
//! `perfbench/out/`. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is
//! the run's fingerprint. Any output mismatch makes `correct` false and the
//! exit code 1; a run whose load generator fell behind is invalid and exits
//! 3 without a result.

mod inputs;
mod metrics;
mod serve;
mod speed;
mod stats;
mod trace;
mod train;

use metrics::Metrics;
use stats::{highest_supported, median, percentile, sorted, Tally};
use std::process::ExitCode;
use std::time::Duration;

/// One run's settings, from the command line.
pub struct Run {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
}

/// Percentiles a tail metric may be reported at.
const TAILS: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The median of every sample, and the lowest over windows of each
/// window's tail `p`. Only windows that leave at least ten samples beyond
/// `p` count, and at least one must. On a shared host, stalls from other
/// tenants raise the tail of whole stretches of a run (and thin out their
/// successful replies); the best window is the tail the program itself
/// reaches, the way min-of-N timing filters interference.
pub fn median_and_tail(what: &str, windows: &[Vec<f64>], p: f64) -> Result<(f64, f64), String> {
    let supports = |w: &&Vec<f64>| highest_supported(w.len(), &TAILS).is_some_and(|s| s >= p);
    let best = windows
        .iter()
        .filter(supports)
        .map(|w| percentile(&sorted(w), p))
        .fold(f64::INFINITY, f64::min);
    if !best.is_finite() {
        let most = windows.iter().map(Vec::len).max().unwrap_or(0);
        return Err(format!(
            "no window of {what} samples supports p{p} (the largest holds {most}); \
             measure for longer"
        ));
    }
    Ok((median(&windows.concat()), best))
}

/// Why a run produced no result.
enum Failure {
    /// Bad arguments or an environment problem.
    Usage(String),
    /// The load generator fell behind its schedule.
    Invalid(String),
}

fn parse_args() -> Result<(String, Run, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok((workload, Run { seed, seconds: Duration::from_secs(seconds) }, trace))
}

fn write_spans(workload: &str, run: &Run, spans: &[trace::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", run.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(spans, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("# {} spans written to {}", spans.len(), path.display());
    Ok(())
}

fn measure(workload: &str, run: &Run, trace: bool) -> Result<(Metrics, Tally), Failure> {
    let usage = Failure::Usage;
    let mut spans = Vec::new();
    let (mut m, tally) = match (workload, trace) {
        ("train-cached", false) => train::run(train::Regime::Cached, run).map_err(usage)?,
        ("train-lowcache", false) => train::run(train::Regime::LowCache, run).map_err(usage)?,
        ("train-cached", true) => train::run_traced(train::Regime::Cached, run, &mut spans),
        ("train-lowcache", true) => train::run_traced(train::Regime::LowCache, run, &mut spans),
        ("serve-mixed", _) => serve::run(run, trace, &mut spans)?,
        (other, _) => {
            return Err(Failure::Usage(format!(
                "unknown workload {other} (train-cached|train-lowcache|serve-mixed)"
            )))
        }
    };
    if trace {
        // Layers a workload does not exercise read 0.
        for (name, _) in metrics::per_layer() {
            if m.get(&name).is_none() && (name.starts_with("serve.") || name.starts_with("gen.")) {
                m.set(name, 0.0);
            }
        }
        write_spans(workload, run, &spans).map_err(Failure::Usage)?;
    } else {
        m.set("peak_rss_mib", metrics::peak_rss_mib().map_err(Failure::Usage)?);
    }
    Ok((m, tally))
}

fn main() -> ExitCode {
    let (workload, run, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (m, tally) = match measure(&workload, &run, trace) {
        Ok(r) => r,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        Err(Failure::Invalid(e)) => {
            eprintln!("invalid run: {e}");
            return ExitCode::from(3);
        }
    };
    let metrics_json = match m.to_json(&metrics::catalogue(trace)) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = tally.mismatched == 0;
    if tally.failed > 0 {
        eprintln!(
            "# failed: {} busy, {} timed out, {} mismatched, {} other errors",
            tally.busy,
            tally.timed_out,
            tally.mismatched,
            tally.failed - tally.busy - tally.timed_out - tally.mismatched
        );
    }
    println!(
        "{{\"fingerprint\": {}}}",
        metrics::fingerprint(&workload, run.seed, run.seconds.as_secs(), trace)
    );
    println!("{}", metrics::result_line(correct, tally.attempted, tally.failed, &metrics_json));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} outputs differ from the sequential oracle", tally.mismatched);
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_best_window_with_ten_samples_beyond_it() {
        let quiet: Vec<f64> = (1..=1000).map(|i| f64::from(i) / 1000.0).collect();
        let stalled: Vec<f64> = quiet.iter().map(|x| x * 5.0).collect();
        // 999 samples leave only nine beyond p99: that window does not count.
        let thin: Vec<f64> = vec![0.001; 999];
        let windows = [stalled.clone(), thin.clone(), quiet.clone()];
        let (p50, p99) = median_and_tail("t", &windows, 99.0).unwrap();
        assert_eq!(p99, 0.99);
        assert_eq!(p50, median(&windows.concat()));
        assert!(median_and_tail("t", &[thin], 99.0).is_err());
        assert!(median_and_tail("t", &[], 99.0).is_err());
    }
}
