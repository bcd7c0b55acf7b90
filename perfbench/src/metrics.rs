//! The metric catalogue, the result line, and the run fingerprint.
//!
//! The names and units here are the benchmark's contract and must match
//! `BENCHMARK.json` (a unit test checks both directions).

use std::collections::BTreeMap;

/// Metrics a user of the system sees, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("ok_share", "share"),
    ("peak_rss_mib", "MiB"),
    ("interactive_p50_ms", "ms"),
    ("interactive_p99_ms", "ms"),
    ("interactive_slo_share", "share"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("schedule_p50_ms", "ms"),
];

/// The five basic formats the scheduler chooses among, as the per-format
/// metric names spell them.
pub const BASIC_FORMATS: [&str; 5] = ["DEN", "CSR", "COO", "ELL", "DIA"];

/// Metrics of single layers, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("core.extract_s", "s"),
        ("core.select_s", "s"),
        ("core.convert_s", "s"),
        ("core.self_s", "s"),
        ("core.csr_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    v.extend(BASIC_FORMATS.iter().map(|f| (format!("core.chosen.{f}"), "count")));
    v.extend(
        [
            ("svm.train_s", "s"),
            ("svm.iterations", "count"),
            ("svm.self_s", "s"),
            ("svm.rows_per_iter", "rows"),
            ("svm.cache_hit_ratio", "ratio"),
            ("sparse.smsv_calls", "count"),
            ("sparse.smsv_s", "s"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v.extend(BASIC_FORMATS.iter().map(|f| (format!("sparse.{f}.ns_per_row"), "ns")));
    v.extend(BASIC_FORMATS.iter().map(|f| (format!("sparse.{f}.gb_per_s"), "GB/s")));
    v.extend(
        [
            ("serve.predict_us.b1", "us"),
            ("serve.predict_us.b32", "us"),
            ("serve.executor_p50_ms", "ms"),
            ("serve.executor_p99_ms", "ms"),
            ("serve.frontend_p50_ms", "ms"),
            ("serve.vectors_per_sweep", "vectors"),
            ("serve.busy", "count"),
            ("serve.timed_out", "count"),
            ("serve.start_s", "s"),
            ("gen.late_p99_ms", "ms"),
            ("trace.overhead_share", "share"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// The catalogue a run reports: end-to-end untraced, per-layer traced.
pub fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    }
}

/// Metric values collected by a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Reads one metric back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every metric name set so far.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    /// The `metrics` object of the result line for `catalogue`. Fails if a
    /// catalogued metric is missing or not finite, or an extra one was set.
    pub fn to_json(&self, catalogue: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let v = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        if let Some(extra) = self.names().find(|n| !catalogue.iter().any(|(c, _)| c == n)) {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The result line: correctness, operation counts and metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code: host, toolchain, commit
/// and inputs, as one JSON object.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).split_whitespace().collect())
        .unwrap_or_default();
    let simd: Vec<String> = ["avx2", "avx512f"]
        .iter()
        .filter(|f| flags.contains(f))
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_flags\": [{}], \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}",
        simd.join(", "),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        u8::from(trace),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::json::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(cat: &[(String, &str)]) -> Vec<(String, String)> {
        cat.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    }

    #[test]
    fn every_metric_in_benchmark_json_is_reported_with_its_unit() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), owned(&catalogue(false)));
        assert_eq!(declared(&doc, "per_layer"), owned(&catalogue(true)));
    }

    #[test]
    fn result_line_carries_every_catalogued_metric_and_nothing_else() {
        for trace in [false, true] {
            let cat = catalogue(trace);
            let mut m = Metrics::default();
            for (i, (name, _)) in cat.iter().enumerate() {
                m.set(name.clone(), 0.5 + i as f64);
            }
            let line = result_line(true, 3, 0, &m.to_json(&cat).unwrap());
            let doc = json::parse(&line).unwrap();
            let metrics = doc.get("metrics").unwrap();
            for (name, unit) in &cat {
                let entry = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(*unit));
                assert!(entry.get("value").and_then(JsonValue::as_f64).is_some());
            }
            m.set("not.a.metric", 1.0);
            assert!(m.to_json(&cat).is_err());
        }
        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0);
        assert!(partial.to_json(&catalogue(false)).is_err());
    }
}
