//! Live service telemetry: latency quantiles, request counters, queue
//! depths, and the per-model SMSV view.
//!
//! Latencies go into a fixed log2-bucketed histogram ([`LatencyHistogram`])
//! — relaxed atomic adds on the hot path, quantiles computed only when a
//! `Stats` request asks. Per-model kernel counters are folded into one
//! process-wide [`SmsvSnapshot`] with the delta-merge discipline from
//! `dls_sparse::telemetry`, so polling never double counts.

use crate::proto::RequestClass;
use crate::registry::ModelRegistry;
use dls_core::json::JsonValue;
use dls_sparse::telemetry::format_index;
use dls_sparse::{Format, SmsvCounters, SmsvSnapshot, BLOCK_HIST_BUCKETS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of log2 latency buckets: bucket `k` counts observations with
/// `2^k <= nanos < 2^(k+1)`; the last bucket is open-ended (≈ 9+ seconds).
pub const LATENCY_BUCKETS: usize = 40;

/// Lock-free log2 latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (63 - nanos.max(1).leading_zeros()) as usize;
        self.buckets[bucket.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile in seconds (`q` in `[0, 1]`): the upper edge
    /// of the bucket holding the q-th observation — within 2× of the true
    /// value, which is the resolution scheduling dashboards need. `None`
    /// with no observations.
    pub fn quantile_secs(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(2f64.powi(k as i32 + 1) * 1e-9);
            }
        }
        Some(2f64.powi(LATENCY_BUCKETS as i32) * 1e-9)
    }

    /// Mean latency in seconds, `None` with no observations.
    pub fn mean_secs(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.total_nanos.load(Ordering::Relaxed) as f64 * 1e-9 / n as f64)
    }
}

/// Counters for one request kind.
#[derive(Debug, Default)]
pub struct RequestStats {
    /// Requests answered successfully.
    pub ok: AtomicU64,
    /// Requests refused with `Busy` (queue full).
    pub busy: AtomicU64,
    /// Requests answered with `TimedOut`.
    pub timed_out: AtomicU64,
    /// Requests answered with `Error`.
    pub errors: AtomicU64,
    /// Enqueue-to-reply latency of successful requests.
    pub latency: LatencyHistogram,
}

impl RequestStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a success with its latency.
    pub fn record_ok(&self, latency: Duration) {
        Self::bump(&self.ok);
        self.latency.record(latency);
    }

    /// Records a `Busy` rejection.
    pub fn record_busy(&self) {
        Self::bump(&self.busy);
    }

    /// Records a deadline expiry.
    pub fn record_timeout(&self) {
        Self::bump(&self.timed_out);
    }

    /// Records an error reply.
    pub fn record_error(&self) {
        Self::bump(&self.errors);
    }

    fn to_json(&self) -> JsonValue {
        let q =
            |p: f64| self.latency.quantile_secs(p).map(JsonValue::from).unwrap_or(JsonValue::Null);
        JsonValue::obj([
            ("ok", JsonValue::from(self.ok.load(Ordering::Relaxed))),
            ("busy", JsonValue::from(self.busy.load(Ordering::Relaxed))),
            ("timed_out", JsonValue::from(self.timed_out.load(Ordering::Relaxed))),
            ("errors", JsonValue::from(self.errors.load(Ordering::Relaxed))),
            ("p50_secs", q(0.50)),
            ("p95_secs", q(0.95)),
            ("mean_secs", self.latency.mean_secs().map(JsonValue::from).unwrap_or(JsonValue::Null)),
        ])
    }
}

/// Per-request-class counters for the predict path: the observability the
/// SLO-aware scheduler is judged by.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// Requests of this class answered with predictions.
    pub ok: AtomicU64,
    /// Requests that expired in the queue.
    pub timed_out: AtomicU64,
    /// Completions that missed the request's effective deadline — timeouts
    /// plus answers delivered late.
    pub slo_violations: AtomicU64,
    /// Requests refused by predictive admission (the estimator projected a
    /// miss before queueing). A subset of the global `busy` count.
    pub busy_predicted: AtomicU64,
    /// Enqueue-to-reply latency of successful requests of this class.
    pub latency: LatencyHistogram,
}

impl ClassStats {
    /// Records a completed request; `violated` marks an answer delivered
    /// after its effective deadline.
    pub fn record_ok(&self, latency: Duration, violated: bool) {
        self.ok.fetch_add(1, Ordering::Relaxed);
        if violated {
            self.slo_violations.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
    }

    /// Records a queue-expiry timeout (always an SLO violation).
    pub fn record_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
        self.slo_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a predictive-admission refusal.
    pub fn record_busy_predicted(&self) {
        self.busy_predicted.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed requests (answered or timed out).
    pub fn completed(&self) -> u64 {
        self.ok.load(Ordering::Relaxed) + self.timed_out.load(Ordering::Relaxed)
    }

    /// Fraction of completed requests that violated their SLO (0 when
    /// nothing has completed).
    pub fn slo_violation_rate(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            self.slo_violations.load(Ordering::Relaxed) as f64 / done as f64
        }
    }

    fn to_json(&self) -> JsonValue {
        let q =
            |p: f64| self.latency.quantile_secs(p).map(JsonValue::from).unwrap_or(JsonValue::Null);
        JsonValue::obj([
            ("ok", JsonValue::from(self.ok.load(Ordering::Relaxed))),
            ("timed_out", JsonValue::from(self.timed_out.load(Ordering::Relaxed))),
            ("slo_violations", JsonValue::from(self.slo_violations.load(Ordering::Relaxed))),
            ("busy_predicted", JsonValue::from(self.busy_predicted.load(Ordering::Relaxed))),
            ("slo_violation_rate", JsonValue::from(self.slo_violation_rate())),
            ("p50_secs", q(0.50)),
            ("p95_secs", q(0.95)),
            ("p99_secs", q(0.99)),
        ])
    }
}

/// Counters for failures observed (or injected) along the serving path.
/// These make every hardening mechanism in this crate observable: a chaos
/// run asserts on them, and an operator reads them to tell "slow clients"
/// from "poisoned model" at a glance.
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Connections closed because a frame stalled mid-read past the read
    /// timeout (framing desync — the connection cannot be salvaged).
    pub conn_read_timeouts: AtomicU64,
    /// Connections closed because a response write stalled or failed.
    pub conn_write_timeouts: AtomicU64,
    /// Connections reaped after sitting idle at a frame boundary past the
    /// idle timeout.
    pub conn_idle_reaped: AtomicU64,
    /// Connections dropped by the peer (reset / broken pipe) mid-exchange.
    pub conn_resets: AtomicU64,
    /// Frames rejected at the length prefix (`FrameTooLarge`).
    pub frames_too_large: AtomicU64,
    /// Frames that decoded to a typed protocol error.
    pub protocol_errors: AtomicU64,
    /// Kernel executions that panicked and were isolated by `catch_unwind`.
    pub exec_panics: AtomicU64,
    /// Submissions refused because the registry/model was unavailable
    /// (quarantined model or injected registry failure).
    pub registry_unavailable: AtomicU64,
    /// Faults fired by an installed `FaultPlan` (0 in production).
    pub injected: AtomicU64,
}

impl FaultCounters {
    /// Bumps one counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> JsonValue {
        let get = |c: &AtomicU64| JsonValue::from(c.load(Ordering::Relaxed));
        JsonValue::obj([
            ("conn_read_timeouts", get(&self.conn_read_timeouts)),
            ("conn_write_timeouts", get(&self.conn_write_timeouts)),
            ("conn_idle_reaped", get(&self.conn_idle_reaped)),
            ("conn_resets", get(&self.conn_resets)),
            ("frames_too_large", get(&self.frames_too_large)),
            ("protocol_errors", get(&self.protocol_errors)),
            ("exec_panics", get(&self.exec_panics)),
            ("registry_unavailable", get(&self.registry_unavailable)),
            ("injected", get(&self.injected)),
        ])
    }
}

/// Counters and gauges for graceful degradation: the brown-out controller
/// and the model health ladder.
#[derive(Debug, Default)]
pub struct DegradeCounters {
    /// Times the brown-out controller activated.
    pub brownout_entries: AtomicU64,
    /// Times the brown-out controller deactivated.
    pub brownout_exits: AtomicU64,
    /// Batch-class requests shed (refused with `Busy`) while browned out.
    pub batch_shed: AtomicU64,
    /// Models moved to the degraded rung (analytic-fallback matrix).
    pub models_degraded: AtomicU64,
    /// Models quarantined after repeated panics.
    pub models_quarantined: AtomicU64,
    /// Gauge: 1 while the brown-out controller is active.
    pub brownout_active: AtomicU64,
    /// Gauge: 1 while admission uses the analytic estimator instead of the
    /// learned tree.
    pub estimator_analytic: AtomicU64,
}

impl DegradeCounters {
    fn to_json(&self) -> JsonValue {
        let get = |c: &AtomicU64| JsonValue::from(c.load(Ordering::Relaxed));
        JsonValue::obj([
            ("brownout_entries", get(&self.brownout_entries)),
            ("brownout_exits", get(&self.brownout_exits)),
            ("batch_shed", get(&self.batch_shed)),
            ("models_degraded", get(&self.models_degraded)),
            ("models_quarantined", get(&self.models_quarantined)),
            ("brownout_active", get(&self.brownout_active)),
            ("estimator_analytic", get(&self.estimator_analytic)),
        ])
    }
}

/// Counters and gauges for the readiness-driven front end
/// (`serve::reactor`) and the sharded executor's work stealing. All zero
/// under the thread-per-connection front end (except `steals`, which the
/// executor owns regardless of front end).
#[derive(Debug, Default)]
pub struct ReactorCounters {
    /// Gauge: connections currently registered with the reactor.
    pub open_connections: AtomicU64,
    /// Gauge: pipelined requests currently in flight (submitted to the
    /// executor, response not yet written back).
    pub pipelined_in_flight: AtomicU64,
    /// Times an executor worker drained a lane outside its home shard.
    pub steals: AtomicU64,
    /// Readiness wakeups: one per `epoll_wait` return in the event loop.
    pub wakeups: AtomicU64,
}

impl ReactorCounters {
    fn to_json(&self) -> JsonValue {
        let get = |c: &AtomicU64| JsonValue::from(c.load(Ordering::Relaxed));
        JsonValue::obj([
            ("open_connections", get(&self.open_connections)),
            ("pipelined_in_flight", get(&self.pipelined_in_flight)),
            ("steals", get(&self.steals)),
            ("wakeups", get(&self.wakeups)),
        ])
    }
}

/// Gauges for the online-learning feedback loop (`serve::feedback`): the
/// live model version, confidence-fallback counters, and
/// retrain outcomes. All store-synced from the [`crate::FeedbackHub`] on
/// every `Stats` request; all zero when no feedback hub is configured.
#[derive(Debug, Default)]
pub struct SelectorCounters {
    /// Active model version — the hot-swap generation (1 = the selector
    /// the server started with).
    pub active_version: AtomicU64,
    /// Selections made by the live hybrid selector.
    pub decisions: AtomicU64,
    /// Selections that fell below the confidence gate and were decided by
    /// the analytic rules.
    pub fallbacks: AtomicU64,
    /// Observations ever appended to the telemetry ring.
    pub observations: AtomicU64,
    /// Observations overwritten before a retrainer drained them.
    pub observations_dropped: AtomicU64,
    /// Retrain cycles whose candidate was published.
    pub retrains_accepted: AtomicU64,
    /// Retrain cycles rolled back by the regret guard.
    pub retrains_rolled_back: AtomicU64,
    /// Last retrain outcome: 0 none, 1 accepted, 2 rolled back (see
    /// [`crate::feedback::retrain_outcome_name`]).
    pub last_retrain: AtomicU64,
}

impl SelectorCounters {
    /// Fraction of hybrid selections decided by the rule fallback.
    pub fn fallback_rate(&self) -> f64 {
        let d = self.decisions.load(Ordering::Relaxed);
        if d == 0 {
            0.0
        } else {
            self.fallbacks.load(Ordering::Relaxed) as f64 / d as f64
        }
    }

    fn to_json(&self) -> JsonValue {
        let get = |c: &AtomicU64| JsonValue::from(c.load(Ordering::Relaxed));
        JsonValue::obj([
            ("active_version", get(&self.active_version)),
            ("decisions", get(&self.decisions)),
            ("fallbacks", get(&self.fallbacks)),
            ("fallback_rate", JsonValue::from(self.fallback_rate())),
            ("observations", get(&self.observations)),
            ("observations_dropped", get(&self.observations_dropped)),
            ("retrains_accepted", get(&self.retrains_accepted)),
            ("retrains_rolled_back", get(&self.retrains_rolled_back)),
            (
                "last_retrain_outcome",
                JsonValue::from(crate::feedback::retrain_outcome_name(
                    self.last_retrain.load(Ordering::Relaxed),
                )),
            ),
        ])
    }
}

/// All live counters one server instance keeps.
#[derive(Default)]
pub struct ServeStats {
    /// Predict-path counters.
    pub predict: RequestStats,
    /// Predict-path counters split by request class, indexed by
    /// [`RequestClass::index`].
    pub classes: [ClassStats; 2],
    /// Schedule-path counters.
    pub schedule: RequestStats,
    /// Stats-path counters.
    pub stats: RequestStats,
    /// Failures observed along the serving path.
    pub faults: FaultCounters,
    /// Degradation state: brown-out transitions and the model health
    /// ladder.
    pub degrade: DegradeCounters,
    /// Readiness front-end gauges and executor steal count.
    pub reactor: ReactorCounters,
    /// Online-learning selector gauges (version, fallbacks,
    /// retrain outcomes).
    pub selector: SelectorCounters,
    /// How often the scheduler chose each format, in [`Format::ALL`] order.
    decisions: [AtomicU64; Format::ALL.len()],
    /// Process-wide kernel aggregate, fed by delta-merging every model's
    /// counters (never double counts, however often it is polled).
    aggregate: SmsvCounters,
    last_per_model: Mutex<HashMap<String, SmsvSnapshot>>,
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-class predict counters for one class.
    pub fn class(&self, class: RequestClass) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Records one scheduling decision.
    pub fn record_decision(&self, format: Format) {
        self.decisions[format_index(format)].fetch_add(1, Ordering::Relaxed);
    }

    /// Scheduling decisions per format, in [`Format::ALL`] order.
    pub fn decisions(&self) -> [u64; Format::ALL.len()] {
        let mut out = [0; Format::ALL.len()];
        for (o, d) in out.iter_mut().zip(self.decisions.iter()) {
            *o = d.load(Ordering::Relaxed);
        }
        out
    }

    /// Folds every model's *new* kernel activity into the process-wide
    /// aggregate and returns the aggregate's current snapshot.
    pub fn aggregate_kernels(&self, registry: &ModelRegistry) -> SmsvSnapshot {
        let mut last = self.last_per_model.lock().expect("stats poisoned");
        for served in registry.iter() {
            let now = served.counters().snapshot();
            let earlier = last.entry(served.name().to_string()).or_default();
            self.aggregate.merge_snapshot(&now.delta(earlier));
            *earlier = now;
        }
        self.aggregate.snapshot()
    }

    /// Full service snapshot as a JSON document: request-kind counters,
    /// queue depths (supplied by the executor), per-model kernel telemetry
    /// and the process-wide aggregate.
    pub fn snapshot_json(
        &self,
        registry: &ModelRegistry,
        queue_depths: &[(String, usize)],
    ) -> String {
        let queues = queue_depths
            .iter()
            .map(|(name, depth)| {
                JsonValue::obj([
                    ("queue", JsonValue::from(name.as_str())),
                    ("depth", JsonValue::from(*depth)),
                ])
            })
            .collect::<Vec<_>>();
        let decisions = Format::ALL
            .iter()
            .zip(self.decisions())
            .filter(|&(_, n)| n > 0)
            .map(|(&f, n)| JsonValue::obj([(f.name(), JsonValue::from(n))]))
            .collect::<Vec<_>>();
        let models = registry
            .iter()
            .map(|served| {
                let snap = served.counters().snapshot();
                JsonValue::obj([
                    ("model", JsonValue::from(served.name())),
                    (
                        "format",
                        served
                            .format()
                            .map(|f| JsonValue::from(f.name()))
                            .unwrap_or(JsonValue::Null),
                    ),
                    ("dim", JsonValue::from(served.dim())),
                    (
                        "tuned_block",
                        served
                            .report()
                            .map(|r| JsonValue::from(r.block))
                            .unwrap_or(JsonValue::Null),
                    ),
                    ("health", JsonValue::from(served.health().name())),
                    ("panics", JsonValue::from(served.panics())),
                    ("kernels", kernel_json(&snap)),
                ])
            })
            .collect::<Vec<_>>();
        let aggregate = kernel_json(&self.aggregate_kernels(registry));
        let classes =
            JsonValue::obj(RequestClass::ALL.map(|c| (c.name(), self.class(c).to_json())));
        JsonValue::obj([
            ("predict", self.predict.to_json()),
            ("classes", classes),
            ("schedule", self.schedule.to_json()),
            ("stats", self.stats.to_json()),
            ("faults", self.faults.to_json()),
            ("degradation", self.degrade.to_json()),
            ("reactor", self.reactor.to_json()),
            ("selector", self.selector.to_json()),
            ("queues", JsonValue::Arr(queues)),
            ("schedule_decisions", JsonValue::Arr(decisions)),
            ("models", JsonValue::Arr(models)),
            ("aggregate", aggregate),
        ])
        .to_json()
    }
}

/// One kernel snapshot as JSON: per-format calls/nanos, the block-size
/// histogram, and the multi-vector block count that proves coalescing.
fn kernel_json(snap: &SmsvSnapshot) -> JsonValue {
    let formats = Format::ALL
        .iter()
        .map(|&f| snap.sample(f))
        .zip(Format::ALL.iter())
        .filter(|(s, _)| s.calls > 0)
        .map(|(s, &f)| {
            JsonValue::obj([
                ("format", JsonValue::from(f.name())),
                ("calls", JsonValue::from(s.calls)),
                ("nanos", JsonValue::from(s.nanos)),
                ("bytes", JsonValue::from(s.bytes)),
            ])
        })
        .collect::<Vec<_>>();
    let hist: Vec<JsonValue> = snap.block_hist.iter().map(|&n| JsonValue::from(n)).collect();
    JsonValue::obj([
        ("total_calls", JsonValue::from(snap.total_calls())),
        ("allocs_avoided", JsonValue::from(snap.allocs_avoided)),
        ("block_hist", JsonValue::Arr(hist)),
        ("multi_vector_blocks", JsonValue::from(snap.multi_vector_blocks())),
        ("formats", JsonValue::Arr(formats)),
    ])
}

/// Parses the block-size histogram back out of a `Stats` JSON document —
/// the client-side accessor the integration tests and CLI view use.
pub fn parse_block_hist(stats_json: &str) -> Result<[u64; BLOCK_HIST_BUCKETS], String> {
    let doc = dls_core::json::parse(stats_json)?;
    let hist = doc
        .get("aggregate")
        .and_then(|a| a.get("block_hist"))
        .and_then(JsonValue::as_arr)
        .ok_or("missing aggregate.block_hist")?;
    let mut out = [0u64; BLOCK_HIST_BUCKETS];
    for (o, v) in out.iter_mut().zip(hist) {
        *o = v.as_u64().ok_or("non-integer histogram bucket")?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ServedModel;
    use dls_core::LayoutScheduler;
    use dls_sparse::SparseVec;
    use dls_svm::{KernelKind, PredictWorkspace, SvmModel};

    #[test]
    fn latency_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_secs(0.5).unwrap();
        // Third observation (30 µs) lands in the 16–32 µs bucket.
        assert!((30e-6..=64e-6).contains(&p50), "{p50}");
        let p95 = h.quantile_secs(0.95).unwrap();
        assert!((1e-3..=3e-3).contains(&p95), "{p95}");
        assert!(h.mean_secs().unwrap() > 0.0);
        assert_eq!(LatencyHistogram::default().quantile_secs(0.5), None);
    }

    #[test]
    fn snapshot_json_carries_the_block_histogram() {
        let scheduler = LayoutScheduler::new();
        let svs: Vec<SparseVec> =
            (0..4).map(|i| SparseVec::new(8, vec![i, i + 4], vec![1.0, -1.0])).collect();
        let model = SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.5], 0.0);
        let mut registry = ModelRegistry::new();
        registry.insert(ServedModel::new("m", model, &scheduler));

        let served = registry.get("m").unwrap().clone();
        let mut ws = PredictWorkspace::new();
        let xs: Vec<SparseVec> = (0..5).map(|i| SparseVec::new(8, vec![i], vec![1.0])).collect();
        served.predict(&xs, &mut ws); // one blocked call, B = 5

        let stats = ServeStats::new();
        stats.predict.record_ok(Duration::from_micros(120));
        stats.class(RequestClass::Interactive).record_ok(Duration::from_micros(120), false);
        stats.class(RequestClass::Batch).record_ok(Duration::from_millis(4), true);
        stats.class(RequestClass::Batch).record_timeout();
        stats.record_decision(Format::Csr);
        let json = stats.snapshot_json(&registry, &[("predict:m".into(), 3)]);
        let hist = parse_block_hist(&json).unwrap();
        assert_eq!(hist[2], 1, "B=5 lands in bucket 2 (4..8): {json}");
        let doc = dls_core::json::parse(&json).unwrap();
        assert_eq!(doc.get("predict").unwrap().get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("queues").unwrap().as_arr().unwrap()[0].get("depth").unwrap().as_u64(),
            Some(3)
        );
        let classes = doc.get("classes").unwrap();
        let interactive = classes.get("interactive").unwrap();
        assert_eq!(interactive.get("slo_violation_rate").unwrap().as_f64(), Some(0.0));
        let batch = classes.get("batch").unwrap();
        assert_eq!(batch.get("slo_violations").unwrap().as_u64(), Some(2));
        assert_eq!(batch.get("slo_violation_rate").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn snapshot_json_exposes_fault_and_degradation_counters() {
        let scheduler = LayoutScheduler::new();
        let model = SvmModel::new(
            KernelKind::Linear,
            vec![SparseVec::new(4, vec![0], vec![1.0])],
            vec![1.0],
            0.0,
        );
        let mut registry = ModelRegistry::new();
        registry.insert(ServedModel::new("m", model, &scheduler));
        let stats = ServeStats::new();
        FaultCounters::bump(&stats.faults.conn_read_timeouts);
        FaultCounters::bump(&stats.faults.exec_panics);
        stats.degrade.batch_shed.fetch_add(5, Ordering::Relaxed);
        stats.degrade.brownout_active.store(1, Ordering::Relaxed);
        let doc = dls_core::json::parse(&stats.snapshot_json(&registry, &[])).unwrap();
        let faults = doc.get("faults").expect("faults section");
        assert_eq!(faults.get("conn_read_timeouts").unwrap().as_u64(), Some(1));
        assert_eq!(faults.get("exec_panics").unwrap().as_u64(), Some(1));
        assert_eq!(faults.get("injected").unwrap().as_u64(), Some(0));
        let degrade = doc.get("degradation").expect("degradation section");
        assert_eq!(degrade.get("batch_shed").unwrap().as_u64(), Some(5));
        assert_eq!(degrade.get("brownout_active").unwrap().as_u64(), Some(1));
        stats.reactor.open_connections.store(3, Ordering::Relaxed);
        stats.reactor.steals.fetch_add(2, Ordering::Relaxed);
        let doc = dls_core::json::parse(&stats.snapshot_json(&registry, &[])).unwrap();
        let reactor = doc.get("reactor").expect("reactor section");
        assert_eq!(reactor.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(reactor.get("steals").unwrap().as_u64(), Some(2));
        assert_eq!(reactor.get("pipelined_in_flight").unwrap().as_u64(), Some(0));
        // Every model reports its health rung.
        let models = doc.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models[0].get("health").unwrap().as_str(), Some("healthy"));
        assert_eq!(models[0].get("panics").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn class_stats_violation_accounting() {
        let c = ClassStats::default();
        assert_eq!(c.slo_violation_rate(), 0.0, "no completions, no rate");
        c.record_ok(Duration::from_micros(50), false);
        c.record_ok(Duration::from_micros(900), true);
        c.record_timeout();
        c.record_busy_predicted();
        assert_eq!(c.completed(), 3);
        assert!((c.slo_violation_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.busy_predicted.load(Ordering::Relaxed), 1);
        assert_eq!(c.latency.count(), 2, "timeouts have no service latency");
    }

    #[test]
    fn aggregation_across_polls_never_double_counts() {
        let scheduler = LayoutScheduler::new();
        let model = SvmModel::new(
            KernelKind::Linear,
            vec![SparseVec::new(4, vec![0], vec![1.0])],
            vec![1.0],
            0.0,
        );
        let mut registry = ModelRegistry::new();
        registry.insert(ServedModel::new("m", model, &scheduler));
        let served = registry.get("m").unwrap().clone();
        let stats = ServeStats::new();
        let mut ws = PredictWorkspace::new();
        let x = [SparseVec::new(4, vec![1], vec![2.0])];
        for polls in 1..=3 {
            served.predict(&x, &mut ws);
            let agg = stats.aggregate_kernels(&registry);
            assert_eq!(agg.total_calls(), polls, "poll {polls}");
            // Idempotent when nothing new happened.
            assert_eq!(stats.aggregate_kernels(&registry).total_calls(), polls);
        }
    }
}
