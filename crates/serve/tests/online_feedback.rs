//! End-to-end loopback test of the online-learning loop: live traffic →
//! telemetry observations → forced retrain cycles → hot model swaps —
//! with zero dropped requests across the swaps.

use dls_core::LayoutScheduler;
use dls_serve::{
    start, ExecutorConfig, FeedbackConfig, ModelRegistry, PredictRequest, Response, RetrainOutcome,
    ScheduleRequest, ServeClient, ServedModel, ServerConfig,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 16;

fn test_model() -> SvmModel {
    let svs: Vec<SparseVec> = (0..6)
        .map(|i| {
            SparseVec::new(
                DIM,
                vec![i, i + 5, i + 10],
                vec![1.0 + i as f64, -0.5 * i as f64 - 1.0, 0.25],
            )
        })
        .collect();
    SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.5, 0.75, -0.25], 0.375)
}

fn query(seed: usize) -> SparseVec {
    SparseVec::new(DIM, vec![seed % DIM], vec![1.0 + (seed % 7) as f64 * 0.5])
}

/// Serving → telemetry log → retrain → hot swap, with traffic in flight
/// the whole time. Pins the acceptance criterion directly: every request
/// sent during the swaps is answered with predictions (no drops, no
/// errors, no refusals), and the active model version bumps.
#[test]
fn hot_swap_under_live_traffic_drops_nothing() {
    let hub = dls_serve::FeedbackHub::new(FeedbackConfig {
        min_observations: 0,
        background: false, // cycles forced below, deterministically
        ..FeedbackConfig::default()
    });
    // The serving scheduler selects through the hub's swappable handle, so
    // accepted retrains take effect on the very next schedule request.
    let scheduler = LayoutScheduler::with_selector(hub.selector());
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(), &LayoutScheduler::new()));
    let config = ServerConfig {
        executor: ExecutorConfig { feedback: Some(Arc::clone(&hub)), ..Default::default() },
        ..Default::default()
    };
    let handle = start(registry, scheduler, config).expect("bind loopback");
    let addr = handle.local_addr();

    // Background traffic: four clients stream predicts (and the occasional
    // schedule) for the whole duration of both retrain cycles.
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                let mut sent = 0u64;
                let mut answered = 0u64;
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) || sent < 20 {
                    k += 1;
                    sent += 1;
                    let resp = if k.is_multiple_of(10) {
                        let entries: Vec<(u64, u64, f64)> =
                            (0..12).map(|i| (i % 6, (i * 7) % 8, 1.0 + i as f64)).collect();
                        c.send(&ScheduleRequest::builder(6, 8).entries(entries).build())
                            .expect("schedule io")
                    } else {
                        c.send(&PredictRequest::builder("m").vector(query(k + t * 31)).build())
                            .expect("predict io")
                    };
                    match resp {
                        Response::Predictions(v) => {
                            assert_eq!(v.len(), 1);
                            answered += 1;
                        }
                        Response::Scheduled { format, .. } => {
                            assert!(!format.is_empty());
                            answered += 1;
                        }
                        other => panic!("client {t}: dropped/refused request: {other:?}"),
                    }
                }
                (sent, answered)
            })
        })
        .collect();

    // Let traffic build telemetry, then force two retrain cycles: each
    // publishes a fresh tree (the second ties the first on the replay
    // slice). Both swap the live selector while the clients above keep
    // sending.
    std::thread::sleep(Duration::from_millis(100));
    assert!(hub.ring().total_appended() > 0, "sweeps must be recorded as observations");
    assert_eq!(hub.version(), 1);
    let first = hub.force_retrain();
    assert!(matches!(first, RetrainOutcome::Accepted { version: 2, .. }), "{first:?}");
    std::thread::sleep(Duration::from_millis(50));
    let second = hub.force_retrain();
    assert!(matches!(second, RetrainOutcome::Accepted { version: 3, .. }), "{second:?}");
    assert_eq!(hub.version(), 3);

    stop.store(true, Ordering::Relaxed);
    let mut total_sent = 0;
    let mut total_answered = 0;
    for c in clients {
        let (sent, answered) = c.join().expect("client thread");
        total_sent += sent;
        total_answered += answered;
    }
    assert_eq!(total_sent, total_answered, "every request answered across both swaps");
    assert!(total_sent >= 80, "traffic actually flowed: {total_sent}");

    // The stats endpoint surfaces the loop: active version,
    // observation counts, retrain outcomes — and the hard zero-drop ledger.
    let mut c = ServeClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let sel = doc.get("selector").expect("selector section");
    assert_eq!(sel.get("active_version").and_then(|v| v.as_u64()), Some(3));
    assert!(sel.get("observations").and_then(|v| v.as_u64()).unwrap_or(0) > 0);
    assert_eq!(sel.get("retrains_accepted").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(sel.get("retrains_rolled_back").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(sel.get("last_retrain_outcome").and_then(|v| v.as_str()), Some("accepted"));
    let predict = doc.get("predict").expect("predict section");
    for refusal in ["busy", "timed_out", "errors"] {
        assert_eq!(
            predict.get(refusal).and_then(|v| v.as_u64()),
            Some(0),
            "{refusal} must stay zero during hot swaps"
        );
    }
    drop(c);
    handle.shutdown();
}
