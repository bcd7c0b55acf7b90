//! Loopback tests for SLO-aware serving: classed requests with per-class
//! telemetry, and each shipped queue discipline serving end to end.

use dls_core::LayoutScheduler;
use dls_serve::{
    parse_discipline, start, ExecutorConfig, ModelRegistry, PredictRequest, RequestClass, Response,
    ServeClient, ServedModel, ServerConfig, ServerHandle, DISCIPLINES,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::time::Duration;

const DIM: usize = 12;

fn test_model() -> SvmModel {
    let svs: Vec<SparseVec> =
        (0..5).map(|i| SparseVec::new(DIM, vec![i, i + 6], vec![1.0 + i as f64, -0.5])).collect();
    SvmModel::new(KernelKind::Linear, svs, vec![1.0, -1.0, 0.5, -0.5, 0.25], 0.125)
}

fn serve(executor: ExecutorConfig) -> ServerHandle {
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(), &LayoutScheduler::new()));
    let config = ServerConfig { executor, ..Default::default() };
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

fn query(seed: usize) -> SparseVec {
    SparseVec::new(DIM, vec![seed % DIM], vec![1.0])
}

/// Classed requests round-trip on the wire and are accounted on their own
/// ledgers, with per-class SLO fields in the snapshot.
#[test]
fn classes_land_on_their_own_ledgers() {
    let handle = serve(ExecutorConfig::default());
    let mut c = ServeClient::connect(handle.local_addr()).expect("connect");

    let interactive =
        PredictRequest::builder("m").vector(query(0)).slo(Duration::from_secs(2)).build();
    assert!(matches!(c.send(&interactive).expect("predict"), Response::Predictions(_)));
    let batch =
        PredictRequest::builder("m").vectors((0..3).map(query)).class(RequestClass::Batch).build();
    assert!(matches!(c.send(&batch).expect("predict"), Response::Predictions(_)));

    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let classes = doc.get("classes").expect("classes in snapshot");
    for class in RequestClass::ALL {
        let entry = classes.get(class.name()).expect("per-class entry");
        assert_eq!(entry.get("ok").and_then(|v| v.as_u64()), Some(1), "{class} ok count");
        assert_eq!(
            entry.get("slo_violation_rate").and_then(|v| v.as_f64()),
            Some(0.0),
            "{class} violation rate"
        );
    }
    drop(c);
    handle.shutdown();
}

/// Every shipped discipline serves mixed-class traffic end to end (the
/// scheduling *order* contracts live in the executor unit tests; this
/// pins that each discipline is wireable and drains).
#[test]
fn every_discipline_serves_mixed_traffic() {
    for name in DISCIPLINES {
        let handle = serve(ExecutorConfig {
            discipline: parse_discipline(name).expect("known discipline"),
            gather: Duration::from_micros(200),
            ..Default::default()
        });
        assert_eq!(handle.executor().discipline().name(), name);
        let mut c = ServeClient::connect(handle.local_addr()).expect("connect");
        for i in 0..4 {
            let class = if i % 2 == 0 { RequestClass::Interactive } else { RequestClass::Batch };
            let req = PredictRequest::builder("m").vector(query(i)).class(class).build();
            assert!(
                matches!(c.send(&req).expect("predict"), Response::Predictions(_)),
                "discipline {name} failed request {i}"
            );
        }
        let mut completed = 0;
        for class in RequestClass::ALL {
            completed += handle.stats().class(class).completed();
        }
        assert_eq!(completed, 4, "discipline {name} lost requests");
        drop(c);
        handle.shutdown();
    }
}
