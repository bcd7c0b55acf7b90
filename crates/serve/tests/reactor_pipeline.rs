//! Loopback tests for the reactor front end and protocol-v3 pipelining:
//! out-of-order response reassembly in [`PipelinedClient`], the reactor
//! gauges in the stats JSON, and idle-worker stealing across executor
//! shards.

use dls_core::LayoutScheduler;
use dls_serve::{
    start, FaultAction, FaultInjector, FaultPlan, FaultSite, Frontend, ModelRegistry,
    PipelinedClient, PredictRequest, Request, Response, ServeClient, ServedModel, ServerConfig,
    ServerHandle,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::time::{Duration, Instant};

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
    let coefs = vec![1.0, -1.0, 0.5, -0.5, 0.75, -0.25];
    SvmModel::new(KernelKind::Gaussian { gamma: 0.125 }, svs, coefs, 0.375)
}

fn query(seed: usize) -> SparseVec {
    SparseVec::new(DIM, vec![seed % DIM], vec![1.0 + (seed % 7) as f64 * 0.5])
}

fn serve_reactor() -> ServerHandle {
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(), &LayoutScheduler::new()));
    let config = ServerConfig { frontend: Frontend::Reactor, ..ServerConfig::default() };
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

fn predict_req(seed: usize) -> Request {
    Request::from(&PredictRequest::builder("m").vector(query(seed)).build())
}

fn stat_u64(json: &str, section: &str, key: &str) -> u64 {
    let doc = dls_core::json::parse(json).expect("valid stats json");
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats.{section}.{key} missing in {json}"))
}

/// The pin for out-of-order pipelining: with the executor paused, a
/// submitted `Predict` parks in flight while a later `Stats` frame on the
/// same connection is answered inline — so the *second* request's
/// response arrives *first*, and `wait` reassembles by frame id.
#[test]
fn pipelined_responses_arrive_out_of_order_and_reassemble() {
    let handle = serve_reactor();
    let mut client = PipelinedClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    handle.executor().pause(true);
    let predict_id = client.submit(&predict_req(1)).expect("submit predict");
    let stats_id = client.submit(&Request::Stats).expect("submit stats");
    assert_eq!(client.in_flight(), 2);

    // The stats frame was submitted second but is answered first: the
    // predict is parked on the paused executor.
    let (first_id, first) = client.recv().expect("first response");
    assert_eq!(first_id, stats_id, "expected the later frame to finish first");
    let json = match first {
        Response::Stats(json) => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert_eq!(stat_u64(&json, "reactor", "pipelined_in_flight"), 1);

    handle.executor().pause(false);
    match client.wait(predict_id).expect("predict response") {
        Response::Predictions(vals) => assert_eq!(vals.len(), 1),
        other => panic!("expected Predictions, got {other:?}"),
    }
    assert_eq!(client.in_flight(), 0);
    handle.shutdown();
}

/// Many pipelined predicts on one socket all come back, each tagged with
/// its own frame id, and coalesce into batched sweeps server-side.
#[test]
fn a_pipeline_of_predicts_completes_exactly_once_per_frame() {
    let handle = serve_reactor();
    let mut client = PipelinedClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let ids: Vec<u64> = (0..32).map(|i| client.submit(&predict_req(i)).expect("submit")).collect();
    let mut seen = Vec::new();
    for _ in 0..ids.len() {
        let (id, resp) = client.recv().expect("recv");
        match resp {
            Response::Predictions(vals) => assert_eq!(vals.len(), 1),
            other => panic!("expected Predictions, got {other:?}"),
        }
        seen.push(id);
    }
    seen.sort_unstable();
    assert_eq!(seen, ids, "every frame answered exactly once");
    handle.shutdown();
}

/// The reactor gauges move: connections are counted while open and
/// released on close, and the loop records wakeups.
#[test]
fn reactor_gauges_track_connections_and_wakeups() {
    let handle = serve_reactor();
    let mut a = ServeClient::connect(handle.local_addr()).expect("connect a");
    let b = ServeClient::connect(handle.local_addr()).expect("connect b");
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let json = a.stats().expect("stats");
    assert!(stat_u64(&json, "reactor", "open_connections") >= 2, "both conns counted: {json}");
    assert!(stat_u64(&json, "reactor", "wakeups") >= 1);

    drop(b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let json = a.stats().expect("stats");
        if stat_u64(&json, "reactor", "open_connections") <= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "closed connection never released its gauge");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    assert_eq!(
        handle.stats().reactor.open_connections.load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

/// With two workers and all load on one model lane, the second worker's
/// home shard is empty — it can only contribute by stealing. Scripted
/// `Exec` delays pin worker 0 in a sleep mid-sweep, guaranteeing the
/// idle worker finds ready work to take even on a single-core host.
#[test]
fn idle_workers_steal_from_loaded_shards() {
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(), &LayoutScheduler::new()));
    let mut config = ServerConfig { frontend: Frontend::Reactor, ..ServerConfig::default() };
    config.executor.workers = 2;
    config.executor.max_block = 1; // one vector per sweep: plenty of chances to steal
    let plan = FaultPlan::new(7).script(
        FaultSite::Exec,
        std::iter::repeat_n(FaultAction::Delay(Duration::from_millis(5)), 16),
    );
    config.executor.fault = FaultInjector::shared(std::sync::Arc::new(plan));
    let handle = start(registry, LayoutScheduler::new(), config).expect("bind loopback");

    let mut client = PipelinedClient::connect(handle.local_addr()).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    handle.executor().pause(true);
    let ids: Vec<u64> = (0..48).map(|i| client.submit(&predict_req(i)).expect("submit")).collect();
    // Wait until the frames are parked in flight before releasing the pool.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().reactor.pipelined_in_flight.load(std::sync::atomic::Ordering::Relaxed)
        < ids.len() as u64
    {
        assert!(Instant::now() < deadline, "frames never parked");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.executor().pause(false);
    for _ in &ids {
        let (_, resp) = client.recv().expect("recv");
        assert!(matches!(resp, Response::Predictions(_)), "got {resp:?}");
    }
    let steals = handle.stats().reactor.steals.load(std::sync::atomic::Ordering::Relaxed);
    assert!(steals > 0, "worker 1 never stole from the loaded lane");
    handle.shutdown();
}
