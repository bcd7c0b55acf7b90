//! Failure-path integration tests: mutation-fuzzed decoders, clients
//! dying mid-request, scripted kernel panics walking the degradation
//! ladder over live TCP, idle-connection reaping, and the retry client
//! recovering from injected connection resets.
//!
//! Determinism strategy: scripted [`FaultPlan`]s (explicit per-site action
//! queues) instead of rate rolls, armed only for the phase under test, so
//! every injected fault lands on a known operation.

use dls_core::LayoutScheduler;
use dls_serve::fault::{flip_bit, FaultAction, FaultInjector, FaultPlan, FaultSite, SplitMix64};
use dls_serve::proto::{
    decode_request_framed, decode_response, encode_request, encode_response, read_frame, Request,
    RequestClass, Response,
};
use dls_serve::{
    start, ClientError, ExecutorConfig, ModelRegistry, PredictRequest, RetryClient, RetryPolicy,
    ServeClient, ServedModel, ServerConfig, ServerHandle,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;

fn test_model(salt: usize) -> SvmModel {
    let svs: Vec<SparseVec> = (0..6)
        .map(|i| {
            SparseVec::new(
                DIM,
                vec![i, i + 5, i + 10],
                vec![1.0 + (i + salt) as f64, -0.5 * i as f64 - 1.0, 0.25],
            )
        })
        .collect();
    let coefs = vec![1.0, -1.0, 0.5, -0.5, 0.75, -0.25];
    SvmModel::new(KernelKind::Gaussian { gamma: 0.125 }, svs, coefs, 0.375)
}

fn query(seed: usize) -> SparseVec {
    SparseVec::new(DIM, vec![seed % DIM], vec![1.0 + (seed % 7) as f64 * 0.5])
}

/// Serves models "m" and "n" with the given fault plan and timeouts.
fn serve_faulty(plan: Arc<FaultPlan>, config: ServerConfig) -> ServerHandle {
    let scheduler = LayoutScheduler::new();
    let registry = ModelRegistry::new()
        .with(ServedModel::new("m", test_model(0), &scheduler))
        .with(ServedModel::new("n", test_model(3), &scheduler));
    let config = ServerConfig {
        executor: ExecutorConfig {
            fault: FaultInjector::shared(plan),
            gather: Duration::ZERO,
            ..config.executor
        },
        ..config
    };
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

fn predict_one(c: &mut ServeClient, model: &str, seed: usize) -> Response {
    c.send(&PredictRequest::builder(model).vector(query(seed)).build()).expect("predict")
}

/// Polls the stats JSON until `probe` extracts a satisfied value.
fn wait_for_stat(addr: SocketAddr, what: &str, probe: impl Fn(&dls_core::json::JsonValue) -> bool) {
    let mut stats = ServeClient::connect(addr).expect("connect stats");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = dls_core::json::parse(&stats.stats().expect("stats")).expect("valid stats json");
        if probe(&doc) {
            return;
        }
        assert!(Instant::now() < deadline, "stats never showed {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fault_counter(doc: &dls_core::json::JsonValue, key: &str) -> u64 {
    doc.get("faults").and_then(|f| f.get(key)).and_then(|v| v.as_u64()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Satellite: mutation-fuzz the decoders. Byte flips, truncations, and
// splices of valid frames must never panic and never succeed *and* panic
// downstream — every failure is a typed ProtoError.
// ---------------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = Request> {
    let vec = (1usize..16).prop_map(|d| SparseVec::new(d, vec![d - 1], vec![0.5]));
    prop_oneof![
        (proptest::collection::vec(vec, 0..4), 0u32..100_000).prop_map(|(vectors, slo_us)| {
            Request::Predict {
                model: "m".to_string(),
                deadline_ms: 0,
                class: RequestClass::Interactive,
                slo_us,
                vectors,
            }
        }),
        Just(Request::Stats),
        Just(Request::Health),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        proptest::collection::vec(-100i32..100, 0..8)
            .prop_map(|vs| Response::Predictions(vs.into_iter().map(f64::from).collect())),
        Just(Response::Busy),
        Just(Response::Health("{\"status\":\"ok\"}".to_string())),
        (0u32..1000).prop_map(|i| Response::Error(format!("e{i}"))),
    ]
}

/// Applies `rounds` seeded mutations: bit flips, truncations, random
/// splices, and prefix/suffix swaps.
fn mutate(payload: &mut Vec<u8>, seed: u64, rounds: u32) {
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rounds {
        match rng.next_below(4) {
            0 => flip_bit(payload, rng.next_u64()),
            1 => {
                let keep = rng.next_below(payload.len() as u64 + 1) as usize;
                payload.truncate(keep);
            }
            2 => {
                let at = rng.next_below(payload.len() as u64 + 1) as usize;
                payload.insert(at, rng.next_u64() as u8);
            }
            _ => {
                if !payload.is_empty() {
                    let at = rng.next_below(payload.len() as u64) as usize;
                    payload[at] = rng.next_u64() as u8;
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn mutated_request_frames_never_panic_the_decoder(
        req in arb_request(),
        seed in 0u64..u64::MAX,
        rounds in 1u32..12,
    ) {
        let mut payload = encode_request(&req);
        mutate(&mut payload, seed, rounds);
        // Must return (typed error or an accidentally-valid message) —
        // a panic fails the test harness itself.
        let _ = decode_request_framed(&payload);
    }

    #[test]
    fn mutated_response_frames_never_panic_the_decoder(
        resp in arb_response(),
        seed in 0u64..u64::MAX,
        rounds in 1u32..12,
    ) {
        let mut payload = encode_response(&resp);
        mutate(&mut payload, seed, rounds);
        let _ = decode_response(&payload);
    }

    #[test]
    fn mutated_byte_streams_never_panic_read_frame(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Arbitrary bytes as a framed stream: every outcome is Ok(None)
        // (clean EOF), Ok(Some) (a small frame), or a typed io error.
        let mut r = &bytes[..];
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }
}

// ---------------------------------------------------------------------------
// Satellite: a client dying mid-request must not take the server (or any
// other client's request) with it.
// ---------------------------------------------------------------------------

#[test]
fn clients_dying_mid_request_leave_others_served() {
    let plan = Arc::new(FaultPlan::new(1));
    plan.disarm(); // plumbing only; this test's faults are real sockets
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model(0);

    // Victim 1: a complete request lands in the queue, then the socket
    // closes before the reply can be written.
    handle.executor().pause(true);
    {
        let mut raw = TcpStream::connect(addr).expect("connect victim");
        let req = Request::from(&PredictRequest::builder("m").vector(query(1)).build());
        let payload = encode_request(&req);
        raw.write_all(&(payload.len() as u32).to_le_bytes()).expect("prefix");
        raw.write_all(&payload).expect("body");
        raw.flush().ok();
        // Give the server time to enqueue it before the drop closes us.
        std::thread::sleep(Duration::from_millis(50));
    }

    // Victim 2: half a frame (the prefix promises 100 bytes, 10 arrive),
    // then the socket dies — the server sees EOF mid-frame.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&100u32.to_le_bytes()).expect("prefix");
        raw.write_all(&[0u8; 10]).expect("partial body");
        raw.flush().ok();
    }
    handle.executor().pause(false);

    // A well-behaved client is completely unaffected.
    let mut c = ServeClient::connect(addr).expect("connect survivor");
    match predict_one(&mut c, "m", 7) {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), model.decision_function(&query(7)).to_bits());
        }
        other => panic!("survivor got {other:?}"),
    }

    // Both deaths were classified, not hung: the reset counter moved.
    wait_for_stat(addr, "conn_resets >= 1", |doc| fault_counter(doc, "conn_resets") >= 1);
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: scripted kernel panics over live TCP walk the health ladder —
// degrade, quarantine, typed refusals — while the sibling model keeps
// serving bit-exact answers.
// ---------------------------------------------------------------------------

#[test]
fn scripted_exec_panics_degrade_then_quarantine_over_the_wire() {
    let plan = Arc::new(
        FaultPlan::new(2)
            .script(FaultSite::Exec, [FaultAction::Panic, FaultAction::Panic, FaultAction::Panic]),
    );
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let mut c = ServeClient::connect(addr).expect("connect");

    // Three sequential predicts, three scripted panics: each answers a
    // typed error (never a hang, never a dead worker).
    for i in 0..3 {
        match predict_one(&mut c, "m", i) {
            Response::Error(msg) => {
                assert!(msg.contains("panicked"), "panic {i}: unexpected message {msg:?}")
            }
            other => panic!("panic {i}: unexpected response {other:?}"),
        }
    }
    assert_eq!(plan.injected_at(FaultSite::Exec), 3);

    // The fourth submission is refused at admission: quarantined.
    match predict_one(&mut c, "m", 9) {
        Response::Error(msg) => assert!(msg.contains("quarantined"), "{msg}"),
        other => panic!("expected quarantine refusal, got {other:?}"),
    }

    // The sibling model is untouched and bit-exact.
    let sibling = test_model(3);
    match predict_one(&mut c, "n", 5) {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), sibling.decision_function(&query(5)).to_bits());
        }
        other => panic!("sibling got {other:?}"),
    }

    // The health endpoint reports the ladder.
    let health = match c.request(&Request::Health).expect("health") {
        Response::Health(json) => json,
        other => panic!("expected Health, got {other:?}"),
    };
    let doc = dls_core::json::parse(&health).expect("valid health json");
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("degraded"));
    let models = doc.get("models").and_then(|m| m.as_arr()).expect("models array");
    let rung = |name: &str| {
        models
            .iter()
            .find(|m| m.get("model").and_then(|n| n.as_str()) == Some(name))
            .and_then(|m| m.get("health"))
            .and_then(|h| h.as_str())
            .map(str::to_string)
    };
    assert_eq!(rung("m").as_deref(), Some("quarantined"));
    assert_eq!(rung("n").as_deref(), Some("healthy"));

    // And the stats JSON carries the event counters.
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    assert_eq!(fault_counter(&doc, "exec_panics"), 3);
    let degraded =
        doc.get("degradation").and_then(|d| d.get("models_quarantined")).and_then(|v| v.as_u64());
    assert_eq!(degraded, Some(1));
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: idle connections self-reap; a reaped peer gets a typed
// ConnectionLost from the client, and the server counts the reap.
// ---------------------------------------------------------------------------

#[test]
fn idle_connections_are_reaped_and_surface_as_connection_lost() {
    let plan = Arc::new(FaultPlan::new(3));
    plan.disarm();
    let config = ServerConfig { idle_timeout: Duration::from_millis(100), ..Default::default() };
    let handle = serve_faulty(Arc::clone(&plan), config);
    let addr = handle.local_addr();

    let mut idler = ServeClient::connect(addr).expect("connect idler");
    assert!(matches!(predict_one(&mut idler, "m", 1), Response::Predictions(_)));

    // Sit idle well past the timeout; the server reaps at the frame
    // boundary (nothing in flight, so closing is safe).
    std::thread::sleep(Duration::from_millis(400));
    wait_for_stat(addr, "conn_idle_reaped >= 1", |doc| fault_counter(doc, "conn_idle_reaped") >= 1);

    // The reaped client's next request fails typed, not hung.
    let req = Request::from(&PredictRequest::builder("m").vector(query(2)).build());
    match idler.try_request(&req) {
        Err(ClientError::ConnectionLost(_)) => {}
        other => panic!("expected ConnectionLost after reap, got {other:?}"),
    }

    // Fresh connections serve as normal.
    let mut c = ServeClient::connect(addr).expect("reconnect");
    assert!(matches!(predict_one(&mut c, "m", 3), Response::Predictions(_)));
    drop(c);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole + satellite: scripted connection resets. The plain client
// surfaces a typed ConnectionLost; the retry client reconnects and
// completes the same request bit-exactly.
// ---------------------------------------------------------------------------

#[test]
fn retry_client_recovers_from_scripted_resets_where_plain_client_errors() {
    let plan = Arc::new(
        FaultPlan::new(4).script(FaultSite::ConnRead, [FaultAction::Reset, FaultAction::Reset]),
    );
    plan.disarm();
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model(0);
    let req = Request::from(&PredictRequest::builder("m").vector(query(4)).build());

    // Baseline with injection off: the request serves.
    let mut plain = ServeClient::connect(addr).expect("connect plain");
    assert!(matches!(plain.try_request(&req), Ok(Response::Predictions(_))));

    // Arm: the server's next read on this connection takes the scripted
    // reset, and the plain client sees a typed, retryable ConnectionLost
    // — the PR-6 client surfaced a raw io::Error here. The handler's
    // in-flight blocking read made its injection decision before arming,
    // so wait out one socket tick to guarantee the *next* read (which
    // pops the script) is the one that sees our frame.
    plan.arm();
    std::thread::sleep(Duration::from_millis(150));
    let err = plain.try_request(&req).expect_err("reset should fail the plain client");
    assert!(matches!(err, ClientError::ConnectionLost(_)), "got {err:?}");
    assert!(err.is_retryable());
    drop(plain);

    // The retry client eats the second scripted reset, reconnects after a
    // jittered backoff, and completes the identical request.
    let policy = RetryPolicy {
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        ..Default::default()
    };
    let mut retry = RetryClient::with_policy(addr.to_string(), policy);
    match retry.request(&req).expect("retry client should recover") {
        Response::Predictions(values) => {
            assert_eq!(values[0].to_bits(), model.decision_function(&query(4)).to_bits());
        }
        other => panic!("retry client got {other:?}"),
    }
    assert!(retry.retries_left() < RetryPolicy::default().retry_budget, "no retry was spent");
    assert_eq!(plan.injected_at(FaultSite::ConnRead), 2, "both scripted resets fired");

    // Injection spent: the service is fully healthy again.
    plan.disarm();
    wait_for_stat(addr, "conn_resets >= 2", |doc| fault_counter(doc, "conn_resets") >= 2);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Tentpole: a scripted corrupted response write surfaces as a typed
// client error (never silently-wrong data, never a hang).
// ---------------------------------------------------------------------------

#[test]
fn corrupted_response_writes_fail_typed_on_the_client() {
    // Bit 0 lands in the length prefix of the first response write, so
    // the client's framing desynchronises in a detectable way.
    let plan = Arc::new(FaultPlan::new(5).script(FaultSite::ConnWrite, [FaultAction::Corrupt(0)]));
    let handle = serve_faulty(Arc::clone(&plan), ServerConfig::default());
    let addr = handle.local_addr();

    let mut c = ServeClient::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_millis(500))).expect("read timeout");
    let req = Request::from(&PredictRequest::builder("m").vector(query(6)).build());
    match c.try_request(&req) {
        // A shortened prefix decodes garbage (Protocol), a lengthened one
        // starves the read (Timeout), a wildly large one trips the frame
        // bound — all typed, none silent.
        Err(ClientError::Protocol(_) | ClientError::Timeout | ClientError::FrameTooLarge(_)) => {}
        Err(ClientError::ConnectionLost(_)) => {} // prefix > MAX_FRAME_LEN closes
        other => panic!("corrupted response produced {other:?}"),
    }
    assert_eq!(plan.injected_at(FaultSite::ConnWrite), 1);

    // The service itself is unharmed.
    plan.disarm();
    let mut fresh = ServeClient::connect(addr).expect("reconnect");
    assert!(matches!(predict_one(&mut fresh, "m", 6), Response::Predictions(_)));
    drop((c, fresh));
    handle.shutdown();
}
