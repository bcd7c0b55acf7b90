//! End-to-end loopback tests: a real server on 127.0.0.1, real TCP
//! clients, and the full stack in between — framing, dispatch, batching
//! executor, blocked kernels, telemetry.
//!
//! Determinism strategy: the executor's `pause` drain control lets tests
//! park the worker pool, build a known queue state (polling depths via the
//! `Stats` endpoint, which is served inline on connection threads), and
//! then release it — so queue-full and coalescing behaviour is asserted,
//! not hoped for.

use dls_core::LayoutScheduler;
use dls_serve::proto::{read_frame, write_frame};
use dls_serve::stats::parse_block_hist;
use dls_serve::{
    decode_response_framed, encode_request_framed, start, Frontend, ModelRegistry, PredictRequest,
    Request, RequestClass, Response, ScheduleRequest, ServeClient, ServedModel, ServerConfig,
    ServerHandle, PROTO_VERSION,
};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const DIM: usize = 16;

/// A small but non-trivial Gaussian-kernel model.
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

fn serve(config: ServerConfig) -> ServerHandle {
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(), &LayoutScheduler::new()));
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

/// Sends one predict through the builder API (deadline 0 = server-default
/// class SLO).
fn predict(
    c: &mut ServeClient,
    model: &str,
    vectors: Vec<SparseVec>,
    deadline_ms: u32,
) -> Response {
    let mut b = PredictRequest::builder(model).vectors(vectors);
    if deadline_ms > 0 {
        b = b.deadline(Duration::from_millis(u64::from(deadline_ms)));
    }
    c.send(&b.build()).expect("predict")
}

fn schedule(
    c: &mut ServeClient,
    strategy: &str,
    rows: u64,
    cols: u64,
    entries: Vec<(u64, u64, f64)>,
) -> Response {
    c.send(&ScheduleRequest::builder(rows, cols).strategy(strategy).entries(entries).build())
        .expect("schedule")
}

/// Polls the predict queue depth via the wire Stats endpoint until it
/// reaches `want` (inline handling keeps this live while workers pause).
fn wait_for_depth(addr: SocketAddr, want: u64) {
    let mut stats = ServeClient::connect(addr).expect("connect stats");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let json = stats.stats().expect("stats");
        let doc = dls_core::json::parse(&json).expect("valid stats json");
        let depth = doc
            .get("queues")
            .and_then(|q| q.as_arr())
            .and_then(|qs| {
                qs.iter().find(|q| q.get("queue").and_then(|n| n.as_str()) == Some("predict:m"))
            })
            .and_then(|q| q.get("depth"))
            .and_then(|d| d.as_u64())
            .expect("queue depth");
        if depth >= want {
            return;
        }
        assert!(Instant::now() < deadline, "queue never reached depth {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn concurrent_singles_coalesce_and_match_per_vector_predict() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();
    let model = test_model();

    // Park the workers, let 8 independent connections each queue one
    // single-vector predict, then release the pool: the drain must fuse
    // them into multi-vector blocks.
    const CLIENTS: usize = 8;
    handle.executor().pause(true);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                (i, predict(&mut c, "m", vec![query(i)], 0))
            })
        })
        .collect();
    wait_for_depth(addr, CLIENTS as u64);
    handle.executor().pause(false);

    for client in clients {
        let (i, resp) = client.join().expect("client thread");
        match resp {
            Response::Predictions(values) => {
                assert_eq!(values.len(), 1);
                // Bit-identical to evaluating that one vector alone.
                let want = model.decision_function(&query(i));
                assert_eq!(
                    values[0].to_bits(),
                    want.to_bits(),
                    "client {i}: {} vs {want}",
                    values[0]
                );
            }
            other => panic!("client {i}: unexpected response {other:?}"),
        }
    }

    // The telemetry must prove the fusion happened: blocks of B >= 2.
    let mut c = ServeClient::connect(addr).expect("connect");
    let hist = parse_block_hist(&c.stats().expect("stats")).expect("block hist");
    let multi: u64 = hist[1..].iter().sum();
    assert!(multi >= 1, "8 queued singles produced no multi-vector block: {hist:?}");

    drop(c);
    handle.shutdown();
}

#[test]
fn full_queue_refuses_with_busy_immediately() {
    let config = ServerConfig {
        executor: dls_serve::ExecutorConfig { queue_capacity: 2, ..Default::default() },
        ..Default::default()
    };
    let handle = serve(config);
    let addr = handle.local_addr();

    handle.executor().pause(true);
    // Two clients fill the queue to capacity and block awaiting replies.
    let blocked: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                predict(&mut c, "m", vec![query(i)], 0)
            })
        })
        .collect();
    wait_for_depth(addr, 2);

    // The third client must get Busy back immediately — not a hang, not a
    // queued wait.
    let mut c = ServeClient::connect(addr).expect("connect");
    let started = Instant::now();
    let resp = predict(&mut c, "m", vec![query(9)], 0);
    assert_eq!(resp, Response::Busy);
    assert!(started.elapsed() < Duration::from_secs(2), "Busy reply was not immediate");

    // Releasing the pool completes the two queued requests normally.
    handle.executor().pause(false);
    for client in blocked {
        assert!(matches!(client.join().expect("join"), Response::Predictions(_)));
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn requests_queued_past_their_deadline_time_out() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();

    handle.executor().pause(true);
    let waiter = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).expect("connect");
        // 10 ms clears the admission projection (gather + one tiny sweep)
        // but lapses while the pool stays parked below.
        predict(&mut c, "m", vec![query(0)], 10)
    });
    wait_for_depth(addr, 1);
    std::thread::sleep(Duration::from_millis(30)); // sail past the 10 ms deadline
    handle.executor().pause(false);
    assert_eq!(waiter.join().expect("join"), Response::TimedOut);

    // The miss is on the interactive class's SLO ledger.
    let mut c = ServeClient::connect(addr).expect("connect");
    let doc = dls_core::json::parse(&c.stats().expect("stats")).expect("valid stats json");
    let interactive = doc.get("classes").and_then(|c| c.get("interactive")).expect("class stats");
    assert_eq!(interactive.get("slo_violations").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(interactive.get("slo_violation_rate").and_then(|v| v.as_f64()), Some(1.0));
    drop(c);
    handle.shutdown();
}

#[test]
fn schedule_and_errors_over_the_wire() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();
    let mut c = ServeClient::connect(addr).expect("connect");

    // A fixed-format strategy is honoured end to end.
    let entries: Vec<(u64, u64, f64)> = (0..8).map(|i| (i % 4, i % 6, 1.0 + i as f64)).collect();
    match schedule(&mut c, "csr", 4, 6, entries.clone()) {
        Response::Scheduled { format, .. } => assert_eq!(format, "CSR"),
        other => panic!("unexpected response {other:?}"),
    }
    // The default scheduler returns a scored decision.
    match schedule(&mut c, "", 4, 6, entries) {
        Response::Scheduled { format, scores, .. } => {
            assert!(!format.is_empty());
            assert!(!scores.is_empty());
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Malformed submissions come back as typed errors, not dropped
    // connections.
    assert!(matches!(schedule(&mut c, "no-such-strategy", 2, 2, vec![]), Response::Error(_)));
    assert!(matches!(schedule(&mut c, "", 2, 2, vec![(5, 0, 1.0)]), Response::Error(_)));
    assert!(matches!(predict(&mut c, "missing-model", vec![query(0)], 0), Response::Error(_)));
    assert!(matches!(predict(&mut c, "m", vec![SparseVec::zeros(DIM + 1)], 0), Response::Error(_)));

    // The same connection still serves good requests afterwards.
    assert!(matches!(predict(&mut c, "m", vec![query(1)], 0), Response::Predictions(_)));
    drop(c);
    handle.shutdown();
}

/// Sends one raw payload as a frame and reads back the decoded reply with
/// its frame id.
fn raw_round_trip(stream: &mut TcpStream, payload: &[u8]) -> (u64, Response) {
    write_frame(stream, payload).expect("send frame");
    let reply = read_frame(stream).expect("read reply").expect("server closed the connection");
    let (_, frame_id, resp) = decode_response_framed(&reply).expect("decode reply");
    (frame_id, resp)
}

/// A v3 predict for `query(seed)` under `frame_id`, answered bit-exactly.
fn assert_v3_predict_serves(stream: &mut TcpStream, seed: usize, frame_id: u64) {
    let req = Request::from(&PredictRequest::builder("m").vector(query(seed)).build());
    let want = test_model().decision_function(&query(seed));
    match raw_round_trip(stream, &encode_request_framed(&req, PROTO_VERSION, frame_id)) {
        (id, Response::Predictions(values)) => {
            assert_eq!(id, frame_id);
            assert_eq!(values.len(), 1);
            assert_eq!(values[0].to_bits(), want.to_bits());
        }
        other => panic!("v3 predict after a rejected frame: {other:?}"),
    }
}

fn protocol_errors(handle: &ServerHandle) -> u64 {
    handle.stats().faults.protocol_errors.load(std::sync::atomic::Ordering::Relaxed)
}

/// A frame of an old protocol version (here a hand-built v2 `Predict`:
/// the v3 layout without the frame id) gets a typed `unsupported protocol
/// version` error on both front ends, and the connection goes on serving
/// v3.
#[test]
fn pre_v3_frames_get_a_typed_error_and_the_connection_keeps_serving() {
    for frontend in [Frontend::Threads, Frontend::Reactor] {
        let handle = serve(ServerConfig { frontend, ..ServerConfig::default() });
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let req = Request::from(&PredictRequest::builder("m").vector(query(2)).build());
        let v3 = encode_request_framed(&req, PROTO_VERSION, 0);
        let v2: Vec<u8> = std::iter::once(2).chain(v3[9..].iter().copied()).collect();
        match raw_round_trip(&mut stream, &v2) {
            (0, Response::Error(msg)) => {
                assert_eq!(msg, "protocol error: unsupported protocol version 2", "{frontend}")
            }
            other => panic!("{frontend}: v2 frame answered {other:?}"),
        }
        assert_eq!(protocol_errors(&handle), 1, "{frontend}");

        assert_v3_predict_serves(&mut stream, 2, 11);
        drop(stream);
        handle.shutdown();
    }
}

/// A NaN in a predict vector is refused at decode on both front ends (a
/// layout choice must not be able to change the answer, and formats
/// disagree on NaN and infinity), and the same connection then serves a
/// valid predict.
#[test]
fn non_finite_predicts_are_protocol_errors_on_both_front_ends() {
    for frontend in [Frontend::Threads, Frontend::Reactor] {
        let handle = serve(ServerConfig { frontend, ..ServerConfig::default() });
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let bad = PredictRequest::builder("m")
            .vector(SparseVec::new(DIM, vec![1, 4], vec![1.0, f64::NAN]))
            .build();
        let payload = encode_request_framed(&Request::from(&bad), PROTO_VERSION, 3);
        match raw_round_trip(&mut stream, &payload) {
            (0, Response::Error(msg)) => {
                assert_eq!(msg, "protocol error: malformed field: non-finite value", "{frontend}")
            }
            other => panic!("{frontend}: NaN predict answered {other:?}"),
        }
        assert_eq!(protocol_errors(&handle), 1, "{frontend}");
        assert_eq!(handle.stats().class(RequestClass::Interactive).completed(), 0, "{frontend}");

        assert_v3_predict_serves(&mut stream, 5, 4);
        drop(stream);
        handle.shutdown();
    }
}

#[test]
fn shutdown_frame_drains_gracefully() {
    let handle = serve(ServerConfig::default());
    let addr = handle.local_addr();

    let mut c = ServeClient::connect(addr).expect("connect");
    assert!(matches!(predict(&mut c, "m", vec![query(3)], 0), Response::Predictions(_)));
    assert_eq!(c.shutdown().expect("shutdown"), Response::ShuttingDown);
    // Requests after the shutdown ack are refused, not dropped.
    assert_eq!(predict(&mut c, "m", vec![query(4)], 0), Response::ShuttingDown);
    drop(c);

    assert!(handle.is_shutting_down());
    handle.shutdown(); // performs the drain; idempotent with join()

    // The acceptor is gone: fresh connections cannot reach the service.
    let gone = ServeClient::connect(addr)
        .and_then(|mut c| c.send(&PredictRequest::builder("m").vector(query(5)).build()));
    assert!(gone.is_err(), "server still serving after drain");
}
