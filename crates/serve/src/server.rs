//! The TCP front ends: acceptor, connection handling, graceful drain.
//!
//! Two selectable front ends share this module's dispatch and hardening
//! logic ([`ServerConfig::frontend`]):
//!
//! * **`threads`** — one thread accepts connections (non-blocking, so it
//!   can observe the shutdown flag); each connection gets a handler
//!   thread that reads frames, dispatches to the [`Executor`], and
//!   writes the reply. A handler serves strictly in order, one request
//!   at a time — concurrency comes from concurrent connections.
//! * **`reactor`** — a single event-loop thread drives every connection
//!   through epoll readiness (see [`crate::reactor`]); clients can
//!   pipeline many requests per connection and receive
//!   responses out of order by `frame_id`.
//!
//! Shutdown (a `Shutdown` frame, or [`ServerHandle::shutdown`], which the
//! CLI wires to its exit path as the stand-in for SIGTERM/ctrl-c in this
//! libc-free workspace) flips one flag: the acceptor refuses new
//! connections, queued work drains, in-flight connections answer
//! `ShuttingDown` to further requests, and `ServerHandle::join` returns
//! once the workers are parked.
//!
//! **Hardening.** Sockets run with a short tick timeout so every handler
//! distinguishes two very different silences: *idle at a frame boundary*
//! (a healthy keep-alive — tolerated up to [`ServerConfig::idle_timeout`],
//! then reaped) and *stalled mid-frame* (a dribbling or wedged peer —
//! tolerated up to [`ServerConfig::read_timeout`], then the connection is
//! closed, because a half-read frame leaves the stream unframeable).
//! Oversized length prefixes are refused before allocation with a typed
//! error, writes carry their own timeout, and every outcome lands in the
//! `faults` counters of the stats JSON.

use crate::executor::{parse_strategy, Executor, ExecutorConfig};
use crate::fault::{FaultSite, FaultStream};
use crate::proto::{
    decode_request_framed, encode_response_framed, entries_to_triplets, proto_error_of,
    write_frame, ProtoError, Request, Response, MAX_FRAME_LEN, PROTO_VERSION,
};
use crate::registry::ModelRegistry;
use crate::stats::{FaultCounters, ServeStats};
use dls_core::LayoutScheduler;
use std::io::{BufReader, BufWriter, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which I/O front end serves connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// Thread-per-connection: simple, serial per connection, one stack
    /// per open socket.
    Threads,
    /// Readiness-driven event loop: one thread for all connections,
    /// pipelined frames answered out of order.
    Reactor,
}

impl std::str::FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Frontend::Threads),
            "reactor" => Ok(Frontend::Reactor),
            other => Err(format!("unknown frontend '{other}' (expected threads|reactor)")),
        }
    }
}

impl std::fmt::Display for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Frontend::Threads => "threads",
            Frontend::Reactor => "reactor",
        })
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Executor tuning.
    pub executor: ExecutorConfig,
    /// How long a frame may stall *mid-read* before the connection is
    /// closed (the stream cannot be re-synchronised past a half-frame).
    pub read_timeout: Duration,
    /// How long a response write may take before the connection is closed.
    pub write_timeout: Duration,
    /// How long a connection may sit idle *between* frames before it is
    /// reaped. Reaping at the boundary is safe: no state is in flight.
    pub idle_timeout: Duration,
    /// Which I/O front end to run.
    pub frontend: Frontend,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            executor: ExecutorConfig::default(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            frontend: Frontend::Threads,
        }
    }
}

/// A running server instance.
pub struct ServerHandle {
    executor: Arc<Executor>,
    shutdown: Arc<AtomicBool>,
    local_addr: std::net::SocketAddr,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
    active_connections: Arc<AtomicU64>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The executor, for stats and drain control.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Live service stats.
    pub fn stats(&self) -> &Arc<ServeStats> {
        self.executor.stats()
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain and blocks until the acceptor and worker
    /// pool have exited. Idempotent; also triggered by a `Shutdown` frame.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.lock().expect("handle poisoned").take() {
            let _ = acceptor.join();
        }
        // Give in-flight connection handlers a bounded window to finish
        // writing their final responses before the queues close under them.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.executor.shutdown();
    }

    /// [`ServerHandle::shutdown`], waiting for a `Shutdown` frame to have
    /// requested it first — what `dls serve` blocks on.
    pub fn join(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown();
    }
}

/// Starts a server: binds, spawns the executor's worker pool and the
/// acceptor thread, returns immediately.
pub fn start(
    registry: ModelRegistry,
    scheduler: LayoutScheduler,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let registry = Arc::new(registry);
    let stats = Arc::new(ServeStats::new());
    let executor = Executor::start(registry, Arc::new(scheduler), stats, config.executor.clone());
    let shutdown = Arc::new(AtomicBool::new(false));
    let active_connections = Arc::new(AtomicU64::new(0));

    let limits = ConnLimits {
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        idle_timeout: config.idle_timeout,
    };
    if config.frontend == Frontend::Reactor {
        let acceptor = {
            let executor = Arc::clone(&executor);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active_connections);
            std::thread::Builder::new()
                .name("dls-serve-reactor".to_string())
                .spawn(move || {
                    let _ =
                        crate::reactor::serve_reactor(listener, executor, shutdown, active, limits);
                })
                .expect("spawn reactor")
        };
        return Ok(ServerHandle {
            executor,
            shutdown,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
            active_connections,
        });
    }

    let acceptor = {
        let executor = Arc::clone(&executor);
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active_connections);
        std::thread::Builder::new()
            .name("dls-serve-acceptor".to_string())
            .spawn(move || loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let executor = Arc::clone(&executor);
                        let shutdown = Arc::clone(&shutdown);
                        let active = Arc::clone(&active);
                        let limits = limits.clone();
                        active.fetch_add(1, Ordering::SeqCst);
                        let _ = std::thread::Builder::new()
                            .name("dls-serve-conn".to_string())
                            .spawn(move || {
                                let _ = handle_connection(stream, &executor, &shutdown, &limits);
                                active.fetch_sub(1, Ordering::SeqCst);
                            });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        executor,
        shutdown,
        local_addr,
        acceptor: Mutex::new(Some(acceptor)),
        active_connections,
    })
}

/// Per-connection time budgets, shared by both front ends.
#[derive(Debug, Clone)]
pub(crate) struct ConnLimits {
    pub(crate) read_timeout: Duration,
    pub(crate) write_timeout: Duration,
    pub(crate) idle_timeout: Duration,
}

impl ConnLimits {
    /// The socket tick: short enough to observe the tightest budget a few
    /// times over.
    pub(crate) fn tick(&self) -> Duration {
        Duration::from_millis(50)
            .min(self.read_timeout / 4)
            .min(self.idle_timeout / 4)
            .max(Duration::from_millis(1))
    }
}

/// Why [`read_frame_timed`] stopped without a frame.
enum FrameEnd {
    /// Clean EOF at a frame boundary.
    Eof,
    /// The connection sat idle at a frame boundary past the idle budget.
    IdleReaped,
}

/// Reads whole bytes into `buf[*filled..]`, tolerating the socket tick:
/// returns `Ok(true)` when full, `Ok(false)` on a clean EOF with nothing
/// read, and `Err(TimedOut)` when `budget` elapses without completion
/// (measured from `started`, not from the last byte — a dribbling peer
/// cannot hold a handler hostage one byte per tick).
fn read_exact_timed(
    r: &mut impl Read,
    buf: &mut [u8],
    filled: &mut usize,
    started: Instant,
    budget: Duration,
) -> std::io::Result<bool> {
    while *filled < buf.len() {
        match r.read(&mut buf[*filled..]) {
            Ok(0) => {
                if *filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => *filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.elapsed() >= budget {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "frame stalled past the read timeout",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame under the connection's time budgets, counting every
/// failure mode in the stats `faults` section. `Err(Frame(_))` carries a
/// whole frame; the other arms are documented on [`FrameEnd`].
fn read_frame_timed(
    r: &mut impl Read,
    limits: &ConnLimits,
    stats: &ServeStats,
) -> std::io::Result<Result<Vec<u8>, FrameEnd>> {
    // Phase 1: the length prefix. Waiting for its *first* byte is healthy
    // idling (bounded by idle_timeout); once any byte arrives the frame
    // has started and the tighter read_timeout applies.
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    let idle_started = Instant::now();
    match read_exact_timed(r, &mut len_bytes, &mut got, idle_started, limits.idle_timeout) {
        Ok(true) => {}
        Ok(false) => return Ok(Err(FrameEnd::Eof)),
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
            if got == 0 {
                FaultCounters::bump(&stats.faults.conn_idle_reaped);
                return Ok(Err(FrameEnd::IdleReaped));
            }
            FaultCounters::bump(&stats.faults.conn_read_timeouts);
            return Err(e);
        }
        Err(e) => return Err(classify_read_error(e, stats)),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        FaultCounters::bump(&stats.faults.frames_too_large);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::FrameTooLarge(len),
        ));
    }
    // Phase 2: the payload, under the mid-frame stall budget.
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    let frame_started = Instant::now();
    match read_exact_timed(r, &mut payload, &mut filled, frame_started, limits.read_timeout) {
        Ok(_) if filled == len => Ok(Ok(payload)),
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        )),
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
            FaultCounters::bump(&stats.faults.conn_read_timeouts);
            Err(e)
        }
        Err(e) => Err(classify_read_error(e, stats)),
    }
}

/// Counts peer-initiated connection failures before passing them on.
pub(crate) fn classify_read_error(e: std::io::Error, stats: &ServeStats) -> std::io::Error {
    match e.kind() {
        std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::UnexpectedEof => {
            FaultCounters::bump(&stats.faults.conn_resets);
        }
        _ => {}
    }
    e
}

/// Serves one connection until EOF, an I/O error, a timeout, or reaping.
fn handle_connection(
    stream: TcpStream,
    executor: &Executor,
    shutdown: &AtomicBool,
    limits: &ConnLimits,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(limits.tick())).ok();
    stream.set_write_timeout(Some(limits.write_timeout)).ok();
    let fault = executor.fault().clone();
    let stats = Arc::clone(executor.stats());
    let mut reader =
        BufReader::new(FaultStream::new(stream.try_clone()?, fault.clone(), FaultSite::ConnRead));
    let mut writer = BufWriter::new(FaultStream::new(stream, fault, FaultSite::ConnWrite));
    loop {
        let payload = match read_frame_timed(&mut reader, limits, &stats) {
            Ok(Ok(payload)) => payload,
            Ok(Err(_)) => return Ok(()), // clean EOF or idle-reaped
            Err(e) => {
                // A lying length prefix gets a typed refusal before the
                // connection closes; after a half-read frame the stream
                // cannot be re-synchronised, so everything else just
                // closes.
                if proto_error_of(&e).is_some() {
                    let resp = Response::Error(format!("protocol error: {e}"));
                    let _ =
                        write_frame(&mut writer, &encode_response_framed(&resp, PROTO_VERSION, 0));
                }
                return Err(e);
            }
        };
        // Echo the request's frame id. This front end answers strictly in
        // order, which is a valid — if serial — pipelining schedule.
        let (frame_id, response) = match decode_request_framed(&payload) {
            Err(e) => {
                FaultCounters::bump(&stats.faults.protocol_errors);
                (0, Response::Error(format!("protocol error: {e}")))
            }
            Ok((_, frame_id, _)) if shutdown.load(Ordering::SeqCst) => {
                (frame_id, Response::ShuttingDown)
            }
            Ok((_, frame_id, request)) => (frame_id, dispatch(request, executor, shutdown)),
        };
        if let Err(e) =
            write_frame(&mut writer, &encode_response_framed(&response, PROTO_VERSION, frame_id))
        {
            match e.kind() {
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                    FaultCounters::bump(&stats.faults.conn_write_timeouts);
                }
                _ => FaultCounters::bump(&stats.faults.conn_resets),
            }
            return Err(e);
        }
    }
}

/// The outcome of submitting a request: answered inline, or parked on the
/// executor with a receiver for the eventual reply. The threads front end
/// awaits `Pending` immediately; the reactor parks it and keeps serving.
pub(crate) enum Dispatched {
    Ready(Response),
    Pending(std::sync::mpsc::Receiver<Response>),
}

/// Routes one request without blocking on the executor.
pub(crate) fn dispatch_async(
    request: Request,
    executor: &Executor,
    shutdown: &AtomicBool,
) -> Dispatched {
    match request {
        Request::Predict { model, deadline_ms, class, slo_us, vectors } => {
            match executor.submit_predict(&model, vectors, class, slo_us, deadline_ms) {
                Ok(rx) => Dispatched::Pending(rx),
                Err(refusal) => Dispatched::Ready(refusal),
            }
        }
        Request::Schedule { strategy, rows, cols, entries } => {
            let strategy = match parse_strategy(&strategy) {
                Ok(s) => s,
                Err(msg) => {
                    executor.stats().schedule.record_error();
                    return Dispatched::Ready(Response::Error(msg));
                }
            };
            let triplets = match entries_to_triplets(rows, cols, &entries) {
                Ok(t) => t,
                Err(e) => {
                    executor.stats().schedule.record_error();
                    return Dispatched::Ready(Response::Error(format!("bad matrix: {e}")));
                }
            };
            match executor.submit_schedule(triplets, strategy, 0) {
                Ok(rx) => Dispatched::Pending(rx),
                Err(refusal) => Dispatched::Ready(refusal),
            }
        }
        Request::Stats => {
            let start = Instant::now();
            if let Some(hub) = executor.feedback() {
                hub.sync_stats(executor.stats());
            }
            let json =
                executor.stats().snapshot_json(executor.registry(), &executor.queue_depths());
            executor.stats().stats.record_ok(start.elapsed());
            Dispatched::Ready(Response::Stats(json))
        }
        Request::Health => Dispatched::Ready(Response::Health(executor.health_json())),
        Request::Shutdown => {
            // Ack first; ServerHandle::join (or the smoke harness) observes
            // the flag and performs the drain.
            shutdown.store(true, Ordering::SeqCst);
            Dispatched::Ready(Response::ShuttingDown)
        }
    }
}

fn dispatch(request: Request, executor: &Executor, shutdown: &AtomicBool) -> Response {
    match dispatch_async(request, executor, shutdown) {
        Dispatched::Ready(resp) => resp,
        Dispatched::Pending(rx) => await_reply(rx),
    }
}

/// Waits for the worker's reply. The executor always answers accepted
/// jobs (drain included), so a missing reply means a worker died — answer
/// a clean error rather than wedging the connection.
fn await_reply(rx: std::sync::mpsc::Receiver<Response>) -> Response {
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(resp) => resp,
        Err(_) => Response::Error("worker dropped the request".to_string()),
    }
}
