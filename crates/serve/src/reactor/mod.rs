//! The readiness-driven front end: one event-loop thread serving every
//! connection, instead of one thread per connection.
//!
//! A connection here costs bytes, not a thread stack: each is a small
//! state machine (read buffer → incremental frame parse → dispatch →
//! write buffer with backpressure) registered with the [`poll`] epoll
//! wrapper. Every frame carries a `frame_id`, so one connection can
//! pipeline many requests and take responses in whatever order the
//! executor finishes them.
//!
//! The event loop never blocks on the executor. `Predict`/`Schedule`
//! submissions return an mpsc receiver; the executor's completion hook
//! pings a [`poll::WakeFd`] when a batch finishes, and the loop sweeps
//! the in-flight receivers with `try_recv` — replies are written the
//! moment they exist, without polling.
//!
//! The hardening contract matches the threads front end byte for byte:
//! reads and writes run through the same [`FaultStream`] injection sites,
//! oversized length prefixes get a typed refusal before any allocation,
//! mid-frame stalls are closed after `read_timeout`, idle connections are
//! reaped at frame boundaries after `idle_timeout`, stalled writes are
//! closed after `write_timeout`, and every outcome lands in the same
//! `faults` counters — so `repro_chaos` asserts one contract across both
//! front ends.

pub mod poll;

use crate::executor::Executor;
use crate::fault::{FaultSite, FaultStream};
use crate::proto::{
    decode_request_framed, encode_response_framed, ProtoError, Response, MAX_FRAME_LEN,
    PROTO_VERSION,
};
use crate::server::{classify_read_error, dispatch_async, ConnLimits, Dispatched};
use crate::stats::{FaultCounters, ServeStats};
use poll::{Poll, WakeFd, EPOLLIN, EPOLLOUT};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const TOK_FIRST_CONN: u64 = 2;

/// Stop reading a connection whose peer is not draining its responses
/// once this many unsent bytes pile up; resume below half.
const WRITE_BACKPRESSURE: usize = 4 << 20;

/// One request submitted to the executor whose reply has not been
/// written back yet.
struct InFlight {
    frame_id: u64,
    rx: Receiver<Response>,
}

/// Per-connection state machine.
struct Conn {
    fd: i32,
    reader: FaultStream<TcpStream>,
    writer: FaultStream<TcpStream>,
    /// Inbound bytes not yet parsed into frames.
    read_buf: Vec<u8>,
    /// Outbound bytes the kernel has not accepted yet.
    write_buf: Vec<u8>,
    write_pos: usize,
    in_flight: Vec<InFlight>,
    /// When the (incomplete) frame at the head of `read_buf` started —
    /// the mid-frame stall clock.
    partial_since: Option<Instant>,
    /// When the current write stall started.
    write_stalled_since: Option<Instant>,
    /// Last time a frame byte arrived — the idle clock.
    last_activity: Instant,
    /// No more reads; close once responses are written.
    closing: bool,
    /// Torn down at the end of the iteration.
    dead: bool,
    /// Interest set currently registered with the poller.
    interest: u32,
}

impl Conn {
    fn write_pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn queue_response(&mut self, frame_id: u64, resp: &Response) {
        let payload = encode_response_framed(resp, PROTO_VERSION, frame_id);
        self.write_buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(&payload);
    }
}

struct Reactor {
    poll: Poll,
    wake: Arc<WakeFd>,
    executor: Arc<Executor>,
    stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicU64>,
    limits: ConnLimits,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

/// Runs the event loop until shutdown. Called on its own thread by
/// `server::start` when the `reactor` front end is selected; returns
/// after the post-shutdown drain.
pub(crate) fn serve_reactor(
    listener: TcpListener,
    executor: Arc<Executor>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicU64>,
    limits: ConnLimits,
) -> std::io::Result<()> {
    let poll = Poll::new()?;
    let wake = Arc::new(WakeFd::new()?);
    poll.add(listener.as_raw_fd(), TOK_LISTENER, EPOLLIN)?;
    poll.add(wake.fd(), TOK_WAKE, EPOLLIN)?;
    {
        // Completed batches wake the loop immediately; the Arc keeps the
        // eventfd alive past the loop so a late hook call cannot hit a
        // recycled fd.
        let wake = Arc::clone(&wake);
        executor.set_completion_hook(Box::new(move || wake.wake()));
    }
    let stats = Arc::clone(executor.stats());
    let mut r = Reactor {
        poll,
        wake,
        executor,
        stats,
        shutdown,
        active,
        limits,
        conns: HashMap::new(),
        next_token: TOK_FIRST_CONN,
    };
    let result = r.run(&listener);
    // Tear down whatever is still registered so gauges and the server's
    // active-connection count return to zero.
    let leftover = r.conns.len() as u64;
    for conn in r.conns.values() {
        let _ = r.poll.remove(conn.fd);
        r.stats
            .reactor
            .pipelined_in_flight
            .fetch_sub(conn.in_flight.len() as u64, Ordering::Relaxed);
    }
    r.conns.clear();
    r.active.fetch_sub(leftover, Ordering::SeqCst);
    r.stats.reactor.open_connections.fetch_sub(leftover, Ordering::Relaxed);
    result
}

impl Reactor {
    fn run(&mut self, listener: &TcpListener) -> std::io::Result<()> {
        let tick = self.limits.tick();
        let mut events = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            self.poll.wait(&mut events, Some(tick))?;
            FaultCounters::bump(&self.stats.reactor.wakeups);
            let draining = drain_deadline.is_some();
            for ev in &events {
                match ev.token {
                    TOK_WAKE => self.wake.drain(),
                    TOK_LISTENER => {
                        if !draining {
                            self.accept_all(listener);
                        }
                    }
                    token => {
                        let Some(conn) = self.conns.get_mut(&token) else { continue };
                        if conn.dead {
                            continue;
                        }
                        if ev.readable || ev.hangup {
                            on_readable(conn, &self.executor, &self.stats, &self.shutdown);
                        }
                    }
                }
            }
            self.sweep_completions();
            self.sweep_timeouts();
            self.flush_all();
            self.reap_dead();

            if self.shutdown.load(Ordering::SeqCst) {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(5));
                // Drain: in-flight replies are still written, new frames
                // already answer `ShuttingDown`; leave once every
                // response is out or the drain window closes.
                let busy =
                    self.conns.values().any(|c| !c.in_flight.is_empty() || c.write_pending() > 0);
                if !busy || Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.register(stream).is_err() {
                        continue; // the socket is dropped; the peer sees a reset
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> std::io::Result<()> {
        stream.set_nodelay(true).ok();
        // O_NONBLOCK lives on the file description, so the dup below
        // shares it.
        stream.set_nonblocking(true)?;
        let fault = self.executor.fault().clone();
        let reader = FaultStream::new(stream.try_clone()?, fault.clone(), FaultSite::ConnRead);
        let fd = stream.as_raw_fd();
        let writer = FaultStream::new(stream, fault, FaultSite::ConnWrite);
        let token = self.next_token;
        self.next_token += 1;
        let interest = EPOLLIN;
        self.poll.add(fd, token, interest)?;
        self.conns.insert(
            token,
            Conn {
                fd,
                reader,
                writer,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                in_flight: Vec::new(),
                partial_since: None,
                write_stalled_since: None,
                last_activity: Instant::now(),
                closing: false,
                dead: false,
                interest,
            },
        );
        self.active.fetch_add(1, Ordering::SeqCst);
        self.stats.reactor.open_connections.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Collects finished executor replies and writes them back, in
    /// completion order — this is where out-of-order pipelining happens.
    fn sweep_completions(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.dead || conn.in_flight.is_empty() {
                continue;
            }
            let mut done = 0u64;
            let mut i = 0;
            while i < conn.in_flight.len() {
                match conn.in_flight[i].rx.try_recv() {
                    Ok(resp) => {
                        let f = conn.in_flight.remove(i);
                        conn.queue_response(f.frame_id, &resp);
                        done += 1;
                    }
                    Err(TryRecvError::Empty) => i += 1,
                    Err(TryRecvError::Disconnected) => {
                        // The executor always answers accepted jobs, so a
                        // dropped sender means a worker died mid-job.
                        let f = conn.in_flight.remove(i);
                        let resp = Response::Error("worker dropped the request".to_string());
                        conn.queue_response(f.frame_id, &resp);
                        done += 1;
                    }
                }
            }
            if done > 0 {
                self.stats.reactor.pipelined_in_flight.fetch_sub(done, Ordering::Relaxed);
            }
        }
    }

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for conn in self.conns.values_mut() {
            if conn.dead {
                continue;
            }
            if let Some(t0) = conn.partial_since {
                if now.duration_since(t0) >= self.limits.read_timeout {
                    FaultCounters::bump(&self.stats.faults.conn_read_timeouts);
                    conn.dead = true;
                    continue;
                }
            }
            if let Some(t0) = conn.write_stalled_since {
                if now.duration_since(t0) >= self.limits.write_timeout {
                    FaultCounters::bump(&self.stats.faults.conn_write_timeouts);
                    conn.dead = true;
                    continue;
                }
            }
            let idle = !conn.closing
                && conn.read_buf.is_empty()
                && conn.in_flight.is_empty()
                && conn.write_pending() == 0;
            if idle && now.duration_since(conn.last_activity) >= self.limits.idle_timeout {
                FaultCounters::bump(&self.stats.faults.conn_idle_reaped);
                conn.dead = true;
            }
        }
    }

    fn flush_all(&mut self) {
        for (&token, conn) in self.conns.iter_mut() {
            if conn.dead {
                continue;
            }
            flush(conn, &self.stats);
            if conn.dead {
                continue;
            }
            if conn.closing && conn.in_flight.is_empty() && conn.write_pending() == 0 {
                conn.dead = true;
                continue;
            }
            // Re-arm interest: reads unless closing or backpressured,
            // writes only while bytes are stuck in the buffer.
            let mut want = 0;
            if !conn.closing
                && conn.write_pending() < WRITE_BACKPRESSURE
                && conn.read_buf.len() <= MAX_FRAME_LEN + 4
            {
                want |= EPOLLIN;
            }
            if conn.write_pending() > 0 {
                want |= EPOLLOUT;
            }
            if want != conn.interest {
                let _ = self.poll.modify(conn.fd, token, want);
                conn.interest = want;
            }
        }
    }

    fn reap_dead(&mut self) {
        let poll = &self.poll;
        let active = &self.active;
        let stats = &self.stats;
        self.conns.retain(|_, conn| {
            if !conn.dead {
                return true;
            }
            let _ = poll.remove(conn.fd);
            active.fetch_sub(1, Ordering::SeqCst);
            stats.reactor.open_connections.fetch_sub(1, Ordering::Relaxed);
            stats
                .reactor
                .pipelined_in_flight
                .fetch_sub(conn.in_flight.len() as u64, Ordering::Relaxed);
            false
        });
    }
}

/// Reads everything the socket has, then parses and dispatches frames.
fn on_readable(
    conn: &mut Conn,
    executor: &Arc<Executor>,
    stats: &ServeStats,
    shutdown: &AtomicBool,
) {
    if conn.closing {
        return;
    }
    let mut saw_eof = false;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.reader.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                // A backpressured or flooded connection stops reading
                // even if more bytes are waiting; level-triggered epoll
                // re-delivers them.
                if conn.read_buf.len() > MAX_FRAME_LEN + 4 {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => {
                classify_read_error(e, stats);
                conn.dead = true;
                return;
            }
        }
    }
    parse_frames(conn, executor, stats, shutdown);
    if saw_eof && !conn.dead {
        if conn.read_buf.is_empty() {
            if conn.in_flight.is_empty() && conn.write_pending() == 0 {
                conn.dead = true; // clean EOF at a frame boundary
            } else {
                conn.closing = true; // EOF with replies still owed: finish writing first
            }
        } else {
            // Bytes that can never become a frame: the peer died mid-frame.
            FaultCounters::bump(&stats.faults.conn_resets);
            conn.dead = true;
        }
    }
}

/// Extracts complete frames from the read buffer and dispatches them.
fn parse_frames(
    conn: &mut Conn,
    executor: &Arc<Executor>,
    stats: &ServeStats,
    shutdown: &AtomicBool,
) {
    let mut progressed = false;
    while !conn.closing && !conn.dead {
        if conn.read_buf.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(conn.read_buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            // Same typed refusal as the threads front end, written before
            // the close — and checked before any allocation is sized.
            FaultCounters::bump(&stats.faults.frames_too_large);
            let msg = format!("protocol error: {}", ProtoError::FrameTooLarge(len));
            conn.queue_response(0, &Response::Error(msg));
            conn.closing = true;
            break;
        }
        if conn.read_buf.len() < 4 + len {
            break;
        }
        let payload: Vec<u8> = conn.read_buf[4..4 + len].to_vec();
        conn.read_buf.drain(..4 + len);
        progressed = true;
        handle_frame(conn, &payload, executor, stats, shutdown);
    }
    // The stall clock runs only while an incomplete frame heads the
    // buffer: every complete frame has been dispatched by now.
    conn.partial_since = if !conn.read_buf.is_empty() && !conn.closing {
        if progressed {
            Some(Instant::now())
        } else {
            conn.partial_since.or_else(|| Some(Instant::now()))
        }
    } else {
        None
    };
}

/// Decodes and dispatches one frame, queueing the response (or parking a
/// receiver in `in_flight`).
fn handle_frame(
    conn: &mut Conn,
    payload: &[u8],
    executor: &Arc<Executor>,
    stats: &ServeStats,
    shutdown: &AtomicBool,
) {
    match decode_request_framed(payload) {
        Err(e) => {
            FaultCounters::bump(&stats.faults.protocol_errors);
            let resp = Response::Error(format!("protocol error: {e}"));
            conn.queue_response(0, &resp);
        }
        Ok((_, frame_id, _)) if shutdown.load(Ordering::SeqCst) => {
            conn.queue_response(frame_id, &Response::ShuttingDown);
        }
        Ok((_, frame_id, request)) => match dispatch_async(request, executor, shutdown) {
            Dispatched::Ready(resp) => conn.queue_response(frame_id, &resp),
            Dispatched::Pending(rx) => {
                conn.in_flight.push(InFlight { frame_id, rx });
                stats.reactor.pipelined_in_flight.fetch_add(1, Ordering::Relaxed);
            }
        },
    }
}

/// Pushes buffered response bytes into the socket until it would block.
fn flush(conn: &mut Conn, stats: &ServeStats) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.writer.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                FaultCounters::bump(&stats.faults.conn_resets);
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.write_pos += n;
                conn.write_stalled_since = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if conn.write_stalled_since.is_none() {
                    conn.write_stalled_since = Some(Instant::now());
                }
                break;
            }
            Err(e) => {
                match e.kind() {
                    std::io::ErrorKind::TimedOut => {
                        FaultCounters::bump(&stats.faults.conn_write_timeouts);
                    }
                    _ => FaultCounters::bump(&stats.faults.conn_resets),
                }
                conn.dead = true;
                return;
            }
        }
    }
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
        conn.write_stalled_since = None;
    } else if conn.write_pos > WRITE_BACKPRESSURE / 2 {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
}
