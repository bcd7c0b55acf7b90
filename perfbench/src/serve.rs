//! The serving workload: quick-trained models behind `dls_serve::start`
//! with the reactor front end, driven by an open-loop stream of pipelined
//! protocol-v3 frames on one connection (one sender thread, one receiver
//! thread) at a fixed offered rate.

use crate::inputs::{self, derive, Rng};
use crate::metrics::Metrics;
use crate::speed;
use crate::stats::{median, percentile, sorted, Outcome, Tally};
use crate::trace::{self, ReqId, Span, Tracer};
use crate::train::{self, Check, Regime, BATCH, SLO};
use crate::{Failure, Run};
use dls_core::json::{self, JsonValue};
use dls_core::LayoutScheduler;
use dls_serve::proto::{entries_to_triplets, read_frame, write_frame};
use dls_serve::{
    decode_response_framed, encode_request_framed, Executor, ExecutorConfig, Frontend,
    ModelRegistry, Request, RequestClass, Response, ServeStats, ServedModel, ServerConfig,
    ServerHandle, PROTO_VERSION,
};
use dls_sparse::{AnyMatrix, Format, MatrixFeatures, SmsvSnapshot, SparseVec, TripletMatrix};
use dls_svm::{PredictWorkspace, SvmModel};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
const RATE: f64 = 4_000.0;
/// Shares of the stream; the rest are `Schedule` requests.
const INTERACTIVE_SHARE: f64 = 0.94;
const BATCH_SHARE: f64 = 0.05;
/// Distinct query vectors per hosted model.
const POOL: usize = 256;
/// Distinct 32-vector batches per hosted model.
const BATCH_POOL: usize = 64;
/// Twins the `Schedule` slices are cut from, and the slices cut from each.
const SLICE_TWINS: [&str; 6] = ["adult", "aloi", "mnist", "trefethen", "sector", "connect-4"];
const SLICES_PER_TWIN: usize = 3;
const SLICES: usize = SLICE_TWINS.len() * SLICES_PER_TWIN;
/// Rows per slice.
const SLICE_ROWS: usize = 24;
/// Server start-ups per run; `setup_s` is their median.
const STARTS: usize = 41;
/// How long the quick training is timed, once before the load and once
/// after it, so the figure samples the host's speed at two times; passes
/// cycle through the instances in whole rounds. `train_s` is the mean over
/// instances of the per-dataset median pass.
const TRAIN_PHASE: Duration = Duration::from_secs(8);
/// Latency tails are taken per window of the plan, the shortest that still
/// leaves ten samples beyond the tail; the best window is reported.
const INTERACTIVE_WINDOW_S: f64 = 0.5;
const BATCH_WINDOW_S: f64 = 2.0;
/// A run whose generator sends its median request later than this after
/// its due time did not offer the planned load, and is invalid. A host
/// stall delays the requests queued behind it, which the latencies already
/// charge, but leaves the median on time.
const GEN_LAG_MS: f64 = 1.0;
/// How long replies may trail the last request before they count as lost.
const DRAIN: Duration = Duration::from_secs(5);
/// Byte offset of the frame id in an encoded v3 frame: after the u32
/// length prefix and the version byte.
const FRAME_ID_AT: usize = 5;

/// What one request asks for.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Interactive { model: usize, q: usize },
    Batch { model: usize, b: usize },
    Schedule { s: usize },
}

/// One hosted model's query pool and oracle answers.
struct Hosted {
    name: &'static str,
    model: SvmModel,
    queries: Vec<SparseVec>,
    /// `decision_function` bit patterns, one per query.
    expect: Vec<u64>,
    /// Query indices of each batch.
    batches: Vec<Vec<usize>>,
    interactive_frames: Vec<Vec<u8>>,
    batch_frames: Vec<Vec<u8>>,
}

/// One `Schedule` slice with the format a direct `select_only` picks.
struct Slice {
    triplets: TripletMatrix,
    expect: Format,
    frame: Vec<u8>,
}

/// Everything the load needs, built before the clock starts.
struct Inputs {
    hosted: Vec<Hosted>,
    slices: Vec<Slice>,
    /// Due offset and kind of every request, in send order.
    plan: Vec<(Duration, Kind)>,
}

fn encode(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request_framed(req, PROTO_VERSION, 0))
        .expect("writing to a Vec cannot fail");
    frame
}

/// A `Predict` with no wire deadline or SLO, so the server applies its
/// default for the class. A 10 ms wire SLO would let the server refuse
/// (`Busy`) or drop (`TimedOut`) the requests a host stall delays, a
/// handful per run that changes from run to run; the 10 ms limit is
/// judged at the client instead, in `interactive_slo_share`.
fn predict(model: &str, class: RequestClass, vectors: Vec<SparseVec>) -> Request {
    Request::Predict { model: model.to_string(), deadline_ms: 0, class, slo_us: 0, vectors }
}

fn host(name: &'static str, model: SvmModel, spec: &dls_data::DatasetSpec, seed: u64) -> Hosted {
    let queries = inputs::queries(spec, seed, POOL);
    let expect: Vec<u64> = queries.iter().map(|q| model.decision_function(q).to_bits()).collect();
    let mut rng = Rng::new(seed);
    let batches: Vec<Vec<usize>> =
        (0..BATCH_POOL).map(|_| (0..BATCH).map(|_| rng.below(POOL)).collect()).collect();
    let interactive_frames = queries
        .iter()
        .map(|q| encode(&predict(name, RequestClass::Interactive, vec![q.clone()])))
        .collect();
    let batch_frames = batches
        .iter()
        .map(|b| {
            let vs = b.iter().map(|&i| queries[i].clone()).collect();
            encode(&predict(name, RequestClass::Batch, vs))
        })
        .collect();
    Hosted { name, model, queries, expect, batches, interactive_frames, batch_frames }
}

fn slices(seed: u64) -> Result<Vec<Slice>, String> {
    let twins: Vec<TripletMatrix> =
        SLICE_TWINS.iter().map(|n| inputs::twin(&inputs::spec(n, 1), seed).0.compact()).collect();
    let mut rng = Rng::new(seed);
    let scheduler = LayoutScheduler::new();
    (0..SLICES)
        .map(|k| {
            let t = &twins[k / SLICES_PER_TWIN];
            let first = rng.below(t.rows() - SLICE_ROWS);
            let entries: Vec<(u64, u64, f64)> = t
                .entries()
                .iter()
                .filter(|&&(r, _, _)| (first..first + SLICE_ROWS).contains(&r))
                .map(|&(r, c, v)| ((r - first) as u64, c as u64, v))
                .collect();
            let (rows, cols) = (SLICE_ROWS as u64, t.cols() as u64);
            let triplets = entries_to_triplets(rows, cols, &entries).map_err(|e| e.to_string())?;
            let expect = scheduler.select_only(&triplets).chosen;
            let frame = encode(&Request::Schedule { strategy: String::new(), rows, cols, entries });
            Ok(Slice { triplets, expect, frame })
        })
        .collect()
}

fn plan(seed: u64, seconds: Duration, hosted: &[Hosted]) -> Vec<(Duration, Kind)> {
    let mut rng = Rng::new(seed);
    let n = (RATE * seconds.as_secs_f64()).ceil() as usize;
    // Slices take turns, so every run mixes the twins' slices in the same
    // proportions and the median does not hop between their costs.
    let mut next_slice = 0;
    (0..n)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / RATE);
            let u = rng.next_f64();
            let model = rng.below(hosted.len());
            let kind = if u < INTERACTIVE_SHARE {
                Kind::Interactive { model, q: rng.below(POOL) }
            } else if u < INTERACTIVE_SHARE + BATCH_SHARE {
                Kind::Batch { model, b: rng.below(BATCH_POOL) }
            } else {
                next_slice += 1;
                Kind::Schedule { s: next_slice % SLICES }
            };
            (due, kind)
        })
        .collect()
}

impl Inputs {
    fn frame(&self, kind: Kind) -> &[u8] {
        match kind {
            Kind::Interactive { model, q } => &self.hosted[model].interactive_frames[q],
            Kind::Batch { model, b } => &self.hosted[model].batch_frames[b],
            Kind::Schedule { s } => &self.slices[s].frame,
        }
    }

    /// Checks a reply against the sequential oracle.
    fn judge(&self, kind: Kind, resp: &Response) -> Outcome {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let same = match (kind, resp) {
            (_, Response::Busy) => return Outcome::Busy,
            (_, Response::TimedOut) => return Outcome::TimedOut,
            (Kind::Interactive { model, q }, Response::Predictions(v)) => {
                bits(v) == [self.hosted[model].expect[q]]
            }
            (Kind::Batch { model, b }, Response::Predictions(v)) => {
                let h = &self.hosted[model];
                bits(v).into_iter().eq(h.batches[b].iter().map(|&i| h.expect[i]))
            }
            (Kind::Schedule { s }, Response::Scheduled { format, .. }) => {
                format == self.slices[s].expect.name()
            }
            _ => return Outcome::Error,
        };
        if same {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        }
    }

    /// Owned vectors of a predict request, for the executor replay.
    fn vectors(&self, kind: Kind) -> Vec<SparseVec> {
        match kind {
            Kind::Interactive { model, q } => vec![self.hosted[model].queries[q].clone()],
            Kind::Batch { model, b } => {
                let h = &self.hosted[model];
                h.batches[b].iter().map(|&i| h.queries[i].clone()).collect()
            }
            Kind::Schedule { .. } => Vec::new(),
        }
    }
}

/// When each request was sent and answered, and how.
struct Load {
    start: Instant,
    /// Milliseconds each request was sent after it was due.
    late_ms: Vec<f64>,
    /// Reply time and outcome per request; `None` if no reply came.
    replies: Vec<Option<(Instant, Outcome)>>,
}

impl Load {
    fn due(&self, plan: &[(Duration, Kind)], i: usize) -> Instant {
        self.start + plan[i].0
    }

    /// Counts every request's outcome; a missing reply is an error.
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.replies {
            t.add(r.map_or(Outcome::Error, |(_, o)| o));
        }
        t
    }

    /// Milliseconds from due to a correct reply, for requests matching
    /// `pick`, grouped into `windows` equal spans of the plan by due time.
    fn latencies_ms(
        &self,
        plan: &[(Duration, Kind)],
        pick: fn(Kind) -> bool,
        windows: usize,
    ) -> Vec<Vec<f64>> {
        let span = plan.last().map_or(1.0, |(due, _)| due.as_secs_f64()).max(1e-9);
        let mut out = vec![Vec::new(); windows];
        for (i, r) in self.replies.iter().enumerate() {
            if let (true, Some((at, Outcome::Ok))) = (pick(plan[i].1), r) {
                let w =
                    ((plan[i].0.as_secs_f64() / span * windows as f64) as usize).min(windows - 1);
                out[w].push((*at - self.due(plan, i)).as_secs_f64() * 1e3);
            }
        }
        out
    }

    fn record_spans(&self, plan: &[(Duration, Kind)], name: &'static str, tracer: &Tracer) {
        for (i, r) in self.replies.iter().enumerate() {
            if let Some((at, _)) = r {
                tracer.record(name, ReqId::Frame(i as u64 + 1), self.due(plan, i), *at);
            }
        }
    }
}

fn is_interactive(k: Kind) -> bool {
    matches!(k, Kind::Interactive { .. })
}

fn is_batch(k: Kind) -> bool {
    matches!(k, Kind::Batch { .. })
}

fn is_schedule(k: Kind) -> bool {
    matches!(k, Kind::Schedule { .. })
}

/// Sleeps until `due`, then returns how late the caller is in ms.
fn wait_until(due: Instant) -> f64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Writes a pre-encoded frame, stamped with its frame id.
fn send(w: &mut impl Write, frame: &[u8], id: u64) -> std::io::Result<()> {
    w.write_all(&frame[..FRAME_ID_AT])?;
    w.write_all(&id.to_le_bytes())?;
    w.write_all(&frame[FRAME_ID_AT + 8..])
}

/// Reads one reply frame.
fn recv(r: &mut impl Read) -> std::io::Result<(u64, Response)> {
    let payload = read_frame(r)?
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"))?;
    let (_, id, resp) = decode_response_framed(&payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((id, resp))
}

/// One pipelined connection: a writer and a reader over the same socket.
struct Conn {
    stream: TcpStream,
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: BufWriter::with_capacity(1 << 16, stream.try_clone()?),
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            stream,
        })
    }

    /// One `Stats` round trip, before or after the load.
    fn stats(&mut self, id: u64) -> Result<JsonValue, String> {
        send(&mut self.writer, &encode(&Request::Stats), id).map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        match recv(&mut self.reader).map_err(|e| e.to_string())? {
            (got, Response::Stats(doc)) if got == id => json::parse(&doc),
            other => Err(format!("expected Stats reply {id}, got {other:?}")),
        }
    }
}

/// Drives the plan over the connection: one thread sends each frame at
/// its due time, one reads replies as they come.
fn socket_load(conn: &mut Conn, inputs: &Inputs) -> Load {
    let plan = &inputs.plan;
    let start = Instant::now() + Duration::from_millis(20);
    let mut replies = vec![None; plan.len()];
    let mut late_ms = Vec::with_capacity(plan.len());
    let Conn { stream, writer, reader } = conn;
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut got = 0;
            while got < plan.len() {
                let Ok((id, resp)) = recv(reader) else { break };
                let at = Instant::now();
                let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < plan.len()) else {
                    continue;
                };
                if replies[i].is_none() {
                    got += 1;
                }
                replies[i] = Some((at, inputs.judge(plan[i].1, &resp)));
            }
        });
        for (i, &(due, kind)) in plan.iter().enumerate() {
            let due = start + due;
            if due > Instant::now() && writer.flush().is_err() {
                break;
            }
            late_ms.push(wait_until(due));
            if send(writer, inputs.frame(kind), i as u64 + 1).is_err() {
                break;
            }
        }
        let _ = writer.flush();
        let deadline = Instant::now() + DRAIN;
        while !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if !receiver.is_finished() {
            // Unblock the reader; the missing replies count as failed.
            let _ = stream.shutdown(Shutdown::Read);
        }
        receiver.join().expect("receiver thread panicked");
    });
    Load { start, late_ms, replies }
}

/// Confirms that the frame id sits where [`send`] stamps it.
fn check_frame_layout() -> Result<(), String> {
    let id = 0x0102_0304_0506_0708u64;
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request_framed(&Request::Stats, PROTO_VERSION, id))
        .map_err(|e| e.to_string())?;
    if frame.get(FRAME_ID_AT..FRAME_ID_AT + 8) == Some(&id.to_le_bytes()[..]) {
        Ok(())
    } else {
        Err("the v3 frame layout changed; the frame id is not at byte 5".to_string())
    }
}

/// Replays the plan straight into `Executor::submit_predict` and
/// `submit_schedule`, with no sockets. A completion hook wakes the
/// collector, as it wakes the reactor.
fn executor_replay(exec: &Executor, inputs: &Inputs) -> Load {
    let plan = &inputs.plan;
    let wake = Arc::new((Mutex::new(0u64), Condvar::new()));
    {
        let wake = Arc::clone(&wake);
        exec.set_completion_hook(Box::new(move || {
            *wake.0.lock().expect("wake lock") += 1;
            wake.1.notify_all();
        }));
    }
    let start = Instant::now() + Duration::from_millis(20);
    let mut replies = vec![None; plan.len()];
    let mut late_ms = Vec::with_capacity(plan.len());
    let (tx, rx) = mpsc::channel::<(usize, Result<Receiver<Response>, Response>)>();
    let collected = &mut replies;
    std::thread::scope(|s| {
        s.spawn(move || {
            let replies = collected;
            let mut pending: Vec<(usize, Receiver<Response>)> = Vec::new();
            let mut sender_done: Option<Instant> = None;
            let mut seen = 0;
            loop {
                let mut progressed = false;
                loop {
                    match rx.try_recv() {
                        Ok((i, Ok(r))) => pending.push((i, r)),
                        Ok((i, Err(refusal))) => {
                            replies[i] = Some((Instant::now(), inputs.judge(plan[i].1, &refusal)))
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            sender_done.get_or_insert_with(Instant::now);
                            break;
                        }
                    }
                    progressed = true;
                }
                pending.retain(|(i, r)| match r.try_recv() {
                    Ok(resp) => {
                        replies[*i] = Some((Instant::now(), inputs.judge(plan[*i].1, &resp)));
                        progressed = true;
                        false
                    }
                    Err(TryRecvError::Empty) => true,
                    Err(TryRecvError::Disconnected) => false,
                });
                // Done once the sender has finished and every reply is in,
                // or the stragglers are past the drain window.
                if sender_done.is_some_and(|at| pending.is_empty() || at.elapsed() > DRAIN) {
                    break;
                }
                if !progressed {
                    let guard = wake.0.lock().expect("wake lock");
                    let guard = if *guard == seen {
                        wake.1.wait_timeout(guard, Duration::from_millis(1)).expect("wake lock").0
                    } else {
                        guard
                    };
                    seen = *guard;
                }
            }
        });
        for (i, &(due, kind)) in plan.iter().enumerate() {
            late_ms.push(wait_until(start + due));
            let submitted = match kind {
                Kind::Schedule { s } => {
                    exec.submit_schedule(inputs.slices[s].triplets.clone(), None, 0)
                }
                Kind::Interactive { model, .. } | Kind::Batch { model, .. } => {
                    let class = if is_interactive(kind) {
                        RequestClass::Interactive
                    } else {
                        RequestClass::Batch
                    };
                    let name = inputs.hosted[model].name;
                    exec.submit_predict(name, inputs.vectors(kind), class, 0, 0)
                }
            };
            tx.send((i, submitted)).expect("collector outlives the sender");
        }
        drop(tx);
    });
    Load { start, late_ms, replies }
}

/// A started server and the connection that got its first reply.
struct Started {
    handle: ServerHandle,
    conn: Conn,
    /// Seconds from building the registry to the first reply.
    secs: f64,
}

impl Started {
    fn stop(self) {
        drop(self.conn);
        self.handle.shutdown();
    }
}

fn registry(hosted: &[Hosted], models: Vec<SvmModel>) -> ModelRegistry {
    let scheduler = LayoutScheduler::new();
    hosted
        .iter()
        .zip(models)
        .fold(ModelRegistry::new(), |r, (h, m)| r.with(ServedModel::new(h.name, m, &scheduler)))
}

fn models(hosted: &[Hosted]) -> Vec<SvmModel> {
    hosted.iter().map(|h| h.model.clone()).collect()
}

/// `ServedModel::new` for each model, then `dls_serve::start` with the
/// reactor front end, until a first `Stats` reply.
fn start_server(hosted: &[Hosted]) -> Result<Started, String> {
    let models = models(hosted);
    let begin = Instant::now();
    let registry = registry(hosted, models);
    let config = ServerConfig { frontend: Frontend::Reactor, ..ServerConfig::default() };
    let handle =
        dls_serve::start(registry, LayoutScheduler::new(), config).map_err(|e| e.to_string())?;
    let mut conn = Conn::open(handle.local_addr()).map_err(|e| e.to_string())?;
    conn.stats(u64::MAX)?;
    Ok(Started { secs: begin.elapsed().as_secs_f64(), handle, conn })
}

/// Vectors computed and `smsv_block` sweeps run, from a `Stats` document.
fn kernel_totals(doc: &JsonValue) -> Result<(f64, f64), String> {
    let agg = doc.get("aggregate").ok_or("Stats reply lacks aggregate")?;
    let vectors = agg.get("total_calls").and_then(JsonValue::as_f64);
    let sweeps = agg
        .get("block_hist")
        .and_then(JsonValue::as_arr)
        .map(|h| h.iter().filter_map(JsonValue::as_f64).sum::<f64>());
    vectors.zip(sweeps).ok_or_else(|| "Stats reply lacks kernel totals".to_string())
}

/// Summed SMSV counters of every served model.
fn served_counters(handle: &ServerHandle) -> SmsvSnapshot {
    let mut total = SmsvSnapshot::default();
    for served in handle.executor().registry().iter() {
        total.merge(&served.counters().snapshot());
    }
    total
}

/// An executor as `dls_serve::start` builds one, without the front end.
fn start_executor(registry: Arc<ModelRegistry>) -> Arc<Executor> {
    let stats = Arc::new(ServeStats::new());
    Executor::start(registry, Arc::new(LayoutScheduler::new()), stats, ExecutorConfig::default())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The client-side latency metrics, from latencies in ms grouped into
/// windows.
fn latency_metrics(
    m: &mut Metrics,
    interactive_ms: &[Vec<f64>],
    interactive_in_slo: u64,
    interactive_sent: u64,
    batch_ms: &[Vec<f64>],
) -> Result<(), String> {
    let (p50, p99) = crate::median_and_tail("interactive", interactive_ms, 99.0)?;
    m.set("interactive_p50_ms", p50);
    m.set("interactive_p99_ms", p99);
    m.set("interactive_slo_share", interactive_in_slo as f64 / interactive_sent.max(1) as f64);
    let (p50, p95) = crate::median_and_tail("batch", batch_ms, 95.0)?;
    m.set("batch_p50_ms", p50);
    m.set("batch_p95_ms", p95);
    Ok(())
}

/// Runs the serving workload.
pub fn run(run: &Run, trace: bool, spans_out: &mut Vec<Span>) -> Result<(Metrics, Tally), Failure> {
    let fail = Failure::Usage;
    check_frame_layout().map_err(fail)?;
    let instances: Vec<Vec<train::Case>> = (0..Regime::Quick.instances())
        .map(|k| train::cases(Regime::Quick, derive(run.seed, k)))
        .collect();
    let mut check = Check::default();
    let quick_passes = |passes: &mut Vec<Vec<train::Pass>>, check: &mut Check| {
        let clock = Instant::now();
        while clock.elapsed() < TRAIN_PHASE {
            for (cases, done) in instances.iter().zip(passes.iter_mut()) {
                let mut p = train::pass(cases, dls_core::SelectionStrategy::RuleBased, check);
                p.models.clear();
                done.push(p);
            }
        }
    };
    let mut passes: Vec<Vec<train::Pass>> = instances.iter().map(|_| Vec::new()).collect();
    quick_passes(&mut passes, &mut check);
    // Instance 0's models are the ones served.
    let cases = &instances[0];
    let trained = train::pass(cases, dls_core::SelectionStrategy::RuleBased, &mut check).models;
    if trained.len() != cases.len() {
        return Err(fail("quick training failed".to_string()));
    }
    let hosted: Vec<Hosted> = cases
        .iter()
        .zip(trained)
        .enumerate()
        .map(|(i, (c, model))| host(c.name, model, &c.spec, derive(run.seed, 10 + i as u64)))
        .collect();
    let slices = slices(derive(run.seed, 20)).map_err(fail)?;
    let plan = plan(derive(run.seed, 30), run.seconds, &hosted);
    let inputs = Inputs { hosted, slices, plan };
    let plan = &inputs.plan;

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..STARTS {
        let speed = speed::factor();
        let started = start_server(&inputs.hosted).map_err(fail)?;
        setups.push(started.secs * speed);
        if let Some(previous) = server.replace(started) {
            previous.stop();
        }
    }
    let mut server = server.expect("STARTS > 0");
    let counters_before = served_counters(&server.handle);
    let stats_before = server.conn.stats(u64::MAX - 1).map_err(fail)?;
    let load = socket_load(&mut server.conn, &inputs);
    let load_tally = load.tally();
    let late = sorted(&load.late_ms);
    let (late_p50, late_p99) = (percentile(&late, 50.0), percentile(&late, 99.0));
    if late_p50 > GEN_LAG_MS {
        server.stop();
        return Err(Failure::Invalid(format!(
            "the generator sent its median request {late_p50:.2} ms after it was due"
        )));
    }
    let windows = |len: f64| ((run.seconds.as_secs_f64() / len) as usize).max(1);
    let interactive = load.latencies_ms(plan, is_interactive, windows(INTERACTIVE_WINDOW_S));
    let mut m = Metrics::default();
    if !trace {
        server.stop();
        quick_passes(&mut passes, &mut check);
        let k = passes.len() as f64;
        m.set("setup_s", median(&setups));
        m.set("train_s", passes.iter().map(|p| train::pass_medians(p).1 / k).sum());
        let in_slo = interactive.concat().iter().filter(|&&l| l <= ms(SLO)).count() as u64;
        let sent = plan.iter().filter(|(_, k)| is_interactive(*k)).count() as u64;
        let batch = load.latencies_ms(plan, is_batch, windows(BATCH_WINDOW_S));
        latency_metrics(&mut m, &interactive, in_slo, sent, &batch).map_err(fail)?;
        let schedule = load.latencies_ms(plan, is_schedule, 1).concat();
        if schedule.is_empty() {
            return Err(fail("no Schedule request succeeded".to_string()));
        }
        m.set("schedule_p50_ms", median(&schedule));
        let mut tally = check.tally;
        tally.merge(&load_tally);
        m.set("ok_share", tally.ok_share());
        return Ok((m, tally));
    }

    // Traced: where the time of the same load goes, layer by layer.
    let stats_after = server.conn.stats(u64::MAX - 2).map_err(fail)?;
    let served = served_counters(&server.handle).delta(&counters_before);
    server.stop();
    let tracer = Tracer::new();
    load.record_spans(plan, "serve.request", &tracer);
    let (v0, s0) = kernel_totals(&stats_before).map_err(fail)?;
    let (v1, s1) = kernel_totals(&stats_after).map_err(fail)?;
    m.set("serve.vectors_per_sweep", (v1 - v0) / (s1 - s0).max(1.0));
    m.set("serve.busy", load_tally.busy as f64);
    m.set("serve.timed_out", load_tally.timed_out as f64);
    m.set("gen.late_p99_ms", late_p99);

    let exec = start_executor(Arc::new(registry(&inputs.hosted, models(&inputs.hosted))));
    let replay = executor_replay(&exec, &inputs);
    exec.shutdown();
    replay.record_spans(plan, "serve.executor", &tracer);
    let replayed = replay.latencies_ms(plan, is_interactive, windows(INTERACTIVE_WINDOW_S));
    let (p50, p99) =
        crate::median_and_tail("executor interactive", &replayed, 99.0).map_err(fail)?;
    m.set("serve.executor_p50_ms", p50);
    m.set("serve.executor_p99_ms", p99);
    let (e2e_p50, _) = crate::median_and_tail("interactive", &interactive, 99.0).map_err(fail)?;
    m.set("serve.frontend_p50_ms", e2e_p50 - p50);

    let mut starts = Vec::new();
    for _ in 0..STARTS {
        let registry = Arc::new(registry(&inputs.hosted, models(&inputs.hosted)));
        let begin = Instant::now();
        let exec = tracer.span("serve.start", ReqId::Frame(0), || start_executor(registry));
        starts.push(begin.elapsed().as_secs_f64());
        exec.shutdown();
    }
    m.set("serve.start_s", median(&starts));

    let mut predict_tally = Tally::default();
    let (b1, b32) = predict_timings(&inputs.hosted[0], &tracer, &mut predict_tally);
    m.set("serve.predict_us.b1", b1);
    m.set("serve.predict_us.b32", b32);

    // svm and the overhead figure come from the quick-training pipeline;
    // core from scheduling the request slices; sparse from the served
    // models' kernels during the load.
    let quick = train::traced_rounds(cases, Duration::from_secs(2), &mut check, spans_out);
    for (name, _) in crate::metrics::per_layer() {
        if name.starts_with("svm.") || name == "core.csr_ratio" || name == "trace.overhead_share" {
            m.set(name.clone(), quick.get(&name).expect("traced rounds set every svm metric"));
        }
    }
    slice_metrics(&inputs.slices, &mut m, spans_out);
    train::sparse_format_metrics(&mut m, &served);
    m.set("sparse.smsv_calls", served.block_hist.iter().sum::<u64>() as f64);
    m.set("sparse.smsv_s", served.by_format.iter().map(|s| s.nanos).sum::<u64>() as f64 * 1e-9);
    trace::append(spans_out, tracer.spans());

    let mut tally = check.tally;
    for t in [load_tally, replay.tally(), predict_tally] {
        tally.merge(&t);
    }
    Ok((m, tally))
}

/// Median microseconds of `ServedModel::predict` on one vector and on
/// 32, each result checked against `decision_function`.
fn predict_timings(h: &Hosted, tracer: &Tracer, tally: &mut Tally) -> (f64, f64) {
    let served = ServedModel::new(h.name, h.model.clone(), &LayoutScheduler::new());
    let mut ws = PredictWorkspace::new();
    let batches: Vec<Vec<SparseVec>> =
        h.batches.iter().map(|b| b.iter().map(|&i| h.queries[i].clone()).collect()).collect();
    let mut time = |xs: &[SparseVec], want: &mut dyn Iterator<Item = u64>| {
        let begin = Instant::now();
        let got = tracer.span("serve.predict", ReqId::Frame(0), || served.predict(xs, &mut ws));
        let us = begin.elapsed().as_secs_f64() * 1e6;
        let same = got.iter().map(|g| g.to_bits()).eq(want);
        tally.add(if same { Outcome::Ok } else { Outcome::Mismatch });
        us
    };
    let b1: Vec<f64> = (0..4 * POOL)
        .map(|i| {
            let q = i % POOL;
            time(&h.queries[q..q + 1], &mut std::iter::once(h.expect[q]))
        })
        .collect();
    let b32: Vec<f64> = (0..4 * BATCH_POOL)
        .map(|i| {
            let b = i % BATCH_POOL;
            time(&batches[b], &mut h.batches[b].iter().map(|&q| h.expect[q]))
        })
        .collect();
    (median(&b1), median(&b32))
}

/// `core.*` on the `Schedule` slices: the scheduler's three steps called
/// one by one, summed over the slices, median over ten rounds.
fn slice_metrics(slices: &[Slice], m: &mut Metrics, spans_out: &mut Vec<Span>) {
    let scheduler = LayoutScheduler::new();
    let mut rounds: Vec<[f64; 4]> = Vec::new();
    let mut chosen = Vec::new();
    for _ in 0..10 {
        let mut sums = [0.0; 4];
        chosen.clear();
        for (k, s) in slices.iter().enumerate() {
            let req = ReqId::Frame(k as u64);
            let local = Tracer::new();
            local.span("core.schedule", req, || {
                let t = &s.triplets;
                let f = local.span("core.extract", req, || MatrixFeatures::from_triplets(t));
                let r = local.span("core.select", req, || scheduler.selector().select(t, &f));
                local.span("core.convert", req, || AnyMatrix::from_triplets(r.chosen, t));
                chosen.push(r.chosen);
            });
            let spans = local.spans();
            sums[0] += trace::total_secs(&spans, "core.extract");
            sums[1] += trace::total_secs(&spans, "core.select");
            sums[2] += trace::total_secs(&spans, "core.convert");
            sums[3] += trace::layer_self_secs(&spans, "core");
            trace::append(spans_out, spans);
        }
        rounds.push(sums);
    }
    for (i, name) in
        ["core.extract_s", "core.select_s", "core.convert_s", "core.self_s"].iter().enumerate()
    {
        m.set(*name, median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()));
    }
    for f in crate::metrics::BASIC_FORMATS {
        m.set(format!("core.chosen.{f}"), chosen.iter().filter(|c| c.name() == f).count() as f64);
    }
}
