//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame: a 4-byte little-endian payload length
//! followed by the payload. The payload starts with a one-byte protocol
//! version, a frame id and a one-byte message tag; the body is a flat LE
//! encoding of the message fields (no self-description — both ends share
//! this module).
//!
//! ```text
//! frame   := u32 len | payload            len = payload bytes, <= MAX_FRAME_LEN
//! payload := u8 version | u64 frame_id | u8 tag | body
//! string  := u32 len | utf-8 bytes
//! vec<T>  := u32 count | T*count
//! sparse  := u64 dim | vec<u64> indices | vec<f64> values (parallel arrays)
//! Predict := string model | u32 deadline_ms | u8 class | u32 slo_us | vec<sparse>
//! ```
//!
//! **Versioning.** One version is live: [`PROTO_VERSION`] (v3). The
//! `frame_id` lets one connection *pipeline* many in-flight requests: the
//! server echoes the id on the matching response, which may arrive out of
//! order. Any other version byte decodes to [`ProtoError::BadVersion`],
//! which the server answers with a typed error and keeps the connection.
//!
//! The decoder is total: truncated, oversized, or malformed input yields a
//! [`ProtoError`], never a panic, and claimed element counts are checked
//! against the bytes actually present before any allocation is sized from
//! them — a frame cannot make the server allocate more than it sent.
//! Values must be finite: a NaN or infinity in a `Predict` vector or a
//! `Schedule` entry is [`ProtoError::Malformed`], because some storage
//! formats would turn it into a different answer than others.

use dls_sparse::{SparseVec, TripletMatrix};
use std::io::{Read, Write};

/// The protocol version byte; bumped on any incompatible change. v3
/// frames carry a `frame_id` for pipelined, out-of-order responses.
pub const PROTO_VERSION: u8 = 3;

/// The traffic class a predict request belongs to. Classes are the unit
/// SLOs attach to: interactive requests expect sub-millisecond-to-
/// millisecond answers, batch scoring tolerates much more in exchange for
/// throughput. The queue disciplines in `serve::discipline` key on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestClass {
    /// Latency-sensitive traffic (the default).
    #[default]
    Interactive = 0,
    /// Throughput-oriented scoring jobs with a lenient SLO.
    Batch = 1,
}

impl RequestClass {
    /// Both classes, index-aligned with [`RequestClass::index`].
    pub const ALL: [RequestClass; 2] = [RequestClass::Interactive, RequestClass::Batch];

    /// Dense index (0 = interactive, 1 = batch) for per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Batch => "batch",
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        match b {
            0 => Ok(RequestClass::Interactive),
            1 => Ok(RequestClass::Batch),
            _ => Err(ProtoError::Malformed("unknown request class")),
        }
    }
}

impl std::fmt::Display for RequestClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for RequestClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interactive" | "i" => Ok(RequestClass::Interactive),
            "batch" | "b" => Ok(RequestClass::Batch),
            other => Err(format!("unknown request class: {other:?}")),
        }
    }
}

/// Hard ceiling on one frame's payload size (16 MiB). Enforced against
/// the length prefix *before* the payload buffer is allocated, so a lying
/// length from a hostile peer cannot trigger a huge allocation.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Everything that can go wrong turning bytes into messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message did.
    Truncated,
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown message tag for the expected direction.
    BadTag(u8),
    /// A field held an invalid value (bad UTF-8, unsorted sparse indices,
    /// out-of-range dimension, a non-finite value, trailing bytes, …).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_LEN}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Decision values for a batch of sparse vectors against a named model.
    Predict {
        /// Registry name of the model to query.
        model: String,
        /// Coarse per-request deadline in milliseconds from arrival; `0`
        /// means unset. When `slo_us` is set it wins. Requests still
        /// queued past their effective deadline get [`Response::TimedOut`]
        /// instead of occupying a worker.
        deadline_ms: u32,
        /// Traffic class the SLO and queue discipline key on.
        class: RequestClass,
        /// Per-request SLO in microseconds from arrival; `0` falls back to
        /// `deadline_ms`, then to the server's per-class default.
        slo_us: u32,
        /// The query vectors. All must share the model's feature dimension.
        vectors: Vec<SparseVec>,
    },
    /// Run the layout scheduler on a submitted matrix and report the
    /// chosen storage format.
    Schedule {
        /// Selection strategy name (`rule`, `rule-host`, `cost`,
        /// `empirical`, or a fixed format name); empty uses the server's
        /// configured scheduler.
        strategy: String,
        /// Matrix rows.
        rows: u64,
        /// Matrix columns.
        cols: u64,
        /// Explicit entries as `(row, col, value)` triplets.
        entries: Vec<(u64, u64, f64)>,
    },
    /// Telemetry snapshot of the whole service.
    Stats,
    /// Liveness and degradation summary: overall status, brown-out state,
    /// per-model health ladder. Cheaper than `Stats` and intended for
    /// probes and load balancers.
    Health,
    /// Ask the server to drain and exit gracefully.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Decision values, one per submitted vector, in submission order.
    Predictions(Vec<f64>),
    /// The scheduling decision for a submitted matrix.
    Scheduled {
        /// Chosen format name.
        format: String,
        /// One-line human-readable justification.
        reason: String,
        /// Per-candidate scores (lower is better), chosen first.
        scores: Vec<(String, f64)>,
    },
    /// Telemetry snapshot as a JSON document (schema in `serve::stats`).
    Stats(String),
    /// Backpressure: the target queue is full; retry later.
    Busy,
    /// The request's deadline expired before a worker reached it.
    TimedOut,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The request was understood but could not be served.
    Error(String),
    /// Liveness summary as a JSON document (schema in `serve::stats`).
    Health(String),
}

// ---- low-level encoding -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_sparse(out: &mut Vec<u8>, v: &SparseVec) {
    put_u64(out, v.dim() as u64);
    put_u32(out, v.nnz() as u32);
    for &i in v.indices() {
        put_u64(out, i as u64);
    }
    for &x in v.values() {
        put_f64(out, x);
    }
}

/// Sequential reader over a payload with totality checks.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` that a request carries as data: NaN and ±inf are
    /// rejected, because formats disagree on `inf × 0` (structural zeros
    /// are skipped by some formats and multiplied by others).
    fn finite_f64(&mut self) -> Result<f64, ProtoError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(ProtoError::Malformed("non-finite value"))
        }
    }

    /// Reads a count of fixed-size elements, bounding it by the bytes that
    /// remain so a lying header cannot size a huge allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.bytes.len() - self.pos {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| ProtoError::Malformed("string is not UTF-8"))
    }

    fn sparse(&mut self) -> Result<SparseVec, ProtoError> {
        let dim = self.u64()? as usize;
        let nnz = self.count(16)?; // 8 bytes index + 8 bytes value
        let mut indices = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            indices.push(self.u64()? as usize);
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(self.finite_f64()?);
        }
        // Re-validate `SparseVec::new`'s panics as protocol errors.
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ProtoError::Malformed("sparse indices not strictly increasing"));
        }
        if indices.last().is_some_and(|&last| last >= dim) {
            return Err(ProtoError::Malformed("sparse index out of bounds"));
        }
        Ok(SparseVec::new(dim, indices, values))
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes after message"))
        }
    }
}

// ---- message codecs -----------------------------------------------------

const REQ_PREDICT: u8 = 1;
const REQ_SCHEDULE: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_HEALTH: u8 = 5;

const RESP_PREDICTIONS: u8 = 129;
const RESP_SCHEDULED: u8 = 130;
const RESP_STATS: u8 = 131;
const RESP_BUSY: u8 = 132;
const RESP_TIMED_OUT: u8 = 133;
const RESP_SHUTTING_DOWN: u8 = 134;
const RESP_ERROR: u8 = 135;
const RESP_HEALTH: u8 = 136;

/// Encodes a request into a frame payload with `frame_id = 0`.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_request_framed(req, PROTO_VERSION, 0)
}

/// Encodes a request with an explicit frame id. `version` must be
/// [`PROTO_VERSION`]; it is a parameter so callers state the version they
/// speak, and anything else panics.
pub fn encode_request_framed(req: &Request, version: u8, frame_id: u64) -> Vec<u8> {
    let mut out = header(version, frame_id);
    match req {
        Request::Predict { model, deadline_ms, class, slo_us, vectors } => {
            out.push(REQ_PREDICT);
            put_str(&mut out, model);
            put_u32(&mut out, *deadline_ms);
            out.push(*class as u8);
            put_u32(&mut out, *slo_us);
            put_u32(&mut out, vectors.len() as u32);
            for v in vectors {
                put_sparse(&mut out, v);
            }
        }
        Request::Schedule { strategy, rows, cols, entries } => {
            out.push(REQ_SCHEDULE);
            put_str(&mut out, strategy);
            put_u64(&mut out, *rows);
            put_u64(&mut out, *cols);
            put_u32(&mut out, entries.len() as u32);
            for &(r, c, v) in entries {
                put_u64(&mut out, r);
                put_u64(&mut out, c);
                put_f64(&mut out, v);
            }
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Health => out.push(REQ_HEALTH),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
    }
    out
}

/// The payload header up to the tag: version byte and frame id.
fn header(version: u8, frame_id: u64) -> Vec<u8> {
    assert_eq!(version, PROTO_VERSION, "unsupported protocol version {version}");
    let mut out = vec![version];
    put_u64(&mut out, frame_id);
    out
}

/// Reads and checks the payload header, returning the frame id.
fn read_header(r: &mut Reader<'_>) -> Result<u64, ProtoError> {
    match r.u8()? {
        PROTO_VERSION => r.u64(),
        v => Err(ProtoError::BadVersion(v)),
    }
}

/// Decodes a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    decode_request_framed(payload).map(|(_, _, req)| req)
}

/// Decodes a request frame payload, reporting the protocol version and
/// the frame id.
pub fn decode_request_framed(payload: &[u8]) -> Result<(u8, u64, Request), ProtoError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let frame_id = read_header(&mut r)?;
    let tag = r.u8()?;
    let req = match tag {
        REQ_PREDICT => {
            let model = r.string()?;
            let deadline_ms = r.u32()?;
            let class = RequestClass::from_wire(r.u8()?)?;
            let slo_us = r.u32()?;
            // One sparse vector is at least dim + count = 12 bytes.
            let n = r.count(12)?;
            let mut vectors = Vec::with_capacity(n);
            for _ in 0..n {
                vectors.push(r.sparse()?);
            }
            Request::Predict { model, deadline_ms, class, slo_us, vectors }
        }
        REQ_SCHEDULE => {
            let strategy = r.string()?;
            let rows = r.u64()?;
            let cols = r.u64()?;
            let n = r.count(24)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((r.u64()?, r.u64()?, r.finite_f64()?));
            }
            Request::Schedule { strategy, rows, cols, entries }
        }
        REQ_STATS => Request::Stats,
        REQ_HEALTH => Request::Health,
        REQ_SHUTDOWN => Request::Shutdown,
        t => return Err(ProtoError::BadTag(t)),
    };
    r.finish()?;
    Ok((PROTO_VERSION, frame_id, req))
}

/// Encodes a response into a frame payload with `frame_id = 0`.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_response_framed(resp, PROTO_VERSION, 0)
}

/// Encodes a response echoing the request's frame id. `version` must be
/// [`PROTO_VERSION`]; anything else panics.
pub fn encode_response_framed(resp: &Response, version: u8, frame_id: u64) -> Vec<u8> {
    let mut out = header(version, frame_id);
    match resp {
        Response::Predictions(values) => {
            out.push(RESP_PREDICTIONS);
            put_u32(&mut out, values.len() as u32);
            for &v in values {
                put_f64(&mut out, v);
            }
        }
        Response::Scheduled { format, reason, scores } => {
            out.push(RESP_SCHEDULED);
            put_str(&mut out, format);
            put_str(&mut out, reason);
            put_u32(&mut out, scores.len() as u32);
            for (name, score) in scores {
                put_str(&mut out, name);
                put_f64(&mut out, *score);
            }
        }
        Response::Stats(json) => {
            out.push(RESP_STATS);
            put_str(&mut out, json);
        }
        Response::Busy => out.push(RESP_BUSY),
        Response::TimedOut => out.push(RESP_TIMED_OUT),
        Response::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
        Response::Error(msg) => {
            out.push(RESP_ERROR);
            put_str(&mut out, msg);
        }
        Response::Health(json) => {
            out.push(RESP_HEALTH);
            put_str(&mut out, json);
        }
    }
    out
}

/// Decodes a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    decode_response_framed(payload).map(|(_, _, resp)| resp)
}

/// Decodes a response frame payload, reporting the protocol version and
/// the echoed frame id. The frame id is how a pipelining client matches
/// out-of-order responses back to their requests.
pub fn decode_response_framed(payload: &[u8]) -> Result<(u8, u64, Response), ProtoError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let frame_id = read_header(&mut r)?;
    let tag = r.u8()?;
    let resp = match tag {
        RESP_PREDICTIONS => {
            let n = r.count(8)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.f64()?);
            }
            Response::Predictions(values)
        }
        RESP_SCHEDULED => {
            let format = r.string()?;
            let reason = r.string()?;
            // Each score is at least a 4-byte name length + 8-byte score.
            let n = r.count(12)?;
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.string()?;
                scores.push((name, r.f64()?));
            }
            Response::Scheduled { format, reason, scores }
        }
        RESP_STATS => Response::Stats(r.string()?),
        RESP_BUSY => Response::Busy,
        RESP_TIMED_OUT => Response::TimedOut,
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_ERROR => Response::Error(r.string()?),
        RESP_HEALTH => Response::Health(r.string()?),
        t => return Err(ProtoError::BadTag(t)),
    };
    r.finish()?;
    Ok((PROTO_VERSION, frame_id, resp))
}

// ---- framing ------------------------------------------------------------

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. `Ok(None)` on clean EOF at a frame boundary.
/// Length prefixes above [`MAX_FRAME_LEN`] are rejected *before* the
/// payload buffer is allocated — the error is `InvalidData` carrying a
/// [`ProtoError::FrameTooLarge`] (recover it with [`proto_error_of`]).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtoError::FrameTooLarge(len),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Recovers the typed [`ProtoError`] wrapped inside an `io::Error` by
/// [`read_frame`] or the client, if there is one.
pub fn proto_error_of(err: &std::io::Error) -> Option<&ProtoError> {
    err.get_ref().and_then(|inner| inner.downcast_ref::<ProtoError>())
}

/// Converts a submitted `Schedule` body into a triplet matrix, validating
/// coordinates against the declared shape.
pub fn entries_to_triplets(
    rows: u64,
    cols: u64,
    entries: &[(u64, u64, f64)],
) -> Result<TripletMatrix, ProtoError> {
    let (nr, nc) = (rows as usize, cols as usize);
    let mut t = TripletMatrix::with_capacity(nr, nc, entries.len());
    for &(r, c, v) in entries {
        if r >= rows || c >= cols {
            return Err(ProtoError::Malformed("triplet coordinate out of bounds"));
        }
        t.push(r as usize, c as usize, v);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(dim: usize, pairs: &[(usize, f64)]) -> SparseVec {
        SparseVec::new(
            dim,
            pairs.iter().map(|&(i, _)| i).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
    }

    /// Hand-builds a current-version payload header: version, frame id 0,
    /// tag.
    fn v3_header(tag: u8) -> Vec<u8> {
        let mut out = vec![PROTO_VERSION];
        put_u64(&mut out, 0);
        out.push(tag);
        out
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Predict {
                model: "adult".into(),
                deadline_ms: 250,
                class: RequestClass::Batch,
                slo_us: 750_000,
                vectors: vec![sv(5, &[(0, 1.0), (3, -2.5)]), sv(5, &[])],
            },
            Request::Schedule {
                strategy: "cost".into(),
                rows: 3,
                cols: 4,
                entries: vec![(0, 0, 1.0), (2, 3, -7.25)],
            },
            Request::Stats,
            Request::Health,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            // Only request values are checked for finiteness; a decision
            // value is the server's own output and travels as computed.
            Response::Predictions(vec![1.5, -0.25, f64::MIN_POSITIVE, f64::INFINITY]),
            Response::Scheduled {
                format: "CSR".into(),
                reason: "high row imbalance".into(),
                scores: vec![("CSR".into(), 0.5), ("ELL".into(), 0.9)],
            },
            Response::Stats("{\"ok\":true}".into()),
            Response::Busy,
            Response::TimedOut,
            Response::ShuttingDown,
            Response::Error("no such model".into()),
            Response::Health("{\"status\":\"ok\"}".into()),
        ];
        for resp in resps {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let full = encode_request(&Request::Predict {
            model: "m".into(),
            deadline_ms: 0,
            class: RequestClass::Interactive,
            slo_us: 0,
            vectors: vec![sv(8, &[(1, 2.0), (7, 3.0)])],
        });
        for cut in 0..full.len() {
            assert!(decode_request(&full[..cut]).is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn lying_counts_are_rejected_before_allocation() {
        // A Predict frame claiming u32::MAX vectors with no bytes behind it.
        let mut payload = v3_header(REQ_PREDICT);
        put_str(&mut payload, "m");
        put_u32(&mut payload, 0); // deadline
        payload.push(0); // class
        put_u32(&mut payload, 0); // slo
        put_u32(&mut payload, u32::MAX); // vector count
        assert_eq!(decode_request(&payload), Err(ProtoError::Truncated));
    }

    #[test]
    fn invalid_sparse_vectors_are_protocol_errors() {
        // Indices out of order.
        let mut payload = v3_header(REQ_PREDICT);
        put_str(&mut payload, "m");
        put_u32(&mut payload, 0);
        payload.push(1); // class: batch
        put_u32(&mut payload, 0); // slo
        put_u32(&mut payload, 1);
        put_u64(&mut payload, 4); // dim
        put_u32(&mut payload, 2); // nnz
        put_u64(&mut payload, 3);
        put_u64(&mut payload, 1); // descending
        put_f64(&mut payload, 1.0);
        put_f64(&mut payload, 2.0);
        assert!(matches!(decode_request(&payload), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn bad_version_tag_and_class_are_rejected() {
        assert_eq!(decode_request(&[9, REQ_STATS]), Err(ProtoError::BadVersion(9)));
        // A v2-shaped Stats frame (version + tag, no frame id).
        assert_eq!(decode_request(&[2, REQ_STATS]), Err(ProtoError::BadVersion(2)));
        assert_eq!(decode_request(&v3_header(99)), Err(ProtoError::BadTag(99)));
        assert_eq!(decode_response(&v3_header(3)), Err(ProtoError::BadTag(3)));
        let mut payload = v3_header(REQ_PREDICT);
        put_str(&mut payload, "m");
        put_u32(&mut payload, 0);
        payload.push(7); // no such class
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        assert!(matches!(decode_request(&payload), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn v3_frames_carry_and_echo_the_frame_id() {
        let req = Request::Predict {
            model: "m".into(),
            deadline_ms: 10,
            class: RequestClass::Batch,
            slo_us: 500,
            vectors: vec![sv(4, &[(1, 2.0)])],
        };
        let payload = encode_request_framed(&req, PROTO_VERSION, u64::MAX - 7);
        let (version, frame_id, decoded) = decode_request_framed(&payload).unwrap();
        assert_eq!((version, frame_id), (PROTO_VERSION, u64::MAX - 7));
        assert_eq!(decoded, req);

        let resp = Response::Predictions(vec![0.5]);
        let payload = encode_response_framed(&resp, PROTO_VERSION, 42);
        let (version, frame_id, decoded) = decode_response_framed(&payload).unwrap();
        assert_eq!((version, frame_id), (PROTO_VERSION, 42));
        assert_eq!(decoded, resp);
    }

    #[test]
    #[should_panic(expected = "unsupported protocol version 2")]
    fn encoding_another_version_panics() {
        encode_request_framed(&Request::Stats, 2, 0);
    }

    fn predict_with_value(x: f64) -> Vec<u8> {
        encode_request(&Request::Predict {
            model: "m".into(),
            deadline_ms: 0,
            class: RequestClass::Interactive,
            slo_us: 0,
            vectors: vec![sv(4, &[(0, 1.0), (2, x)])],
        })
    }

    fn schedule_with_value(x: f64) -> Vec<u8> {
        encode_request(&Request::Schedule {
            strategy: String::new(),
            rows: 2,
            cols: 2,
            entries: vec![(0, 0, 1.0), (1, 1, x)],
        })
    }

    #[test]
    fn non_finite_request_values_are_malformed() {
        let malformed = Err(ProtoError::Malformed("non-finite value"));
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(decode_request(&predict_with_value(x)), malformed, "predict {x}");
            assert_eq!(decode_request(&schedule_with_value(x)), malformed, "schedule {x}");
        }
        // The finite extremes and signed zeros still decode bit for bit.
        for x in [f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, 0.0, -0.0] {
            let Ok(Request::Predict { vectors, .. }) = decode_request(&predict_with_value(x))
            else {
                panic!("predict {x} rejected");
            };
            assert_eq!(vectors[0].values()[1].to_bits(), x.to_bits());
            let Ok(Request::Schedule { entries, .. }) = decode_request(&schedule_with_value(x))
            else {
                panic!("schedule {x} rejected");
            };
            assert_eq!(entries[1].2.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn request_class_parses_and_indexes() {
        assert_eq!("interactive".parse::<RequestClass>().unwrap(), RequestClass::Interactive);
        assert_eq!("batch".parse::<RequestClass>().unwrap(), RequestClass::Batch);
        assert!("bulk".parse::<RequestClass>().is_err());
        for (i, c) in RequestClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(RequestClass::from_wire(*c as u8).unwrap(), *c);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(matches!(decode_request(&payload), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let payload = encode_request(&Request::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF

        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The typed error survives the io::Error wrapping for the retry
        // layer's classification.
        assert_eq!(
            proto_error_of(&err),
            Some(&ProtoError::FrameTooLarge(MAX_FRAME_LEN + 1)),
            "{err}"
        );
    }

    #[test]
    fn entries_to_triplets_validates_bounds() {
        let t = entries_to_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 2.0)]).unwrap();
        assert_eq!((t.rows(), t.cols(), t.nnz()), (2, 3, 2));
        assert!(entries_to_triplets(2, 3, &[(2, 0, 1.0)]).is_err());
        assert!(entries_to_triplets(2, 3, &[(0, 3, 1.0)]).is_err());
    }
}
