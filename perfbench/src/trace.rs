//! In-memory spans recorded around calls into each layer's public
//! functions, and the self-time arithmetic over them.
//!
//! A span holds its name (`layer.call`), start and end, the span that was
//! open when it started, and the request it belongs to (a dataset name or
//! a wire frame id). Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends.

use dls_sparse::{
    Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix,
};
use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The instant span times count from, shared by every tracer of the run.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Which request a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqId {
    /// A dataset (training and scheduling work).
    Dataset(&'static str),
    /// A wire frame or replayed request, by its id.
    Frame(u64),
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `svm.train`.
    pub name: &'static str,
    /// Seconds since the run's first tracer was made.
    pub start: f64,
    /// Seconds since the run's first tracer was made.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub req: ReqId,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Spans opened by [`Tracer::span`] and not yet closed, innermost last.
    open: Vec<usize>,
}

/// Collects spans. Nesting is tracked for the thread that opens spans with
/// [`Tracer::span`]; spans recorded after the fact with
/// [`Tracer::record`] carry no parent.
pub struct Tracer {
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        origin();
        Self { inner: Mutex::new(Inner::default()) }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(origin()).as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while recording a span")
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<T>(&self, name: &'static str, req: ReqId, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut inner = self.lock();
            let idx = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(Span { name, start: 0.0, end: 0.0, parent, req });
            inner.open.push(idx);
            idx
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut inner = self.lock();
        inner.open.pop();
        let (s, e) = (self.at(start), self.at(end));
        let span = &mut inner.spans[idx];
        span.start = s;
        span.end = e;
        out
    }

    /// Records a span measured elsewhere, with no parent.
    pub fn record(&self, name: &'static str, req: ReqId, start: Instant, end: Instant) {
        let span = Span { name, start: self.at(start), end: self.at(end), parent: None, req };
        self.lock().spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Moves the spans of one tracer onto the end of `dst`, keeping parent
/// links pointing at the same spans.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }));
}

/// Writes spans as one JSON object per line; `id` is the position in
/// `spans`, which `parent` refers to.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let req = match s.req {
            ReqId::Dataset(d) => format!("\"{d}\""),
            ReqId::Frame(id) => id.to_string(),
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"req\":{req}}}",
            s.name, s.start, s.end
        )?;
    }
    Ok(())
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once, and a child
/// reaching outside its parent is clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.secs() - covered).max(0.0)
        })
        .collect()
}

/// Total self time of the spans of one layer.
pub fn layer_self_secs(spans: &[Span], layer: &str) -> f64 {
    spans.iter().zip(self_times(spans)).filter(|(s, _)| s.layer() == layer).map(|(_, t)| t).sum()
}

/// Total duration of the spans with one name.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Number of spans with one name.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// A matrix that records a `sparse.smsv` span around every SMSV-family
/// call and otherwise delegates. It wraps the scheduled matrix from the
/// outside, so the sparse layer itself is unchanged.
pub struct TracedMatrix<'a, M> {
    inner: M,
    tracer: &'a Tracer,
    req: ReqId,
}

impl<'a, M: MatrixFormat> TracedMatrix<'a, M> {
    /// Wraps `inner`, recording into `tracer` under request `req`.
    pub fn new(inner: M, tracer: &'a Tracer, req: ReqId) -> Self {
        Self { inner, tracer, req }
    }
}

impl<M: MatrixFormat> MatrixFormat for TracedMatrix<'_, M> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn format(&self) -> Format {
        self.inner.format()
    }

    fn get(&self, i: usize, j: usize) -> Scalar {
        self.inner.get(i, j)
    }

    fn row_sparse(&self, i: usize) -> SparseVec {
        self.inner.row_sparse(i)
    }

    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        self.inner.row_view_in(i, scratch)
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        self.tracer.span("sparse.smsv", self.req, || self.inner.smsv(v, out))
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        self.tracer.span("sparse.smsv", self.req, || self.inner.smsv_view(v, out, workspace))
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        self.tracer.span("sparse.smsv", self.req, || self.inner.smsv_block(vs, out, workspace))
    }

    fn spmv(&self, x: &[Scalar], out: &mut [Scalar]) {
        self.inner.spmv(x, out)
    }

    fn row_norms_sq(&self, out: &mut [Scalar]) {
        self.inner.row_norms_sq(out)
    }

    fn to_triplets(&self) -> TripletMatrix {
        self.inner.to_triplets()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn storage_elems(&self) -> usize {
        self.inner.storage_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: "x.y", start, end, parent, req: ReqId::Frame(0) }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        // Parent 0..10; children 1..4 and 3..6 overlap on 3..4, so they
        // cover 1..6 = 5 s, not 6 s.
        let spans = [span(0.0, 10.0, None), span(1.0, 4.0, Some(0)), span(3.0, 6.0, Some(0))];
        let st = self_times(&spans);
        assert!((st[0] - 5.0).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 3.0).abs() < 1e-12 && (st[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_ignores_grandchildren() {
        // Child 8..12 reaches past the parent's end at 10; the grandchild
        // 8.5..9 belongs to the child, not the parent.
        let spans = [
            span(0.0, 10.0, None),
            span(2.0, 3.0, Some(0)),
            span(8.0, 12.0, Some(0)),
            span(8.5, 9.0, Some(2)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 7.0).abs() < 1e-12, "{st:?}");
        assert!((st[2] - 3.5).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new();
        t.span("svm.train", ReqId::Dataset("a"), || {
            t.span("sparse.smsv", ReqId::Dataset("a"), || {});
            t.span("sparse.smsv", ReqId::Dataset("a"), || {});
        });
        t.span("core.select", ReqId::Dataset("b"), || {});
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(count(&spans, "sparse.smsv"), 2);
        let svm_self = layer_self_secs(&spans, "svm");
        let smsv = total_secs(&spans, "sparse.smsv");
        assert!((svm_self + smsv - spans[0].secs()).abs() < 1e-9);

        let mut all = vec![spans[3]];
        append(&mut all, spans);
        assert_eq!(all[2].parent, Some(1));
        let mut out = Vec::new();
        write_jsonl(&all, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 5);
    }
}
