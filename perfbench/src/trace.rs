//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that was open when it began, and a request id that
//! groups the spans of one operation.  Spans stay in memory until the run
//! ends and are then written out as one tab-separated file.
//!
//! Two kinds of span exist.  *Layer* spans wrap a call into one layer (a
//! chunker scan, a SHA-1, a node's dedup step); their self time is that
//! layer's busy time.  *Op* spans only group the layer spans of one request
//! or pass; their self time is glue the benchmark cannot attribute to a
//! layer, which is why coverage counts layer spans only.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub layer: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// A span recorder that is safe to share with a backend called from inside
/// the service stack.  Spans must nest: each `exit` closes the innermost
/// open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&self, name: &'static str, request: u64, layer: bool) -> SpanId {
        let start_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer poisoned by a panic");
        let id = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            layer,
        });
        inner.open.push(id);
        id
    }

    fn exit(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer poisoned by a panic");
        assert_eq!(inner.open.pop(), Some(id), "spans must nest");
        inner.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a layer span.
    pub fn layer<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request, true);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside an op span that groups the layer spans `f` records.
    pub fn op<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, request, false);
        let out = f();
        self.exit(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("tracer poisoned by a panic")
            .spans
            .clone()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent request name layer start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tlayer\tstart_ns\tend_ns")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.layer as u8, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a layer span when a tracer is given.
pub fn maybe_layer<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => tracer.layer(name, request, f),
        None => f(),
    }
}

/// What the spans say about where the time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTimes {
    /// Seconds of self time per span name (layer and op spans alike).
    pub by_name: BTreeMap<&'static str, f64>,
    /// Seconds of whole duration per span name, children included.
    pub total_by_name: BTreeMap<&'static str, f64>,
    /// Summed duration of the root spans: the traced wall time.
    pub wall_s: f64,
    /// Summed self time of layer spans.
    pub layer_s: f64,
}

impl SelfTimes {
    /// Self time of one span name, 0 when it never ran.
    pub fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Whole duration of one span name, children included; 0 when it never ran.
    pub fn total(&self, name: &str) -> f64 {
        self.total_by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Share of the traced wall time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.layer_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// A span's self time is its duration minus the part its children cover.
/// Children of one parent run one after another, so their durations add.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = SelfTimes::default();
    for (s, children) in spans.iter().zip(child_ns) {
        let self_s = s.duration_ns().saturating_sub(children) as f64 / 1e9;
        *out.by_name.entry(s.name).or_insert(0.0) += self_s;
        *out.total_by_name.entry(s.name).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
        if s.layer {
            out.layer_s += self_s;
        }
        if s.parent.is_none() {
            out.wall_s += s.duration_ns() as f64 / 1e9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>, layer: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            layer,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0, 1000) holds op [100, 900), which holds two layer spans and
        // a nested layer span inside the second.
        let spans = vec![
            span("pass", 0, 1_000, None, false),
            span("op", 100, 900, Some(0), false),
            span("a", 100, 300, Some(1), true),
            span("b", 300, 800, Some(1), true),
            span("c", 400, 600, Some(3), true),
        ];
        let t = self_times(&spans);
        assert_eq!(t.get("pass"), 200e-9);
        assert_eq!(t.get("op"), 100e-9);
        assert_eq!(t.get("a"), 200e-9);
        assert_eq!(t.get("b"), 300e-9);
        assert_eq!(t.get("c"), 200e-9);
        assert_eq!(t.get("missing"), 0.0);
        assert_eq!(t.total("b"), 500e-9);
        assert_eq!(t.total("op"), 800e-9);
        assert_eq!(t.wall_s, 1_000e-9);
        assert!((t.layer_s - 700e-9).abs() < 1e-15);
        assert!((t.coverage() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn self_times_add_up_across_spans_of_one_name() {
        let spans = vec![
            span("pass", 0, 100, None, false),
            span("a", 0, 10, Some(0), true),
            span("a", 10, 30, Some(0), true),
            span("pass", 200, 250, None, false),
            span("a", 200, 250, Some(3), true),
        ];
        let t = self_times(&spans);
        assert!((t.get("a") - 80e-9).abs() < 1e-15);
        assert!((t.wall_s - 150e-9).abs() < 1e-15);
        assert!((t.coverage() - 80.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_records_nesting_and_requests() {
        let tracer = Tracer::default();
        let out = tracer.op("pass", 0, || {
            tracer.op("op.backup", 7, || {
                tracer.layer("hashkit.sha1", 7, || 41 + 1)
            })
        });
        assert_eq!(out, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, 7);
        assert!(spans[2].layer && !spans[1].layer);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
