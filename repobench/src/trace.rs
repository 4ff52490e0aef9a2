//! In-memory span recording for the traced runs.
//!
//! Spans wrap calls into the layers' public functions from the outside;
//! nothing inside the program is instrumented. Each thread records into
//! its own [`Tracer`]; the tracers are merged at the end, self times are
//! computed per layer, and the spans are written as Chrome trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span, timestamps in nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread.
pub struct Tracer {
    origin: Instant,
    track: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, track: u32) -> Self {
        Self {
            origin,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.push(layer, start_ns, start_ns)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Times `f` as one span of `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured interval (e.g. a request timed from its
    /// intended send instant).
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (s, e) = (at(start), at(end));
        self.push(layer, s, e);
        self.open.pop();
    }

    fn push(&mut self, layer: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            track: self.track,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time spent in child spans.
    pub self_ns: u64,
}

/// All spans of a traced run, merged from the per-thread tracers.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        self.merge(Trace {
            spans: tracer.spans,
        });
    }

    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// Durations (ns) of every span of `layer`, in record order.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Writes the spans as Chrome trace-event JSON (µs timestamps with
    /// sub-µs precision), one lane per tracer track.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                s.layer,
                s.layer.split('.').next().unwrap_or(s.layer),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.track
            );
        }
        out.push_str("]}");
        std::fs::write(path, out)
    }

    /// Human-readable self-time table (stderr).
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12}\n",
            "layer", "calls", "total_ms", "self_ms"
        );
        for (layer, t) in self.layers() {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3}",
                layer,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        out
    }
}
