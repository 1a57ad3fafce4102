//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public API; nothing inside the program is instrumented. A span
//! has a name, a start, an end, a parent and, for request-scoped spans,
//! the request id they share. When tracing is off every call is a no-op,
//! so the untraced run executes the same code path minus the recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    req: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Span recorder. Time is kept in nanoseconds since the recorder's origin.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// The layer a span's time is charged to. `serve.start` is charged to
/// `tune`: `TaskService::start` spends its time training and fitting the
/// memory models, then only spawns threads.
pub fn layer_of(name: &str) -> &str {
    match name {
        "serve.start" => "tune",
        _ => name.split('.').next().unwrap_or(name),
    }
}

/// What [`Tracer::analyse`] derives from the spans.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Self time per layer, seconds, summed over the layer's spans.
    /// Concurrent request spans add up, so this is request-seconds.
    pub self_s: BTreeMap<String, f64>,
    /// Time of the root span that none of its children cover, seconds.
    pub unattributed_s: f64,
    /// Spans recorded.
    pub spans: usize,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (`None` when tracing is off).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            attrs: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span that starts now; children may name it as their parent
    /// before [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.span(name, parent, None, now, now)
    }

    /// Set the end of a span opened with [`Tracer::open`] to now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Attach a named count to a recorded span.
    pub fn attr(&mut self, id: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.spans[id].attrs.push((key, value));
        }
    }

    /// Self time per layer and the root's uncovered time.
    pub fn analyse(&self, root: Option<SpanId>) -> Analysis {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = Analysis {
            spans: self.spans.len(),
            ..Analysis::default()
        };
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end_ns.saturating_sub(s.start_ns);
            let self_ns = own - covered(&mut children[i], s.start_ns, s.end_ns).min(own);
            if Some(i) == root {
                out.unattributed_s = self_ns as f64 * 1e-9;
            } else {
                *out.self_s.entry(layer_of(s.name).to_string()).or_default() +=
                    self_ns as f64 * 1e-9;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                w,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
                 \"req\": {req}, \"start_ns\": {}, \"end_ns\": {}, \"attrs\": {{{}}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns,
                s.end_ns,
                attrs.join(", ")
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.span("run", None, None, at(0), at(100));
        let req = t.span("serve.request", root, Some(1), at(10), at(50));
        t.span("serve.queue", req, Some(1), at(10), at(20));
        t.span("serve.after_dispatch", req, Some(1), at(20), at(50));
        t.span("graph.generate", root, None, at(40), at(60));
        let a = t.analyse(root);
        // Root children cover [10, 60): 50 ms of 100 ms.
        assert!((a.unattributed_s - 0.050).abs() < 1e-9);
        assert!((a.self_s["serve"] - 0.040).abs() < 1e-9);
        assert!((a.self_s["graph"] - 0.020).abs() < 1e-9);
        assert_eq!(layer_of("serve.start"), "tune");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("run", None, None, now, now), None);
        assert_eq!(t.analyse(None).spans, 0);
    }
}
