//! In-memory spans for the traced run, written to one file at its end.
//!
//! The benchmark records a span around each call it makes into a layer:
//! its name, start, end, parent and run id. Spans stay in memory while
//! the run measures and are written once, with per-layer self-time
//! totals, when it ends.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `exec.execute`.
    pub name: &'static str,
    /// Index of the span that caused it, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one round or request.
    pub run: u64,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started; `NaN` while the span is open.
    pub end: f64,
}

impl Span {
    /// Length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span and return its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            run,
            start,
            end: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Close the span `id` and return its length in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.duration()
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, run);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of the span `id`: its length minus what its direct
    /// children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        self_time((span.start, span.end), &children)
    }

    /// Total length per span name of the spans of `run`, in seconds.
    pub fn run_totals(&self, run: u64) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.run == run) {
            *totals.entry(s.name).or_insert(0.0) += s.duration();
        }
        totals
    }

    /// Total self time per span name, in seconds.
    pub fn self_time_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut totals = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            *totals.entry(s.name).or_insert(0.0) += self_time((s.start, s.end), kids);
        }
        totals
    }

    /// The spans and per-name self-time totals as one JSON document,
    /// with `meta` (already-encoded JSON) copied in verbatim.
    pub fn to_json(&self, meta: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"meta\":{meta},\"self_time_s\":{{");
        for (i, (name, secs)) in self.self_time_totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{secs}");
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.run, s.start, s.end
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
