//! Outside-in spans: the benchmark times each layer's public entry point
//! and records one span per call. Nothing inside the program is
//! instrumented. Spans stay in memory until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::{median, self_time};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer, as the per-layer metric names it (`filters.kernel`).
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub request: usize,
    /// The span this call is a part of on the request's path, or `None`
    /// when the layer is off the path (timed at the same shape anyway).
    pub parent: Option<usize>,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The spans of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as span `name` of `request` under `parent`; returns its
    /// result and the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Duration of span `id` in ms.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].ms()
    }

    /// Self time of span `id` in ms: its duration minus its children's.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .collect();
        self_time(self.ms(id), &children)
    }

    /// Median duration of every span named `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Median self time of every span named `name`.
    pub fn median_self_ms(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ms(i))
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Write every span as one JSON object per line (`id` is the line's
    /// index, which `parent` refers to).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ms\": {}, \"end_ms\": {}}}",
                s.name,
                s.request,
                s.start.as_secs_f64() * 1e3,
                s.end.as_secs_f64() * 1e3
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(
        t: &mut Tracer,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        t.spans.push(Span {
            name,
            request: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        });
        t.spans.len() - 1
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let wire = at(&mut t, "wire", None, 0, 100);
        let svc = at(&mut t, "server.service", Some(wire), 100, 170);
        let bo = at(&mut t, "harness.brownout", Some(svc), 170, 220);
        at(&mut t, "filters.kernel", Some(bo), 220, 260);
        at(&mut t, "server.encode", Some(svc), 260, 265);
        at(&mut t, "volrend.kernel", None, 265, 300);
        assert_eq!(t.self_ms(wire), 30.0);
        assert_eq!(t.self_ms(svc), 15.0);
        assert_eq!(t.self_ms(bo), 10.0);
        assert_eq!(t.median_ms("volrend.kernel"), Some(35.0));
        assert_eq!(t.median_self_ms("harness.brownout"), Some(10.0));
        assert_eq!(t.median_ms("datagen.phantom"), None);
    }

    #[test]
    fn span_records_the_call_and_returns_its_result() {
        let mut t = Tracer::new();
        let (v, id) = t.span("x", 3, None, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans[id].request, 3);
        assert!(t.ms(id) >= 0.0);
    }
}
