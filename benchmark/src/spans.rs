//! Spans recorded by the harness around every call into a layer.
//!
//! The orchestration is single-threaded, so a stack of open spans gives
//! each new span its parent. Spans stay in memory and are written as one
//! Chrome-trace file when the run ends; with recording off the same calls
//! only read the clock, which is how the untraced run times its operations.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `ca-core.calu`.
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// Handle of an open span; an untraced run hands out start times only.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    origin: Instant,
    record: bool,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, record: bool, origin: Instant) -> Self {
        Self { origin, record, workload: workload.to_string(), spans: Vec::new(), open: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span; spans opened before [`Tracer::exit`] are its children.
    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let index = self.record.then(|| {
            let start_us = self.us(start);
            self.spans.push(Span {
                name: name.to_string(),
                start_us,
                end_us: start_us,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `span` and returns its duration in seconds.
    pub fn exit(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            assert_eq!(self.open.pop(), Some(i), "spans must close in LIFO order");
            self.spans[i].end_us = self.us(end);
        }
        end.duration_since(span.start).as_secs_f64()
    }

    /// Times one call into a layer as a leaf span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.enter(name);
        let out = f();
        (out, self.exit(span))
    }

    /// Self time per layer (the span-name prefix before the first `.`).
    pub fn layer_self_seconds(&self) -> BTreeMap<String, f64> {
        let mut by_layer = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self_times_us(&self.spans)) {
            let layer = span.name.split('.').next().unwrap_or(&span.name);
            *by_layer.entry(layer.to_string()).or_insert(0.0) += self_us / 1e6;
        }
        by_layer
    }

    /// The spans as Chrome-trace "complete" events (`chrome://tracing`,
    /// Perfetto); parent index, workload id and self time ride in `args`.
    pub fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .zip(self_times_us(&self.spans))
            .enumerate()
            .map(|(i, (s, self_us))| {
                json!({
                    "name": s.name.as_str(),
                    "cat": s.name.split('.').next().unwrap_or(""),
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.end_us - s.start_us,
                    "pid": 1,
                    "tid": 1,
                    "args": json!({
                        "id": i,
                        "parent": s.parent.map_or(-1.0, |p| p as f64),
                        "workload": self.workload.as_str(),
                        "self_us": self_us,
                    }),
                })
            })
            .collect();
        json!({ "traceEvents": events, "displayTimeUnit": "ms" })
    }
}

/// A span's self time: its duration minus the durations of its children.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.end_us - s.start_us;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_us, end_us, parent }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("bench.run", 0.0, 100.0, None),
            span("ca-core.calu", 10.0, 40.0, Some(0)),
            span("ca-kernels.gemm", 15.0, 25.0, Some(1)),
            span("ca-core.caqr", 50.0, 90.0, Some(0)),
        ];
        // Grandchildren are charged to their parent only.
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
    }

    #[test]
    fn tracer_nests_spans_and_sums_layers() {
        let mut t = Tracer::new("w", true, Instant::now());
        let outer = t.enter("bench.phase");
        t.time("ca-core.calu", || ());
        t.time("ca-core.caqr", || ());
        t.exit(outer);
        assert_eq!(t.spans.iter().map(|s| s.parent).collect::<Vec<_>>(), vec![None, Some(0), Some(0)]);
        let layers = t.layer_self_seconds();
        assert_eq!(layers.keys().collect::<Vec<_>>(), ["bench", "ca-core"]);
        let total: f64 = layers.values().sum();
        let outer_s = (t.spans[0].end_us - t.spans[0].start_us) / 1e6;
        assert!((total - outer_s).abs() < 1e-9, "self times partition the root span");
        assert_eq!(t.chrome_trace()["traceEvents"].as_array().map(Vec::len), Some(3));
    }

    #[test]
    fn untraced_tracer_times_without_recording() {
        let mut t = Tracer::new("w", false, Instant::now());
        let (v, secs) = t.time("ca-core.calu", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0 && t.spans.is_empty());
    }
}
