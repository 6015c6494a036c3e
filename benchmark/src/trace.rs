//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around each
//! call into a product layer: name, start, end, the span that caused it,
//! and the request/batch id they belong to. They stay in memory and are
//! written to `benchmark/out/trace-<workload>.json` when the run ends.
//! The untraced run uses [`NoTrace`], which compiles to nothing, so the
//! loops that produce the end-to-end metrics carry no tracing cost.

use crate::json::Json;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;
/// Parent of a root span.
pub const ROOT: SpanId = u32::MAX;
/// Spans written to the trace file; the rest are summarised by name.
const MAX_SPANS_WRITTEN: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's interned names.
    pub name: u16,
    /// The span that caused this one ([`ROOT`] for none).
    pub parent: SpanId,
    /// Request/batch identifier shared by the spans of one batch.
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the measurement loops are generic over, so the untraced variant
/// is the same code with the calls compiled out.
pub trait Tracing {
    fn begin(&mut self, name: u16, parent: SpanId, batch: u64) -> SpanId;
    fn end(&mut self, id: SpanId);
}

/// The untraced run: every call is a no-op.
pub struct NoTrace;

impl Tracing for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _name: u16, _parent: SpanId, _batch: u64) -> SpanId {
        ROOT
    }
    #[inline(always)]
    fn end(&mut self, _id: SpanId) {}
}

/// Counter values read at a named boundary (phase start/end), so ratios
/// are measured where the work happens.
#[derive(Debug, Clone)]
pub struct CounterMark {
    pub label: String,
    pub at_ns: u64,
    pub values: Vec<(String, u64)>,
}

/// The traced run's recorder.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    marks: Vec<CounterMark>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(1 << 20),
            marks: Vec::new(),
        }
    }

    /// Interns a span name; call before the timed loop.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records counters at a boundary.
    pub fn mark(&mut self, label: &str, values: Vec<(String, u64)>) {
        let at_ns = self.now_ns();
        self.marks.push(CounterMark {
            label: label.to_string(),
            at_ns,
            values,
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-name `(name, spans, total self time in ns)`.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, u64)> =
            self.names.iter().map(|n| (*n, 0, 0)).collect();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let slot = &mut out[span.name as usize];
            slot.1 += 1;
            slot.2 += self_ns;
        }
        out
    }

    /// A lookup of total self time by span name, in nanoseconds, computed
    /// once over all spans.
    pub fn self_ns_by_name(&self) -> impl Fn(&str) -> u64 {
        let by_name = self.self_time_by_name();
        move |name| {
            by_name
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0, |t| t.2)
        }
    }

    /// The trace file's content.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .map(|s| {
                Json::Arr(vec![
                    Json::Num(s.name as f64),
                    if s.parent == ROOT {
                        Json::Null
                    } else {
                        Json::Num(s.parent as f64)
                    },
                    Json::Num(s.batch as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                ])
            })
            .collect();
        let self_time = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, count, ns)| {
                Json::obj()
                    .with("name", Json::Str(name.into()))
                    .with("spans", Json::Num(count as f64))
                    .with("self_ns", Json::Num(ns as f64))
            })
            .collect();
        let marks = self
            .marks
            .iter()
            .map(|m| {
                let mut values = Json::obj();
                for (k, v) in &m.values {
                    values.set(k, Json::Num(*v as f64));
                }
                Json::obj()
                    .with("label", Json::Str(m.label.clone()))
                    .with("at_ns", Json::Num(m.at_ns as f64))
                    .with("counters", values)
            })
            .collect();
        Json::obj()
            .with("workload", Json::Str(workload.into()))
            .with(
                "names",
                Json::Arr(self.names.iter().map(|n| Json::Str((*n).into())).collect()),
            )
            .with("spans_recorded", Json::Num(self.spans.len() as f64))
            .with(
                "span_fields",
                Json::Arr(
                    ["name", "parent", "batch", "start_ns", "end_ns"]
                        .iter()
                        .map(|f| Json::Str((*f).into()))
                        .collect(),
                ),
            )
            .with("spans", Json::Arr(spans))
            .with("self_time", Json::Arr(self_time))
            .with("counter_marks", Json::Arr(marks))
    }
}

impl Tracing for Tracer {
    #[inline]
    fn begin(&mut self, name: u16, parent: SpanId, batch: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            batch,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    #[inline]
    fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent != ROOT)
        .collect();
    order.sort_unstable_by_key(|&i| (spans[i].parent, spans[i].start_ns));
    let mut i = 0;
    while i < order.len() {
        let parent = spans[order[i]].parent as usize;
        let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
        // Sweep the parent's children in start order, merging overlaps.
        let mut reach = lo;
        while i < order.len() && spans[order[i]].parent as usize == parent {
            let child = &spans[order[i]];
            let start = child.start_ns.clamp(lo, hi).max(reach);
            let end = child.end_ns.clamp(lo, hi);
            if end > start {
                covered[parent] += end - start;
                reach = end;
            }
            i += 1;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            batch: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; root > c [70,90]
        let spans = [
            span(ROOT, 0, 100),
            span(0, 10, 60),
            span(1, 20, 30),
            span(0, 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50] and [30,70] cover [10,70] = 60 of 100.
        let spans = [span(ROOT, 0, 100), span(0, 10, 50), span(0, 30, 70)];
        assert_eq!(self_times(&spans)[0], 40);
        // A child nested inside a sibling adds nothing.
        let spans = [span(ROOT, 0, 100), span(0, 10, 80), span(0, 20, 30)];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent only covers the overlap.
        let spans = [span(ROOT, 50, 100), span(0, 40, 60), span(0, 90, 150)];
        assert_eq!(self_times(&spans)[0], 30);
        // A child entirely outside covers nothing.
        let spans = [span(ROOT, 50, 100), span(0, 0, 10)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_records_parent_and_batch() {
        let mut t = Tracer::new();
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer);
        let a = t.begin(outer, ROOT, 7);
        let b = t.begin(inner, a, 7);
        t.end(b);
        t.end(a);
        assert_eq!(t.span_count(), 2);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name[0].1, 1);
        assert_eq!(by_name[1].1, 1);
        let total: u64 = by_name.iter().map(|n| n.2).sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
        let json = t.to_json("w");
        assert_eq!(json.get("spans_recorded").and_then(Json::as_f64), Some(2.0));
    }
}
