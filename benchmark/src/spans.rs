//! Spans recorded by the benchmark itself, around its calls into each
//! layer's public functions. A span carries name, start, end, the span
//! that caused it and the operation id; spans stay in memory until the
//! run ends. A recorder that is off costs one branch per call, so the
//! untraced run shares the traced run's code.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;
use vo_obs::json::Json;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (`client.get`, `core.query_get`, …).
    pub name: &'static str,
    /// The operation (request, cycle) this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self, thread: usize, id: usize) -> Json {
        Json::obj(vec![
            ("thread", Json::Int(thread as i64)),
            ("id", Json::Int(id as i64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("op", Json::Int(self.op as i64)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Int(self.start_ns as i64)),
            ("end_ns", Json::Int(self.end_ns as i64)),
        ])
    }
}

/// A single thread's span log. Nesting follows call order: a span entered
/// while another is open becomes its child.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording; spans still open stay open.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span of operation `op` under the innermost open span;
    /// returns its id for [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id));
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
    }

    /// Time `f` as one span of operation `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.enter(name, op);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// that interval its direct children cover (overlapping children are
/// counted once, children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name, one value per operation: the microseconds of self time
/// the operation spent in spans of that name (an operation that makes the
/// same call twice — a request frame and a reply frame — counts both).
fn self_us_by_name_and_op(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_ns(spans);
    let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *per_op.entry((s.name, s.op)).or_default() += ns;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        by_name.entry(name).or_default().push(ns as f64 / 1e3);
    }
    by_name
}

/// Median self time per stage, each sample being one operation's total in
/// spans of that name.
pub struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    pub fn of(spans: &[Span]) -> Self {
        Stages(self_us_by_name_and_op(spans))
    }

    pub fn p50(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Σ of the stages' medians.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.p50(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // overlaps `a` by 10 ns: the union [10, 50) covers 40 ns
            span("b", Some(0), 20, 50),
            span("leaf", Some(2), 25, 30),
            // a child reaching past its parent is clipped at the parent's end
            span("late", Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5, 30]);
    }

    #[test]
    fn repeated_calls_in_one_operation_add_up() {
        let mut spans = vec![
            span("op", None, 0, 100),
            span("frame", Some(0), 0, 10),
            span("frame", Some(0), 50, 70),
        ];
        spans.push(Span {
            op: 2,
            ..span("frame", None, 200, 204)
        });
        let by = self_us_by_name_and_op(&spans);
        assert_eq!(by["frame"], vec![0.03, 0.004]);
        assert_eq!(by["op"], vec![0.07]);
    }

    #[test]
    fn recorder_nests_by_call_order_and_is_free_when_off() {
        let mut rec = Recorder::new(true, Instant::now());
        let out = rec.time("outer", 7, |r| r.time("inner", 7, |_| 42));
        assert_eq!(out, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false, Instant::now());
        assert_eq!(off.time("x", 1, |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
