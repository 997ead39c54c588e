//! The slow-operation log: a bounded ring of whole request trees in which
//! a span crossed its name's duration threshold.
//!
//! An operator diagnosing tail latency wants the outlier *and what it
//! did*. While at least one threshold is registered ([`threshold`]), every
//! root span on every thread records into a private [`Capture`], as if its
//! caller had wrapped it in [`crate::trace::capture`]; no switch or guard
//! is needed. When the root closes, each span of its tree that crossed
//! its name's threshold becomes a [`SlowOp`] carrying the root's whole
//! capture — spans, events and counter increments — in a bounded ring
//! ([`take`] / [`entries`]). A tree with no crossing is dropped. What an
//! explicit top-level capture takes never reaches the log.
//!
//! Cost when unused: none beyond the tracer's one relaxed load per
//! instrumentation point. Thresholds are process-global, like the metrics
//! registry.

use crate::trace::{Capture, SpanEvent};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Ring capacity: enough to hold a burst of outliers without growing
/// unbounded on a pathological workload.
pub const DEFAULT_CAPACITY: usize = 256;

/// Number of registered thresholds: while non-zero, root spans record.
static THRESHOLD_COUNT: AtomicU64 = AtomicU64::new(0);

/// One threshold-crossing span, with the tree it ran in.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOp {
    /// The span exactly as the tracer recorded it.
    pub event: SpanEvent,
    /// The threshold (µs) it crossed, for context in exports.
    pub threshold_us: u64,
    /// Everything its root's tree recorded and counted, shared by every
    /// crossing of one tree.
    pub trace: Arc<Capture>,
}

struct SlowLog {
    thresholds: BTreeMap<&'static str, u64>,
    ring: VecDeque<SlowOp>,
    dropped: u64,
}

fn log() -> &'static Mutex<SlowLog> {
    static L: OnceLock<Mutex<SlowLog>> = OnceLock::new();
    L.get_or_init(|| {
        Mutex::new(SlowLog {
            thresholds: BTreeMap::new(),
            ring: VecDeque::new(),
            dropped: 0,
        })
    })
}

/// Register (or tighten/loosen) the slow threshold for spans named
/// `name`: a tree in which such a span closes with a duration of at least
/// `min` is kept in the slow log. Names are the tracer's `&'static` span
/// names (`"penguin.apply_batch"`, `"net.request"`, ...).
pub fn threshold(name: &'static str, min: Duration) {
    let mut l = log().lock().unwrap();
    if l.thresholds
        .insert(name, min.as_micros().max(1) as u64)
        .is_none()
    {
        THRESHOLD_COUNT.fetch_add(1, Ordering::Relaxed);
        crate::trace::hold();
    }
}

/// Remove the threshold for `name`; returns whether one was registered.
pub fn clear_threshold(name: &str) -> bool {
    let mut l = log().lock().unwrap();
    let removed = l.thresholds.remove(name).is_some();
    if removed {
        THRESHOLD_COUNT.fetch_sub(1, Ordering::Relaxed);
        crate::trace::release();
    }
    removed
}

/// True while a threshold is registered: root spans then record.
pub(crate) fn armed() -> bool {
    THRESHOLD_COUNT.load(Ordering::Relaxed) != 0
}

/// Tracer hook for a closed root's private capture: keep one entry per
/// span that crossed its name's threshold, each sharing the whole tree.
pub(crate) fn keep(trace: Capture) {
    let mut l = log().lock().unwrap();
    let crossed: Vec<(usize, u64)> = (trace.spans.iter().enumerate())
        .filter_map(|(i, e)| {
            let us = *l.thresholds.get(e.name)?;
            (e.dur_us >= us).then_some((i, us))
        })
        .collect();
    if crossed.is_empty() {
        return;
    }
    let trace = Arc::new(trace);
    for &(i, threshold_us) in &crossed {
        if l.ring.len() >= DEFAULT_CAPACITY {
            l.ring.pop_front();
            l.dropped += 1;
        }
        l.ring.push_back(SlowOp {
            event: trace.spans[i].clone(),
            threshold_us,
            trace: Arc::clone(&trace),
        });
    }
    drop(l);
    crate::metrics::counter("obs.slowlog.recorded").add(crossed.len() as u64);
}

/// Drain and return every logged slow op (oldest first).
pub fn take() -> Vec<SlowOp> {
    log().lock().unwrap().ring.drain(..).collect()
}

/// Copy the logged slow ops without draining them.
pub fn entries() -> Vec<SlowOp> {
    log().lock().unwrap().ring.iter().cloned().collect()
}

/// Discard all logged slow ops (thresholds stay registered).
pub fn clear() {
    let mut l = log().lock().unwrap();
    l.ring.clear();
    l.dropped = 0;
}

/// Slow ops evicted because the ring was full.
pub fn dropped() -> u64 {
    log().lock().unwrap().dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{metrics, trace};

    /// This module's entries, oldest first.
    fn mine() -> Vec<SlowOp> {
        (entries().into_iter())
            .filter(|o| o.event.name.starts_with("test.slowlog."))
            .collect()
    }

    #[test]
    fn a_crossing_keeps_its_whole_tree_with_counts() {
        let _serial = trace::test_serial();
        clear();
        threshold("test.slowlog.op", Duration::from_micros(1));
        // under threshold: a name with a huge threshold is not logged
        threshold("test.slowlog.fast", Duration::from_secs(3600));
        {
            let _root = trace::span("test.slowlog.root");
            let mut s = trace::span("test.slowlog.op");
            s.field("rows", Json::Int(42));
            metrics::counter("test.slowlog.rows").add(42);
            let _fast = trace::span("test.slowlog.fast");
            std::thread::sleep(Duration::from_millis(2));
        }
        let ops = mine();
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.event.name, "test.slowlog.op");
        assert_eq!(op.event.field("rows"), Some(&Json::Int(42)));
        assert_eq!(op.threshold_us, 1);
        let names: Vec<&str> = op.trace.spans.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["test.slowlog.fast", "test.slowlog.op", "test.slowlog.root"]
        );
        assert!(op.trace.spans.iter().all(|e| e.root == op.event.root));
        assert_eq!(op.trace.count("test.slowlog.rows"), 42);
        // a tree with no crossing is dropped
        {
            let _s = trace::span("test.slowlog.fast");
        }
        assert_eq!(mine().len(), 1);
        assert!(clear_threshold("test.slowlog.op"));
        assert!(clear_threshold("test.slowlog.fast"));
        assert!(!clear_threshold("test.slowlog.op"));
        // no threshold left: a root span is inert again
        assert!(!trace::span("test.slowlog.op").is_recording());
        clear();
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _serial = trace::test_serial();
        clear();
        threshold("test.slowlog.burst", Duration::from_micros(1));
        for _ in 0..DEFAULT_CAPACITY + 6 {
            let _s = trace::span("test.slowlog.burst");
            std::thread::sleep(Duration::from_micros(2));
        }
        assert_eq!(mine().len(), DEFAULT_CAPACITY);
        assert_eq!(dropped(), 6);
        clear_threshold("test.slowlog.burst");
        clear();
    }
}
