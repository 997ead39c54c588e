//! The slow-operation log: a bounded ring of spans whose duration crossed
//! a per-name threshold.
//!
//! The trace ring evicts old spans — but an operator diagnosing tail
//! latency wants the outliers *kept*, with their fields intact. The slow
//! log hooks the tracer's record path: every closing span is checked
//! against the threshold registered for its name ([`threshold`]), and
//! crossers are copied into a separate bounded ring ([`take`] /
//! [`entries`]) that trace-ring eviction does not touch.
//!
//! Cost when unused: one relaxed atomic load per recorded span (and
//! recording itself only happens while tracing is enabled, so the
//! tracing-off hot path is unchanged). Thresholds are process-global,
//! like the tracer and the metrics registry.

use crate::trace::SpanEvent;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Default ring capacity: enough to hold a burst of outliers without
/// growing unbounded on a pathological workload.
pub const DEFAULT_CAPACITY: usize = 256;

/// Number of registered thresholds — the fast-path guard that keeps
/// [`observe`] at one relaxed load when the slow log is unused.
static THRESHOLD_COUNT: AtomicU64 = AtomicU64::new(0);

/// One threshold-crossing span, with its full fields retained.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOp {
    /// The span exactly as the tracer recorded it.
    pub event: SpanEvent,
    /// The threshold (µs) it crossed, for context in exports.
    pub threshold_us: u64,
}

struct SlowLog {
    thresholds: BTreeMap<&'static str, u64>,
    ring: VecDeque<SlowOp>,
    capacity: usize,
    dropped: u64,
}

fn log() -> &'static Mutex<SlowLog> {
    static L: OnceLock<Mutex<SlowLog>> = OnceLock::new();
    L.get_or_init(|| {
        Mutex::new(SlowLog {
            thresholds: BTreeMap::new(),
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
}

/// Register (or tighten/loosen) the slow threshold for spans named
/// `name`: any such span closing with a duration of at least `min` is
/// copied into the slow log. Names are the tracer's `&'static` span
/// names (`"penguin.apply_batch"`, `"maintain.refresh"`, ...).
pub fn threshold(name: &'static str, min: Duration) {
    let mut l = log().lock().unwrap();
    if l.thresholds
        .insert(name, min.as_micros().max(1) as u64)
        .is_none()
    {
        THRESHOLD_COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

/// Remove the threshold for `name`; returns whether one was registered.
pub fn clear_threshold(name: &str) -> bool {
    let mut l = log().lock().unwrap();
    let removed = l.thresholds.remove(name).is_some();
    if removed {
        THRESHOLD_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
    removed
}

/// Tracer hook: copy `event` into the ring when it crossed its name's
/// threshold. One relaxed load when no thresholds are registered.
pub(crate) fn observe(event: &SpanEvent) {
    if THRESHOLD_COUNT.load(Ordering::Relaxed) == 0 {
        return;
    }
    let mut l = log().lock().unwrap();
    let Some(&us) = l.thresholds.get(event.name) else {
        return;
    };
    if event.dur_us < us {
        return;
    }
    if l.ring.len() >= l.capacity {
        l.ring.pop_front();
        l.dropped += 1;
    }
    let op = SlowOp {
        event: event.clone(),
        threshold_us: us,
    };
    l.ring.push_back(op);
    crate::metrics::counter("obs.slowlog.recorded").inc();
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

/// Resize the ring (evicting oldest entries if shrinking).
pub fn set_capacity(capacity: usize) {
    let mut l = log().lock().unwrap();
    l.capacity = capacity.max(1);
    while l.ring.len() > l.capacity {
        l.ring.pop_front();
        l.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace;

    #[test]
    fn slow_spans_are_captured_with_fields() {
        let _serial = trace::test_serial();
        let _scope = trace::start_trace();
        clear();
        threshold("test.slowlog.op", Duration::from_micros(1));
        {
            let mut s = trace::span("test.slowlog.op");
            s.field("rows", Json::Int(42));
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            // under threshold: a name with a huge threshold is not logged
            threshold("test.slowlog.fast", Duration::from_secs(3600));
            let _s = trace::span("test.slowlog.fast");
        }
        let ops: Vec<SlowOp> = take()
            .into_iter()
            .filter(|o| o.event.name.starts_with("test.slowlog."))
            .collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].event.name, "test.slowlog.op");
        assert_eq!(ops[0].event.field("rows"), Some(&Json::Int(42)));
        assert_eq!(ops[0].threshold_us, 1);
        assert!(clear_threshold("test.slowlog.op"));
        assert!(clear_threshold("test.slowlog.fast"));
        assert!(!clear_threshold("test.slowlog.op"));
    }

    #[test]
    fn unthresholded_names_cost_nothing_and_log_nothing() {
        let _serial = trace::test_serial();
        let _scope = trace::start_trace();
        clear();
        {
            let _s = trace::span("test.slowlog.unregistered");
        }
        assert!(entries()
            .iter()
            .all(|o| o.event.name != "test.slowlog.unregistered"));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let _serial = trace::test_serial();
        let _scope = trace::start_trace();
        clear();
        set_capacity(4);
        threshold("test.slowlog.burst", Duration::from_micros(1));
        for _ in 0..10 {
            let _s = trace::span("test.slowlog.burst");
            std::thread::sleep(Duration::from_micros(100));
        }
        let burst: Vec<SlowOp> = entries()
            .into_iter()
            .filter(|o| o.event.name == "test.slowlog.burst")
            .collect();
        assert_eq!(burst.len(), 4);
        assert_eq!(dropped(), 6);
        clear_threshold("test.slowlog.burst");
        clear();
        set_capacity(DEFAULT_CAPACITY);
    }
}
