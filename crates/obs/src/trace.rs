//! Span-based tracing: thread-local span stacks, monotonic timings, and a
//! bounded global event collector with JSONL export.
//!
//! Tracing is **off by default** and costs exactly one relaxed atomic load
//! per instrumentation point while off: every entry point ([`span`],
//! [`event_with`]) checks [`enabled`] first and returns an inert value
//! without touching the clock, the thread-local stack, or the collector.
//!
//! Activation is scoped and re-entrant: [`start_trace`] returns a guard
//! that keeps tracing on until dropped, and concurrent guards (e.g. two
//! tests in the same process) stack — tracing stays on until the last
//! guard drops. Because the collector is process-global, consumers that
//! run concurrently with other traced work should filter the drained
//! events by [`SpanEvent::thread`] (see [`current_thread_id`]) and/or by
//! span name.
//!
//! Span events are recorded at *close* time (children before parents);
//! [`SpanEvent::parent`]/[`SpanEvent::depth`] let consumers rebuild the
//! tree. Instant events ([`event_with`]) carry a zero duration and attach
//! to the innermost open span of their thread. A span opened on a thread
//! with no open span is the root of its own tree.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of guards currently holding tracing on (0 = disabled).
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Monotonic id source for spans and events (process-wide).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Id source for threads; each thread interns one id on first use.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans, innermost last: `(id, root)` where `root` is the id of
    /// the trace's top-level span (see [`SpanEvent::root`]).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// This thread's interned id.
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// True while at least one [`TraceScope`] guard is alive. This is the
/// single branch every instrumentation point pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The interned id of the calling thread, as recorded in
/// [`SpanEvent::thread`]. Use it to filter the global collector down to
/// events produced by the current thread.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// The id of the innermost open span on this thread, or `None` outside
/// any span.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().map(|&(id, _)| id))
}

/// The effective `(parent, root)` at open time for a new span or event
/// with the given fresh id: the innermost open span of this thread (whose
/// root is inherited), else the new span is its own root.
fn effective_parent(stack: &[(u64, u64)], id: u64) -> (Option<u64>, u64) {
    match stack.last() {
        Some(&(pid, root)) => (Some(pid), root),
        None => (None, id),
    }
}

/// Keeps tracing enabled until dropped; guards stack across threads.
#[must_use = "tracing turns back off when the scope is dropped"]
#[derive(Debug)]
pub struct TraceScope(());

impl Drop for TraceScope {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turn tracing on for the lifetime of the returned guard.
pub fn start_trace() -> TraceScope {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    TraceScope(())
}

/// One finished span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Unique id (also the ordering handle for parent links).
    pub id: u64,
    /// Interned id of the producing thread.
    pub thread: u64,
    /// Static name, dotted by layer: `"integrity.cascade"`, `"penguin.translate"`.
    pub name: &'static str,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Id of the trace's top-level span (self for a root span).
    /// This is the trace id every span and event of one top-level
    /// operation shares.
    pub root: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Microseconds since the process trace epoch at open time.
    pub start_us: u64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Structured payload, insertion-ordered.
    pub fields: Vec<(&'static str, Json)>,
}

impl SpanEvent {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Serialize as one compact JSON object directly into `out` (no
    /// trailing newline): `id`, `thread`, `name`, `parent`, `root`,
    /// `depth`, `start_us`, `dur_us`, then `fields` as an object in
    /// insertion order. The one encoder of a span event; [`export_jsonl`]
    /// writes one per line.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"id\":{},\"thread\":{},\"name\":",
            self.id, self.thread
        );
        crate::json::write_escaped(out, self.name);
        match self.parent {
            Some(p) => {
                let _ = write!(out, ",\"parent\":{p}");
            }
            None => out.push_str(",\"parent\":null"),
        }
        let _ = write!(
            out,
            ",\"root\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{},\"fields\":{{",
            self.root, self.depth, self.start_us, self.dur_us
        );
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_escaped(out, k);
            out.push(':');
            v.write_compact(out);
        }
        out.push_str("}}");
    }
}

/// Render events as JSONL: one compact JSON object per line.
pub fn export_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        e.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

const DEFAULT_CAPACITY: usize = 65_536;

struct Collector {
    buf: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| {
        Mutex::new(Collector {
            buf: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
}

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

fn record(event: SpanEvent) {
    // The slow-op log keeps its own copy of threshold-crossing spans, so
    // they survive ring eviction.
    crate::slowlog::observe(&event);
    let mut c = collector().lock().unwrap();
    if c.buf.len() >= c.capacity {
        c.buf.pop_front();
        c.dropped += 1;
    }
    c.buf.push_back(event);
}

/// Drain and return every collected event (oldest first).
pub fn take() -> Vec<SpanEvent> {
    let mut c = collector().lock().unwrap();
    c.buf.drain(..).collect()
}

/// Copy the collected events without draining them.
pub fn events() -> Vec<SpanEvent> {
    collector().lock().unwrap().buf.iter().cloned().collect()
}

/// Discard all collected events.
pub fn clear() {
    let mut c = collector().lock().unwrap();
    c.buf.clear();
    c.dropped = 0;
}

/// Number of events evicted because the ring buffer was full.
pub fn dropped() -> u64 {
    collector().lock().unwrap().dropped
}

/// Resize the ring buffer (evicting oldest events if shrinking).
pub fn set_capacity(capacity: usize) {
    let mut c = collector().lock().unwrap();
    c.capacity = capacity.max(1);
    while c.buf.len() > c.capacity {
        c.buf.pop_front();
        c.dropped += 1;
    }
}

struct OpenSpan {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    root: u64,
    depth: usize,
    start: Instant,
    fields: Vec<(&'static str, Json)>,
}

/// RAII handle for an open span; records a [`SpanEvent`] on drop. Inert
/// (all methods no-ops) when created while tracing was disabled.
#[must_use = "a span measures the region up to its drop point"]
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a field to the span (no-op when the span is not recording).
    pub fn field(&mut self, key: &'static str, value: Json) {
        if let Some(open) = &mut self.inner {
            open.fields.push((key, value));
        }
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else {
            return;
        };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop back to (and including) this span; tolerate guards
            // dropped out of order rather than corrupting the stack.
            if let Some(pos) = stack.iter().rposition(|&(id, _)| id == open.id) {
                stack.truncate(pos);
            }
        });
        let start_us = open.start.duration_since(epoch()).as_micros() as u64;
        let dur_us = open.start.elapsed().as_micros() as u64;
        record(SpanEvent {
            id: open.id,
            thread: current_thread_id(),
            name: open.name,
            parent: open.parent,
            root: open.root,
            depth: open.depth,
            start_us,
            dur_us,
            fields: open.fields,
        });
    }
}

/// Open a span; inert when tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, root, depth) = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let (parent, root) = effective_parent(&stack, id);
        let depth = stack.len();
        stack.push((id, root));
        (parent, root, depth)
    });
    SpanGuard {
        inner: Some(OpenSpan {
            id,
            name,
            parent,
            root,
            depth,
            start: Instant::now(),
            // one exact-size allocation for the common field count — the
            // 0→4→8 growth path costs a realloc on every 5-field span
            fields: Vec::with_capacity(8),
        }),
    }
}

/// Record an instant event; the field closure only runs when tracing is
/// enabled, so the disabled cost is the single [`enabled`] branch.
pub fn event_with(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Json)>) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, root, depth) = STACK.with(|s| {
        let stack = s.borrow();
        let (parent, root) = effective_parent(&stack, id);
        (parent, root, stack.len())
    });
    let start_us = Instant::now().duration_since(epoch()).as_micros() as u64;
    record(SpanEvent {
        id,
        thread: current_thread_id(),
        name,
        parent,
        root,
        depth,
        start_us,
        dur_us: 0,
        fields: fields(),
    });
}

/// Crate-wide serialization for tests that toggle the process-global
/// trace flag or drain the global collector: every test module in this
/// crate that enables tracing must hold this lock, or concurrent test
/// threads would observe each other's events.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These tests toggle the process-global enabled flag, so they must
    /// not overlap each other.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_serial()
    }

    fn my_events(named: &str) -> Vec<SpanEvent> {
        let me = current_thread_id();
        events()
            .into_iter()
            .filter(|e| e.thread == me && e.name == named)
            .collect()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _serial = serial();
        // No scope held: a span opened now must be inert.
        let mut g = span("test.disabled_span");
        assert!(!g.is_recording());
        g.field("k", Json::Int(1));
        drop(g);
        event_with("test.disabled_event", || {
            panic!("field closure must not run while tracing is off")
        });
        assert!(my_events("test.disabled_span").is_empty());
        assert!(my_events("test.disabled_event").is_empty());
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let _serial = serial();
        let _scope = start_trace();
        {
            let mut outer = span("test.outer");
            outer.field("tag", Json::str("o"));
            {
                let _inner = span("test.inner");
                event_with("test.instant", || vec![("n", Json::Int(7))]);
            }
        }
        let outer = my_events("test.outer");
        let inner = my_events("test.inner");
        let instant = my_events("test.instant");
        assert_eq!(outer.len(), 1);
        assert_eq!(inner.len(), 1);
        assert_eq!(instant.len(), 1);
        assert_eq!(inner[0].parent, Some(outer[0].id));
        assert_eq!(inner[0].depth, 1);
        assert_eq!(instant[0].parent, Some(inner[0].id));
        assert_eq!(instant[0].dur_us, 0);
        assert_eq!(instant[0].field("n"), Some(&Json::Int(7)));
        assert_eq!(outer[0].field("tag").unwrap().as_str().unwrap(), "o");
    }

    #[test]
    fn jsonl_export_parses_back() {
        let _serial = serial();
        let _scope = start_trace();
        {
            let mut outer = span("test.jsonl");
            outer.field("rows", Json::Int(3));
            outer.field("s", Json::str("a \"quoted\" value\n"));
            outer.field("i", Json::Int(-7));
            outer.field("f", Json::Float(1.5));
            outer.field("n", Json::Null);
            let _inner = span("test.jsonl");
        }
        let evs = my_events("test.jsonl");
        assert_eq!(evs.len(), 2);
        let jsonl = export_jsonl(&evs);
        assert_eq!(jsonl.lines().count(), evs.len());
        for (line, e) in jsonl.lines().zip(&evs) {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.field("name").unwrap().as_str().unwrap(), e.name);
            let parent = e.parent.map_or(Json::Null, |p| Json::Int(p as i64));
            assert_eq!(v.field("parent").unwrap(), &parent);
            let numbers = [
                ("id", e.id),
                ("thread", e.thread),
                ("root", e.root),
                ("depth", e.depth as u64),
                ("start_us", e.start_us),
                ("dur_us", e.dur_us),
            ];
            for (k, want) in numbers {
                assert_eq!(v.field(k).unwrap().as_i64().unwrap(), want as i64, "{k}");
            }
            // every field reads back equal, in insertion order: the
            // escaped string, -7, 1.5 and null on the outer span
            let fields = v.field("fields").unwrap().entries().unwrap();
            assert_eq!(fields.len(), e.fields.len());
            for ((k, got), (want_k, want)) in fields.iter().zip(&e.fields) {
                assert_eq!(k, want_k);
                assert_eq!(got, want, "{k}");
            }
        }
    }

    #[test]
    fn roots_propagate_through_nesting() {
        let _serial = serial();
        let _scope = start_trace();
        {
            let _outer = span("test.root_outer");
            let _mid = span("test.root_mid");
            event_with("test.root_event", Vec::new);
        }
        let evs = events();
        let me = current_thread_id();
        let outer = evs
            .iter()
            .find(|e| e.thread == me && e.name == "test.root_outer")
            .unwrap();
        // a top-level span is its own root
        assert_eq!(outer.root, outer.id);
        // children and instant events inherit it
        for name in ["test.root_mid", "test.root_event"] {
            let e = evs
                .iter()
                .find(|e| e.thread == me && e.name == name)
                .unwrap();
            assert_eq!(e.root, outer.id, "{name}");
        }
    }

    #[test]
    fn concurrent_writers_overflow_counts_dropped_exactly() {
        let _serial = serial();
        let _scope = start_trace();
        clear();
        set_capacity(64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let mut s = span("test.concurrent_writer");
                        s.field("t", Json::Int(t));
                        s.field("i", Json::Int(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 400 spans into a 64-slot ring: exactly 336 evictions, no more,
        // no less, even under contention
        assert_eq!(events().len(), 64);
        assert_eq!(dropped(), 336);
        clear();
        set_capacity(DEFAULT_CAPACITY);
    }

    #[test]
    fn set_capacity_mid_stream_keeps_active_span_linkage() {
        let _serial = serial();
        let _scope = start_trace();
        let (outer_id, inner_events);
        {
            let outer = span("test.shrink_outer");
            assert!(outer.is_recording());
            outer_id = current_span_id().unwrap();
            // fill the ring, then shrink it out from under the open span
            for _ in 0..32 {
                event_with("test.shrink_noise", Vec::new);
            }
            set_capacity(1);
            // the ring evicted everything, but the *stack* is untouched:
            // a child opened now still parents into the live span
            {
                let _inner = span("test.shrink_inner");
            }
            set_capacity(DEFAULT_CAPACITY);
            {
                let _inner = span("test.shrink_inner");
            }
            inner_events = my_events("test.shrink_inner");
        }
        assert_eq!(inner_events.len(), 2);
        for e in &inner_events {
            assert_eq!(e.parent, Some(outer_id));
            assert_eq!(e.root, outer_id);
            assert_eq!(e.depth, 1);
        }
        // the outer span itself closes intact after both resizes
        let outer = my_events("test.shrink_outer");
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].parent, None);
    }

    #[test]
    fn nested_scopes_keep_tracing_on() {
        let _serial = serial();
        let a = start_trace();
        let b = start_trace();
        drop(a);
        assert!(enabled());
        {
            let _s = span("test.nested_scope");
        }
        assert_eq!(my_events("test.nested_scope").len(), 1);
        drop(b);
    }
}
