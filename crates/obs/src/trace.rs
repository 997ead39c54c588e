//! Span-based tracing: thread-local span stacks, monotonic timings, a
//! bounded global event collector with JSONL export, and per-call
//! captures.
//!
//! Tracing is **off by default** and costs exactly one relaxed atomic load
//! per instrumentation point while off: every entry point ([`span`],
//! [`event_with`]) checks [`enabled`] first and returns an inert value
//! without touching the clock, the thread-local stack, or the collector.
//!
//! Two things turn recording on, and both are scoped:
//!
//! - [`start_trace`] returns a guard that keeps tracing on, for every
//!   thread, until dropped. Concurrent guards (e.g. two tests in the same
//!   process) stack — tracing stays on until the last guard drops. What
//!   is recorded outside a capture goes to the process-global collector
//!   ([`take`], [`events`]) and past the slow-op log.
//! - [`capture`] runs a closure and returns, beside its result, every span
//!   and event the *calling thread* recorded while it ran. What a capture
//!   takes goes nowhere else — not to the collector, not to the slow-op
//!   log — and other threads record nothing on its account. This is how a
//!   call renders what it did (`EXPLAIN ANALYZE`, `Penguin::profile`) and
//!   how a test reads its own spans without filtering a shared ring.
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

/// Number of [`start_trace`] guards and open [`capture`]s, on any thread
/// (0 = nothing records anywhere).
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Number of [`start_trace`] guards alone: outside a capture, a thread
/// records only while this is non-zero.
static GLOBAL: AtomicU64 = AtomicU64::new(0);

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
    /// This thread's open captures, innermost last: what each has taken.
    static CAPTURES: RefCell<Vec<Vec<SpanEvent>>> = const { RefCell::new(Vec::new()) };
}

/// True while a [`TraceScope`] guard is alive or a [`capture`] is open on
/// any thread. This is the single branch every instrumentation point pays
/// when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// True when what this thread records now goes somewhere: a guard is
/// alive, or this thread has a capture open. Asked only once [`enabled`]
/// said yes, so the off path never reaches it.
fn recording_here() -> bool {
    GLOBAL.load(Ordering::Relaxed) != 0 || CAPTURES.with(|c| !c.borrow().is_empty())
}

/// The interned id of the calling thread, as recorded in
/// [`SpanEvent::thread`]. Use it to filter the global collector down to
/// events produced by the current thread.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
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
        GLOBAL.fetch_sub(1, Ordering::Relaxed);
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turn tracing on for the lifetime of the returned guard.
pub fn start_trace() -> TraceScope {
    GLOBAL.fetch_add(1, Ordering::Relaxed);
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    TraceScope(())
}

/// Run `f` and return, beside its result, every span and event the calling
/// thread recorded while it ran, in the order they closed.
///
/// - Only the calling thread is captured: spans other threads record in
///   the meantime are not taken, and a capture makes no other thread
///   record (without a [`start_trace`] guard they stay on the off path).
/// - What a capture takes goes nowhere else: not to the global collector
///   ([`take`] / [`events`]) and not to the slow-op log — even while a
///   guard is alive.
/// - Captures nest. An inner capture returns what was recorded while it
///   ran; the enclosing capture receives the same events too, so every
///   capture returns everything its thread recorded while it was open.
/// - A span opened inside `f` keeps its parent outside it, if one was
///   open: the captured tree may hang from a span the capture does not
///   hold.
///
/// While no capture is open and no guard is alive anywhere, the
/// instrumentation points cost their one relaxed load, as before.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanEvent>) {
    /// Closes the capture if `f` unwinds, so the thread does not keep
    /// recording into a buffer nobody reads.
    struct Open;
    impl Drop for Open {
        fn drop(&mut self) {
            close_capture();
        }
    }
    CAPTURES.with(|c| c.borrow_mut().push(Vec::new()));
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    let open = Open;
    let out = f();
    std::mem::forget(open);
    (out, close_capture())
}

/// Pop this thread's innermost capture, hand a copy of what it took to the
/// enclosing one, and return it.
fn close_capture() -> Vec<SpanEvent> {
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
    CAPTURES.with(|c| {
        let mut open = c.borrow_mut();
        let taken = open.pop().expect("a capture closes what it opened");
        if let Some(outer) = open.last_mut() {
            outer.extend(taken.iter().cloned());
        }
        taken
    })
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

/// Hand a finished event to this thread's innermost capture, else to the
/// slow-op log and the global collector.
fn record(event: SpanEvent) {
    let Some(event) = CAPTURES.with(|c| match c.borrow_mut().last_mut() {
        Some(taken) => {
            taken.push(event);
            None
        }
        None => Some(event),
    }) else {
        return;
    };
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

/// Open a span; inert when nothing would receive it (no guard alive, no
/// capture open on this thread).
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() || !recording_here() {
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

/// Record an instant event; the field closure only runs when the event
/// goes somewhere, so the disabled cost is the single [`enabled`] branch.
pub fn event_with(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Json)>) {
    if !enabled() || !recording_here() {
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
        let inner_events;
        {
            let outer = span("test.shrink_outer");
            assert!(outer.is_recording());
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
        // the outer span itself closes intact after both resizes
        let outer = my_events("test.shrink_outer");
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].parent, None);
        let outer_id = outer[0].id;
        assert_eq!(inner_events.len(), 2);
        for e in &inner_events {
            assert_eq!(e.parent, Some(outer_id));
            assert_eq!(e.root, outer_id);
            assert_eq!(e.depth, 1);
        }
    }

    /// Names of the events in `evs` that start with `prefix`, in order.
    fn names(evs: &[SpanEvent], prefix: &str) -> Vec<&'static str> {
        evs.iter()
            .map(|e| e.name)
            .filter(|n| n.starts_with(prefix))
            .collect()
    }

    /// Open a span and an event named `test.capture.other.*` on a new
    /// thread while the caller's capture is open; returns what that thread
    /// saw of its own recording.
    fn record_on_another_thread() -> bool {
        std::thread::spawn(|| {
            let recording = span("test.capture.other.span").is_recording();
            event_with("test.capture.other.event", Vec::new);
            recording
        })
        .join()
        .unwrap()
    }

    #[test]
    fn a_capture_takes_only_its_own_thread() {
        let _serial = serial();
        // no guard: the other thread stays on the off path, and its event
        // closure never runs on account of this capture
        let (other_recorded, taken) = capture(|| {
            let _mine = span("test.capture.mine");
            std::thread::spawn(|| {
                event_with("test.capture.other.event", || {
                    panic!("a capture on another thread must not make this one record")
                })
            })
            .join()
            .unwrap();
            record_on_another_thread()
        });
        assert!(!other_recorded);
        assert_eq!(names(&taken, "test.capture."), ["test.capture.mine"]);
        // a concurrent guard: the other thread records into the global
        // ring, the capture still holds only its own thread's span
        let _scope = start_trace();
        let (other_recorded, taken) = capture(|| {
            let _mine = span("test.capture.mine");
            record_on_another_thread()
        });
        assert!(other_recorded);
        assert_eq!(names(&taken, "test.capture."), ["test.capture.mine"]);
        let global = events();
        assert_eq!(
            names(&global, "test.capture."),
            ["test.capture.other.span", "test.capture.other.event"]
        );
        clear();
    }

    #[test]
    fn what_a_capture_takes_goes_nowhere_else() {
        let _serial = serial();
        let _scope = start_trace();
        clear();
        crate::slowlog::clear();
        crate::slowlog::threshold("test.capture.slow", std::time::Duration::from_micros(1));
        let ((), taken) = capture(|| {
            let mut slow = span("test.capture.slow");
            slow.field("rows", Json::Int(3));
            std::thread::sleep(std::time::Duration::from_millis(2));
            event_with("test.capture.instant", || vec![("n", Json::Int(1))]);
        });
        // the capture has both, the event parented to the open span ...
        assert_eq!(
            names(&taken, "test.capture."),
            ["test.capture.instant", "test.capture.slow"]
        );
        assert_eq!(taken[0].parent, Some(taken[1].id));
        assert!(taken[1].dur_us >= 1);
        assert_eq!(taken[1].field("rows"), Some(&Json::Int(3)));
        // ... and neither the ring nor the slow-op log saw them, though a
        // guard is alive and the span crossed its threshold
        assert!(names(&events(), "test.capture.").is_empty());
        let slow = crate::slowlog::entries();
        assert!(slow.iter().all(|o| o.event.name != "test.capture.slow"));
        // outside the capture the same span reaches both
        {
            let _slow = span("test.capture.slow");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(names(&events(), "test.capture."), ["test.capture.slow"]);
        let slow = crate::slowlog::entries();
        assert!(slow.iter().any(|o| o.event.name == "test.capture.slow"));
        crate::slowlog::clear_threshold("test.capture.slow");
        crate::slowlog::clear();
        clear();
    }

    #[test]
    fn nested_captures_each_return_what_ran_inside_them() {
        let _serial = serial();
        let ((inner, after), outer) = capture(|| {
            let _before = span("test.capture.outer_before");
            let ((), inner) = capture(|| {
                let _inner = span("test.capture.inner");
            });
            let after = span("test.capture.outer_after");
            (inner, after.is_recording())
        });
        assert!(after, "closing the inner capture leaves the outer open");
        assert_eq!(names(&inner, "test.capture."), ["test.capture.inner"]);
        // the outer capture holds the inner one's span too, in close order
        assert_eq!(
            names(&outer, "test.capture."),
            [
                "test.capture.inner",
                "test.capture.outer_after",
                "test.capture.outer_before"
            ]
        );
        assert_eq!(outer[0], inner[0]);
        // both closed: nothing records any more
        assert!(!span("test.capture.closed").is_recording());
    }

    #[test]
    fn a_capture_closes_when_its_closure_unwinds() {
        let _serial = serial();
        let unwound = std::panic::catch_unwind(|| {
            capture(|| {
                let _s = span("test.capture.unwinding");
                panic!("unwind through the capture");
            })
        });
        assert!(unwound.is_err());
        assert!(!span("test.capture.after_unwind").is_recording());
        event_with("test.capture.after_unwind", || {
            panic!("nothing is open after the capture unwound")
        });
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
