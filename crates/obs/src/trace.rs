//! Span-based tracing: thread-local span stacks, monotonic timings, JSONL
//! export, and per-call captures — the one way spans, events and counter
//! increments leave a thread.
//!
//! Tracing is **off by default** and costs exactly one relaxed atomic load
//! per instrumentation point while off: every entry point ([`span`],
//! [`event_with`], each [`crate::metrics::Counter`] increment) checks
//! [`enabled`] first and returns without touching the clock, the
//! thread-local stack, or a capture.
//!
//! Two things make a thread record, and both are scoped:
//!
//! - [`capture`] runs a closure and returns, beside its result, a
//!   [`Capture`] of what the *calling thread* did while it ran: every span
//!   and event it recorded, and every registry counter increment it made.
//!   Other threads record nothing on its account. This is how a call
//!   renders what it did (`EXPLAIN ANALYZE`, `Penguin::profile`) and how a
//!   test counts its own work exactly while other tests run beside it.
//! - While a [`crate::slowlog::threshold`] is registered, a root span — one
//!   opened on a thread with no capture open — records into a private
//!   capture of its own, as if its caller had wrapped it. When the root
//!   closes, the slow-op log keeps that capture whole if a span in it
//!   crossed its name's threshold, and drops it otherwise. What an explicit
//!   top-level capture takes never reaches the slow-op log.
//!
//! Span events are recorded at *close* time (children before parents);
//! [`SpanEvent::parent`]/[`SpanEvent::depth`] let consumers rebuild the
//! tree. Instant events ([`event_with`]) carry a zero duration and attach
//! to the innermost open span of their thread. A span opened on a thread
//! with no open span is the root of its own tree.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Open captures on any thread plus registered slow-op thresholds
/// (0 = nothing records anywhere).
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
    /// This thread's open captures, innermost last: what each has taken,
    /// and for a root span's private capture, that span's id.
    static CAPTURES: RefCell<Vec<(Capture, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// True while a [`capture`] is open on any thread or a slow-op threshold
/// is registered. This is the single branch every instrumentation point
/// pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Keep [`enabled`] true until the matching [`release`] (a registered
/// slow-op threshold).
pub(crate) fn hold() {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

/// Undo one [`hold`].
pub(crate) fn release() {
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
}

/// True when this thread has a capture open. Asked only once [`enabled`]
/// said yes, so the off path never reaches it.
fn capturing() -> bool {
    CAPTURES.with(|c| !c.borrow().is_empty())
}

/// The interned id of the calling thread, as recorded in
/// [`SpanEvent::thread`].
fn current_thread_id() -> u64 {
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

/// What one thread did while a capture was open.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capture {
    /// Every span and event recorded, in the order they closed.
    pub spans: Vec<SpanEvent>,
    /// Registry counter increments, summed by counter name. Gauges and
    /// histograms are not captured.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Capture {
    /// What the capture counted under `name` (0 when nothing was).
    ///
    /// Panics when the registry holds no counter of that name, so a
    /// misspelt name cannot pass for a zero count.
    pub fn count(&self, name: &str) -> u64 {
        assert!(
            crate::metrics::is_counter(name),
            "no counter named `{name}` is registered"
        );
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Add what `inner` took to this capture.
    fn absorb(&mut self, inner: &Capture) {
        self.spans.extend(inner.spans.iter().cloned());
        for (&name, &n) in &inner.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

/// Run `f` and return, beside its result, what the calling thread did
/// while it ran: its spans and events in the order they closed, and its
/// registry counter increments.
///
/// - Only the calling thread is captured: what other threads record or
///   count in the meantime is not taken, and a capture makes no other
///   thread record.
/// - What a top-level capture takes goes nowhere else: not to the slow-op
///   log, even while a threshold is registered.
/// - Captures nest. An inner capture returns what was recorded while it
///   ran; the enclosing capture receives the same spans and counts too,
///   so every capture returns everything its thread did while it was open.
/// - A span opened inside `f` keeps its parent outside it, if one was
///   open: the captured tree may hang from a span the capture does not
///   hold.
///
/// While no capture is open and no threshold is registered anywhere, the
/// instrumentation points cost their one relaxed load, as before.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Capture) {
    /// Closes the capture if `f` unwinds, so the thread does not keep
    /// recording into a buffer nobody reads.
    struct Open;
    impl Drop for Open {
        fn drop(&mut self) {
            close_capture();
        }
    }
    open_capture(None);
    let open = Open;
    let out = f();
    std::mem::forget(open);
    (out, close_capture())
}

/// Push a capture on this thread; `root` names the span whose close ends
/// it (a root span's private capture).
fn open_capture(root: Option<u64>) {
    CAPTURES.with(|c| c.borrow_mut().push((Capture::default(), root)));
    hold();
}

/// Pop this thread's innermost capture, hand a copy of what it took to the
/// enclosing one, and return it.
fn close_capture() -> Capture {
    release();
    CAPTURES.with(|c| {
        let mut open = c.borrow_mut();
        let (taken, _) = open.pop().expect("a capture closes what it opened");
        if let Some((outer, _)) = open.last_mut() {
            outer.absorb(&taken);
        }
        taken
    })
}

/// Add `n` under `name` to this thread's innermost capture, if one is
/// open ([`crate::metrics::Counter`]'s hook once [`enabled`] said yes).
pub(crate) fn count(name: &'static str, n: u64) {
    let _ = CAPTURES.try_with(|c| {
        if let Some((taken, _)) = c.borrow_mut().last_mut() {
            *taken.counts.entry(name).or_default() += n;
        }
    });
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

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

/// Hand a finished event to this thread's innermost capture. A root span
/// closing ends its private capture, which goes to the slow-op log.
fn record(event: SpanEvent) {
    let id = event.id;
    let ends_root = CAPTURES.with(|c| {
        let mut open = c.borrow_mut();
        let Some((taken, root)) = open.last_mut() else {
            return false;
        };
        taken.spans.push(event);
        *root == Some(id)
    });
    if ends_root {
        crate::slowlog::keep(close_capture());
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

/// Open a span; inert when nothing would receive it. With no capture open
/// on this thread, a span opens a private capture of its own while a
/// slow-op threshold is registered, and is inert otherwise.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let root_capture = !capturing();
    if root_capture && !crate::slowlog::armed() {
        return SpanGuard { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if root_capture {
        open_capture(Some(id));
    }
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
    if !enabled() || !capturing() {
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

/// Crate-wide serialization for tests that register slow-op thresholds,
/// and for those that assert nothing records while no capture is open: a
/// registered threshold makes every root span on every thread record.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use std::time::Duration;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        test_serial()
    }

    /// The events in `evs` named `named`.
    fn named<'a>(evs: &'a [SpanEvent], named: &str) -> Vec<&'a SpanEvent> {
        evs.iter().filter(|e| e.name == named).collect()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _serial = serial();
        // no capture open, no threshold registered: a span opened now is
        // inert and an event's field closure never runs
        let mut g = span("test.disabled_span");
        assert!(!g.is_recording());
        g.field("k", Json::Int(1));
        drop(g);
        event_with("test.disabled_event", || {
            panic!("field closure must not run while tracing is off")
        });
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let ((), taken) = capture(|| {
            let mut outer = span("test.outer");
            outer.field("tag", Json::str("o"));
            let _inner = span("test.inner");
            event_with("test.instant", || vec![("n", Json::Int(7))]);
        });
        let outer = named(&taken.spans, "test.outer");
        let inner = named(&taken.spans, "test.inner");
        let instant = named(&taken.spans, "test.instant");
        assert_eq!((outer.len(), inner.len(), instant.len()), (1, 1, 1));
        assert_eq!(inner[0].parent, Some(outer[0].id));
        assert_eq!(inner[0].depth, 1);
        assert_eq!(instant[0].parent, Some(inner[0].id));
        assert_eq!(instant[0].dur_us, 0);
        assert_eq!(instant[0].field("n"), Some(&Json::Int(7)));
        assert_eq!(outer[0].field("tag").unwrap().as_str().unwrap(), "o");
        // a top-level span is its own root; children and instant events
        // inherit it
        assert_eq!(outer[0].root, outer[0].id);
        assert!(taken.spans.iter().all(|e| e.root == outer[0].id));
    }

    #[test]
    fn jsonl_export_parses_back() {
        let ((), taken) = capture(|| {
            let mut outer = span("test.jsonl");
            outer.field("rows", Json::Int(3));
            outer.field("s", Json::str("a \"quoted\" value\n"));
            outer.field("i", Json::Int(-7));
            outer.field("f", Json::Float(1.5));
            outer.field("n", Json::Null);
            let _inner = span("test.jsonl");
        });
        let evs = taken.spans;
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

    /// Names of the events in `evs` that start with `prefix`, in order.
    fn names(evs: &[SpanEvent], prefix: &str) -> Vec<&'static str> {
        evs.iter()
            .map(|e| e.name)
            .filter(|n| n.starts_with(prefix))
            .collect()
    }

    #[test]
    fn a_capture_takes_only_its_own_thread() {
        let _serial = serial();
        let hits = metrics::counter("test.capture.hits");
        let ((other_recorded, other), taken) = capture(|| {
            let _mine = span("test.capture.mine");
            hits.inc();
            std::thread::spawn(move || {
                // no capture here: this thread stays on the off path, its
                // event closure never runs and its count is taken by no one
                let recording = span("test.capture.other.span").is_recording();
                event_with("test.capture.other.event", || {
                    panic!("a capture on another thread must not make this one record")
                });
                hits.add(10);
                // a capture of its own takes only its own
                let ((), other) = capture(|| {
                    let _s = span("test.capture.other.span");
                    hits.add(100);
                });
                (recording, other)
            })
            .join()
            .unwrap()
        });
        assert!(!other_recorded);
        assert_eq!(names(&taken.spans, "test.capture."), ["test.capture.mine"]);
        assert_eq!(taken.count("test.capture.hits"), 1);
        assert_eq!(
            names(&other.spans, "test.capture."),
            ["test.capture.other.span"]
        );
        assert_eq!(other.count("test.capture.hits"), 100);
    }

    #[test]
    fn counts_reach_enclosing_captures_and_only_counters_count() {
        let probes = metrics::counter("test.capture.probes");
        let before = probes.get();
        let ((inner, after), outer) = capture(|| {
            probes.add(2);
            metrics::gauge("test.capture.level").set(5);
            metrics::histogram("test.capture.us").record(9);
            let ((), inner) = capture(|| probes.add(3));
            probes.inc();
            (inner, probes.get())
        });
        assert_eq!(inner.count("test.capture.probes"), 3);
        assert_eq!(outer.count("test.capture.probes"), 6);
        assert_eq!(
            outer.counts.keys().copied().collect::<Vec<_>>(),
            ["test.capture.probes"]
        );
        // the registry counts them as before
        assert_eq!(after, before + 6);
    }

    #[test]
    #[should_panic(expected = "no counter named `test.capture.never_registered`")]
    fn a_count_under_an_unregistered_name_panics() {
        let ((), taken) = capture(|| metrics::counter("test.capture.registered").inc());
        taken.count("test.capture.never_registered");
    }

    #[test]
    fn an_explicit_capture_shields_its_spans_from_the_slow_log() {
        let _serial = serial();
        crate::slowlog::clear();
        crate::slowlog::threshold("test.capture.slow", Duration::from_micros(1));
        let slow_span = || {
            let mut slow = span("test.capture.slow");
            slow.field("rows", Json::Int(3));
            std::thread::sleep(Duration::from_millis(2));
            event_with("test.capture.instant", || vec![("n", Json::Int(1))]);
        };
        let ((), taken) = capture(slow_span);
        // the capture has both, the event parented to the open span ...
        let spans = taken.spans;
        assert_eq!(
            names(&spans, "test.capture."),
            ["test.capture.instant", "test.capture.slow"]
        );
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].dur_us >= 1);
        assert_eq!(spans[1].field("rows"), Some(&Json::Int(3)));
        // ... and the slow-op log did not see them, though the span
        // crossed its threshold
        let kept =
            |name| (crate::slowlog::entries().into_iter()).filter(move |o| o.event.name == name);
        assert_eq!(kept("test.capture.slow").count(), 0);
        // outside a capture the same span is kept, with its tree
        slow_span();
        let ops: Vec<_> = kept("test.capture.slow").collect();
        assert_eq!(ops.len(), 1);
        assert_eq!(
            names(&ops[0].trace.spans, "test.capture."),
            ["test.capture.instant", "test.capture.slow"]
        );
        crate::slowlog::clear_threshold("test.capture.slow");
        crate::slowlog::clear();
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
            (inner.spans, after.is_recording())
        });
        assert!(after, "closing the inner capture leaves the outer open");
        assert_eq!(names(&inner, "test.capture."), ["test.capture.inner"]);
        // the outer capture holds the inner one's span too, in close order
        assert_eq!(
            names(&outer.spans, "test.capture."),
            [
                "test.capture.inner",
                "test.capture.outer_after",
                "test.capture.outer_before"
            ]
        );
        assert_eq!(outer.spans[0], inner[0]);
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
}
