//! Structured spans and events.
//!
//! Each thread buffers its records in a private, uncontended
//! `Arc<Mutex<Buffer>>` registered with a global collector on the thread's
//! first span — span creation and completion never contend on a global
//! lock. [`drain`] takes the global registry lock once, empties every
//! thread's buffer and returns the merged [`TraceData`].
//!
//! Parent links are implicit within a thread (a per-thread span stack) and
//! explicit across threads: a parent span hands its [`SpanHandle`] to the
//! worker, which opens children with [`span_with_parent`]. This is how the
//! `mwc-parallel` worker pool nests task spans under the fan-out span of
//! the calling thread.
//!
//! A span or event recorded while a [`Collector`] is installed on the
//! thread goes to that collector, not to the thread's buffer, so
//! [`drain`] never returns it.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::Collector;

/// A typed span/event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (counts, ids).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// Free-form text.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::UInt(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// An opaque reference to a live (or completed) span, usable as an
/// explicit parent across threads. A handle from a disabled tracer is
/// "none" and children adopting it fall back to their thread's own stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(u64);

impl SpanHandle {
    /// The handle meaning "no span" (collection disabled, or no parent).
    pub const NONE: SpanHandle = SpanHandle(0);

    /// Whether this handle refers to an actual span.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// The raw span id (0 when [`SpanHandle::is_none`]).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, starting at 1).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (`<crate>.<noun>` by convention).
    pub name: String,
    /// Observability thread id (dense, assigned in first-use order).
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Key/value fields attached via [`SpanGuard::field`].
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up a field value by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Enclosing span id at emission (0 = none).
    pub parent: u64,
    /// Observability thread id.
    pub tid: u64,
    /// Timestamp, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Key/value fields.
    pub fields: Vec<(String, Value)>,
}

/// Everything [`drain`] collected: completed spans, events, and the
/// threads that produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Completed spans, ordered by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Instant events, ordered by `(ts_ns, tid)`.
    pub events: Vec<EventRecord>,
    /// `(tid, thread name)` for every thread that recorded anything.
    pub threads: Vec<(u64, String)>,
}

impl TraceData {
    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// The first span with the given name, if any.
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans with the given name.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }
}

/// Per-thread record buffer; shared with the collector behind an
/// uncontended mutex (only the owning thread and [`drain`] touch it).
#[derive(Debug, Default)]
struct Buffer {
    thread_name: Option<String>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

/// One registered thread buffer: `(tid, shared buffer)`.
type RegisteredBuffer = (u64, Arc<Mutex<Buffer>>);

/// Global registry of every thread's buffer.
static BUFFERS: OnceLock<Mutex<Vec<RegisteredBuffer>>> = OnceLock::new();

/// Next span id; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Next observability thread id; 0 is reserved.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Trace epoch: all timestamps are relative to the first observation.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Local {
    tid: u64,
    buf: Arc<Mutex<Buffer>>,
    /// Ids of the spans currently open on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's local tracer state, registering the thread
/// on first use.
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf = Arc::new(Mutex::new(Buffer {
                thread_name: std::thread::current().name().map(str::to_owned),
                ..Buffer::default()
            }));
            BUFFERS
                .get_or_init(|| Mutex::new(Vec::new()))
                .lock()
                .expect("trace buffer registry poisoned")
                .push((tid, Arc::clone(&buf)));
            Local {
                tid,
                buf,
                stack: Vec::new(),
            }
        });
        f(local)
    })
}

/// The data of one span that is still open.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    fields: Vec<(String, Value)>,
    /// The collector installed when the span opened; the finished span
    /// goes there instead of the thread's global buffer.
    sink: Option<Collector>,
}

/// RAII guard for a span: records the span into the thread's buffer when
/// dropped. Inert (a no-op holding nothing) when collection is disabled.
#[derive(Debug)]
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// A handle to this span for explicit cross-thread parenting
    /// ([`SpanHandle::NONE`] when collection is disabled).
    pub fn handle(&self) -> SpanHandle {
        self.open
            .as_ref()
            .map_or(SpanHandle::NONE, |o| SpanHandle(o.id))
    }

    /// Attach a key/value field to the span.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(open) = &mut self.open {
            open.fields.push((key.to_owned(), value.into()));
        }
    }

    /// Nanoseconds since the span opened (`None` when collection is
    /// disabled). Lets callers feed a span's duration into a histogram
    /// metric without a second clock source.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.open
            .as_ref()
            .map(|o| now_ns().saturating_sub(o.start_ns))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        with_local(|local| {
            // Guards normally drop LIFO; tolerate out-of-order drops by
            // removing this id wherever it sits on the stack.
            if let Some(pos) = local.stack.iter().rposition(|&id| id == open.id) {
                local.stack.remove(pos);
            }
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                tid: local.tid,
                start_ns: open.start_ns,
                end_ns,
                fields: open.fields,
            };
            match &open.sink {
                Some(collector) => collector.push_span(record),
                None => local
                    .buf
                    .lock()
                    .expect("thread trace buffer poisoned")
                    .spans
                    .push(record),
            }
        });
    }
}

fn open_span(name: &str, explicit_parent: Option<SpanHandle>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { open: None };
    }
    let start_ns = now_ns();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let open = with_local(|local| {
        let parent = match explicit_parent {
            Some(h) if !h.is_none() => h.id(),
            _ => local.stack.last().copied().unwrap_or(0),
        };
        local.stack.push(id);
        OpenSpan {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            fields: Vec::new(),
            sink: Collector::current(),
        }
    });
    SpanGuard { open: Some(open) }
}

/// Open a span named `name`, parented under the innermost span currently
/// open on this thread (or a root span if none is).
pub fn span(name: &str) -> SpanGuard {
    open_span(name, None)
}

/// Open a span with an explicit parent — the cross-thread variant: the
/// parent span's owner passes its [`SpanHandle`] to the worker thread.
pub fn span_with_parent(name: &str, parent: SpanHandle) -> SpanGuard {
    open_span(name, Some(parent))
}

/// Emit an instant event (no duration), parented under the innermost open
/// span on this thread.
pub fn event(name: &str) {
    event_with(name, Vec::new());
}

/// Emit an instant event with key/value fields.
pub fn event_with(name: &str, fields: Vec<(String, Value)>) {
    if !crate::enabled() {
        return;
    }
    let ts_ns = now_ns();
    with_local(|local| {
        let record = EventRecord {
            name: name.to_owned(),
            parent: local.stack.last().copied().unwrap_or(0),
            tid: local.tid,
            ts_ns,
            fields,
        };
        match Collector::current() {
            Some(collector) => collector.push_event(record),
            None => local
                .buf
                .lock()
                .expect("thread trace buffer poisoned")
                .events
                .push(record),
        }
    });
}

/// Empty every thread's buffer and return the merged, deterministically
/// ordered records (everything recorded outside a [`Collector`] scope).
/// Spans still open (guards not yet dropped) are not included — they will
/// appear in a later drain.
pub fn drain() -> TraceData {
    collect(true)
}

/// What [`drain`] would return, leaving every buffer as it is.
pub fn snapshot() -> TraceData {
    collect(false)
}

fn collect(empty: bool) -> TraceData {
    let Some(registry) = BUFFERS.get() else {
        return TraceData::default();
    };
    let mut data = TraceData::default();
    let registry = registry.lock().expect("trace buffer registry poisoned");
    for (tid, buf) in registry.iter() {
        let mut buf = buf.lock().expect("thread trace buffer poisoned");
        if buf.spans.is_empty() && buf.events.is_empty() {
            continue;
        }
        if empty {
            data.spans.append(&mut buf.spans);
            data.events.append(&mut buf.events);
        } else {
            data.spans.extend_from_slice(&buf.spans);
            data.events.extend_from_slice(&buf.events);
        }
        let name = buf
            .thread_name
            .clone()
            .unwrap_or_else(|| format!("thread-{tid}"));
        data.threads.push((*tid, name));
    }
    data.spans.sort_by_key(|s| (s.start_ns, s.id));
    data.events.sort_by_key(|e| (e.ts_ns, e.tid));
    data.threads.sort_by_key(|&(tid, _)| tid);
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests here mutate process-global tracer state; serialize them.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let _ = drain();
        let r = f();
        crate::set_enabled(false);
        let _ = drain();
        r
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let data = with_tracing(|| {
            let mut outer = span("outer");
            outer.field("k", 7u64);
            {
                let _inner = span("inner");
            }
            drop(outer);
            drain()
        });
        let outer = data.span_named("outer").expect("outer recorded");
        let inner = data.span_named("inner").expect("inner recorded");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.field("k"), Some(&Value::UInt(7)));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.end_ns >= inner.end_ns);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let data = with_tracing(|| {
            let parent = span("fanout");
            let handle = parent.handle();
            std::thread::scope(|scope| {
                for i in 0..3usize {
                    scope.spawn(move || {
                        let mut s = span_with_parent("task", handle);
                        s.field("index", i);
                    });
                }
            });
            drop(parent);
            drain()
        });
        let fanout = data.span_named("fanout").expect("fanout recorded");
        let tasks = data.spans_named("task");
        assert_eq!(tasks.len(), 3);
        for t in &tasks {
            assert_eq!(t.parent, fanout.id);
            assert_ne!(t.tid, fanout.tid, "tasks ran on other threads");
        }
    }

    #[test]
    fn events_attach_to_enclosing_span() {
        let data = with_tracing(|| {
            let _s = span("holder");
            event("ping");
            event_with("pong", vec![("n".to_owned(), Value::Int(-2))]);
            drop(_s);
            drain()
        });
        let holder = data.span_named("holder").expect("recorded");
        assert_eq!(data.events.len(), 2);
        for e in &data.events {
            assert_eq!(e.parent, holder.id);
        }
        assert_eq!(data.events[1].fields[0].1, Value::Int(-2));
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        let _ = drain();
        let g = span("ghost");
        assert!(g.handle().is_none());
        event("ghost-event");
        drop(g);
        assert!(drain().is_empty());
    }

    #[test]
    fn drain_is_cumulative_not_duplicating() {
        let (first, second) = with_tracing(|| {
            {
                let _a = span("a");
            }
            let first = drain();
            {
                let _b = span("b");
            }
            (first, drain())
        });
        assert!(first.span_named("a").is_some());
        assert!(first.span_named("b").is_none());
        assert!(second.span_named("a").is_none());
        assert!(second.span_named("b").is_some());
    }

    #[test]
    fn snapshot_leaves_the_records_for_drain() {
        let (snapshot, drained) = with_tracing(|| {
            drop(span("a"));
            (snapshot(), drain())
        });
        assert!(snapshot.span_named("a").is_some());
        assert_eq!(snapshot, drained);
    }

    #[test]
    fn handle_none_parent_falls_back_to_stack() {
        let data = with_tracing(|| {
            let _outer = span("outer2");
            {
                let _child = span_with_parent("child2", SpanHandle::NONE);
            }
            drop(_outer);
            drain()
        });
        let outer = data.span_named("outer2").expect("recorded");
        let child = data.span_named("child2").expect("recorded");
        assert_eq!(child.parent, outer.id);
    }
}
