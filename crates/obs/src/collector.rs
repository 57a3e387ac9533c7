//! Collection scopes: observations attributed to one piece of work.
//!
//! The process-global registry (toggled by [`crate::set_enabled`] or the
//! environment) records everything every thread observes. That is the
//! right default for a binary that profiles itself, and the wrong one for
//! a caller that wants to measure *its own* study while other work runs in
//! the same process: a global counter such as `soc.runs` would also count
//! the engine runs of unrelated threads.
//!
//! A [`Collector`] fixes the attribution. [`Collector::install`] makes it
//! the current collector of the calling thread until the returned
//! [`ScopeGuard`] drops. While a collector is installed, collection is on
//! for that thread whatever the global toggle says, and every span, event
//! and metric the thread records goes to the collector instead of the
//! global registry. Threads that have no collector installed are not
//! affected: they keep following the global toggle.
//!
//! Scopes cross threads the same way parent spans do: the fan-out code
//! (`mwc_parallel::ordered_map_with`) reads [`Collector::current`] on the
//! calling thread and installs it on each worker, so a study's worker
//! threads report into the collector of whoever started the study.
//!
//! ```
//! let collector = mwc_obs::Collector::new();
//! {
//!     let _scope = collector.install();
//!     let _span = mwc_obs::span("study");
//!     mwc_obs::metrics::counter_add("soc.runs", 3);
//! }
//! // Recorded outside the scope: not the collector's business.
//! mwc_obs::metrics::counter_add("soc.runs", 100);
//!
//! assert_eq!(
//!     collector.metric("soc.runs"),
//!     Some(mwc_obs::metrics::Metric::Counter(3))
//! );
//! assert_eq!(collector.drain().spans_named("study").len(), 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Metric;
use crate::trace::{EventRecord, SpanRecord, TraceData};

/// Number of installed scopes across all threads. While it is zero the
/// hot-path check [`in_scope`] is a single relaxed load and never touches
/// thread-local state.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Spans and events recorded into one collector, plus the names of the
/// threads that recorded them.
#[derive(Debug, Default)]
struct Records {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    threads: BTreeMap<u64, String>,
}

impl Records {
    fn note_thread(&mut self, tid: u64) {
        self.threads.entry(tid).or_insert_with(|| {
            std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned)
        });
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    records: Mutex<Records>,
}

/// A private sink for spans, events and metrics; see the module docs.
/// Cloning yields another handle to the same sink.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Arc<Inner>,
}

/// Keeps a [`Collector`] installed on the thread that called
/// [`Collector::install`]; dropping it restores the collector that was
/// installed before (usually none). Not `Send`: a scope ends on the
/// thread it began on.
#[derive(Debug)]
#[must_use = "the collector is uninstalled when the guard drops"]
pub struct ScopeGuard {
    previous: Option<Collector>,
    _not_send: PhantomData<*const ()>,
}

impl Collector {
    /// A new, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collector installed on the calling thread, if any.
    pub fn current() -> Option<Collector> {
        if ACTIVE.load(Ordering::Relaxed) == 0 {
            return None;
        }
        CURRENT.with(|cell| cell.borrow().clone())
    }

    /// Install this collector on the calling thread until the guard drops.
    /// Scopes nest: an inner install shadows an outer one for its lifetime.
    pub fn install(&self) -> ScopeGuard {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        let previous = CURRENT.with(|cell| cell.borrow_mut().replace(self.clone()));
        ScopeGuard {
            previous,
            _not_send: PhantomData,
        }
    }

    /// A point-in-time copy of this collector's metrics, sorted by name.
    pub fn metrics(&self) -> Vec<(String, Metric)> {
        self.lock_metrics()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Look up one of this collector's metrics by name.
    pub fn metric(&self, name: &str) -> Option<Metric> {
        self.lock_metrics().get(name).cloned()
    }

    /// Take every span and event recorded so far, ordered the way
    /// [`crate::trace::drain`] orders the global buffers. Spans still open
    /// appear in a later drain.
    pub fn drain(&self) -> TraceData {
        let mut records = self
            .inner
            .records
            .lock()
            .expect("collector records poisoned");
        let mut data = TraceData {
            spans: std::mem::take(&mut records.spans),
            events: std::mem::take(&mut records.events),
            threads: std::mem::take(&mut records.threads).into_iter().collect(),
        };
        data.spans.sort_by_key(|s| (s.start_ns, s.id));
        data.events.sort_by_key(|e| (e.ts_ns, e.tid));
        data
    }

    pub(crate) fn with_metrics<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
        f(&mut self.lock_metrics())
    }

    pub(crate) fn push_span(&self, span: SpanRecord) {
        let mut records = self
            .inner
            .records
            .lock()
            .expect("collector records poisoned");
        records.note_thread(span.tid);
        records.spans.push(span);
    }

    pub(crate) fn push_event(&self, event: EventRecord) {
        let mut records = self
            .inner
            .records
            .lock()
            .expect("collector records poisoned");
        records.note_thread(event.tid);
        records.events.push(event);
    }

    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner
            .metrics
            .lock()
            .expect("collector metrics poisoned")
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|cell| *cell.borrow_mut() = previous);
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether the calling thread has a collector installed.
#[inline]
pub(crate) fn in_scope() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && CURRENT.with(|cell| cell.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter_add, Metric};

    #[test]
    fn scope_captures_only_its_own_thread() {
        let collector = Collector::new();
        let _scope = collector.install();
        assert!(crate::enabled(), "a scope turns collection on");
        counter_add("scoped.count", 2);
        std::thread::spawn(|| {
            // No collector here: this thread follows the global toggle,
            // whatever it records lands in the global registry.
            assert!(Collector::current().is_none());
            assert!(!in_scope());
        })
        .join()
        .expect("foreign thread");
        assert_eq!(collector.metric("scoped.count"), Some(Metric::Counter(2)));
    }

    #[test]
    fn installed_collector_propagates_when_reinstalled() {
        let collector = Collector::new();
        let _scope = collector.install();
        let outer = crate::span("outer");
        let handle = outer.handle();
        let inherited = Collector::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = inherited.as_ref().map(Collector::install);
                let _task = crate::span_with_parent("task", handle);
                counter_add("tasks", 1);
            });
        });
        drop(outer);
        let data = collector.drain();
        let outer = data.span_named("outer").expect("outer recorded");
        let task = data.span_named("task").expect("task recorded");
        assert_eq!(task.parent, outer.id);
        assert_ne!(task.tid, outer.tid);
        assert_eq!(data.threads.len(), 2);
        assert_eq!(collector.metric("tasks"), Some(Metric::Counter(1)));
        assert!(collector.drain().is_empty(), "drain takes the records");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Collector::new();
        let inner = Collector::new();
        let _a = outer.install();
        {
            let _b = inner.install();
            counter_add("nested", 1);
        }
        counter_add("nested", 10);
        assert_eq!(inner.metric("nested"), Some(Metric::Counter(1)));
        assert_eq!(outer.metric("nested"), Some(Metric::Counter(10)));
    }
}
