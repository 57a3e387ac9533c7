//! # mwc-obs — structured tracing, metrics and self-profiling
//!
//! The paper's methodology rests on Snapdragon Profiler visibility into
//! the device under test; this crate gives the reproduction pipeline the
//! same profiler-grade introspection. It provides:
//!
//! * [`trace`] — structured spans and events: RAII span guards with span
//!   ids, parent links (implicit per-thread, or explicit handles across
//!   worker threads) and per-span key/value fields, buffered per thread
//!   and merged at [`trace::drain`];
//! * [`metrics`] — a registry of named counters, gauges and fixed-bucket
//!   histograms (`capture.retries`, `pipeline.stage_ns`, `soc.ticks`, …);
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and a JSONL event log, plus a reader
//!   that parses the Chrome export back (used by the neutrality tests);
//! * [`log`] — leveled wide-event JSONL logging (`MWC_LOG`,
//!   `MWC_LOG_FILE`), one self-describing line per request/event;
//! * [`summary`] — per-span-name aggregation (count / total / self / max)
//!   for the human tables `mwc profile` prints;
//! * [`collector`] — collection scopes: a [`Collector`] installed on a
//!   thread (and handed on to its fan-out workers) receives that work's
//!   spans and metrics apart from everything else the process observes.
//!
//! ## Perturbation guarantees
//!
//! Everything is **off by default**. The instrumented crates call
//! [`enabled`] before touching any observability state; when disabled that
//! call is a few relaxed atomic loads and nothing else — no
//! allocation, no clock read, no lock. Observability never feeds back into
//! simulation or analysis values, so study outputs are bit-identical with
//! tracing on, off, or absent (asserted by the workspace's neutrality
//! tests).
//!
//! ## Enabling
//!
//! | Knob | Effect |
//! |------|--------|
//! | `MWC_TRACE=<path>` | collect spans/events/metrics; `mwc` and `mwc-server` write a Chrome trace (or JSONL if the path ends in `.jsonl`) to `<path>` on exit |
//!
//! Programs (and tests) can also flip collection programmatically with
//! [`set_enabled`], which takes precedence over the environment, or
//! collect one piece of work in isolation by installing a [`Collector`].
//!
//! ```
//! let _guard = mwc_obs::trace::span("pipeline.study");
//! mwc_obs::metrics::counter_add("capture.retries", 2);
//! // ... drained and exported by the owning binary:
//! let data = mwc_obs::trace::drain();
//! let json = mwc_obs::export::chrome_trace_json(&data);
//! assert!(json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

pub mod collector;
pub mod export;
pub mod log;
pub mod metrics;
pub mod summary;
pub mod trace;

pub use collector::{Collector, ScopeGuard};
pub use trace::{event, event_with, span, span_with_parent, SpanGuard, SpanHandle, Value};

/// Environment variable naming the trace output path (enables collection).
pub const TRACE_ENV: &str = "MWC_TRACE";

/// Whether observability collection is on. Off by default; turned on by
/// `MWC_TRACE` (read once, at first call) or by
/// [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One-shot environment probe backing [`enabled`].
static ENV_PROBE: Once = Once::new();

/// Whether collection is enabled on the calling thread: globally, or
/// because a [`Collector`] is installed on it. This is the only check the
/// instrumented hot paths perform when observability is off: after the
/// first call it costs three relaxed/acquire atomic loads and touches
/// nothing else.
#[inline]
pub fn enabled() -> bool {
    ENV_PROBE.call_once(|| {
        if trace_path().is_some() {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed) || collector::in_scope()
}

/// Turn global collection on or off programmatically (tests,
/// `mwc profile`). Overrides whatever the environment probe decided.
/// Threads with a [`Collector`] installed collect regardless.
pub fn set_enabled(on: bool) {
    ENV_PROBE.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// The `MWC_TRACE` output path, if the variable is set and non-empty.
pub fn trace_path() -> Option<PathBuf> {
    std::env::var_os(TRACE_ENV)
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Drop all collected spans, events and metrics and return to a pristine
/// registry. Collection stays in whatever enabled state it was. Intended
/// for tests and for binaries that profile several studies in sequence.
/// Touches only the global registry, never a [`Collector`].
pub fn reset() {
    let _ = trace::drain();
    metrics::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_costs_nothing() {
        // Not enabled via env in the test harness; a span guard must be
        // inert (no id allocated).
        if !enabled() {
            let g = span("noop");
            assert!(g.handle().is_none());
        }
    }

    #[test]
    fn set_enabled_round_trips() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
