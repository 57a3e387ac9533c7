//! Per-layer measurement: timed calls into the program's public
//! functions, the program's own counters and spans, and the process's
//! I/O and memory figures from `/proc`.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use mwc_obs::trace::TraceData;

use crate::stats;

/// Per-op samples of every per-layer metric, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Record one op's value of `name`.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// The per-op median of `name`, or 0 if it was never recorded.
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }
}

/// Timer for the calls one op makes into the program. When `traced`,
/// each call runs inside an `mwc-obs` span named after its layer and its
/// time is recorded; otherwise the call runs bare.
#[derive(Debug)]
pub struct OpTimer {
    traced: bool,
    start: Instant,
    timed_ms: f64,
    calls: Vec<(&'static str, f64)>,
}

impl OpTimer {
    /// Start timing one op.
    pub fn new(traced: bool) -> Self {
        OpTimer {
            traced,
            start: Instant::now(),
            timed_ms: 0.0,
            calls: Vec::new(),
        }
    }

    /// Run `f` as a call into the layer `name`; its time is recorded per
    /// op as the metric `<name>_ms`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let _span = mwc_obs::span(name);
        let t0 = Instant::now();
        let out = f();
        let took = stats::ms(t0.elapsed());
        self.timed_ms += took;
        match self.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => *acc += took,
            None => self.calls.push((name, took)),
        }
        out
    }

    /// Milliseconds spent in calls named `name` so far.
    pub fn spent(&self, name: &str) -> f64 {
        self.calls
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ms)| *ms)
    }

    /// End the op: its wall time in milliseconds. A traced op also
    /// records every call's time and the share of op time spent in no
    /// timed call (`pipeline.residual_share`).
    pub fn finish(self, layers: &mut Layers) -> f64 {
        let op_ms = stats::ms(self.start.elapsed());
        if self.traced {
            for (name, took) in &self.calls {
                layers.push(format!("{name}_ms"), *took);
            }
            let residual = (op_ms - self.timed_ms).max(0.0);
            layers.push("pipeline.residual_share", residual / op_ms.max(1e-9));
        }
        op_ms
    }
}

/// Bytes the process has read and written through system calls so far
/// (`rchar`, `wchar` of `/proc/self/io`); zeros where unavailable.
pub fn io_bytes() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// Peak resident memory of this process in MiB (`VmHWM`); 0 where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A counter of the program's metrics registry (0 when absent).
pub fn counter(name: &str) -> u64 {
    match mwc_obs::metrics::get(name) {
        Some(mwc_obs::metrics::Metric::Counter(n)) => n,
        _ => 0,
    }
}

/// The simulator, profiler and pool figures of one traced op, read from
/// the spans and counters the program records: the `soc.run`,
/// `stage.capture`, `stage.derive`, `pipeline.unit` and `parallel.map`
/// spans and the `soc.*` counters. Sums are per op (`ops` ops ran);
/// the critical unit is the slowest one seen.
pub fn record_program_layers(trace: &TraceData, threads: usize, ops: f64, layers: &mut Layers) {
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    let total = |name: &str| -> u64 {
        trace
            .spans_named(name)
            .iter()
            .map(|s| s.duration_ns())
            .sum()
    };

    let busy_ns = total("soc.run");
    let stepped = counter("soc.ticks_stepped");
    let coasted = counter("soc.ticks_coasted");
    let ticks = stepped + coasted;
    layers.push("soc.busy_ms", ns_ms(busy_ns) / ops);
    layers.push("soc.runs", counter("soc.runs") as f64 / ops);
    layers.push("soc.sim_ticks", ticks as f64 / ops);
    layers.push(
        "soc.ns_per_tick",
        if ticks == 0 {
            0.0
        } else {
            busy_ns as f64 / ticks as f64
        },
    );
    layers.push(
        "soc.coasted_share",
        if ticks == 0 {
            0.0
        } else {
            coasted as f64 / ticks as f64
        },
    );

    // Self time of each capture stage: what its child spans (the runs
    // themselves) do not cover is the trace-to-column extraction.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &trace.spans {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let columns_ns: u64 = trace
        .spans_named("stage.capture")
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .sum();
    layers.push("profiler.columns_ms", ns_ms(columns_ns) / ops);
    layers.push("profiler.derive_ms", ns_ms(total("stage.derive")) / ops);

    // Pool efficiency: unit time over threads × the wall time of the
    // pooled map(s) that ran the units.
    let by_id: HashMap<u64, &mwc_obs::trace::SpanRecord> =
        trace.spans.iter().map(|s| (s.id, s)).collect();
    let units = trace.spans_named("pipeline.unit");
    let mut maps: Vec<u64> = Vec::new();
    for u in &units {
        let mut at = u.parent;
        while let Some(s) = by_id.get(&at) {
            if s.name == "parallel.map" {
                if !maps.contains(&s.id) {
                    maps.push(s.id);
                }
                break;
            }
            at = s.parent;
        }
    }
    let unit_ns: u64 = units.iter().map(|s| s.duration_ns()).sum();
    let pooled_ns: u64 = maps.iter().map(|id| by_id[id].duration_ns()).sum();
    let critical_ns = units.iter().map(|s| s.duration_ns()).max().unwrap_or(0);
    layers.push(
        "parallel.efficiency",
        if pooled_ns == 0 {
            0.0
        } else {
            unit_ns as f64 / (threads as f64 * pooled_ns as f64)
        },
    );
    layers.push("parallel.critical_unit_ms", ns_ms(critical_ns));
}

/// Hit share of a cache's study and sweep lookups; 0 when there were
/// none.
pub fn hit_share(stats: mwc_core::CacheStats) -> f64 {
    let hits = stats.hits();
    let misses = stats.misses;
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// How many spans named `name` have no ancestor named `ancestor`.
pub fn spans_outside(trace: &TraceData, name: &str, ancestor: &str) -> usize {
    let by_id: HashMap<u64, &mwc_obs::trace::SpanRecord> =
        trace.spans.iter().map(|s| (s.id, s)).collect();
    trace
        .spans_named(name)
        .iter()
        .filter(|s| {
            let mut at = s.parent;
            while let Some(p) = by_id.get(&at) {
                if p.name == ancestor {
                    return false;
                }
                at = p.parent;
            }
            true
        })
        .count()
}
