//! Self-profiling run of the full characterization pipeline.
//!
//! Runs the default study (18 units, 3 runs, seed 2024), the k = 5
//! clustering and the Figure 4 validation sweep with observability
//! collection forced on, then reports where the wall time went:
//!
//! * per-stage wall time (count / total / self / max per span name);
//! * the slowest per-unit simulations (top-k `pipeline.unit` spans);
//! * result-cache statistics (memory/disk hits, misses, stores,
//!   corrupt entries, evictions);
//! * capture-health counters (retries, drops, overflow wraps, …);
//! * the full metrics registry.
//!
//! The printed `study digest:` line fingerprints every value the study
//! produced; `scripts/verify.sh` compares it between traced and untraced
//! runs to assert that observability never perturbs results. Like every
//! subcommand, `profile` leaves `MWC_TRACE` to the dispatcher, which
//! writes the collected spans there after it returns.

use mwc_obs::metrics::Metric;
use mwc_obs::summary::{fmt_ns, top_spans_by_field, Summary};
use mwc_report::table::Table;

use crate::Failure;

/// How many of the slowest units to show.
const TOP_K_UNITS: usize = 8;

pub fn run() -> Result<(), Failure> {
    // This subcommand exists to profile the pipeline, so collection is on
    // whether or not MWC_TRACE is set.
    mwc_obs::set_enabled(true);

    crate::header("Self-profile: study + clustering + validation sweep");
    // Paper-default spec with the MWC_FAULT_* environment layered on —
    // including per-unit overrides via MWC_FAULT_UNITS, which is what the
    // incremental-recompute gate in scripts/verify.sh exercises.
    let spec = mwc_core::StudySpec::paper_default().with_env_faults()?;
    let study = &*mwc_core::cache::StudyCache::global().study_spec(&spec)?;
    let clustering = mwc_core::figures::fig6(study)?;
    let sweep = mwc_core::figures::fig4(study)?;

    println!("study digest: {:016x}", study.digest());
    println!(
        "units profiled: {} of {} requested; clustering k = {}; sweep points = {}",
        study.report().units_profiled(),
        study.report().units_requested,
        clustering.k(),
        sweep.points.len(),
    );

    let data = mwc_obs::trace::snapshot();
    let metrics = mwc_obs::metrics::snapshot();

    crate::header("Per-stage wall time");
    let stage_summary = Summary::from_trace(&data);
    let mut stages = Table::new(vec!["span", "count", "total", "self", "max"]);
    for s in stage_summary.stats() {
        stages.row(vec![
            s.name.clone(),
            s.count.to_string(),
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            fmt_ns(s.max_ns),
        ]);
    }
    println!("{}", stages.render());

    crate::header(&format!("Slowest units (top {TOP_K_UNITS})"));
    let mut units = Table::new(vec!["unit", "sim time"]);
    for (name, ns) in top_spans_by_field(&data, "pipeline.unit", "name", TOP_K_UNITS) {
        units.row(vec![name, fmt_ns(ns)]);
    }
    println!("{}", units.render());

    crate::header("Result cache");
    let cache = mwc_core::cache::StudyCache::global();
    let stats = cache.stats();
    println!("cache location: {}", cache.describe());
    // Machine-parseable one-liner consumed by scripts/verify.sh.
    println!("cache stats: {}", stats.summary());
    let mut cache_table = Table::new(vec!["event", "count"]);
    for (event, count) in [
        ("memory hits", stats.mem_hits),
        ("disk hits", stats.disk_hits),
        ("misses", stats.misses),
        ("stores", stats.stores),
        ("corrupt entries", stats.corrupt_entries),
        ("evictions", stats.evictions),
        ("store failures", stats.store_failures),
    ] {
        cache_table.row(vec![event.into(), count.to_string()]);
    }
    println!("{}", cache_table.render());

    crate::header("Per-stage cache");
    // Machine-parseable one-liner consumed by scripts/verify.sh's
    // incremental gate (sims = units simulated, reused = units replayed).
    println!("stage stats: {}", cache.stage_summary());
    let mut stage_table = Table::new(vec![
        "stage",
        "mem hits",
        "disk hits",
        "misses",
        "stores",
        "corrupt",
        "store failures",
        "read",
        "written",
    ]);
    for kind in mwc_core::StageKind::ALL {
        let s = cache.stage(kind);
        stage_table.row(vec![
            kind.name().into(),
            s.mem_hits.to_string(),
            s.disk_hits.to_string(),
            s.misses.to_string(),
            s.stores.to_string(),
            s.corrupt_entries.to_string(),
            s.store_failures.to_string(),
            format!("{} B", s.bytes_read),
            format!("{} B", s.bytes_written),
        ]);
    }
    println!("{}", stage_table.render());

    crate::header("Study database");
    // Machine-parseable one-liner shared with `sweep`: the
    // studydb `hits` count is what makes DB replay distinguishable from
    // the result cache's own hit counters above.
    println!("{}", crate::studydb_stats_line());

    crate::header("Capture health");
    let mut health = Table::new(vec!["metric", "value"]);
    for (name, metric) in &metrics {
        if let (true, Metric::Counter(v)) = (name.starts_with("capture."), metric) {
            health.row(vec![name.clone(), v.to_string()]);
        }
    }
    if health.is_empty() {
        health.row(vec!["(no capture metrics)".into(), "-".into()]);
    }
    println!("{}", health.render());

    crate::header("Kernel timings");
    // The analysis kernels time themselves into `kernel.*` histograms
    // (mwc-analysis::kernels::KernelTimer); collection is on in this
    // subcommand, so the hot clustering/correlation paths show up here.
    let mut kernel_table = Table::new(vec!["kernel", "calls", "total", "mean", "max"]);
    for (name, metric) in &metrics {
        if let (true, Metric::Histogram(h)) = (name.starts_with("kernel."), metric) {
            kernel_table.row(vec![
                name.clone(),
                h.count().to_string(),
                fmt_ns(h.sum() as u64),
                fmt_ns(h.mean() as u64),
                fmt_ns(h.max() as u64),
            ]);
        }
    }
    if kernel_table.is_empty() {
        kernel_table.row(vec![
            "(no kernel metrics)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    println!("{}", kernel_table.render());

    crate::header("Metrics registry");
    let mut dump = Table::new(vec!["metric", "kind", "value"]);
    for (name, metric) in &metrics {
        let (kind, value) = match metric {
            Metric::Counter(v) => ("counter", v.to_string()),
            Metric::Gauge(v) => ("gauge", format!("{v}")),
            Metric::Histogram(h) => (
                "histogram",
                format!(
                    "n = {}, mean = {}, max = {}",
                    h.count(),
                    fmt_ns(h.mean() as u64),
                    fmt_ns(h.max() as u64),
                ),
            ),
        };
        dump.row(vec![name.clone(), kind.into(), value]);
    }
    println!("{}", dump.render());

    Ok(())
}
