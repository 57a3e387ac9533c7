//! Capture sessions: run workloads on an engine and extract named series.

use mwc_soc::config::ClusterKind;
use mwc_soc::counters::{TickSample, Trace};
use mwc_soc::engine::Engine;
use mwc_soc::workload::Workload;

use crate::columns::TraceColumns;
use crate::faults::{attempt_seed, CaptureError, CaptureHealth, FaultConfig, FaultPlan};
use crate::timeseries::TimeSeries;

/// The named series the analysis consumes (the six metrics of Table IV
/// plus the Figure-1 ingredients and a few extras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKey {
    /// Mean CPU load across all clusters (Table IV: frequency × utilization).
    CpuLoad,
    /// Load of one CPU cluster.
    ClusterLoad(ClusterKind),
    /// Utilization of one CPU cluster.
    ClusterUtilization(ClusterKind),
    /// GPU load (Table IV).
    GpuLoad,
    /// Percentage of time all shader cores are busy (Table IV).
    GpuShadersBusy,
    /// Percentage of time the GPU↔memory bus is busy (Table IV).
    GpuBusBusy,
    /// AIE load (Table IV).
    AieLoad,
    /// Fraction of total system memory used (Table IV).
    MemoryUsedFraction,
    /// Used memory in MiB (raw, OS baseline included).
    MemoryUsedMib,
    /// Memory-bus bandwidth utilization.
    MemoryBandwidth,
    /// Storage busy fraction.
    StorageBusy,
    /// Instantaneous IPC.
    Ipc,
    /// Instantaneous all-level cache MPKI.
    CacheMpki,
    /// Instantaneous branch MPKI.
    BranchMpki,
    /// Instructions retired per tick.
    Instructions,
    /// L1 texture-cache misses per tick (millions).
    GpuL1TextureMisses,
}

impl SeriesKey {
    /// Every series the analysis consumes, cluster variants expanded.
    pub const ALL: [SeriesKey; 20] = [
        SeriesKey::CpuLoad,
        SeriesKey::ClusterLoad(ClusterKind::Little),
        SeriesKey::ClusterLoad(ClusterKind::Mid),
        SeriesKey::ClusterLoad(ClusterKind::Big),
        SeriesKey::ClusterUtilization(ClusterKind::Little),
        SeriesKey::ClusterUtilization(ClusterKind::Mid),
        SeriesKey::ClusterUtilization(ClusterKind::Big),
        SeriesKey::GpuLoad,
        SeriesKey::GpuShadersBusy,
        SeriesKey::GpuBusBusy,
        SeriesKey::AieLoad,
        SeriesKey::MemoryUsedFraction,
        SeriesKey::MemoryUsedMib,
        SeriesKey::MemoryBandwidth,
        SeriesKey::StorageBusy,
        SeriesKey::Ipc,
        SeriesKey::CacheMpki,
        SeriesKey::BranchMpki,
        SeriesKey::Instructions,
        SeriesKey::GpuL1TextureMisses,
    ];

    /// Position of this key in [`SeriesKey::ALL`] — the column index in a
    /// [`crate::columns::TraceColumns`] buffer.
    pub fn index(self) -> usize {
        match self {
            SeriesKey::CpuLoad => 0,
            SeriesKey::ClusterLoad(ClusterKind::Little) => 1,
            SeriesKey::ClusterLoad(ClusterKind::Mid) => 2,
            SeriesKey::ClusterLoad(ClusterKind::Big) => 3,
            SeriesKey::ClusterUtilization(ClusterKind::Little) => 4,
            SeriesKey::ClusterUtilization(ClusterKind::Mid) => 5,
            SeriesKey::ClusterUtilization(ClusterKind::Big) => 6,
            SeriesKey::GpuLoad => 7,
            SeriesKey::GpuShadersBusy => 8,
            SeriesKey::GpuBusBusy => 9,
            SeriesKey::AieLoad => 10,
            SeriesKey::MemoryUsedFraction => 11,
            SeriesKey::MemoryUsedMib => 12,
            SeriesKey::MemoryBandwidth => 13,
            SeriesKey::StorageBusy => 14,
            SeriesKey::Ipc => 15,
            SeriesKey::CacheMpki => 16,
            SeriesKey::BranchMpki => 17,
            SeriesKey::Instructions => 18,
            SeriesKey::GpuL1TextureMisses => 19,
        }
    }

    /// Extract this metric from one counter sample. A dropped sample (lost
    /// capture row) extracts as NaN for every key, so gaps propagate into
    /// the series instead of masquerading as zeros.
    pub(crate) fn extract(self, s: &TickSample) -> f64 {
        if s.is_dropped() {
            return f64::NAN;
        }
        match self {
            SeriesKey::CpuLoad => {
                if s.clusters.is_empty() {
                    0.0
                } else {
                    s.clusters.iter().map(|c| c.load).sum::<f64>() / s.clusters.len() as f64
                }
            }
            SeriesKey::ClusterLoad(kind) => s
                .clusters
                .iter()
                .find(|c| c.kind == kind)
                .map_or(0.0, |c| c.load),
            SeriesKey::ClusterUtilization(kind) => s
                .clusters
                .iter()
                .find(|c| c.kind == kind)
                .map_or(0.0, |c| c.utilization),
            SeriesKey::GpuLoad => s.gpu_load,
            SeriesKey::GpuShadersBusy => s.gpu_shaders_busy,
            SeriesKey::GpuBusBusy => s.gpu_bus_busy,
            SeriesKey::AieLoad => s.aie_load,
            SeriesKey::MemoryUsedFraction => s.memory_used_fraction,
            SeriesKey::MemoryUsedMib => s.memory_used_mib,
            SeriesKey::MemoryBandwidth => s.memory_bandwidth_utilization,
            SeriesKey::StorageBusy => s.storage_busy,
            SeriesKey::Ipc => {
                if s.cycles > 0.0 {
                    s.instructions / s.cycles
                } else {
                    0.0
                }
            }
            SeriesKey::CacheMpki => {
                if s.instructions > 0.0 {
                    s.cache_misses / s.instructions * 1000.0
                } else {
                    0.0
                }
            }
            SeriesKey::BranchMpki => {
                if s.instructions > 0.0 {
                    s.branch_misses / s.instructions * 1000.0
                } else {
                    0.0
                }
            }
            SeriesKey::Instructions => s.instructions,
            SeriesKey::GpuL1TextureMisses => s.gpu_l1_texture_misses_m,
        }
    }

    /// Stable display name for tables and CSV headers.
    pub fn name(self) -> String {
        match self {
            SeriesKey::CpuLoad => "cpu.load".to_owned(),
            SeriesKey::ClusterLoad(k) => format!("cpu.{}.load", kind_slug(k)),
            SeriesKey::ClusterUtilization(k) => format!("cpu.{}.utilization", kind_slug(k)),
            SeriesKey::GpuLoad => "gpu.load".to_owned(),
            SeriesKey::GpuShadersBusy => "gpu.shaders_busy".to_owned(),
            SeriesKey::GpuBusBusy => "gpu.bus_busy".to_owned(),
            SeriesKey::AieLoad => "aie.load".to_owned(),
            SeriesKey::MemoryUsedFraction => "mem.used_fraction".to_owned(),
            SeriesKey::MemoryUsedMib => "mem.used".to_owned(),
            SeriesKey::MemoryBandwidth => "mem.bandwidth_utilization".to_owned(),
            SeriesKey::StorageBusy => "storage.busy".to_owned(),
            SeriesKey::Ipc => "cpu.ipc".to_owned(),
            SeriesKey::CacheMpki => "cpu.cache_mpki".to_owned(),
            SeriesKey::BranchMpki => "branch.mpki".to_owned(),
            SeriesKey::Instructions => "cpu.instructions".to_owned(),
            SeriesKey::GpuL1TextureMisses => "gpu.l1_texture_misses".to_owned(),
        }
    }
}

fn kind_slug(kind: ClusterKind) -> &'static str {
    match kind {
        ClusterKind::Little => "little",
        ClusterKind::Mid => "mid",
        ClusterKind::Big => "big",
    }
}

/// One captured run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    trace: Trace,
}

impl Capture {
    /// Wrap a raw counter trace.
    pub fn from_trace(trace: Trace) -> Self {
        Capture { trace }
    }

    /// The underlying counter trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Name of the captured workload.
    pub fn workload(&self) -> &str {
        &self.trace.workload
    }

    /// Runtime of the capture in seconds.
    pub fn runtime_seconds(&self) -> f64 {
        self.trace.duration_seconds()
    }

    /// Extract one named time series.
    pub fn series(&self, key: SeriesKey) -> TimeSeries {
        let values = self.trace.samples.iter().map(|s| key.extract(s)).collect();
        TimeSeries::new(self.trace.tick_seconds, values)
    }

    /// Extract every series in [`SeriesKey::ALL`] in one pass over the
    /// trace into a columnar [`TraceColumns`] buffer. Metric derivation
    /// needs a dozen-plus series per capture; extracting them together
    /// avoids re-walking the samples per key, and the columnar layout
    /// keeps each metric contiguous for the downstream reductions.
    pub fn series_map(&self) -> SeriesMap {
        let columns = TraceColumns::from_trace(&self.trace);
        // Dropped ticks remove their instructions from the raw sum, which
        // would bias the count low by exactly the dropout rate. Ratio
        // metrics (IPC, MPKI) are computed over the same surviving ticks
        // and stay unbiased; the count is extrapolated from the captured
        // fraction instead. A clean capture divides by exactly 1.0, which
        // is a bit-exact no-op.
        let completeness = self.trace.completeness();
        let count_scale = if completeness > 0.0 {
            1.0 / completeness
        } else {
            1.0
        };
        SeriesMap {
            tick_seconds: self.trace.tick_seconds,
            workload: self.trace.workload.clone(),
            runtime_seconds: self.trace.duration_seconds(),
            total_instructions: self.trace.total_instructions() * count_scale,
            ipc: self.trace.ipc(),
            cache_mpki: self.trace.cache_mpki(),
            branch_mpki: self.trace.branch_mpki(),
            columns,
        }
    }

    /// Number of dropped (lost) samples in the underlying trace.
    pub fn dropped_samples(&self) -> usize {
        self.trace.dropped_samples()
    }

    /// Fraction of ticks actually captured (1.0 for a clean capture).
    pub fn completeness(&self) -> f64 {
        self.trace.completeness()
    }
}

/// All named series of one capture, extracted in a single pass into
/// columnar storage, plus the run-level aggregates the metric derivation
/// needs.
#[derive(Debug, Clone)]
pub struct SeriesMap {
    /// Sampling period in seconds.
    pub tick_seconds: f64,
    /// Name of the captured workload.
    pub workload: String,
    /// Runtime of the capture in seconds.
    pub runtime_seconds: f64,
    /// Run-level total instruction count.
    pub total_instructions: f64,
    /// Run-level IPC.
    pub ipc: f64,
    /// Run-level cache MPKI.
    pub cache_mpki: f64,
    /// Run-level branch MPKI.
    pub branch_mpki: f64,
    columns: TraceColumns,
}

impl SeriesMap {
    /// One metric's samples as a contiguous slice.
    pub fn column(&self, key: SeriesKey) -> &[f64] {
        self.columns.column(key)
    }

    /// Materialize one extracted series.
    pub fn series(&self, key: SeriesKey) -> TimeSeries {
        self.columns.series(key)
    }

    /// Mean over the finite samples of one series (see
    /// [`TraceColumns::mean`]).
    pub fn mean(&self, key: SeriesKey) -> f64 {
        self.columns.mean(key)
    }

    /// Maximum over the finite samples of one series (see
    /// [`TraceColumns::max`]).
    pub fn max(&self, key: SeriesKey) -> f64 {
        self.columns.max(key)
    }
}

/// A profiler bound to an engine: runs workloads repeatedly and captures
/// counter traces, mirroring the paper's "ran all benchmarks thrice and
/// averaged their metrics across runs" protocol.
#[derive(Debug)]
pub struct Profiler {
    engine: Engine,
    base_seed: u64,
}

/// Number of runs the paper averages per benchmark.
pub const PAPER_RUNS: usize = 3;

impl Profiler {
    /// Attach a profiler to an engine. `base_seed` determines the noise
    /// seeds of the individual runs (`base_seed`, `base_seed + 1`, ...).
    pub fn new(engine: Engine, base_seed: u64) -> Self {
        Profiler { engine, base_seed }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Capture `runs` independent runs of the unit at `unit_index`. The
    /// engine is reset before each run (DVFS back to floor, caches
    /// drained), and each run's noise stream is derived from
    /// `(base_seed, unit_index, run)` via [`mwc_soc::engine::stream_seed`].
    ///
    /// Because the stream depends only on those coordinates, the capture
    /// is identical whether this unit is profiled first, last, or on a
    /// different worker thread than its neighbours — the property the
    /// parallel pipeline in `mwc-core` relies on.
    pub fn capture_unit_runs(
        &mut self,
        workload: &dyn Workload,
        unit_index: usize,
        runs: usize,
    ) -> Vec<Capture> {
        (0..runs)
            .map(|r| {
                let mut run_span = mwc_obs::span("capture.run");
                run_span.field("run", r);
                self.engine
                    .reset_for(self.base_seed, unit_index as u64, r as u64);
                Capture::from_trace(self.engine.run(workload))
            })
            .collect()
    }

    /// Capture `runs` independent runs of a standalone workload (unit
    /// index 0); see [`Profiler::capture_unit_runs`].
    pub fn capture_runs(&mut self, workload: &dyn Workload, runs: usize) -> Vec<Capture> {
        self.capture_unit_runs(workload, 0, runs)
    }

    /// Capture the paper's standard three runs.
    pub fn capture(&mut self, workload: &dyn Workload) -> Vec<Capture> {
        self.capture_runs(workload, PAPER_RUNS)
    }

    /// Capture `runs` runs of a unit under a fault model, retrying failed
    /// or too-incomplete runs with fresh derived seeds (bounded by
    /// `faults.max_attempts` per run).
    ///
    /// With faults disabled this is exactly [`Profiler::capture_unit_runs`]
    /// plus a clean health record — bit-identical captures, no plan drawn.
    ///
    /// Per run: attempt 0 uses the canonical `(base_seed, unit, run)`
    /// stream so fault-free behaviour is unchanged; attempt `a > 0` uses
    /// [`attempt_seed`]. An attempt is accepted when its completeness
    /// reaches `faults.min_completeness`; if no attempt qualifies, the most
    /// complete non-failed attempt is kept as a degraded fallback. The unit
    /// errs with [`CaptureError::UnitExhausted`] only when every attempt of
    /// every run fails outright.
    pub fn capture_unit_runs_resilient(
        &mut self,
        workload: &dyn Workload,
        unit_index: usize,
        runs: usize,
        faults: &FaultConfig,
    ) -> Result<(Vec<Capture>, CaptureHealth), CaptureError> {
        faults.validate()?;
        if !faults.enabled() {
            let captures = self.capture_unit_runs(workload, unit_index, runs);
            return Ok((captures, CaptureHealth::clean(runs)));
        }

        let mut health = CaptureHealth {
            runs_requested: runs,
            ..CaptureHealth::default()
        };
        let mut captures = Vec::with_capacity(runs);
        for run in 0..runs {
            let mut best: Option<(Capture, crate::faults::InjectionSummary)> = None;
            for attempt in 0..faults.max_attempts {
                let mut attempt_span = mwc_obs::span("capture.attempt");
                attempt_span.field("run", run);
                attempt_span.field("attempt", attempt);
                health.attempts += 1;
                if attempt > 0 {
                    health.retries += 1;
                    mwc_obs::event("capture.retry");
                }
                let mut plan =
                    FaultPlan::new(faults, unit_index as u64, run as u64, attempt as u64);
                if plan.run_fails() {
                    health.failed_runs += 1;
                    attempt_span.field("failed", true);
                    continue;
                }
                if attempt == 0 {
                    self.engine
                        .reset_for(self.base_seed, unit_index as u64, run as u64);
                } else {
                    self.engine.reset(attempt_seed(
                        self.base_seed,
                        unit_index as u64,
                        run as u64,
                        attempt as u64,
                    ));
                }
                let mut trace = self.engine.run(workload);
                let summary = plan.apply(&mut trace);
                let capture = Capture::from_trace(trace);
                let complete = capture.completeness();
                let improves = best
                    .as_ref()
                    .is_none_or(|(b, _)| complete > b.completeness());
                if improves {
                    best = Some((capture, summary));
                }
                if complete >= faults.min_completeness {
                    break;
                }
            }
            if let Some((capture, summary)) = best {
                health.dropped_samples += summary.dropped;
                health.overflow_wraps += summary.wraps;
                if summary.truncated {
                    health.truncated_runs += 1;
                }
                health.runs_used += 1;
                captures.push(capture);
            }
        }
        if captures.is_empty() {
            return Err(CaptureError::UnitExhausted {
                workload: workload.name().to_owned(),
                runs,
                attempts: health.attempts,
            });
        }
        Ok((captures, health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::config::SocConfig;
    use mwc_soc::cpu::CpuDemand;
    use mwc_soc::workload::{ConstantWorkload, Demand};

    fn profiler() -> Profiler {
        Profiler::new(
            Engine::new(SocConfig::snapdragon_888(), 0).expect("valid preset"),
            100,
        )
    }

    fn workload() -> ConstantWorkload {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.9);
        ConstantWorkload::new("test", 5.0, d)
    }

    #[test]
    fn capture_three_runs_by_default() {
        let mut p = profiler();
        let caps = p.capture(&workload());
        assert_eq!(caps.len(), PAPER_RUNS);
        assert!(caps.iter().all(|c| c.workload() == "test"));
    }

    #[test]
    fn runs_differ_but_only_slightly() {
        let mut p = profiler();
        let caps = p.capture(&workload());
        let i0 = caps[0].trace().total_instructions();
        let i1 = caps[1].trace().total_instructions();
        assert_ne!(i0, i1);
        assert!((i0 - i1).abs() / i0 < 0.05);
    }

    #[test]
    fn capture_is_reproducible() {
        let mut p1 = profiler();
        let mut p2 = profiler();
        assert_eq!(p1.capture(&workload()), p2.capture(&workload()));
    }

    #[test]
    fn captures_are_independent_of_profiling_order() {
        let w = workload();
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.4);
        let other = ConstantWorkload::new("other", 3.0, d);

        // Unit 5 captured cold vs. captured after profiling another unit:
        // the engine state is fully reset and the stream depends only on
        // (base_seed, unit, run), so the results must be identical.
        let mut cold = profiler();
        let direct = cold.capture_unit_runs(&w, 5, 2);
        let mut warm = profiler();
        let _ = warm.capture_unit_runs(&other, 2, 2);
        let after = warm.capture_unit_runs(&w, 5, 2);
        assert_eq!(direct, after);
    }

    #[test]
    fn distinct_units_get_distinct_noise_streams() {
        let w = workload();
        let mut p = profiler();
        let unit_a = p.capture_unit_runs(&w, 0, 1);
        let unit_b = p.capture_unit_runs(&w, 1, 1);
        assert_ne!(unit_a, unit_b, "same workload, different unit index");
    }

    #[test]
    fn series_extraction() {
        let mut p = profiler();
        let cap = &p.capture_runs(&workload(), 1)[0];
        let load = cap.series(SeriesKey::ClusterLoad(ClusterKind::Big));
        assert_eq!(load.len(), 50);
        assert!(load.max() > 0.5, "heavy thread loads the big core");
        let mid = cap.series(SeriesKey::ClusterLoad(ClusterKind::Mid));
        assert!(mid.max() < 0.1);
        let ipc = cap.series(SeriesKey::Ipc);
        assert!(ipc.mean() > 0.3);
    }

    #[test]
    fn runtime_matches_workload() {
        let mut p = profiler();
        let cap = &p.capture_runs(&workload(), 1)[0];
        assert!((cap.runtime_seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn series_names_are_stable() {
        assert_eq!(SeriesKey::CpuLoad.name(), "cpu.load");
        assert_eq!(
            SeriesKey::ClusterLoad(ClusterKind::Big).name(),
            "cpu.big.load"
        );
        assert_eq!(SeriesKey::GpuShadersBusy.name(), "gpu.shaders_busy");
    }

    #[test]
    fn idle_series_zero() {
        let mut p = profiler();
        let idle = ConstantWorkload::new("idle", 2.0, Demand::idle());
        let cap = &p.capture_runs(&idle, 1)[0];
        assert_eq!(cap.series(SeriesKey::Ipc).mean(), 0.0);
        assert_eq!(cap.series(SeriesKey::GpuLoad).max(), 0.0);
    }
}
