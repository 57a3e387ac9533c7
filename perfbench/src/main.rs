//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cold_study|warm_replay|resume_sweep|serve_mixed|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in one process: it sets up (several times, the
//! median is `setup_s`), measures ops for `--seconds`, checks every op's
//! output against a reference computed outside the timed windows, and
//! prints its metrics, ending with one JSON line. With `--trace 0` the
//! metrics are the end-to-end ones (collection off); with `--trace 1`
//! they are the per-layer ones, taken from traced ops alternating with
//! untraced ones. `--workload all` runs every workload, each in its own
//! process, and exits nonzero if any correctness check failed.
//! See `perfbench/README.md`.

mod loadgen;
mod paper;
mod probe;
mod serve;
mod stats;
mod study;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mwc_core::{Characterization, StudySpec};
use mwc_obs::trace::TraceData;
use mwc_server::http::json_escape;
use mwc_soc::config::SocConfig;

use crate::probe::Layers;
use crate::stats::{Outcome, Tally};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["cold_study", "warm_replay", "resume_sweep", "serve_mixed"];

/// End-to-end metrics and their units, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("studies_per_s", "1/s"),
    ("study_p50_ms", "ms"),
    ("study_tail_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("completed_share", "share"),
];

/// Per-layer metrics and their units, printed by every `--trace 1` run.
/// A metric that a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("soc.busy_ms", "ms"),
    ("soc.runs", "count"),
    ("soc.sim_ticks", "count"),
    ("soc.ns_per_tick", "ns"),
    ("soc.coasted_share", "share"),
    ("profiler.columns_ms", "ms"),
    ("profiler.derive_ms", "ms"),
    ("parallel.efficiency", "share"),
    ("parallel.critical_unit_ms", "ms"),
    ("pipeline.characterize_ms", "ms"),
    ("pipeline.residual_share", "share"),
    ("cache.read_ms", "ms"),
    ("cache.bytes_read", "bytes"),
    ("cache.bytes_written", "bytes"),
    ("cache.hit_share", "share"),
    ("studydb.find_ms", "ms"),
    ("studydb.decode_ms", "ms"),
    ("studydb.bytes_scanned", "bytes"),
    ("features.featurize_ms", "ms"),
    ("analysis.sweep_ms", "ms"),
    ("analysis.cluster_ms", "ms"),
    ("tables.build_ms", "ms"),
    ("subsets.build_ms", "ms"),
    ("figures.temporal_ms", "ms"),
    ("observations.check_ms", "ms"),
    ("report.render_ms", "ms"),
    ("server.hit_p50_ms", "ms"),
    ("server.get_p50_ms", "ms"),
    ("server.edit_p50_ms", "ms"),
    ("server.shed_share", "share"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("failed_share", "share"),
];

/// Digest of the seed-2024 single-run study, pinned by the repository's
/// `tests/columnar_reference.rs`.
const PINNED_DIGEST: u64 = 0xe58b_2946_ff34_a629;

/// Each workload sets itself up at least `SETUP_REPS` times and until
/// `SETUP_SECONDS` have passed (at most `SETUP_MAX_REPS` times);
/// `setup_s` is the median, so a short set-up is still measured steadily.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;

/// Ops every study workload completes, however long that takes, so its
/// tail percentile has ten samples beyond it.
const MIN_OPS: usize = 21;

/// Wall-clock cap on a measurement phase, well inside the 180 s a run
/// may take.
const MAX_PHASE: Duration = Duration::from_secs(90);

/// What a workload runs with.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the measurement phase runs.
    pub seconds: f64,
    /// Whether this is the per-layer (traced) run.
    pub traced: bool,
    /// Pool threads, server workers and load connections (`nproc`).
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Correctness checks that failed (not op failures: gate violations).
    pub gate_failures: Vec<String>,
    /// End-to-end metric values.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer samples.
    pub layers: Layers,
    /// Workload parameters, recorded with the result.
    pub params: Vec<(&'static str, String)>,
}

impl Report {
    /// Record a failed correctness check (each distinct message once).
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            if !self.gate_failures.contains(&what) {
                self.gate_failures.push(what);
            }
        }
    }

    /// Count one op. A wrong output also fails the correctness check.
    pub fn record(&mut self, outcome: Outcome) {
        self.tally.record(outcome);
        self.gate(outcome != Outcome::Mismatch, || {
            "an op's output differs from its reference".to_owned()
        });
    }

    /// Record a workload parameter.
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }
}

/// A small deterministic generator for workload inputs (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The paper's platform with `seed` and `runs`, on `threads` pool
/// threads.
pub fn spec(seed: u64, runs: usize, threads: usize) -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), seed, runs).with_threads(threads)
}

/// The correctness gate every setup passes first: the seed-2024
/// single-run study must have the pinned digest.
pub fn pinned_gate(threads: usize) -> Result<(), String> {
    let study = Characterization::try_run_spec(&spec(2024, 1, threads))
        .map_err(|e| format!("pinned study failed: {e}"))?;
    if study.digest() != PINNED_DIGEST {
        return Err(format!(
            "pinned study digest {:016x} != {PINNED_DIGEST:016x}",
            study.digest()
        ));
    }
    Ok(())
}

/// Set up repeatedly (see `SETUP_REPS`), keeping the last result, and
/// record the median set-up time as `setup_s`. Earlier results are
/// dropped before the next set-up starts.
pub fn setup_median<S>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    report.param("setup_reps", times.len());
    report.e2e.push(("setup_s", stats::median(&times)));
    Ok(last.expect("at least one set-up ran"))
}

/// Op latencies of a study workload's measurement phase.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// Every op, in milliseconds.
    pub all: Vec<f64>,
    /// Traced ops only (per-layer run).
    pub traced: Vec<f64>,
    /// Untraced ops only.
    pub untraced: Vec<f64>,
}

/// Run ops back to back until `ctx.seconds` of op time (and at least
/// `MIN_OPS` ops) have passed. `op(i, traced)` returns its time in
/// milliseconds and what `verify` needs to check its output; `verify`
/// runs outside the measured time, with collection off, and sees a
/// traced op's spans. In the traced run every other op is traced:
/// program collection is on for it, and its spans and counters feed the
/// per-layer samples.
pub fn measure_ops<V>(
    ctx: &Ctx,
    report: &mut Report,
    mut op: impl FnMut(usize, bool, &mut Report) -> (f64, V),
    mut verify: impl FnMut(V, Option<&TraceData>, &mut Report),
) -> OpTimes {
    let mut times = OpTimes::default();
    let started = Instant::now();
    let mut busy_ms = 0.0;
    let mut i = 0;
    while (busy_ms < ctx.seconds * 1e3 || i < MIN_OPS) && started.elapsed() < MAX_PHASE {
        let traced = ctx.traced && i % 2 == 0;
        if traced {
            mwc_obs::reset();
            mwc_obs::set_enabled(true);
        }
        let (ms, pending) = op(i, traced, report);
        let trace = if traced {
            mwc_obs::set_enabled(false);
            let trace = mwc_obs::trace::drain();
            probe::record_program_layers(&trace, ctx.threads, 1.0, &mut report.layers);
            times.traced.push(ms);
            Some(trace)
        } else {
            times.untraced.push(ms);
            None
        };
        verify(pending, trace.as_ref(), report);
        times.all.push(ms);
        busy_ms += ms;
        i += 1;
    }
    times
}

/// The end-to-end metrics of a study workload. Its ops are one caller's
/// closed loop: each op is due when the previous one completes, so the
/// request figures are the op figures and capacity is the op rate.
pub fn study_e2e(report: &mut Report, times: &OpTimes) {
    let ops = times.all.len() as f64;
    let per_s = ops / (times.all.iter().sum::<f64>() / 1e3);
    let (tail_pct, tail_ms) = stats::tail(&times.all).unwrap_or((100.0, 0.0));
    report.param("ops", times.all.len());
    report.param("tail_percentile", format!("{tail_pct:.1}"));
    report.e2e.extend([
        ("studies_per_s", per_s),
        ("study_p50_ms", stats::median(&times.all)),
        ("study_tail_ms", tail_ms),
        ("req_p50_ms", stats::median(&times.all)),
        ("req_p99_ms", stats::percentile(&times.all, 99.0)),
        ("capacity_rps", per_s),
    ]);
}

/// `trace.overhead_share` from a traced run's two halves.
pub fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = stats::median(untraced);
    if base <= 0.0 {
        return 0.0;
    }
    stats::median(traced) / base - 1.0
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Pin the program's configuration: every `MWC_*` variable the caller
/// may have set is cleared, and the default on-disk cache lives in the
/// workload's scratch directory.
fn pin_environment(work: &std::path::Path) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MWC_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var(mwc_core::cache::CACHE_DIR_ENV, work.join("cache"));
}

fn rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run_workload(args: &Args, threads: usize) -> Result<Report, String> {
    let work = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    pin_environment(&work);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        threads,
        work: work.clone(),
    };
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "cold_study" => study::cold_study(&ctx, &mut report),
        "warm_replay" => study::warm_replay(&ctx, &mut report),
        "resume_sweep" => study::resume_sweep(&ctx, &mut report),
        "serve_mixed" => serve::serve_mixed(&ctx, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only removes the parent when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result.map(|()| report)
}

fn print_report(args: &Args, threads: usize, report: &Report) -> bool {
    let mut params = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{threads},\"rev\":\"{}\",\"profile\":\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rev(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for (k, v) in &report.params {
        let _ = write!(params, ",\"{k}\":\"{}\"", json_escape(v));
    }
    params.push('}');
    println!("params: {params}");

    let correct = report.gate_failures.is_empty() && report.tally.attempted > 0;
    for g in &report.gate_failures {
        println!("CHECK FAILED: {g}");
    }
    println!(
        "attempted={} failed={} failed_share={}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_share()
    );

    let mut metrics = String::new();
    let mut add = |name: &str, unit: &str, value: f64| {
        println!("{name:<28} {:>16.4} {unit}", value);
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        );
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = match name {
                "failed_share" => report.tally.failed_share(),
                _ => report.layers.median(name),
            };
            add(name, unit, value);
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "peak_rss_mb" => probe::peak_rss_mb(),
                "completed_share" => 1.0 - report.tally.failed_share(),
                _ => report
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            add(name, unit, value);
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed
    );
    correct
}

/// `--workload all`: each workload in its own process; the exit code
/// says whether every correctness check held.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for w in WORKLOADS {
        println!("\n=== {w} ===");
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let last = text.lines().last().unwrap_or_default();
                all_correct &= out.status.success() && last.starts_with("{\"correct\":true");
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                all_correct = false;
            }
        }
    }
    println!("\nall workloads correct: {all_correct}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match run_workload(&args, threads) {
        Ok(report) => {
            if print_report(&args, threads, &report) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
