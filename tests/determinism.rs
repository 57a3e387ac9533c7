//! Determinism guarantees across the whole stack: identical seeds produce
//! bit-identical results; different seeds produce only small perturbations
//! (the paper's three-run averaging protocol relies on this).

use mobile_workload_characterization::prelude::*;
use mwc_workloads::suites::{geekbench5, pcmark};

#[test]
fn same_seed_same_trace_across_engines() {
    let w = pcmark::pcmark_storage();
    let run = |seed| {
        let mut engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        engine.run(&w)
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn different_seeds_change_little() {
    let w = geekbench5::gb5_cpu();
    let metrics = |seed| {
        let engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        let mut profiler = Profiler::new(engine, seed);
        BenchmarkMetrics::from_captures(&profiler.capture_runs(&w, 1))
    };
    let a = metrics(1);
    let b = metrics(2);
    assert_ne!(a.instruction_count, b.instruction_count, "noise is present");
    let rel = (a.instruction_count - b.instruction_count).abs() / a.instruction_count;
    assert!(rel < 0.03, "noise is small: {rel}");
    let ipc_rel = (a.ipc - b.ipc).abs() / a.ipc;
    assert!(ipc_rel < 0.03, "IPC stable across seeds: {ipc_rel}");
}

#[test]
fn profiler_reset_between_runs_removes_history() {
    // Run a heavy workload, then a light one; the light one's profile must
    // match a fresh engine's (reset clears DVFS and contention state).
    let heavy = geekbench5::gb5_cpu();
    let light = pcmark::pcmark_storage();

    let engine = Engine::new(SocConfig::snapdragon_888(), 5).expect("preset");
    let mut profiler = Profiler::new(engine, 5);
    let _ = profiler.capture_runs(&heavy, 1);
    let after_heavy = profiler.capture_runs(&light, 1).remove(0);

    let engine = Engine::new(SocConfig::snapdragon_888(), 5).expect("preset");
    let mut fresh = Profiler::new(engine, 5);
    let fresh_run = fresh.capture_runs(&light, 1).remove(0);

    assert_eq!(after_heavy, fresh_run);
}

fn run(spec: StudySpec) -> Characterization {
    Characterization::try_run_spec(&spec).expect("fault-free study")
}

#[test]
fn full_study_is_reproducible() {
    let a = run(StudySpec::new(SocConfig::snapdragon_888(), 77, 1));
    let b = run(StudySpec::new(SocConfig::snapdragon_888(), 77, 1));
    assert_eq!(a, b);
}

#[test]
fn worker_count_does_not_change_the_study() {
    // The parallel pipeline must be bit-identical to a serial run whatever
    // MWC_THREADS resolves to: one worker, several workers, and the
    // env-driven default all produce the same `Characterization`.
    let spec = StudySpec::new(SocConfig::snapdragon_888(), 77, 1);
    let serial = run(spec.clone().with_threads(1));
    let four = run(spec.clone().with_threads(4));
    let auto = run(spec);
    assert_eq!(serial, four, "4 workers == serial");
    assert_eq!(serial, auto, "default worker count == serial");
}

#[test]
fn profiling_order_does_not_change_a_unit_profile() {
    // Per-capture streams derive from (seed, unit_index, run_index), so a
    // unit's capture is the same whether profiled first or after another
    // unit on the same profiler.
    let engine = Engine::new(SocConfig::snapdragon_888(), 31).expect("preset");
    let mut profiler = Profiler::new(engine, 31);
    let cold = profiler.capture_unit_runs(&pcmark::pcmark_storage(), 3, 1);
    let _ = profiler.capture_unit_runs(&geekbench5::gb5_cpu(), 0, 1);
    let warm = profiler.capture_unit_runs(&pcmark::pcmark_storage(), 3, 1);
    assert_eq!(cold, warm);
}

#[test]
fn averaging_three_runs_tightens_metrics() {
    // The three-run average must land between the per-run extremes.
    let w = geekbench5::gb5_compute();
    let engine = Engine::new(SocConfig::snapdragon_888(), 9).expect("preset");
    let mut profiler = Profiler::new(engine, 9);
    let captures = profiler.capture(&w);
    let avg = BenchmarkMetrics::from_captures(&captures);
    let singles: Vec<f64> = captures
        .iter()
        .map(|c| BenchmarkMetrics::from_captures(std::slice::from_ref(c)).gpu_load)
        .collect();
    let lo = singles.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = singles.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(avg.gpu_load >= lo && avg.gpu_load <= hi);
}
