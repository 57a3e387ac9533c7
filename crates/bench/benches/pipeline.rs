//! Criterion benches for the characterization pipeline: one unit end to
//! end, and the representativeness / correlation analyses over a study.
use criterion::{criterion_group, criterion_main, Criterion};
use mwc_analysis::subset::total_min_euclidean;
use mwc_core::features::representativeness_matrix;
use mwc_core::pipeline::Characterization;
use mwc_core::tables::table3_matrix;
use mwc_core::StudySpec;
use mwc_profiler::capture::Profiler;
use mwc_profiler::derive::BenchmarkMetrics;
use mwc_soc::config::SocConfig;
use mwc_soc::engine::Engine;
use mwc_workloads::suites::threedmark;

fn bench_single_unit(c: &mut Criterion) {
    c.bench_function("characterize_wild_life_1_run", |b| {
        b.iter_with_setup(
            || {
                let engine = Engine::new(SocConfig::snapdragon_888(), 1).expect("valid preset");
                Profiler::new(engine, 1)
            },
            |mut profiler| {
                let caps = profiler.capture_runs(&threedmark::wild_life(), 1);
                BenchmarkMetrics::from_captures(&caps)
            },
        )
    });
}

/// One single-run study of the 18 units on `threads` workers.
fn run(threads: usize) -> Characterization {
    let spec = StudySpec::new(SocConfig::snapdragon_888(), 7, 1).with_threads(threads);
    Characterization::try_run_spec(&spec).expect("fault-free study")
}

fn bench_full_pipeline(c: &mut Criterion) {
    // The whole 18-unit single-run study: one worker vs. the machine's
    // available parallelism. Both produce bit-identical results (see
    // tests/determinism.rs); the ratio of the two is the pipeline speedup.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    c.bench_function("pipeline_serial", |b| b.iter(|| run(1)));
    c.bench_function("pipeline_parallel", |b| b.iter(|| run(threads)));
    // Fixed worker count, independent of the host: on multicore machines
    // this shows the scaling, on a single core it bounds the pool overhead.
    c.bench_function("pipeline_pool_4_workers", |b| b.iter(|| run(4)));
}

fn bench_analysis_over_study(c: &mut Criterion) {
    // One single-run study, reused across iterations.
    let study = run(mwc_parallel::configured_threads());
    c.bench_function("table3_correlations", |b| b.iter(|| table3_matrix(&study)));
    let m = representativeness_matrix(&study).expect("full study");
    c.bench_function("representativeness_subset7", |b| {
        b.iter(|| total_min_euclidean(&m, &[4, 5, 6, 7, 15, 9, 12]))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_single_unit, bench_full_pipeline, bench_analysis_over_study
}
criterion_main!(benches);
