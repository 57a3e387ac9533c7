//! Fault-injection probe: runs the study under a flaky-profiler model and
//! reports what degraded and how far the headline aggregates drifted from
//! the fault-free study.
//!
//! ```sh
//! # One faulty study, plan taken from the environment:
//! MWC_FAULT_SEED=7 MWC_FAULT_DROPOUT=0.05 MWC_FAULT_TRUNCATION=0.055 \
//!     mwc faults
//!
//! # Dropout sweep (drift vs dropout rate, fixed seed):
//! mwc faults --sweep
//! ```
//!
//! Without `MWC_FAULT_SEED` set, a representative demo plan is used
//! (seed 7, 5% dropout, 1% jitter, ~1-in-18 truncated runs).
use mwc_core::pipeline::Characterization;
use mwc_core::{PipelineError, StudyCache, StudySpec};
use mwc_profiler::faults::FaultConfig;
use mwc_report::table::{fmt, Table};

use crate::Failure;

/// The five Figure-1 aggregates drift is measured over.
const METRICS: [&str; 5] = ["IC", "IPC", "cMPKI", "bMPKI", "Runtime"];

fn metric_row(p: &mwc_core::pipeline::UnitProfile) -> [f64; 5] {
    let m = &p.metrics;
    [
        m.instruction_count,
        m.ipc,
        m.cache_mpki,
        m.branch_mpki,
        m.runtime_seconds,
    ]
}

/// Mean absolute relative drift (%) per metric over the units present in
/// both studies, plus the worst single-unit drift across all metrics.
fn drift(reference: &Characterization, faulty: &Characterization) -> ([f64; 5], f64) {
    let mut sums = [0.0; 5];
    let mut worst: f64 = 0.0;
    let mut n = 0usize;
    for p in faulty.profiles() {
        let Some(r) = reference.profile(&p.name) else {
            continue;
        };
        let rv = metric_row(r);
        let fv = metric_row(p);
        for (i, sum) in sums.iter_mut().enumerate() {
            let d = if rv[i].abs() > 0.0 {
                ((fv[i] - rv[i]) / rv[i]).abs() * 100.0
            } else {
                0.0
            };
            *sum += d;
            worst = worst.max(d);
        }
        n += 1;
    }
    if n > 0 {
        for s in &mut sums {
            *s /= n as f64;
        }
    }
    (sums, worst)
}

fn run_faulty(faults: &FaultConfig) -> Result<Characterization, PipelineError> {
    let spec = StudySpec::paper_default().with_faults(faults.clone());
    Characterization::try_run_spec(&spec)
}

fn single_study(reference: &Characterization, faults: &FaultConfig) -> Result<(), Failure> {
    crate::header("Fault-injected study");
    println!(
        "plan: seed={} dropout={} jitter={} overflow={} truncation={} run-failure={} attempts={}",
        faults.seed,
        faults.dropout_rate,
        faults.jitter_amplitude,
        faults.overflow_rate,
        faults.truncation_rate,
        faults.run_failure_rate,
        faults.max_attempts
    );
    let faulty = run_faulty(faults)?;

    println!("\ndegradation: {}", faulty.report().summary());
    println!("\nper-unit capture health:");
    for (name, summary) in faulty.health_report() {
        println!("  {name:<26} {summary}");
    }

    crate::header("Figure-1 aggregate drift vs fault-free study");
    let (means, worst) = drift(reference, &faulty);
    let mut t = Table::new(vec!["Metric", "Mean |drift| %"]);
    for (name, d) in METRICS.iter().zip(means) {
        t.row(vec![(*name).to_owned(), fmt(d, 3)]);
    }
    print!("{}", t.render());
    println!("worst single-unit drift: {worst:.3}%");
    Ok(())
}

fn sweep(reference: &Characterization) -> Result<(), Failure> {
    crate::header("Dropout sweep: aggregate drift vs dropout rate (seed 7, 3 attempts)");
    let mut t = Table::new(vec![
        "Dropout",
        "Units",
        "IC %",
        "IPC %",
        "cMPKI %",
        "bMPKI %",
        "Runtime %",
        "Worst %",
    ]);
    for dropout in [0.01, 0.02, 0.05, 0.10, 0.20] {
        let faults = FaultConfig {
            seed: 7,
            dropout_rate: dropout,
            ..FaultConfig::default()
        };
        let faulty = run_faulty(&faults)?;
        let (means, worst) = drift(reference, &faulty);
        let mut row = vec![
            fmt(dropout, 2),
            format!(
                "{}/{}",
                faulty.report().units_profiled(),
                faulty.report().units_requested
            ),
        ];
        row.extend(means.iter().map(|d| fmt(*d, 3)));
        row.push(fmt(worst, 3));
        t.row(row);
    }
    print!("{}", t.render());
    Ok(())
}

pub fn run(args: &[String]) -> Result<(), Failure> {
    let reference = || StudyCache::global().study_spec(&StudySpec::paper_default());
    match args {
        [] => {}
        [flag] if flag == "--sweep" => return sweep(&*reference()?),
        _ => {
            return Err(Failure::Usage(format!(
                "faults: unexpected arguments {args:?}"
            )))
        }
    }
    let mut faults = FaultConfig::from_env().map_err(PipelineError::from)?;
    if !faults.enabled() {
        println!("MWC_FAULT_SEED unset; using the demo plan");
        faults = FaultConfig {
            seed: 7,
            dropout_rate: 0.05,
            jitter_amplitude: 0.01,
            truncation_rate: 0.055,
            ..FaultConfig::default()
        };
    }
    single_study(&*reference()?, &faults)
}
