//! `mwc <name> [args…]` — every table, figure and observation of the
//! paper, plus the tools around the study (`mwc` alone lists them).
//!
//! The paper sections render from one study, [`StudySpec::paper_default`]
//! (18 units × 3 runs, seed 2024, simulated Snapdragon 888), and the k = 5
//! clustering; the process computes each at most once, so `all` is just
//! the sections in paper order. Exit status: 1 on a pipeline error or a
//! failing observation, 2 on a usage error. `MWC_TRACE` gets the trace.

#![forbid(unsafe_code)]

mod ablation;
mod calibrate;
mod export;
mod faults;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod observations;
mod profile;
mod report;
mod sweep;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;
mod table6;

use std::cell::OnceCell;
use std::sync::Arc;

use mwc_analysis::cluster::Clustering;
use mwc_core::{Characterization, PipelineError, StudyCache, StudySpec};

const USAGE: &str = "\
usage: mwc <name> [args…]

paper sections, in paper order (`all` renders every one):
  table1 table2 fig1 table3 table4 fig2 fig3 table5 fig4 fig5 fig6 table6 fig7 observations

tools:
  ablation  calibrate  profile
  export [dir]         (default dir: study-export)
  faults [--sweep]
  report [--spec <digest> | --diff <digest-a> <digest-b>]   (reads MWC_STUDY_DB)
  sweep [--seeds N] [--base-seed S] [--runs R] [--units \"A, B\"] [--limit K]
";

/// How a subcommand fails; `main` maps each kind to one exit status.
enum Failure {
    /// Bad invocation: exit 2 with the usage message.
    Usage(String),
    /// The subcommand ran and failed: exit 1 with the message.
    Error(String),
}

impl<E: Into<PipelineError>> From<E> for Failure {
    fn from(e: E) -> Self {
        Failure::Error(e.into().to_string())
    }
}

/// One paper section and the inputs it renders from.
enum Section {
    Static(fn()),
    Study(fn(&Characterization) -> Result<(), Failure>),
    Clustered(fn(&Characterization, &Clustering) -> Result<(), Failure>),
}

/// The paper's tables, figures and observations, in paper order.
const SECTIONS: [(&str, Section); 14] = [
    ("table1", Section::Static(table1::run)),
    ("table2", Section::Static(table2::run)),
    ("fig1", Section::Study(fig1::run)),
    ("table3", Section::Study(table3::run)),
    ("table4", Section::Static(table4::run)),
    ("fig2", Section::Study(fig2::run)),
    ("fig3", Section::Study(fig3::run)),
    ("table5", Section::Study(table5::run)),
    ("fig4", Section::Study(fig4::run)),
    ("fig5", Section::Study(fig5::run)),
    ("fig6", Section::Clustered(fig6::run)),
    ("table6", Section::Clustered(table6::run)),
    ("fig7", Section::Clustered(fig7::run)),
    ("observations", Section::Study(observations::run)),
];

/// The study and the k = 5 clustering the sections share, each computed
/// on first need and at most once per process.
#[derive(Default)]
struct Paper {
    study: OnceCell<Arc<Characterization>>,
    clustering: OnceCell<Clustering>,
}

impl Paper {
    fn study(&self) -> Result<&Characterization, Failure> {
        if let Some(study) = self.study.get() {
            return Ok(study);
        }
        let study = StudyCache::global().study_spec(&StudySpec::paper_default())?;
        Ok(self.study.get_or_init(|| study))
    }

    /// k-means on the normalized feature matrix; PAM and hierarchical
    /// clustering produce the identical partition (`fig5`, `fig6`).
    fn clustering(&self) -> Result<&Clustering, Failure> {
        if let Some(clustering) = self.clustering.get() {
            return Ok(clustering);
        }
        let clustering = mwc_core::figures::fig6(self.study()?)?;
        Ok(self.clustering.get_or_init(|| clustering))
    }

    fn render(&self, section: &Section) -> Result<(), Failure> {
        match *section {
            Section::Static(run) => run(),
            Section::Study(run) => run(self.study()?)?,
            Section::Clustered(run) => run(self.study()?, self.clustering()?)?,
        }
        Ok(())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ran = match args.split_first() {
        Some((name, rest)) => dispatch(name, rest),
        None => Err(Failure::Usage("no subcommand given".to_owned())),
    };
    // The trace is written whatever the outcome: a failed run is the one
    // most worth inspecting.
    let traced = write_trace();
    let code = match ran.and(traced) {
        Ok(()) => 0,
        Err(Failure::Usage(msg)) => {
            eprintln!("mwc: {msg}\n");
            eprint!("{USAGE}");
            2
        }
        Err(Failure::Error(msg)) => {
            eprintln!("error: {msg}");
            1
        }
    };
    std::process::exit(code);
}

fn dispatch(name: &str, args: &[String]) -> Result<(), Failure> {
    let mut sections = SECTIONS
        .iter()
        .filter(|(section, _)| name == "all" || *section == name)
        .peekable();
    if sections.peek().is_some() {
        no_args(args)?;
        let paper = Paper::default();
        return sections.try_for_each(|(_, section)| paper.render(section));
    }
    match name {
        "ablation" => no_args(args).and_then(|()| ablation::run()),
        "calibrate" => no_args(args).and_then(|()| calibrate::run()),
        "export" => export::run(args),
        "faults" => faults::run(args),
        "profile" => no_args(args).and_then(|()| profile::run()),
        "report" => report::run(args),
        "sweep" => sweep::run(args),
        other => Err(Failure::Usage(format!("unknown subcommand {other:?}"))),
    }
}

fn no_args(args: &[String]) -> Result<(), Failure> {
    match args.first() {
        None => Ok(()),
        Some(arg) => Err(Failure::Usage(format!("unexpected argument {arg:?}"))),
    }
}

/// Write everything collected in this process to `MWC_TRACE`, if set: a
/// Chrome `trace_event` file, or a JSONL log when the path ends in
/// `.jsonl`.
fn write_trace() -> Result<(), Failure> {
    let Some(path) = mwc_obs::trace_path() else {
        return Ok(());
    };
    let data = mwc_obs::trace::drain();
    let body = if mwc_obs::export::wants_jsonl(&path) {
        mwc_obs::export::jsonl(&data, &mwc_obs::metrics::snapshot())
    } else {
        mwc_obs::export::chrome_trace_json(&data)
    };
    std::fs::write(&path, body)?;
    eprintln!(
        "trace written to {} ({} spans, {} events)",
        path.display(),
        data.spans.len(),
        data.events.len(),
    );
    Ok(())
}

/// Print a section header in the style every subcommand uses.
fn header(title: &str) {
    println!("\n=== {title} ===\n");
}

/// A metrics-registry counter's current value (0 when absent).
fn counter(name: &str) -> u64 {
    match mwc_obs::metrics::get(name) {
        Some(mwc_obs::metrics::Metric::Counter(n)) => n,
        _ => 0,
    }
}

/// The greppable one-line summary of the study database's counters
/// (`profile`, `sweep`) — `hits` vs the cache's counters is what makes
/// cache replay and DB replay distinguishable at a glance.
fn studydb_stats_line() -> String {
    let db = match mwc_core::studydb::global() {
        Some(db) => db.path().display().to_string(),
        None => "off".to_owned(),
    };
    format!(
        "studydb stats: db={db} appends={} hits={} misses={} corrupt={}",
        counter("studydb.appends"),
        counter("studydb.hits"),
        counter("studydb.misses"),
        counter("studydb.corrupt_records"),
    )
}
