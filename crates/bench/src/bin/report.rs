//! `report` — list and diff the historical runs in the study database.
//!
//! ```text
//! report                      # list every record in MWC_STUDY_DB
//! report --spec <digest>      # print a record's wire-format spec
//! report --diff <a> <b>       # per-unit diff of two runs by digest
//! ```
//!
//! Digests are the 16-hex `Characterization::digest` values printed by
//! `profile`, `sweep`, and the list view.

use mwc_core::studydb::{self, StudyDb, StudyRecord};
use mwc_core::Characterization;

fn usage() -> ! {
    eprintln!("usage: report [--spec <digest> | --diff <digest-a> <digest-b>]");
    eprintln!("       (set MWC_STUDY_DB to the database file)");
    std::process::exit(2);
}

fn db_or_exit() -> &'static StudyDb {
    match studydb::global() {
        Some(db) => db,
        None => {
            eprintln!(
                "report: no study database — set {} to a database file",
                studydb::STUDY_DB_ENV
            );
            std::process::exit(2);
        }
    }
}

fn parse_digest(text: &str) -> u64 {
    match u64::from_str_radix(text.trim_start_matches("0x"), 16) {
        Ok(d) => d,
        Err(_) => {
            eprintln!("report: {text:?} is not a hex digest");
            std::process::exit(2);
        }
    }
}

fn find_by_digest(db: &StudyDb, digest: u64) -> (StudyRecord, Characterization) {
    let Some(record) = db.find_by_digest(digest) else {
        eprintln!("report: no record with digest {digest:016x}");
        std::process::exit(1);
    };
    let Some(study) = record.study() else {
        eprintln!("report: record {digest:016x} has a corrupt study payload");
        std::process::exit(1);
    };
    (record, study)
}

fn list(db: &StudyDb) {
    let records = db.entries();
    mwc_bench::header("Study database");
    println!("db: {} ({} records)", db.path().display(), records.len());
    println!();
    println!(
        "{:>3}  {:<16}  {:<16}  {:>5}  {:>6}  {:>10}  {:<14}  recorded",
        "#", "study key", "digest", "units", "failed", "elapsed ms", "exec"
    );
    for (i, r) in records.iter().enumerate() {
        println!(
            "{:>3}  {:016x}  {:016x}  {:>5}  {:>6}  {:>10}  {:<14}  {}",
            i,
            r.study_key,
            r.digest,
            r.units,
            r.failed_units,
            r.elapsed_ns / 1_000_000,
            r.exec,
            r.recorded_unix,
        );
    }
}

fn spec(db: &StudyDb, digest: u64) {
    let (record, _) = find_by_digest(db, digest);
    if record.spec_wire.is_empty() {
        eprintln!("report: record {digest:016x} carries no wire spec");
        std::process::exit(1);
    }
    print!("{}", record.spec_wire);
}

fn diff(db: &StudyDb, a: u64, b: u64) {
    let (rec_a, study_a) = find_by_digest(db, a);
    let (rec_b, study_b) = find_by_digest(db, b);
    mwc_bench::header("Study diff");
    println!(
        "a: digest={a:016x} exec={} units={}",
        rec_a.exec, rec_a.units
    );
    println!(
        "b: digest={b:016x} exec={} units={}",
        rec_b.exec, rec_b.units
    );
    if a == b {
        println!("\nidentical digests — bit-identical studies");
        return;
    }
    println!();
    println!(
        "{:<26}  {:>9}  {:>9}  {:>9}  {:>9}",
        "unit", "ipc a", "ipc b", "gpu a", "gpu b"
    );
    let find = |study: &Characterization, name: &str| -> Option<(f64, f64)> {
        study
            .profiles()
            .iter()
            .find(|p| p.name == name)
            .map(|p| (p.metrics.ipc, p.metrics.gpu_load))
    };
    let mut names: Vec<String> = study_a
        .profiles()
        .iter()
        .chain(study_b.profiles())
        .map(|p| p.name.clone())
        .collect();
    names.sort();
    names.dedup();
    for name in &names {
        match (find(&study_a, name), find(&study_b, name)) {
            (Some((ia, ga)), Some((ib, gb))) => {
                let marker = if (ia - ib).abs() > f64::EPSILON || (ga - gb).abs() > f64::EPSILON {
                    " *"
                } else {
                    ""
                };
                println!("{name:<26}  {ia:>9.3}  {ib:>9.3}  {ga:>9.3}  {gb:>9.3}{marker}");
            }
            (Some((ia, ga)), None) => {
                println!("{name:<26}  {ia:>9.3}  {:>9}  {ga:>9.3}  {:>9}", "-", "-");
            }
            (None, Some((ib, gb))) => {
                println!("{name:<26}  {:>9}  {ib:>9.3}  {:>9}  {gb:>9.3}", "-", "-");
            }
            (None, None) => {}
        }
    }
    let failed = |s: &Characterization| {
        s.report()
            .failed_units
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
    };
    let (fa, fb) = (failed(&study_a), failed(&study_b));
    if !fa.is_empty() || !fb.is_empty() {
        println!("\nfailed units: a={fa:?} b={fb:?}");
    }
}

fn main() {
    mwc_bench::run_or_exit(|| {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let db = db_or_exit();
        match args.as_slice() {
            [] => list(db),
            [flag, digest] if flag == "--spec" => spec(db, parse_digest(digest)),
            [flag, a, b] if flag == "--diff" => diff(db, parse_digest(a), parse_digest(b)),
            _ => usage(),
        }
        Ok(())
    });
}
