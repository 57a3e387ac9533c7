//! `report` — list and diff the historical runs in the study database.
//!
//! ```text
//! mwc report                      # list every record in MWC_STUDY_DB
//! mwc report --spec <digest>      # print a record's wire-format spec
//! mwc report --diff <a> <b>       # per-unit diff of two runs by digest
//! ```
//!
//! Digests are the 16-hex `Characterization::digest` values printed by
//! `profile`, `sweep`, and the list view.

use mwc_core::studydb::{self, StudyDb, StudyRecord};

use crate::{Characterization, Failure};

fn parse_digest(text: &str) -> Result<u64, Failure> {
    u64::from_str_radix(text.trim_start_matches("0x"), 16)
        .map_err(|_| Failure::Usage(format!("report: {text:?} is not a hex digest")))
}

fn find_by_digest(db: &StudyDb, digest: u64) -> Result<(StudyRecord, Characterization), Failure> {
    let record = db
        .find_by_digest(digest)
        .ok_or_else(|| Failure::Error(format!("no record with digest {digest:016x}")))?;
    let study = record.study().ok_or_else(|| {
        Failure::Error(format!("record {digest:016x} has a corrupt study payload"))
    })?;
    Ok((record, study))
}

fn list(db: &StudyDb) -> Result<(), Failure> {
    let records = db.entries();
    crate::header("Study database");
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
    Ok(())
}

fn spec(db: &StudyDb, digest: u64) -> Result<(), Failure> {
    let (record, _) = find_by_digest(db, digest)?;
    if record.spec_wire.is_empty() {
        return Err(Failure::Error(format!(
            "record {digest:016x} carries no wire spec"
        )));
    }
    print!("{}", record.spec_wire);
    Ok(())
}

fn diff(db: &StudyDb, a: u64, b: u64) -> Result<(), Failure> {
    let (rec_a, study_a) = find_by_digest(db, a)?;
    let (rec_b, study_b) = find_by_digest(db, b)?;
    crate::header("Study diff");
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
        return Ok(());
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
    Ok(())
}

pub fn run(args: &[String]) -> Result<(), Failure> {
    let Some(db) = studydb::global() else {
        return Err(Failure::Usage(format!(
            "report: no study database — set {} to a database file",
            studydb::STUDY_DB_ENV
        )));
    };
    match args {
        [] => list(db),
        [flag, digest] if flag == "--spec" => spec(db, parse_digest(digest)?),
        [flag, a, b] if flag == "--diff" => diff(db, parse_digest(a)?, parse_digest(b)?),
        _ => Err(Failure::Usage(format!("report: bad arguments {args:?}"))),
    }
}
