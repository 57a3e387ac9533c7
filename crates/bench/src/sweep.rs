//! `sweep` — a resumable seed sweep over the characterization study.
//!
//! Runs the study at `--seeds` consecutive seeds starting from
//! `--base-seed`, printing one line per point and a combined sweep
//! digest. Each point goes study-database-first: a point whose
//! `study_key` is already recorded in `MWC_STUDY_DB` is *replayed* from
//! the DB (no simulation — the `soc_runs` figure in the stats line is
//! the oracle), everything else is computed in process and appended to
//! the DB. Interrupt a sweep (or truncate one with `--limit`), re-run
//! the same command, and it finishes only the missing points.
//!
//! ```text
//! mwc sweep [--seeds N] [--base-seed S] [--runs R] [--units "A, B"] [--limit K]
//! ```

use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

use mwc_core::studydb::{self, StudyRecord};
use mwc_core::{Characterization, StudyCache, StudySpec};
use mwc_soc::config::SocConfig;

use crate::{counter, header, studydb_stats_line, Failure};

struct Args {
    seeds: u64,
    base_seed: u64,
    runs: usize,
    units: Option<Vec<String>>,
    limit: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seeds: 3,
        base_seed: StudySpec::paper_default().seed,
        runs: 1,
        units: None,
        limit: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = number(flag, value()?)?,
            "--base-seed" => args.base_seed = number(flag, value()?)?,
            "--runs" => args.runs = number(flag, value()?)?,
            "--limit" => args.limit = Some(number(flag, value()?)?),
            "--units" => {
                args.units = Some(
                    value()?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be at least 1".to_owned());
    }
    Ok(args)
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

pub fn run(argv: &[String]) -> Result<(), Failure> {
    let args = parse_args(argv).map_err(|e| Failure::Usage(format!("sweep: {e}")))?;
    // Counters (soc.runs, studydb.*) are the sweep's own
    // telemetry; collection is digest-neutral by contract.
    mwc_obs::set_enabled(true);
    let db = studydb::global();

    header("Study sweep");
    println!(
        "points={} base_seed={} runs={} units={} db={}",
        args.seeds,
        args.base_seed,
        args.runs,
        args.units
            .as_ref()
            .map_or("all".to_owned(), |u| u.len().to_string()),
        db.map_or("off".to_owned(), |d| d.path().display().to_string()),
    );

    let started = Instant::now();
    let mut digests: Vec<u64> = Vec::new();
    let mut computed = 0usize;
    let mut replayed = 0usize;
    for i in 0..args.seeds {
        if let Some(limit) = args.limit.filter(|&limit| digests.len() >= limit) {
            println!("sweep interrupted after {limit} points (--limit)");
            break;
        }
        let seed = args.base_seed.wrapping_add(i);
        let mut spec = StudySpec::new(SocConfig::snapdragon_888(), seed, args.runs);
        if let Some(names) = &args.units {
            spec = spec.with_units(names.clone());
        }
        let point_start = Instant::now();
        let from_db: Option<Characterization> = db
            .and_then(|d| d.find(spec.study_key()))
            .and_then(|record| record.study());
        let (digest, source) = match from_db {
            Some(study) => {
                replayed += 1;
                (study.digest(), "db")
            }
            None => {
                let study = StudyCache::global().study_spec(&spec)?;
                computed += 1;
                if let Some(d) = db {
                    // The executor appends on compute; this covers
                    // points served warm from the result cache.
                    let _ = d.append(&StudyRecord::new(
                        &spec,
                        &study,
                        "local",
                        point_start.elapsed(),
                    ));
                }
                (study.digest(), "computed")
            }
        };
        digests.push(digest);
        println!(
            "point seed={seed} source={source} digest={digest:016x} elapsed_ms={}",
            point_start.elapsed().as_millis()
        );
    }

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &digests {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("sweep digest: {h:016x}");
    println!(
            "sweep stats: points={} computed={computed} replayed_db={replayed} soc_runs={} elapsed_ms={}",
            digests.len(),
            counter("soc.runs"),
            started.elapsed().as_millis(),
        );
    println!("{}", studydb_stats_line());
    Ok(())
}
