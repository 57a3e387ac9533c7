//! The three study workloads: `cold_study`, `warm_replay` and
//! `resume_sweep`.

use std::path::Path;
use std::time::Instant;

use mwc_core::{Characterization, StageKind, StudyCache, StudyDb, StudyRecord, StudySpec};

use crate::paper;
use crate::probe::{self, OpTimer};
use crate::stats::Outcome;
use crate::{
    measure_ops, overhead_share, pinned_gate, setup_median, spec, study_e2e, Ctx, Report, Rng,
};

/// Runs per unit of a paper study (the paper's protocol).
const PAPER_RUNS: usize = 3;

/// Seeds primed on disk for `warm_replay`. Each fills 20 entries (18
/// unit artifacts, the study, the sweep), so three fill 60 of the
/// cache's default 64 and the working set never evicts itself.
const WARM_SEEDS: usize = 3;

/// The cache's default on-disk entry cap (`mwc_core::cache`).
const CACHE_ENTRY_CAP: usize = 64;

/// Completed points in the `resume_sweep` study DB (the size of a
/// 32-seed conclusions sweep).
const DB_POINTS: usize = 32;

/// Runs per unit of a sweep point (the `sweep` bin's default).
const SWEEP_RUNS: usize = 1;

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn dir_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.count())
}

/// The reference digest of `spec`, computed without any cache.
fn reference(spec: &StudySpec) -> Result<u64, String> {
    Characterization::try_run_spec(spec)
        .map(|s| s.digest())
        .map_err(|e| format!("reference study failed: {e}"))
}

/// `cold_study`: every op regenerates the paper for a fresh seed through
/// the program's default on-disk cache, which starts empty. Like a fresh
/// `all` process, each op opens its own cache over that directory, so
/// memory does not grow with the number of ops. The reference digest is
/// computed cache-free after each op.
pub fn cold_study(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let cache_dir = ctx.work.join("cache");
    setup_median(report, || {
        fresh_dir(&cache_dir)?;
        pinned_gate(ctx.threads)
    })?;
    let base = Rng::new(ctx.seed, 1).next_u64() >> 16;
    report.param("seeds", format!("{base}+i (one fresh seed per op)"));
    report.param("runs", PAPER_RUNS);
    report.param("cache", StudyCache::with_dir(&cache_dir).describe());

    let times = measure_ops(
        ctx,
        report,
        |i, traced, report| {
            let spec = spec(base + i as u64, PAPER_RUNS, ctx.threads);
            let cache = StudyCache::with_dir(&cache_dir);
            let io0 = probe::io_bytes();
            let mut t = OpTimer::new(traced);
            let got = paper::regenerate(&cache, &spec, &mut t);
            let io1 = probe::io_bytes();
            let ms = t.finish(&mut report.layers);
            if traced {
                let l = &mut report.layers;
                l.push("cache.hit_share", probe::hit_share(cache.stats()));
                l.push("cache.read_ms", 0.0);
                l.push("cache.bytes_read", (io1.0 - io0.0) as f64);
                l.push("cache.bytes_written", (io1.1 - io0.1) as f64);
            }
            (ms, (spec, got))
        },
        |(spec, got), _, report| {
            let outcome = match (got, reference(&spec)) {
                (Ok(p), Ok(want)) if p.study.digest() == want => Outcome::Ok,
                (Ok(_), Ok(_)) => Outcome::Mismatch,
                _ => Outcome::Error,
            };
            report.record(outcome);
        },
    );
    finish_study(ctx, report, &times);
    Ok(())
}

/// One primed `warm_replay` seed: its spec and its cold paper.
struct Primed {
    spec: StudySpec,
    digest: u64,
    text: String,
}

/// `warm_replay`: setup primes `WARM_SEEDS` seeds on disk; every op
/// regenerates one of their papers through a fresh cache instance over
/// that directory, so it decodes the study and sweep from disk and
/// computes the features, as a fresh `all` process does, and carries no
/// memory hit over from an earlier op. Its paper must be byte-identical
/// to the cold one.
pub fn warm_replay(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let dir = ctx.work.join("warm");
    let primed = setup_median(report, || {
        fresh_dir(&dir)?;
        pinned_gate(ctx.threads)?;
        let mut rng = Rng::new(ctx.seed, 2);
        let mut primed = Vec::new();
        for _ in 0..WARM_SEEDS {
            let spec = spec(rng.next_u64() >> 16, PAPER_RUNS, ctx.threads);
            let paper =
                paper::regenerate(&StudyCache::with_dir(&dir), &spec, &mut OpTimer::new(false))
                    .map_err(|e| format!("priming failed: {e}"))?;
            let digest = paper.study.digest();
            if digest != reference(&spec)? {
                return Err("primed study differs from its cache-free reference".to_owned());
            }
            primed.push(Primed {
                spec,
                digest,
                text: paper.text,
            });
        }
        Ok(primed)
    })?;
    let entries = dir_entries(&dir);
    report.param(
        "seeds",
        primed
            .iter()
            .map(|p| p.spec.seed.to_string())
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.param("runs", PAPER_RUNS);
    report.param("cache_entries", format!("{entries}/{CACHE_ENTRY_CAP}"));
    report.gate(entries <= CACHE_ENTRY_CAP, || {
        format!("warm working set ({entries} entries) exceeds the cache cap")
    });

    let mut rng = Rng::new(ctx.seed, 3);
    let times = measure_ops(
        ctx,
        report,
        |_, traced, report| {
            let p = &primed[rng.below(primed.len())];
            let cache = StudyCache::with_dir(&dir);
            let io0 = probe::io_bytes();
            let mut t = OpTimer::new(traced);
            let got = paper::regenerate(&cache, &p.spec, &mut t);
            let io1 = probe::io_bytes();
            let read_ms = t.spent("pipeline.characterize") + t.spent("analysis.sweep");
            let ms = t.finish(&mut report.layers);
            let stats = cache.stats();
            let hit_share = probe::hit_share(stats);
            let sims = cache.stage(StageKind::Capture).misses;
            report.gate(hit_share == 1.0, || {
                format!("warm op missed the cache: {}", stats.summary())
            });
            report.gate(sims == 0, || format!("warm op simulated {sims} units"));
            if traced {
                let l = &mut report.layers;
                l.push("cache.hit_share", hit_share);
                l.push("cache.read_ms", read_ms);
                l.push("cache.bytes_read", (io1.0 - io0.0) as f64);
                l.push("cache.bytes_written", (io1.1 - io0.1) as f64);
            }
            (ms, (p, got))
        },
        |(p, got), trace, report| {
            if let Some(trace) = trace {
                let strays = probe::spans_outside(trace, "soc.run", "observations.check");
                report.gate(strays == 0, || {
                    format!("warm op simulated {strays} runs outside the observations")
                });
            }
            let outcome = match &got {
                Ok(paper) if paper.study.digest() == p.digest && paper.text == p.text => {
                    Outcome::Ok
                }
                Ok(_) => Outcome::Mismatch,
                Err(_) => Outcome::Error,
            };
            report.record(outcome);
        },
    );
    finish_study(ctx, report, &times);
    Ok(())
}

/// `resume_sweep`: setup primes a study DB with `DB_POINTS` completed
/// sweep points; every op is the `sweep` bin's resume path for one of
/// them — find the record by study key, decode it, check its digest.
pub fn resume_sweep(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let path = ctx.work.join("sweep.mwdb");
    let base = Rng::new(ctx.seed, 4).next_u64() >> 16;
    let (db, points) = setup_median(report, || {
        let _ = std::fs::remove_file(&path);
        pinned_gate(ctx.threads)?;
        let db = StudyDb::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut points = Vec::new();
        for k in 0..DB_POINTS as u64 {
            let spec = spec(base + k, SWEEP_RUNS, ctx.threads);
            let t0 = Instant::now();
            let study = Characterization::try_run_spec(&spec)
                .map_err(|e| format!("sweep point failed: {e}"))?;
            db.append(&StudyRecord::new(&spec, &study, "local", t0.elapsed()))
                .map_err(|e| format!("study DB append failed: {e}"))?;
            points.push((spec, study.digest()));
        }
        Ok((db, points))
    })?;
    let db_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    report.param("seeds", format!("{base}..{}", base + DB_POINTS as u64));
    report.param("runs", SWEEP_RUNS);
    report.param("db_points", DB_POINTS);
    report.param("db_bytes", db_bytes);

    let mut rng = Rng::new(ctx.seed, 5);
    let times = measure_ops(
        ctx,
        report,
        |_, traced, report| {
            let (spec, want) = &points[rng.below(points.len())];
            let want = *want;
            let mut t = OpTimer::new(traced);
            let io0 = probe::io_bytes();
            let key = spec.study_key();
            let record = t.call("studydb.find", || db.find(key));
            let io1 = probe::io_bytes();
            let study = record
                .as_ref()
                .and_then(|r| t.call("studydb.decode", || r.study()));
            let ms = t.finish(&mut report.layers);
            report.gate(record.is_some(), || {
                format!("study DB lookup missed key {key:016x}")
            });
            if traced {
                let soc_runs = probe::counter("soc.runs");
                report.gate(soc_runs == 0, || {
                    format!("resume op ran the simulator {soc_runs} times")
                });
                report
                    .layers
                    .push("studydb.bytes_scanned", (io1.0 - io0.0) as f64);
            }
            let outcome = match (&record, &study) {
                (Some(r), Some(s)) if r.digest == want && s.digest() == want => Outcome::Ok,
                (Some(_), Some(_)) => Outcome::Mismatch,
                _ => Outcome::Error,
            };
            report.record(outcome);
            (ms, ())
        },
        |(), _, _| {},
    );
    finish_study(ctx, report, &times);
    Ok(())
}

fn finish_study(ctx: &Ctx, report: &mut Report, times: &crate::OpTimes) {
    if ctx.traced {
        report.layers.push(
            "trace.overhead_share",
            overhead_share(&times.traced, &times.untraced),
        );
    } else {
        study_e2e(report, times);
    }
}
