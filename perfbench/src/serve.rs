//! `serve_mixed`: an in-process study server on loopback, driven first
//! open-loop at a fixed rate and then closed-loop at capacity, on the
//! same request mix.

use std::time::Duration;

use mwc_core::{from_wire, to_wire, Characterization, StudyCache, StudySpec};
use mwc_profiler::faults::FaultConfig;
use mwc_server::client;
use mwc_server::{Server, ServerConfig};
use mwc_workloads::registry::all_units;

use crate::loadgen::{self, Kind, Request, Sample};
use crate::probe;
use crate::stats::{self, Outcome};
use crate::{overhead_share, pinned_gate, setup_median, spec, Ctx, Report, Rng};

/// Open-loop request rate, requests per second: about half the
/// closed-loop capacity measured on a 2-core host (see README.md).
const RATE: f64 = 70.0;

/// Edits checked per reference cache.
const REF_CHUNK: usize = 12;

/// Requests per block of the mix (see `kind_of`).
const MIX_BLOCK: usize = 10;

/// Primed seeds: the specs the hits and the `GET`s ask for.
const PRIMED_SEEDS: usize = 2;

/// Runs per unit of a served study.
const RUNS: usize = 3;

/// Share of `--seconds` spent in the open-loop phase. The closed loop
/// then sends a fixed number of requests, twice what the open loop would
/// send in the remaining time (about the capacity), so the number of
/// edits, and the memory the server keeps for them, does not depend on
/// how fast the server is.
const OPEN_SHARE: f64 = 0.75;

/// Request indices of the closed-loop phase start here, so its edits
/// never repeat an open-loop edit.
const CLOSED_BASE: usize = 1 << 32;

/// A booted server with its primed studies. Dropping it shuts the
/// server down and waits for every thread.
struct Booted {
    server: Option<Server>,
    addr: String,
    primed: Vec<(StudySpec, u64)>,
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }
}

fn boot(ctx: &Ctx, cache_dir: &std::path::Path) -> Result<Booted, String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    pinned_gate(ctx.threads)?;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: ctx.threads,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server bind failed: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut booted = Booted {
        server: Some(server),
        addr,
        primed: Vec::new(),
    };
    let mut rng = Rng::new(ctx.seed, 6);
    for _ in 0..PRIMED_SEEDS {
        let spec = spec(rng.next_u64() >> 16, RUNS, ctx.threads);
        let body = to_wire(&spec).map_err(|e| format!("wire: {e}"))?;
        let resp = client::request(
            &booted.addr,
            "POST",
            "/study",
            &[],
            body.as_bytes(),
            Duration::from_secs(60),
        )
        .map_err(|e| format!("priming request failed: {e}"))?;
        let got = loadgen::body_digest(&resp.body_str())
            .ok_or_else(|| format!("priming answered {}: {}", resp.status, resp.body_str()))?;
        let want = Characterization::try_run_spec(&spec)
            .map_err(|e| format!("reference study failed: {e}"))?
            .digest();
        if got != want {
            return Err(format!("primed study {got:016x} != reference {want:016x}"));
        }
        booted.primed.push((spec, want));
    }
    Ok(booted)
}

/// The edit for request `i`: its primed seed with one new per-unit fault
/// override (a jitter-only fault, which never fails a run). Successive
/// edits walk the units in turn, so every run edits each unit about as
/// often and the edit cost does not hinge on which units the dice chose.
fn edit_spec(seed: u64, primed: &StudySpec, units: &[String], i: usize) -> StudySpec {
    let turn = i / MIX_BLOCK + Rng::new(seed, 9).below(units.len());
    let faults = FaultConfig {
        seed: i as u64 + 1,
        jitter_amplitude: 0.01,
        ..FaultConfig::default()
    };
    primed
        .clone()
        .with_unit_faults(units[turn % units.len()].clone(), faults)
}

/// The kind of request `i`. Every block of ten consecutive requests
/// holds exactly seven hits, two `GET`s and one edit, in an order drawn
/// from the workload seed, so the mix does not vary with the run length.
fn kind_of(seed: u64, i: usize) -> Kind {
    let mut block: [Kind; MIX_BLOCK] = [
        Kind::Hit,
        Kind::Hit,
        Kind::Hit,
        Kind::Hit,
        Kind::Hit,
        Kind::Hit,
        Kind::Hit,
        Kind::Get,
        Kind::Get,
        Kind::Edit,
    ];
    let mut rng = Rng::new(seed, 7 ^ ((i / MIX_BLOCK) as u64).rotate_left(17));
    for j in (1..block.len()).rev() {
        block.swap(j, rng.below(j + 1));
    }
    block[i % MIX_BLOCK]
}

/// Request `i` of the mix; deterministic in the workload seed and `i`.
fn make_request(seed: u64, primed: &[(StudySpec, u64)], units: &[String], i: usize) -> Request {
    let (spec, digest) = &primed[(i / MIX_BLOCK + i) % primed.len()];
    let kind = kind_of(seed, i);
    let (method, path, body, expect) = match kind {
        Kind::Hit => ("POST", "/study".to_owned(), to_wire(spec), Some(*digest)),
        Kind::Get => (
            "GET",
            format!("/study/{digest:016x}"),
            Ok(String::new()),
            Some(*digest),
        ),
        Kind::Edit => (
            "POST",
            "/study".to_owned(),
            to_wire(&edit_spec(seed, spec, units, i)),
            None,
        ),
    };
    Request {
        kind,
        method,
        path,
        body: body.unwrap_or_default().into_bytes(),
        expect,
    }
}

/// Count every sample in `report.tally`. Each edit is checked against a
/// reference computed in-process, outside the timed phases, from the
/// same primed unit artifacts: a fresh in-memory cache per primed seed
/// and per `REF_CHUNK` edits bounds the memory the references hold.
fn account(
    booted: &Booted,
    make: &dyn Fn(usize) -> Request,
    samples: &[Sample],
    report: &mut Report,
) {
    let mut edits: Vec<(usize, StudySpec)> = Vec::new();
    for (at, s) in samples.iter().enumerate() {
        if s.kind == Kind::Edit && s.outcome == Outcome::Ok {
            let body = String::from_utf8(make(s.index).body).unwrap_or_default();
            match from_wire(&body) {
                Ok(spec) => edits.push((at, spec)),
                Err(_) => report.gate(false, || format!("edit {} has no spec", s.index)),
            }
        }
    }
    let mut outcomes: Vec<Outcome> = samples.iter().map(|s| s.outcome).collect();
    for (base, _) in &booted.primed {
        let group: Vec<&(usize, StudySpec)> =
            edits.iter().filter(|(_, e)| e.seed == base.seed).collect();
        for chunk in group.chunks(REF_CHUNK) {
            let reference = StudyCache::in_memory();
            let _ = reference.study_spec(base);
            for (at, spec) in chunk {
                let want = reference.study_spec(spec).ok().map(|st| st.digest());
                if want.is_none() || want != samples[*at].digest {
                    outcomes[*at] = Outcome::Mismatch;
                }
            }
        }
    }
    for o in outcomes {
        report.record(o);
    }
}

fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples.map(|s| stats::ms(s.timing.latency())).collect()
}

/// `serve_mixed`: boot and prime the server, drive the open loop and
/// then the closed loop on the same mix, and check every response.
pub fn serve_mixed(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let cache_dir = ctx.work.join("serve-cache");
    let booted = setup_median(report, || boot(ctx, &cache_dir))?;
    let units: Vec<String> = all_units().iter().map(|u| u.name.to_owned()).collect();
    let conns = ctx.threads;
    let open_s = ctx.seconds * OPEN_SHARE;
    let count = (RATE * open_s).round() as usize;
    let closed_count = (2.0 * RATE * (ctx.seconds - open_s)).round() as usize;
    report.param(
        "seeds",
        booted
            .primed
            .iter()
            .map(|(s, _)| s.seed.to_string())
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.param("runs", RUNS);
    report.param("rate_rps", RATE);
    report.param("connections", conns);
    report.param("server_workers", ctx.threads);
    report.param("mix", "7 hit, 2 get, 1 edit in every 10 requests");
    report.param("open_loop_s", open_s);
    report.param("closed_loop_requests", closed_count);
    report.param("req_percentile", "p99 (open loop, from due time)");

    let make = |i: usize| make_request(ctx.seed, &booted.primed, &units, i);
    let (open, closed_samples, closed_wall) = if ctx.traced {
        // First half untraced, second half traced: the difference is the
        // tracing overhead; every per-layer figure comes from the second.
        let half = count / 2;
        let untraced = loadgen::open_loop(&booted.addr, conns, RATE, half, &make);
        mwc_obs::reset();
        mwc_obs::set_enabled(true);
        let (r0, w0) = probe::io_bytes();
        let traced =
            loadgen::open_loop(&booted.addr, conns, RATE, count - half, &|i| make(half + i));
        let (r1, w1) = probe::io_bytes();
        mwc_obs::set_enabled(false);
        let trace = mwc_obs::trace::drain();
        let n = traced.len().max(1) as f64;
        probe::record_program_layers(&trace, ctx.threads, n, &mut report.layers);
        let hits = probe::counter("cache.mem_hits") + probe::counter("cache.disk_hits");
        let lookups = hits + probe::counter("cache.misses");
        report.layers.push(
            "cache.hit_share",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        );
        report.layers.push("cache.bytes_read", (r1 - r0) as f64 / n);
        report
            .layers
            .push("cache.bytes_written", (w1 - w0) as f64 / n);
        report.layers.push(
            "trace.overhead_share",
            overhead_share(&latencies(traced.iter()), &latencies(untraced.iter())),
        );
        let mut open = untraced;
        open.extend(traced.into_iter().map(|mut s| {
            s.index += half;
            s
        }));
        (open, Vec::new(), Duration::ZERO)
    } else {
        let open = loadgen::open_loop(&booted.addr, conns, RATE, count, &make);
        let (c, wall) = loadgen::closed_loop(&booted.addr, conns, closed_count, CLOSED_BASE, &make);
        (open, c, wall)
    };

    let of = |k: Kind| latencies(open.iter().filter(|s| s.kind == k));
    let sheds = open
        .iter()
        .chain(closed_samples.iter())
        .filter(|s| s.outcome == Outcome::Status(503))
        .count();
    let all_open = latencies(open.iter());
    let late: Vec<f64> = open
        .iter()
        .map(|s| stats::ms(s.timing.lateness()))
        .collect();
    let l = &mut report.layers;
    l.push("server.hit_p50_ms", stats::median(&of(Kind::Hit)));
    l.push("server.get_p50_ms", stats::median(&of(Kind::Get)));
    l.push("server.edit_p50_ms", stats::median(&of(Kind::Edit)));
    l.push("loadgen.late_p99_ms", stats::percentile(&late, 99.0));

    account(&booted, &make, &open, report);
    account(&booted, &make, &closed_samples, report);
    let attempted = report.tally.attempted.max(1) as f64;
    report
        .layers
        .push("server.shed_share", sheds as f64 / attempted);

    if !ctx.traced {
        let secs = closed_wall.as_secs_f64();
        let studies: Vec<f64> = latencies(
            closed_samples
                .iter()
                .filter(|s| s.kind != Kind::Get && s.outcome == Outcome::Ok),
        );
        let (tail_pct, tail_ms) = stats::tail(&studies).unwrap_or((100.0, 0.0));
        report.param("requests_open", open.len());
        report.param("requests_closed", closed_samples.len());
        report.param(
            "study_tail_percentile",
            format!("{tail_pct:.1} (closed loop, POST /study)"),
        );
        report.e2e.extend([
            ("studies_per_s", studies.len() as f64 / secs),
            ("study_p50_ms", stats::median(&studies)),
            ("study_tail_ms", tail_ms),
            ("req_p50_ms", stats::median(&all_open)),
            ("req_p99_ms", stats::percentile(&all_open, 99.0)),
            ("capacity_rps", closed_samples.len() as f64 / secs),
        ]);
    }
    drop(booted);
    Ok(())
}
