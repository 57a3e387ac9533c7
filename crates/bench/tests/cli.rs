//! End-to-end checks of the `mwc` dispatcher: usage errors, `all` as the
//! paper sections in order, and one study per process under `MWC_TRACE`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The paper sections, in paper order.
const SECTIONS: &str =
    "table1 table2 fig1 table3 table4 fig2 fig3 table5 fig4 fig5 fig6 table6 fig7 observations";

/// The other subcommands.
const TOOLS: &str = "all ablation calibrate export faults profile report sweep";

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Run `mwc args…` with `env` set, one result cache shared by every run
/// of this file, and no trace unless `env` asks for one.
fn mwc(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mwc"))
        .args(args)
        .env("MWC_CACHE_DIR", tmp("cli-cache"))
        .env_remove("MWC_CACHE")
        .env_remove("MWC_TRACE")
        .env_remove("MWC_STUDY_DB")
        .envs(env.iter().copied())
        .output()
        .expect("mwc runs")
}

#[test]
fn usage_errors_exit_2_and_name_every_subcommand() {
    for args in [&[][..], &["nope"], &["table1", "extra-arg"]] {
        let out = mwc(args, &[]);
        assert_eq!(out.status.code(), Some(2), "mwc {args:?}");
        assert!(out.stdout.is_empty(), "nothing renders on a usage error");
        let usage = String::from_utf8_lossy(&out.stderr);
        let words: Vec<&str> = usage.split(|c: char| !c.is_ascii_alphanumeric()).collect();
        for name in SECTIONS.split_whitespace().chain(TOOLS.split_whitespace()) {
            assert!(words.contains(&name), "usage omits {name}:\n{usage}");
        }
    }
}

#[test]
fn all_is_the_sections_in_paper_order() {
    let all = mwc(&["all"], &[]);
    assert_eq!(all.status.code(), Some(0));
    let mut sections = String::new();
    let mut observations = None;
    for name in SECTIONS.split_whitespace() {
        let out = mwc(&[name], &[]);
        sections += &String::from_utf8_lossy(&out.stdout);
        observations = out.status.code();
    }
    assert_eq!(String::from_utf8_lossy(&all.stdout), sections);
    assert_eq!(all.status.code(), observations);
}

/// `soc.runs` of a traced, uncached `mwc <name>`, read from its JSONL trace.
fn traced_soc_runs(name: &str) -> u64 {
    let path = tmp(&format!("cli-trace-{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    let trace_env = path.to_str().expect("utf-8 temp path");
    let out = mwc(&[name], &[("MWC_CACHE", "off"), ("MWC_TRACE", trace_env)]);
    assert!(out.status.success(), "mwc {name} failed");
    let trace = std::fs::read_to_string(&path).expect("MWC_TRACE file written");
    let line = trace
        .lines()
        .find(|l| l.contains(r#""type":"counter","name":"soc.runs""#))
        .expect("soc.runs counter in the trace");
    let value = line.rsplit(':').next().expect("value field");
    value
        .trim_end_matches('}')
        .parse()
        .expect("integer counter")
}

#[test]
fn all_computes_the_study_once() {
    let all = traced_soc_runs("all");
    let fig1 = traced_soc_runs("fig1");
    // `observations` simulates a few probe runs of its own on top of the
    // study, and it is the section that simulates the most; a second
    // study would at least double the count.
    assert_eq!(all, traced_soc_runs("observations"));
    assert!(fig1 <= all && all < 2 * fig1, "all={all} fig1={fig1}");
}
