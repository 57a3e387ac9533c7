//! Criterion benches for the columnar analysis kernels against their
//! row-oriented predecessors, plus a JSON report with computed speedups.
//!
//! Unlike the other bench binaries this one has a custom `main`: after the
//! measurements it pulls the per-bench records out of the harness registry,
//! computes columnar-vs-rows speedups and writes `BENCH_kernels.json`
//! (override the path with `MWC_BENCH_JSON`). The committed copy of that
//! file is regenerated by `scripts/bench_kernels.sh`; `MWC_BENCH_FAST=1`
//! runs the same flow at smoke-test scale where the ratios are noise.
//!
//! The baselines below are verbatim re-implementations of the pre-columnar
//! code paths (per-pair row reductions, per-pair column copies) so both
//! sides of each ratio are measured in the same run on the same machine.

use criterion::{black_box, records, BenchmarkId, Criterion};
use mwc_analysis::distance::pairwise_euclidean;
use mwc_analysis::matrix::Matrix;
use mwc_analysis::stats::{correlation_matrix, pearson};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic dense matrix with mild column structure.
fn data(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let out: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| (r as f64 * 0.01 + c as f64).sin() + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    Matrix::from_rows(&out).expect("uniform rows")
}

/// Row-oriented baseline: the historical `pairwise_euclidean`, one
/// sequential per-pair reduction over the two row slices.
fn pairwise_rows_baseline(m: &Matrix) -> Matrix {
    fn euclidean_rows(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "points must have equal dimension");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
    let n = m.rows();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..i {
            let dist = euclidean_rows(m.row(i), m.row(j));
            d.set(i, j, dist);
            d.set(j, i, dist);
        }
    }
    d
}

/// Row-oriented baseline: the historical `correlation_matrix`, per-pair
/// scalar `pearson` over freshly copied columns.
fn pearson_rows_baseline(m: &Matrix) -> Matrix {
    let k = m.cols();
    let cols: Vec<Vec<f64>> = (0..k).map(|c| m.col(c)).collect();
    let mut out = Matrix::zeros(k, k);
    for i in 0..k {
        out.set(i, i, 1.0);
        for j in 0..i {
            let r = pearson(&cols[i], &cols[j]);
            out.set(i, j, r);
            out.set(j, i, r);
        }
    }
    out
}

fn bench_pairwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise");
    for &n in &[128usize, 512] {
        let m = data(n, 14, 42);
        group.bench_with_input(BenchmarkId::new("rows", n), &m, |b, m| {
            b.iter(|| black_box(pairwise_rows_baseline(m)))
        });
        group.bench_with_input(BenchmarkId::new("columnar", n), &m, |b, m| {
            b.iter(|| black_box(pairwise_euclidean(m)))
        });
    }
    group.finish();
}

fn bench_pearson(c: &mut Criterion) {
    let mut group = c.benchmark_group("pearson");
    for &(rows, cols) in &[(600usize, 32usize), (600, 64)] {
        let m = data(rows, cols, 7);
        let id = format!("{rows}x{cols}");
        group.bench_with_input(BenchmarkId::new("rows", &id), &m, |b, m| {
            b.iter(|| black_box(pearson_rows_baseline(m)))
        });
        group.bench_with_input(BenchmarkId::new("columnar", &id), &m, |b, m| {
            b.iter(|| black_box(correlation_matrix(m)))
        });
    }
    group.finish();
}

/// Median time of the named bench, if it ran (a CLI filter can skip it).
fn median_of(recs: &[criterion::Record], id: &str) -> Option<f64> {
    recs.iter().find(|r| r.id == id).map(|r| r.median_ns)
}

/// rows-median / columnar-median for one kernel size, if both ran.
fn speedup(recs: &[criterion::Record], group: &str, param: &str) -> Option<f64> {
    let rows = median_of(recs, &format!("{group}/rows/{param}"))?;
    let columnar = median_of(recs, &format!("{group}/columnar/{param}"))?;
    (columnar > 0.0).then(|| rows / columnar)
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_pairwise(&mut c);
    bench_pearson(&mut c);

    let recs = records();
    if recs.is_empty() {
        println!("no benches ran (filter matched nothing); skipping JSON report");
        return;
    }

    let fast = std::env::var("MWC_BENCH_FAST").is_ok_and(|v| v == "1");
    let bench_lines: Vec<String> = recs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"samples\": {} }}",
                r.id, r.median_ns, r.mean_ns, r.min_ns, r.max_ns, r.samples
            )
        })
        .collect();
    let speedup_lines: Vec<String> = [
        ("pairwise", "128"),
        ("pairwise", "512"),
        ("pearson", "600x32"),
        ("pearson", "600x64"),
    ]
    .iter()
    .filter_map(|(group, param)| {
        speedup(&recs, group, param).map(|s| format!("    \"{group}/{param}\": {s:.2}"))
    })
    .collect();
    let json = format!
(
        "{{\n  \"generated_by\": \"cargo bench --bench kernels\",\n  \"mode\": \"{}\",\n  \"kernel_variant\": \"f64\",\n  \"benches\": [\n{}\n  ],\n  \"speedup_rows_over_columnar\": {{\n{}\n  }}\n}}\n",
        if fast { "fast-smoke" } else { "full" },
        bench_lines.join(",\n"),
        speedup_lines.join(",\n"),
    );

    // cargo runs bench binaries from the package dir; anchor the default
    // at the workspace root so the report lands next to the README.
    let path = std::env::var("MWC_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_owned()
    });
    std::fs::write(&path, &json).expect("write bench report");
    println!("wrote {path}");
    for (group, param) in [
        ("pairwise", "128"),
        ("pairwise", "512"),
        ("pearson", "600x32"),
        ("pearson", "600x64"),
    ] {
        if let Some(s) = speedup(&recs, group, param) {
            println!("speedup {group}/{param}: {s:.2}x (rows / columnar)");
        }
    }
}
