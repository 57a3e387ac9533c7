//! One study op: regenerate the whole paper, as the `all` binary does,
//! into a buffer. Every feature-derived result is taken from the
//! caller's cache, so an op can run against a fresh cache instance and
//! pay what a fresh process pays.

use std::fmt::Write as _;
use std::sync::Arc;

use mwc_analysis::cluster::{hierarchical, kmeans, Linkage};
use mwc_analysis::stats::correlation_matrix;
use mwc_analysis::subset::incremental_distances;
use mwc_analysis::validation::Algorithm;
use mwc_core::features::FIG1_METRICS;
use mwc_core::{figures, observations, subsets, tables};
use mwc_core::{Characterization, PipelineError, StudyCache, StudySpec};
use mwc_report::heat::heat_row;
use mwc_report::sparkline::labelled_sparkline;
use mwc_report::table::{fmt, Table};
use mwc_workloads::registry::suite_inventory;

use crate::probe::OpTimer;

/// What one op produced.
#[derive(Debug)]
pub struct Paper {
    /// The study behind the paper. Its digest is left to the caller's
    /// check, outside the timed op: hashing the study is not part of
    /// regenerating the paper.
    pub study: Arc<Characterization>,
    /// The rendered paper.
    pub text: String,
}

/// The Fig-4 validation sweep range, as `figures::fig4` uses it.
const SWEEP_KS: [usize; 5] = [2, 3, 4, 5, 6];

/// Characterize `spec` through `cache` and regenerate every table,
/// figure, subset and observation of the paper from it.
pub fn regenerate(
    cache: &StudyCache,
    spec: &StudySpec,
    t: &mut OpTimer,
) -> Result<Paper, PipelineError> {
    let study = t.call("pipeline.characterize", || cache.study_spec(spec))?;
    let features = t.call("features.featurize", || cache.features(&study))?;
    let sweep = t.call("analysis.sweep", || {
        cache.sweep(&features.clustering, &SWEEP_KS)
    })?;
    let (dendrogram, clustering) = t.call("analysis.cluster", || {
        Ok::<_, PipelineError>((
            hierarchical(&features.clustering, Linkage::Ward)?,
            kmeans(&features.clustering, 5, 42)?,
        ))
    })?;
    let (f1, f2, f3) = t.call("figures.temporal", || {
        (
            figures::fig1(&study),
            figures::fig2(&study, 50),
            figures::fig3(&study, 50),
        )
    });
    let (table3, table5, table6) = t.call("tables.build", || {
        (
            table3_text(&correlation_matrix(&features.fig1)),
            tables::table5_text(&study),
            tables::table6_text(&study, &clustering),
        )
    });
    let fig7 = t.call("subsets.build", || {
        [
            subsets::naive_subset(&study, &clustering),
            subsets::select_subset(&study),
            subsets::select_plus_gpu_subset(&study),
        ]
        .map(|s| {
            (
                s.kind.name(),
                incremental_distances(&features.representativeness, &s.indices),
            )
        })
    });
    let obs = t.call("observations.check", || observations::check_all(&study));

    let text = t.call("report.render", || {
        let mut out = String::with_capacity(16 * 1024);
        render(
            &mut out,
            &study,
            &f1,
            &f2,
            &f3,
            &table3,
            &table5,
            &table6,
            &sweep,
            &clustering,
            &fig7,
            &obs,
        );
        let _ = writeln!(
            out,
            "\nFigure 5: Ward dendrogram, {} merges",
            dendrogram.merges().len()
        );
        out
    });
    Ok(Paper { study, text })
}

/// Table III from the Fig-1 correlation matrix, laid out as
/// `tables::table3_text` lays it out (that function reads the features
/// through the process-wide cache, which would carry a memory hit from
/// one op to the next).
fn table3_text(c: &mwc_analysis::Matrix) -> String {
    let mut headers: Vec<String> = vec![String::new()];
    headers.extend(FIG1_METRICS.iter().map(|s| s.to_string()));
    let mut t = Table::new(headers);
    for (i, metric) in FIG1_METRICS.iter().enumerate().take(c.rows()) {
        let mut row = vec![metric.to_string()];
        for j in 0..=i {
            row.push(fmt(c.get(i, j), 3));
        }
        t.row(row);
    }
    t.render()
}

fn header(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n=== {title} ===\n");
}

#[allow(clippy::too_many_arguments)]
fn render(
    out: &mut String,
    study: &Characterization,
    f1: &figures::Fig1,
    f2: &figures::Fig2,
    f3: &figures::Fig3,
    table3: &str,
    table5: &str,
    table6: &str,
    sweep: &mwc_analysis::validation::ValidationSweep,
    clustering: &mwc_analysis::Clustering,
    fig7: &[(&str, Vec<f64>)],
    obs: &[observations::ObservationResult],
) {
    header(out, "Table I");
    let mut t = Table::new(vec!["Suite", "Benchmark", "Target"]);
    for row in suite_inventory() {
        t.row(vec![
            row.suite.name().into(),
            row.benchmark.into(),
            row.target.into(),
        ]);
    }
    out.push_str(&t.render());

    header(out, "Table II");
    let _ = writeln!(out, "{}", mwc_soc::config::SocConfig::snapdragon_888().name);

    header(out, "Figure 1");
    let mut t = Table::new(vec![
        "Benchmark",
        "Group",
        "IC (bn)",
        "IPC",
        "cMPKI",
        "bMPKI",
        "Runtime",
    ]);
    for (name, group, v) in &f1.rows {
        t.row(vec![
            name.clone(),
            group.to_string(),
            fmt(v[0] / 1e9, 1),
            fmt(v[1], 2),
            fmt(v[2], 1),
            fmt(v[3], 2),
            fmt(v[4], 1),
        ]);
    }
    out.push_str(&t.render());

    header(out, "Table III");
    out.push_str(table3);

    header(out, "Figure 2 (sparklines)");
    for (name, series) in &f2.rows {
        let _ = writeln!(out, "{name}");
        for (metric, s) in figures::FIG2_METRICS.iter().zip(series.iter()) {
            let _ = writeln!(out, "  {}", labelled_sparkline(metric, &s.values, 16));
        }
    }

    header(out, "Figure 3 (heat rows)");
    for (name, series) in &f3.rows {
        let _ = writeln!(out, "{name}");
        for (cluster, s) in ["little", "mid   ", "big   "].iter().zip(series.iter()) {
            let _ = writeln!(out, "  {cluster}  {}", heat_row(&s.values));
        }
    }

    header(out, "Table V");
    out.push_str(table5);

    header(out, "Figure 4");
    for alg in Algorithm::ALL {
        let _ = writeln!(
            out,
            "{:<12} best k: Dunn={:?} Sil={:?} APN={:?} AD={:?}",
            alg.name(),
            sweep.best_k_by_dunn(alg),
            sweep.best_k_by_silhouette(alg),
            sweep.best_k_by_apn(alg),
            sweep.best_k_by_ad(alg),
        );
    }

    header(out, "Figures 5 & 6 (clusters at k = 5)");
    let names = study.names();
    for (i, members) in clustering.members().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&j| names[j]).collect();
        let _ = writeln!(out, "  cluster {}: {}", i + 1, names.join(", "));
    }

    header(out, "Table VI");
    out.push_str(table6);

    header(out, "Figure 7");
    for (name, curve) in fig7 {
        let pts: Vec<String> = curve.iter().map(|v| format!("{v:.2}")).collect();
        let _ = writeln!(out, "{name}: {}", pts.join(" "));
    }

    header(out, "Observations");
    for o in obs {
        let _ = writeln!(
            out,
            "#{} [{}] {}",
            o.id,
            if o.holds { "HOLDS" } else { "FAILS" },
            o.statement
        );
    }
}
