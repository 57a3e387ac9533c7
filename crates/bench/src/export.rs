//! Export the study's raw data as CSV files for external analysis
//! (spreadsheets, R, pandas): the per-benchmark metric table, the
//! normalized clustering features, the correlation matrices (Pearson and
//! Spearman) and the full time series of every unit.
//!
//! ```sh
//! mwc export [output-dir]
//! ```
use std::fs;
use std::path::PathBuf;

use mwc_analysis::stats::spearman_matrix;
use mwc_core::features::{clustering_matrix, fig1_matrix, CLUSTERING_FEATURES, FIG1_METRICS};
use mwc_core::tables::table3_matrix;
use mwc_core::{StudyCache, StudySpec};

use crate::Failure;

fn matrix_csv(row_names: &[&str], col_names: &[&str], m: &mwc_analysis::matrix::Matrix) -> String {
    let mut out = String::from("name");
    for c in col_names {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for (i, name) in row_names.iter().enumerate() {
        out.push_str(&format!("\"{name}\""));
        for j in 0..m.cols() {
            out.push_str(&format!(",{:.6}", m.get(i, j)));
        }
        out.push('\n');
    }
    out
}

pub fn run(args: &[String]) -> Result<(), Failure> {
    let dir = match args {
        [] => PathBuf::from("study-export"),
        [dir] => PathBuf::from(dir),
        [_, extra, ..] => return Err(Failure::Usage(format!("unexpected argument {extra:?}"))),
    };
    fs::create_dir_all(&dir)?;

    let study = &*StudyCache::global().study_spec(&StudySpec::paper_default())?;
    let names = study.names();

    // 1. Per-benchmark aggregate metrics (the Figure-1 table).
    fs::write(
        dir.join("fig1_metrics.csv"),
        matrix_csv(&names, &FIG1_METRICS, &fig1_matrix(study)?),
    )?;

    // 2. Normalized clustering features.
    fs::write(
        dir.join("clustering_features.csv"),
        matrix_csv(&names, &CLUSTERING_FEATURES, &clustering_matrix(study)?),
    )?;

    // 3. Correlation matrices.
    fs::write(
        dir.join("table3_pearson.csv"),
        matrix_csv(&FIG1_METRICS, &FIG1_METRICS, &table3_matrix(study)?),
    )?;
    fs::write(
        dir.join("table3_spearman.csv"),
        matrix_csv(
            &FIG1_METRICS,
            &FIG1_METRICS,
            &spearman_matrix(&fig1_matrix(study)?),
        ),
    )?;

    // 4. Per-unit time series (the Figure-2 inputs).
    for p in study.profiles() {
        let slug: String = p
            .name
            .to_lowercase()
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let s = &p.series;
        let mut csv = String::from(
            "time_s,cpu_load,little_load,mid_load,big_load,gpu_load,shaders_busy,bus_busy,aie_load,memory_fraction\n",
        );
        for i in 0..s.cpu_load.len() {
            csv.push_str(&format!(
                "{:.1},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5}\n",
                i as f64 * s.cpu_load.tick_seconds,
                s.cpu_load.values[i],
                s.little_load.values[i],
                s.mid_load.values[i],
                s.big_load.values[i],
                s.gpu_load.values[i],
                s.shaders_busy.values[i],
                s.bus_busy.values[i],
                s.aie_load.values[i],
                s.memory_fraction.values[i],
            ));
        }
        fs::write(dir.join(format!("series_{slug}.csv")), csv)?;
    }

    println!(
        "exported {} files to {}",
        4 + study.profiles().len(),
        dir.display()
    );
    Ok(())
}
