//! Regenerates Figure 2: normalized values of six metrics across the
//! normalized runtime of every benchmark, rendered as sparklines.
use mwc_core::figures::{fig2, FIG2_METRICS};
use mwc_report::sparkline::labelled_sparkline;

use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header("Figure 2: Metric values across normalized runtime (sparklines; avg appended)");
    let f = fig2(study, 60);
    for (name, series) in &f.rows {
        println!("{name}");
        for (metric, s) in FIG2_METRICS.iter().zip(series.iter()) {
            println!("  {}", labelled_sparkline(metric, &s.values, 16));
        }
        println!();
    }
    Ok(())
}
