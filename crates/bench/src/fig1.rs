//! Regenerates Figure 1: benchmark metrics (IC, IPC, cache MPKI, branch
//! MPKI, runtime) with cluster groups and study-wide averages.
use mwc_report::table::{fmt, Table};

use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header("Figure 1: Benchmark metrics (dashed lines = averages)");
    let f = mwc_core::figures::fig1(study);
    let mut t = Table::new(vec![
        "Benchmark",
        "Group",
        "IC (bn)",
        "IPC",
        "Cache MPKI",
        "Branch MPKI",
        "Runtime (s)",
    ]);
    let row = |name: &str, group: &str, v: &[f64; 5]| {
        vec![
            name.to_owned(),
            group.to_owned(),
            fmt(v[0] / 1e9, 1),
            fmt(v[1], 2),
            fmt(v[2], 1),
            fmt(v[3], 2),
            fmt(v[4], 1),
        ]
    };
    for (name, group, v) in &f.rows {
        t.row(row(name, group, v));
    }
    t.row(row("AVERAGE", "-", &f.averages));
    print!("{}", t.render());
    Ok(())
}
