//! Regenerates Table I: the commercial mobile benchmark suites analyzed.
use mwc_report::table::Table;
use mwc_workloads::registry::suite_inventory;

pub fn run() {
    crate::header("Table I: Commercial mobile benchmark suites analyzed");
    let mut t = Table::new(vec![
        "Benchmark Suite",
        "Benchmark Names",
        "Targeted HW / Workload",
    ]);
    for row in suite_inventory() {
        t.row(vec![
            row.suite.name().to_owned(),
            row.benchmark.to_owned(),
            row.target.to_owned(),
        ]);
    }
    print!("{}", t.render());
}
