//! Regenerates Table IV: the performance metrics of the temporal analysis.
use mwc_report::table::Table;

pub fn run() {
    crate::header("Table IV: Performance Metrics");
    let mut t = Table::new(vec!["Metric", "Explanation"]);
    for (metric, explanation) in [
        (
            "CPU Load",
            "Load on CPU Core (CPU Frequency x CPU % Utilization)",
        ),
        (
            "GPU Load",
            "Load on GPU (GPU Frequency x GPU % Utilization)",
        ),
        (
            "% Shaders Busy",
            "Percentage of time that all Shader cores are busy",
        ),
        (
            "% GPU Bus Busy",
            "Percentage of time the GPU's bus to system memory is busy",
        ),
        (
            "AIE Load",
            "Load on AIE (AIE Frequency x AIE % Utilization)",
        ),
        ("Used Memory", "Percentage of total system memory used"),
    ] {
        t.row(vec![metric.into(), explanation.into()]);
    }
    print!("{}", t.render());
}
