//! # mobile-workload-characterization
//!
//! A full reproduction of *Workload Characterization of Commercial Mobile
//! Benchmark Suites* (Kariofillis & Enright Jerger, ISPASS 2024) as a Rust
//! workspace. This umbrella crate re-exports the member crates:
//!
//! * [`soc`] — a deterministic mobile-SoC simulator (tri-cluster CPU, GPU,
//!   AIE, caches, DVFS, EAS scheduling) standing in for the paper's
//!   Snapdragon 888 Mobile Hardware Development Kit;
//! * [`workloads`] — phase-accurate models of the 7 commercial suites
//!   (41 sub-benchmarks, 18 characterization units);
//! * [`profiler`] — the Snapdragon-Profiler-style capture layer (metric
//!   registry, time series, idle-baseline subtraction, derived metrics);
//! * [`analysis`] — statistics, k-means/PAM/hierarchical clustering,
//!   Dunn/silhouette/APN/AD validation, and benchmark subsetting;
//! * [`report`] — text rendering for tables, sparklines, heat rows and
//!   dendrograms;
//! * [`core`] — the paper's study: the characterization pipeline, feature
//!   matrices, Observations #1–#9, Tables III/V/VI and Figures 1–7.
//!
//! See the `examples/` directory for runnable entry points and the
//! `mwc-bench` crate for the per-table/per-figure reproduction binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mwc_analysis as analysis;
pub use mwc_core as core;
pub use mwc_profiler as profiler;
pub use mwc_report as report;
pub use mwc_soc as soc;
pub use mwc_workloads as workloads;

/// The most common entry points, re-exported for convenience.
pub mod prelude {
    pub use mwc_analysis::cluster::{hierarchical, kmeans, pam, Clustering, Linkage};
    pub use mwc_core::observations::check_all;
    pub use mwc_core::pipeline::{Characterization, UnitProfile};
    pub use mwc_core::spec::StudySpec;
    pub use mwc_profiler::capture::{Profiler, SeriesKey};
    pub use mwc_profiler::derive::BenchmarkMetrics;
    pub use mwc_soc::config::SocConfig;
    pub use mwc_soc::engine::Engine;
    pub use mwc_soc::workload::{Demand, Workload};
    pub use mwc_workloads::registry::{all_units, BenchmarkUnit};
}
