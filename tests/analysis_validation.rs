//! Integration checks of the extended analysis toolkit (Spearman
//! correlation, connectivity) against the study data.

use std::sync::OnceLock;

use mobile_workload_characterization::prelude::*;
use mwc_analysis::stats::{spearman, spearman_matrix};
use mwc_analysis::validation::connectivity;
use mwc_core::features::{clustering_matrix, fig1_matrix};
use mwc_core::tables::table3_matrix;

fn study() -> &'static Characterization {
    static STUDY: OnceLock<Characterization> = OnceLock::new();
    STUDY.get_or_init(|| {
        Characterization::try_run_spec(&StudySpec::new(SocConfig::snapdragon_888(), 2024, 1))
            .expect("fault-free study")
    })
}

#[test]
fn spearman_confirms_the_pearson_sign_pattern() {
    // The rank-based coefficient is scale-free, so it cross-checks that
    // Table III's sign pattern is not an artifact of the simulator's
    // magnitudes (EXPERIMENTS.md, Figure-1 note).
    let raw = fig1_matrix(study()).expect("full study");
    let pearson = table3_matrix(study()).expect("full study");
    let rank = spearman_matrix(&raw);
    // IPC <-> cache MPKI: strongly negative under both.
    assert!(pearson.get(1, 2) < -0.8);
    assert!(rank.get(1, 2) < -0.6, "got {}", rank.get(1, 2));
    // IC <-> runtime: positive under both.
    assert!(pearson.get(0, 4) > 0.4);
    assert!(rank.get(0, 4) > 0.3, "got {}", rank.get(0, 4));
    // Every strong Pearson association keeps its sign under Spearman.
    for i in 0..5 {
        for j in 0..i {
            if pearson.get(i, j).abs() >= 0.8 {
                assert!(
                    pearson.get(i, j).signum() == rank.get(i, j).signum(),
                    "({i},{j}): pearson {} vs spearman {}",
                    pearson.get(i, j),
                    rank.get(i, j)
                );
            }
        }
    }
}

#[test]
fn spearman_is_monotone_invariant_on_study_columns() {
    let raw = fig1_matrix(study()).expect("full study");
    let ic = raw.col(0);
    let runtime = raw.col(4);
    let r = spearman(&ic, &runtime);
    // Applying a monotone transform (log) to one side changes nothing.
    let log_ic: Vec<f64> = ic.iter().map(|v| v.ln()).collect();
    assert!((spearman(&log_ic, &runtime) - r).abs() < 1e-12);
}

#[test]
fn ground_truth_partition_minimizes_connectivity_among_rivals() {
    let s = study();
    let m = clustering_matrix(s).expect("full study");
    let truth = Clustering::new(s.profiles().iter().map(|p| p.label as usize).collect(), 5)
        .expect("5 labels");
    let truth_conn = connectivity(&m, &truth, 5);

    // Rival 1: the paper-grouping with Antutu GPU moved in with the other
    // Antutu segments (the specific split §VI-B highlights).
    let mut labels: Vec<usize> = s.profiles().iter().map(|p| p.label as usize).collect();
    let gpu_idx = s
        .profiles()
        .iter()
        .position(|p| p.name == "Antutu GPU")
        .expect("unit");
    let cpu_idx = s
        .profiles()
        .iter()
        .position(|p| p.name == "Antutu CPU")
        .expect("unit");
    labels[gpu_idx] = labels[cpu_idx];
    let rival = Clustering::new(labels, 5).expect("valid labels");
    assert!(
        truth_conn < connectivity(&m, &rival, 5),
        "moving Antutu GPU into the Mixed cluster must hurt connectivity"
    );

    // Rival 2: a rotation of the true labels (same sizes, wrong members).
    let rotated: Vec<usize> = s
        .profiles()
        .iter()
        .map(|p| (p.label as usize + 1) % 5)
        .collect();
    // Rotating labels keeps the same partition; scramble by assigning each
    // unit the label of the next unit instead.
    let mut scrambled: Vec<usize> = s.profiles().iter().map(|p| p.label as usize).collect();
    scrambled.rotate_left(1);
    let scrambled = Clustering::new(scrambled, 5).expect("valid labels");
    assert!(truth_conn < connectivity(&m, &scrambled, 5));
    // (the label rotation itself is partition-identical — sanity check)
    let rotated = Clustering::new(rotated, 5).expect("valid labels");
    assert!(truth.same_partition(&rotated));
}

#[test]
fn connectivity_grows_with_k_on_study_data() {
    // Finer hierarchical cuts can only cut nearest-neighbour links, so
    // connectivity is non-decreasing in k — the behaviour clValid plots.
    let m = clustering_matrix(study()).expect("full study");
    let dendro = mwc_analysis::cluster::hierarchical(&m, Linkage::Ward).expect("data");
    let mut last = -1.0;
    for k in 2..=8 {
        let c = dendro.cut(k).expect("valid k");
        let conn = connectivity(&m, &c, 5);
        assert!(conn + 1e-9 >= last, "k={k}: {conn} < {last}");
        last = conn;
    }
}
