//! Calibration probe: prints per-unit metrics, clustering agreement and
//! validation sweep so model parameters can be tuned against the paper.
use mwc_core::features::{clustering_matrix, CLUSTERING_FEATURES};
use mwc_core::figures;
use mwc_core::observations;
use mwc_core::{StudyCache, StudySpec};

use crate::{Characterization, Clustering, Failure};

/// Print each group of `c` as `{indent}c{i}: [unit names]`.
fn print_groups(study: &Characterization, c: &Clustering, indent: &str) {
    for (i, grp) in c.members().iter().enumerate() {
        let names: Vec<&str> = grp
            .iter()
            .map(|&j| study.profiles()[j].name.as_str())
            .collect();
        println!("{indent}c{i}: {names:?}");
    }
}

pub fn run() -> Result<(), Failure> {
    let mut spec = StudySpec::paper_default();
    spec.runs = 1;
    let study = &*StudyCache::global().study_spec(&spec)?;
    println!("{:<26} {:>10} {:>6} {:>7} {:>7} {:>7} | {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>6}",
        "unit","IC(bn)","IPC","cMPKI","bMPKI","run(s)","lit","mid","big","gpu","shad","bus","aie","mem","store");
    for p in study.profiles() {
        let m = &p.metrics;
        println!("{:<26} {:>10.1} {:>6.2} {:>7.2} {:>7.2} {:>7.1} | {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>6.2}",
            p.name, m.instruction_count/1e9, m.ipc, m.cache_mpki, m.branch_mpki, m.runtime_seconds,
            m.cpu_little_load, m.cpu_mid_load, m.cpu_big_load, m.gpu_load, m.gpu_shaders_busy, m.gpu_bus_busy, m.aie_load, m.memory_used_fraction, m.storage_busy);
    }
    println!("\nfeatures: {CLUSTERING_FEATURES:?}");
    let m = clustering_matrix(study)?;
    println!("normalized feature rows:");
    for (i, p) in study.profiles().iter().enumerate() {
        let row: Vec<String> = m.row(i).iter().map(|v| format!("{v:.2}")).collect();
        println!("  {:<26} {}", p.name, row.join(" "));
    }
    let truth = Clustering::new(
        study.profiles().iter().map(|p| p.label as usize).collect(),
        5,
    )?;
    let dendro = figures::fig5(study)?;
    for (name, c) in [
        ("kmeans", mwc_analysis::cluster::kmeans(&m, 5, 42)?),
        ("pam", mwc_analysis::cluster::pam(&m, 5, 42)?),
        ("hier", dendro.cut(5)?),
    ] {
        println!(
            "{name}: matches ground truth = {}",
            c.same_partition(&truth)
        );
        print_groups(study, &c, "  ");
    }
    println!("\nvalidation sweep:");
    let sweep = figures::fig4(study)?;
    for alg in mwc_analysis::validation::Algorithm::ALL {
        println!(
            "{:<12} dunn_best={:?} sil_best={:?} apn_best={:?} ad_best={:?}",
            alg.name(),
            sweep.best_k_by_dunn(alg),
            sweep.best_k_by_silhouette(alg),
            sweep.best_k_by_apn(alg),
            sweep.best_k_by_ad(alg)
        );
        for p in sweep.for_algorithm(alg) {
            println!(
                "   k={:<2} dunn={:.3} sil={:.3} apn={:.3} ad={:.3}",
                p.k, p.dunn, p.silhouette, p.apn, p.ad
            );
        }
    }
    println!("\nhier partitions at k=6..8:");
    for k in [6usize, 7, 8] {
        println!(" k={k}:");
        print_groups(study, &dendro.cut(k)?, "   ");
    }
    // Per-cluster diameters at the ground-truth partition.
    println!("\nground-truth cluster diameters:");
    for (ci, grp) in truth.members().iter().enumerate() {
        let mut diam: f64 = 0.0;
        let mut pair = (0, 0);
        for (ii, &a) in grp.iter().enumerate() {
            for &b in &grp[ii + 1..] {
                let d = mwc_analysis::distance::euclidean(m.row(a), m.row(b));
                if d > diam {
                    diam = d;
                    pair = (a, b);
                }
            }
        }
        println!(
            "  c{ci}: diameter {diam:.3} between {} and {}",
            study.profiles()[pair.0].name,
            study.profiles()[pair.1].name
        );
    }
    println!("\nTable III (correlations):");
    println!("{}", mwc_core::tables::table3_text(study)?);
    println!("Table V:");
    println!("{}", mwc_core::tables::table5_text(study));
    println!("Table VI:");
    println!("{}", mwc_core::tables::table6_text(study, &truth));
    // Fig 7 curves.
    let naive = mwc_core::subsets::naive_subset(study, &truth);
    let select = mwc_core::subsets::select_subset(study);
    let plus = mwc_core::subsets::select_plus_gpu_subset(study);
    let curves = figures::fig7(study, &[naive.clone(), select, plus.clone()])?;
    for (name, curve) in &curves {
        let pts: Vec<String> = curve.iter().map(|v| format!("{v:.2}")).collect();
        println!("fig7 {name}: {}", pts.join(" "));
    }
    println!(
        "Select+GPU(7) dist = {:.3}; Naive(5) = {:.3}; Naive-curve(7) = {:.3}",
        plus.representativeness(study)?,
        naive.representativeness(study)?,
        curves[0].1[6]
    );
    println!("\nobservations:");
    for o in observations::check_all(study) {
        println!("#{} holds={} — {}", o.id, o.holds, o.evidence);
    }
    Ok(())
}
