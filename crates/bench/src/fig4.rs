//! Regenerates Figure 4: techniques validating the number of clusters.
use mwc_analysis::validation::Algorithm;
use mwc_report::table::{fmt, Table};

use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header(
        "Figure 4: Cluster-count validation (Dunn/Silhouette higher better; APN/AD lower better)",
    );
    let sweep = mwc_core::figures::fig4(study)?;
    for alg in Algorithm::ALL {
        println!("{}:", alg.name());
        let mut t = Table::new(vec!["k", "Dunn", "Silhouette", "APN", "AD"]);
        for p in sweep.for_algorithm(alg) {
            t.row(vec![
                p.k.to_string(),
                fmt(p.dunn, 3),
                fmt(p.silhouette, 3),
                fmt(p.apn, 3),
                fmt(p.ad, 3),
            ]);
        }
        print!("{}", t.render());
        println!(
            "best k: Dunn={:?} Silhouette={:?} APN={:?} AD={:?}\n",
            sweep.best_k_by_dunn(alg),
            sweep.best_k_by_silhouette(alg),
            sweep.best_k_by_apn(alg),
            sweep.best_k_by_ad(alg),
        );
    }
    println!("Paper: internal measures pick k = 5 for every algorithm; APN ties toward low k; AD prefers high k.");

    // Silhouette vs k, one series per algorithm (the middle panel of the
    // paper's figure).
    println!("\nSilhouette width vs k (higher is better):");
    let series: Vec<mwc_report::chart::Series> = Algorithm::ALL
        .iter()
        .map(|&alg| {
            mwc_report::chart::Series::new(
                alg.name(),
                sweep
                    .for_algorithm(alg)
                    .iter()
                    .map(|p| p.silhouette)
                    .collect(),
            )
        })
        .collect();
    print!("{}", mwc_report::chart::line_chart(&series, 10));
    println!("{:>10} x axis: k = 2..6", "");
    Ok(())
}
