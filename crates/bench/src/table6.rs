//! Regenerates Table VI: running times and reductions for the subsets.
use crate::{Characterization, Clustering, Failure};

pub fn run(study: &Characterization, clustering: &Clustering) -> Result<(), Failure> {
    crate::header("Table VI: Running times and percentage reductions for all proposed subsets");
    print!("{}", mwc_core::tables::table6_text(study, clustering));
    println!("\nPaper: 4429.5 s original; reductions 90.93% / 80.47% / 74.98%.");
    Ok(())
}
