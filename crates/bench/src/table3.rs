//! Regenerates Table III: correlation values between metrics.
use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header("Table III: Correlation values between metrics (Pearson)");
    print!("{}", mwc_core::tables::table3_text(study)?);
    println!("\nPaper bands: |r| >= 0.8 strong, 0.4 <= |r| < 0.8 moderate, below: none.");
    Ok(())
}
