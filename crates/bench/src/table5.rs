//! Regenerates Table V: execution time per CPU cluster per load level.
use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header(
        "Table V: Percentage of execution time spent by the CPU core clusters in the load levels",
    );
    print!("{}", mwc_core::tables::table5_text(study));
    println!("\nPaper: Little 21/32/25/22, Mid 76/8/8/8, Big 69/7/6/18.");
    Ok(())
}
