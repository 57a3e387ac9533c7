//! Checks the paper's nine numbered observations against the study.
use crate::{Characterization, Failure};

pub fn run(study: &Characterization) -> Result<(), Failure> {
    crate::header("Observations #1-#9");
    let mut all_hold = true;
    for o in mwc_core::observations::check_all(study) {
        all_hold &= o.holds;
        println!(
            "#{} [{}] {}\n    {}\n",
            o.id,
            if o.holds { "HOLDS" } else { "FAILS" },
            o.statement,
            o.evidence
        );
    }
    println!("all observations hold: {all_hold}");
    if all_hold {
        Ok(())
    } else {
        Err(Failure::Error("not every observation holds".to_owned()))
    }
}
