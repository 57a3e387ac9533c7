//! Phase-structured workloads.
//!
//! Commercial benchmarks run their micro-benchmarks back to back; a
//! [`PhasedWorkload`] models this as a sequence of [`Phase`]s, each owning
//! a fraction of the total runtime and a constant [`Demand`]. The engine
//! samples the demand by normalized time, so phase boundaries land exactly
//! where the paper's temporal plots place them (e.g. Antutu GPU's
//! Swordsman/Refinery/Terracotta at 15% / 30% / 49% of the segment).

use mwc_soc::workload::{Demand, Workload};

/// One phase of a benchmark: a share of the runtime with a fixed demand.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Human-readable phase name (micro-benchmark name).
    pub name: String,
    /// Fraction of total runtime this phase occupies (weights are
    /// normalized by the builder, so any positive scale works).
    pub weight: f64,
    /// The demand presented while the phase runs.
    pub demand: Demand,
}

impl Phase {
    /// Create a phase.
    pub fn new(name: impl Into<String>, weight: f64, demand: Demand) -> Self {
        Phase {
            name: name.into(),
            weight,
            demand,
        }
    }
}

/// A workload composed of consecutive phases.
#[derive(Debug, Clone)]
pub struct PhasedWorkload {
    name: String,
    duration: f64,
    phases: Vec<Phase>,
    /// Cumulative normalized end time of each phase.
    boundaries: Vec<f64>,
}

impl PhasedWorkload {
    /// Start building a workload with the given name and total duration in
    /// seconds.
    pub fn builder(name: impl Into<String>, duration_seconds: f64) -> PhasedWorkloadBuilder {
        PhasedWorkloadBuilder {
            name: name.into(),
            duration: duration_seconds,
            phases: Vec::new(),
        }
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phase active at normalized time `t_norm` together with its
    /// index. Out-of-range times clamp to the first/last phase.
    pub fn phase_at(&self, t_norm: f64) -> (usize, &Phase) {
        let idx = self
            .boundaries
            .iter()
            .position(|&b| t_norm < b)
            .unwrap_or(self.phases.len() - 1);
        (idx, &self.phases[idx])
    }

    /// Normalized `[start, end)` interval of phase `idx`.
    pub fn phase_interval(&self, idx: usize) -> (f64, f64) {
        let start = if idx == 0 {
            0.0
        } else {
            self.boundaries[idx - 1]
        };
        (start, self.boundaries[idx])
    }
}

impl Workload for PhasedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn duration_seconds(&self) -> f64 {
        self.duration
    }

    fn demand_at(&self, t_norm: f64) -> Demand {
        self.phase_at(t_norm).1.demand.clone()
    }
}

/// Builder for [`PhasedWorkload`].
#[derive(Debug)]
pub struct PhasedWorkloadBuilder {
    name: String,
    duration: f64,
    phases: Vec<Phase>,
}

impl PhasedWorkloadBuilder {
    /// Append a phase with the given runtime weight.
    pub fn phase(mut self, name: impl Into<String>, weight: f64, demand: Demand) -> Self {
        self.phases.push(Phase::new(name, weight, demand));
        self
    }

    /// Finish the workload.
    ///
    /// # Panics
    /// Panics if no phases were added, if any weight is non-positive, or if
    /// the duration is non-positive — these are programming errors in a
    /// benchmark definition, not runtime conditions.
    pub fn build(self) -> PhasedWorkload {
        assert!(
            !self.phases.is_empty(),
            "workload '{}' has no phases",
            self.name
        );
        assert!(
            self.duration > 0.0,
            "workload '{}' duration must be positive",
            self.name
        );
        assert!(
            self.phases.iter().all(|p| p.weight > 0.0),
            "workload '{}' has a non-positive phase weight",
            self.name
        );
        let total: f64 = self.phases.iter().map(|p| p.weight).sum();
        let mut acc = 0.0;
        let boundaries = self
            .phases
            .iter()
            .map(|p| {
                acc += p.weight / total;
                acc
            })
            .collect();
        PhasedWorkload {
            name: self.name,
            duration: self.duration,
            phases: self.phases,
            boundaries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::cpu::CpuDemand;

    fn demand(intensity: f64) -> Demand {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(intensity);
        d
    }

    fn three_phase() -> PhasedWorkload {
        PhasedWorkload::builder("w", 100.0)
            .phase("a", 1.0, demand(0.1))
            .phase("b", 2.0, demand(0.5))
            .phase("c", 1.0, demand(0.9))
            .build()
    }

    #[test]
    fn boundaries_normalized() {
        let w = three_phase();
        assert_eq!(w.phase_interval(0), (0.0, 0.25));
        assert_eq!(w.phase_interval(1), (0.25, 0.75));
        assert_eq!(w.phase_interval(2), (0.75, 1.0));
    }

    #[test]
    fn phase_lookup_by_time() {
        let w = three_phase();
        assert_eq!(w.phase_at(0.0).1.name, "a");
        assert_eq!(w.phase_at(0.3).1.name, "b");
        assert_eq!(w.phase_at(0.74).1.name, "b");
        assert_eq!(w.phase_at(0.75).1.name, "c");
        assert_eq!(w.phase_at(1.5).1.name, "c", "clamps past the end");
    }

    #[test]
    fn demand_follows_phase() {
        let w = three_phase();
        assert_eq!(w.demand_at(0.1).cpu.threads[0].intensity, 0.1);
        assert_eq!(w.demand_at(0.5).cpu.threads[0].intensity, 0.5);
        assert_eq!(w.demand_at(0.9).cpu.threads[0].intensity, 0.9);
    }

    #[test]
    fn workload_trait_impl() {
        let w = three_phase();
        assert_eq!(w.name(), "w");
        assert_eq!(w.duration_seconds(), 100.0);
        assert_eq!(w.phases().len(), 3);
    }

    #[test]
    fn weights_any_scale() {
        let w = PhasedWorkload::builder("s", 10.0)
            .phase("x", 30.0, demand(0.1))
            .phase("y", 70.0, demand(0.2))
            .build();
        assert_eq!(w.phase_interval(0), (0.0, 0.3));
    }

    #[test]
    #[should_panic(expected = "no phases")]
    fn empty_build_panics() {
        let _ = PhasedWorkload::builder("e", 10.0).build();
    }

    #[test]
    #[should_panic(expected = "non-positive phase weight")]
    fn zero_weight_panics() {
        let _ = PhasedWorkload::builder("z", 10.0)
            .phase("x", 0.0, demand(0.1))
            .build();
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_panics() {
        let _ = PhasedWorkload::builder("d", 0.0)
            .phase("x", 1.0, demand(0.1))
            .build();
    }
}
