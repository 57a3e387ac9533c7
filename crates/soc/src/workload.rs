//! The workload abstraction consumed by the simulation engine.
//!
//! A [`Workload`] is a pure function from normalized execution time to a
//! [`Demand`] on the SoC's components. Benchmark models (crate
//! `mwc-workloads`) implement this trait; the engine samples it once per
//! tick.

use crate::aie::AieDemand;
use crate::cpu::CpuDemand;
use crate::gpu::GpuDemand;
use crate::memory::MemoryDemand;
use crate::storage::IoDemand;

/// Everything a workload asks of the SoC during one tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Demand {
    /// Runnable CPU threads.
    pub cpu: CpuDemand,
    /// GPU work, if any.
    pub gpu: Option<GpuDemand>,
    /// AIE work, if any.
    pub aie: Option<AieDemand>,
    /// Memory residency and streaming bandwidth.
    pub memory: MemoryDemand,
    /// Storage IO, if any.
    pub io: Option<IoDemand>,
}

impl Demand {
    /// A demand that exercises nothing.
    pub fn idle() -> Self {
        Demand::default()
    }
}

/// A workload the engine can execute.
///
/// Implementations must be deterministic: the engine adds its own seeded
/// run-to-run noise, so `demand_at` should return the same demand for the
/// same `t_norm` every time.
pub trait Workload {
    /// Short, unique, human-readable name.
    fn name(&self) -> &str;

    /// Total execution time in seconds on the reference platform.
    fn duration_seconds(&self) -> f64;

    /// The demand at normalized time `t_norm ∈ [0, 1)`.
    fn demand_at(&self, t_norm: f64) -> Demand;
}

/// A workload with a constant demand over a fixed duration; useful for
/// calibration, testing and micro-studies.
#[derive(Debug, Clone)]
pub struct ConstantWorkload {
    name: String,
    duration: f64,
    demand: Demand,
}

impl ConstantWorkload {
    /// Create a constant workload.
    pub fn new(name: impl Into<String>, duration_seconds: f64, demand: Demand) -> Self {
        ConstantWorkload {
            name: name.into(),
            duration: duration_seconds,
            demand,
        }
    }
}

impl Workload for ConstantWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn duration_seconds(&self) -> f64 {
        self.duration
    }

    fn demand_at(&self, _t_norm: f64) -> Demand {
        self.demand.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_demand_is_empty() {
        let d = Demand::idle();
        assert!(d.cpu.is_idle());
        assert!(d.gpu.is_none());
        assert!(d.aie.is_none());
        assert!(d.io.is_none());
    }

    #[test]
    fn constant_workload_is_constant() {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.5);
        let w = ConstantWorkload::new("w", 3.0, d.clone());
        assert_eq!(w.name(), "w");
        assert_eq!(w.duration_seconds(), 3.0);
        assert_eq!(w.demand_at(0.0), d);
        assert_eq!(w.demand_at(0.99), d);
    }
}
