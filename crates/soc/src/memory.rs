//! System DRAM model: capacity accounting and bandwidth utilization.
//!
//! Snapdragon Profiler reports *total* system memory usage including the
//! Android OS and its services; the paper subtracts a measured idle
//! baseline from all process-specific numbers (Limitations §IV-A). The
//! model keeps both views: [`MemoryTickResult::total_used_mib`] is what the
//! profiler would report raw, [`MemoryTickResult::workload_mib`] is the
//! baseline-subtracted value used in the analysis.

use crate::config::MemoryConfig;

/// Memory demanded by a workload for one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryDemand {
    /// Heap/anonymous footprint of the workload, in MiB.
    pub footprint_mib: f64,
    /// Streaming bandwidth demanded, in GB/s.
    pub bandwidth_gbps: f64,
}

/// Per-tick output of the memory model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryTickResult {
    /// Total used memory including the OS baseline, in MiB.
    pub total_used_mib: f64,
    /// Workload-attributed memory (baseline subtracted), in MiB.
    pub workload_mib: f64,
    /// Fraction of total system memory in use, in `[0, 1]`.
    pub used_fraction: f64,
    /// Memory-bus bandwidth utilization, in `[0, 1]`.
    pub bandwidth_utilization: f64,
}

/// Runtime model of system DRAM.
#[derive(Debug, Clone)]
pub struct Memory {
    config: MemoryConfig,
}

impl Memory {
    /// Build the runtime model from a validated configuration.
    pub fn new(config: MemoryConfig) -> Self {
        Memory { config }
    }

    /// The memory's static configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Account for this tick's residency and traffic. `extra_mib` carries
    /// non-CPU footprints (GPU textures, AIE buffers); `dram_traffic_gbps`
    /// carries CPU-side DRAM traffic derived from cache misses.
    pub fn tick(
        &self,
        demand: &MemoryDemand,
        extra_mib: f64,
        dram_traffic_gbps: f64,
    ) -> MemoryTickResult {
        let workload = (demand.footprint_mib + extra_mib).max(0.0);
        let total = (self.config.os_baseline_mib + workload).min(self.config.capacity_mib);
        let bw = ((demand.bandwidth_gbps + dram_traffic_gbps) / self.config.bandwidth_gbps)
            .clamp(0.0, 1.0);
        MemoryTickResult {
            total_used_mib: total,
            workload_mib: total - self.config.os_baseline_mib,
            used_fraction: total / self.config.capacity_mib,
            bandwidth_utilization: bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;

    fn memory() -> Memory {
        Memory::new(SocConfig::snapdragon_888().memory)
    }

    #[test]
    fn idle_reports_os_baseline() {
        let m = memory();
        let r = m.tick(&MemoryDemand::default(), 0.0, 0.0);
        assert_eq!(r.total_used_mib, m.config().os_baseline_mib);
        assert_eq!(r.workload_mib, 0.0);
        assert!(r.used_fraction > 0.0 && r.used_fraction < 0.2);
    }

    #[test]
    fn footprint_adds_to_baseline() {
        let m = memory();
        let d = MemoryDemand {
            footprint_mib: 2048.0,
            bandwidth_gbps: 0.0,
        };
        let r = m.tick(&d, 512.0, 0.0);
        assert_eq!(r.workload_mib, 2560.0);
        assert_eq!(r.total_used_mib, m.config().os_baseline_mib + 2560.0);
    }

    #[test]
    fn usage_capped_at_capacity() {
        let m = memory();
        let d = MemoryDemand {
            footprint_mib: 1.0e9,
            bandwidth_gbps: 0.0,
        };
        let r = m.tick(&d, 0.0, 0.0);
        assert_eq!(r.total_used_mib, m.config().capacity_mib);
        assert_eq!(r.used_fraction, 1.0);
    }

    #[test]
    fn bandwidth_utilization_clamped() {
        let m = memory();
        let d = MemoryDemand {
            footprint_mib: 0.0,
            bandwidth_gbps: 500.0,
        };
        let r = m.tick(&d, 0.0, 100.0);
        assert_eq!(r.bandwidth_utilization, 1.0);
    }

    #[test]
    fn negative_extra_clamped() {
        let m = memory();
        let r = m.tick(&MemoryDemand::default(), -100.0, 0.0);
        assert_eq!(r.workload_mib, 0.0);
    }
}
