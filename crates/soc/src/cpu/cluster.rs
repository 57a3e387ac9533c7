//! Runtime model of one CPU core cluster.
//!
//! The paper observes that *"the load values for cores belonging to the
//! same cluster are almost identical"* (§V-C) and therefore reports
//! per-cluster loads; the simulator models each cluster as a unit with
//! `cores` execution slots sharing one DVFS domain, one pipeline model and
//! one branch predictor, exactly as the analysis consumes it.

use crate::cache::{CacheConfig, CacheHierarchy};
use crate::config::ClusterConfig;
use crate::cpu::{BranchPredictor, CoreTick, PipelineModel, ThreadDemand};
use crate::freq::Governor;

/// Per-tick output of one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTickResult {
    /// Mean core utilization across the cluster, in `[0, 1]`.
    pub utilization: f64,
    /// Operating frequency for the tick, in MHz.
    pub frequency_mhz: f64,
    /// Execution counters accumulated over all cores of the cluster.
    pub counters: CoreTick,
}

impl ClusterTickResult {
    /// An idle tick at the given floor frequency.
    pub fn idle(frequency_mhz: f64) -> Self {
        ClusterTickResult {
            utilization: 0.0,
            frequency_mhz,
            counters: CoreTick::default(),
        }
    }

    /// The paper's CPU Load metric for this cluster: frequency ×
    /// utilization, normalized by the given maximum frequency so the result
    /// is in `[0, 1]`.
    pub fn load(&self, max_freq_mhz: f64) -> f64 {
        if max_freq_mhz <= 0.0 {
            return 0.0;
        }
        (self.frequency_mhz * self.utilization / max_freq_mhz).clamp(0.0, 1.0)
    }
}

/// One CPU core cluster: `cores` identical cores sharing a frequency
/// domain, cache hierarchy model and branch predictor.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    pipeline: PipelineModel,
    predictor: BranchPredictor,
    hierarchy: CacheHierarchy,
    governor: Governor,
}

impl Cluster {
    /// Build the runtime model from a validated configuration and the
    /// platform's shared caches.
    pub fn new(config: ClusterConfig, l3: CacheConfig, slc: CacheConfig) -> Self {
        let pipeline = PipelineModel::for_cluster(config.kind, config.issue_width);
        let predictor = BranchPredictor::new(config.branch_predictor_quality);
        let hierarchy = CacheHierarchy::new(config.l1d_kib, config.l2_kib, l3, slc);
        let governor = Governor::for_range(config.min_freq_mhz, config.max_freq_mhz);
        Cluster {
            config,
            pipeline,
            predictor,
            hierarchy,
            governor,
        }
    }

    /// The cluster's static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Switch the cluster's DVFS policy (ablation hook).
    pub fn set_governor_policy(&mut self, policy: crate::freq::GovernorPolicy) {
        self.governor.set_policy(policy);
    }

    /// Propagate shared-cache contention (KiB in L3, KiB in SLC) for the
    /// upcoming tick.
    pub fn set_shared_contention(&mut self, l3_kib: f64, slc_kib: f64) {
        self.hierarchy.set_shared_contention(l3_kib, slc_kib);
    }

    /// Execute the threads assigned to this cluster for one tick of
    /// `tick_seconds` and return utilization, frequency and counters.
    ///
    /// If the combined intensity exceeds the cluster's core count the
    /// threads time-share: each thread's share is scaled down
    /// proportionally (run-queue saturation).
    pub fn tick(&mut self, assigned: &[ThreadDemand], tick_seconds: f64) -> ClusterTickResult {
        let cores = self.config.cores as f64;
        let total_intensity: f64 = assigned.iter().map(|t| t.intensity).sum();
        let utilization = (total_intensity / cores).clamp(0.0, 1.0);
        let freq = self.governor.tick(utilization);
        // Oversubscription: threads share the available core-time.
        let scale = if total_intensity > cores {
            cores / total_intensity
        } else {
            1.0
        };

        let mut counters = CoreTick::default();
        for thread in assigned {
            let share = thread.intensity * scale;
            if share <= 0.0 {
                continue;
            }
            let misses = self.hierarchy.misses(&thread.memory_profile());
            let branch_mpki = self.predictor.branch_mpki(
                thread.mix.branches_per_kilo_instr(),
                thread.branch_predictability,
            );
            let cpi = self
                .pipeline
                .total_cpi(&thread.mix, thread.ilp, &misses, branch_mpki);
            let cycles = share * freq * 1.0e6 * tick_seconds;
            let instructions = cycles / cpi;
            counters.add(&CoreTick {
                instructions,
                cycles,
                cache_misses: instructions / 1000.0 * misses.total_mpki(),
                dram_accesses: instructions / 1000.0 * misses.dram_apki(),
                branches: instructions * thread.mix.branches,
                branch_misses: instructions / 1000.0 * branch_mpki,
            });
        }

        ClusterTickResult {
            utilization,
            frequency_mhz: freq,
            counters,
        }
    }

    /// Reset DVFS state between benchmark runs.
    pub fn reset(&mut self) {
        self.governor.reset();
        self.hierarchy.set_shared_contention(0.0, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;

    fn big_cluster() -> Cluster {
        let soc = SocConfig::snapdragon_888();
        let cfg = soc
            .cluster(crate::config::ClusterKind::Big)
            .unwrap()
            .clone();
        Cluster::new(cfg, soc.l3.clone(), soc.slc.clone())
    }

    fn little_cluster() -> Cluster {
        let soc = SocConfig::snapdragon_888();
        let cfg = soc
            .cluster(crate::config::ClusterKind::Little)
            .unwrap()
            .clone();
        Cluster::new(cfg, soc.l3.clone(), soc.slc.clone())
    }

    #[test]
    fn idle_tick_produces_no_instructions() {
        let mut c = big_cluster();
        let r = c.tick(&[], 0.1);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.counters.instructions, 0.0);
    }

    #[test]
    fn busy_tick_produces_instructions() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        let mut r = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r = c.tick(std::slice::from_ref(&t), 0.1);
        }
        assert_eq!(r.utilization, 1.0);
        assert!(
            r.counters.instructions > 1.0e8 * 0.1,
            "got {}",
            r.counters.instructions
        );
        assert!(r.counters.ipc() > 0.5);
    }

    #[test]
    fn oversubscription_caps_utilization_and_timeshares() {
        let mut c = little_cluster(); // 4 cores
        let threads = vec![ThreadDemand::new(1.0); 8];
        let mut r = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r = c.tick(&threads, 0.1);
        }
        assert_eq!(r.utilization, 1.0);
        // 8 threads on 4 cores produce the same cycles as 4 threads.
        let mut c2 = little_cluster();
        let four = vec![ThreadDemand::new(1.0); 4];
        let mut r2 = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r2 = c2.tick(&four, 0.1);
        }
        assert!((r.counters.cycles - r2.counters.cycles).abs() / r2.counters.cycles < 1e-9);
    }

    #[test]
    fn load_combines_frequency_and_utilization() {
        let r = ClusterTickResult {
            utilization: 0.5,
            frequency_mhz: 1500.0,
            counters: CoreTick::default(),
        };
        assert!((r.load(3000.0) - 0.25).abs() < 1e-12);
        assert_eq!(r.load(0.0), 0.0);
    }

    #[test]
    fn dvfs_raises_frequency_under_load() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        let first = c.tick(std::slice::from_ref(&t), 0.1);
        let mut last = first;
        for _ in 0..30 {
            last = c.tick(std::slice::from_ref(&t), 0.1);
        }
        assert!(last.frequency_mhz > first.frequency_mhz);
        assert!((last.frequency_mhz - 3000.0).abs() < 1.0);
    }

    #[test]
    fn contention_reduces_ipc() {
        let mut t = ThreadDemand::new(1.0);
        t.working_set_kib = 5000.0;
        let mut clean = big_cluster();
        let mut contended = big_cluster();
        contended.set_shared_contention(3000.0, 2000.0);
        let mut r_clean = ClusterTickResult::idle(0.0);
        let mut r_cont = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r_clean = clean.tick(std::slice::from_ref(&t), 0.1);
            r_cont = contended.tick(std::slice::from_ref(&t), 0.1);
        }
        assert!(r_cont.counters.ipc() < r_clean.counters.ipc());
        assert!(r_cont.counters.cache_mpki() > r_clean.counters.cache_mpki());
    }

    #[test]
    fn reset_restores_floor_frequency() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        for _ in 0..30 {
            c.tick(std::slice::from_ref(&t), 0.1);
        }
        c.reset();
        let r = c.tick(&[], 0.1);
        assert!(r.frequency_mhz < 1000.0);
    }
}
