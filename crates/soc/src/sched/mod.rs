//! Energy-aware (EAS-style) thread placement over heterogeneous clusters.
//!
//! Android's scheduler places tasks to minimize energy while meeting
//! performance demand: light and medium background work packs onto the
//! little cores, a demanding foreground thread is promoted to the prime
//! core, and only genuinely parallel workloads spill onto the mid cluster.
//! This policy is what produces the paper's heterogeneity findings:
//!
//! * Observation #7 — the big core sees high load more often than the mids
//!   (single hot threads are promoted straight to it);
//! * Observation #8 — GPU tests, whose CPU side is light, run entirely on
//!   the energy-efficient little cores;
//! * Observation #9 — only explicitly multi-core workloads load all three
//!   clusters concurrently.

use crate::config::{ClusterKind, SocConfig};
use crate::cpu::{CpuDemand, ThreadDemand};

/// Intensity at or above which a thread is considered "heavy" and promoted
/// to the biggest available core.
pub const HEAVY_THRESHOLD: f64 = 0.70;

/// Intensity below which a thread is "light" and always packed onto the
/// little cluster.
pub const LIGHT_THRESHOLD: f64 = 0.30;

/// The per-cluster thread assignment produced by the scheduler, indexed
/// like `SocConfig::clusters`.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `assignments[i]` holds the threads placed on `clusters[i]`.
    pub assignments: Vec<Vec<ThreadDemand>>,
}

impl Placement {
    /// Threads assigned to the cluster of the given kind (empty if the
    /// platform has no such cluster).
    pub fn for_kind<'a>(&'a self, soc: &SocConfig, kind: ClusterKind) -> &'a [ThreadDemand] {
        soc.clusters
            .iter()
            .position(|c| c.kind == kind)
            .map(|i| self.assignments[i].as_slice())
            .unwrap_or(&[])
    }

    /// Total number of placed threads.
    pub fn thread_count(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }
}

/// Thread-placement policy. The paper's platform runs Android's
/// energy-aware scheduler; the alternatives support design-space
/// ablations (see `mwc ablation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Android EAS behaviour: light/medium work packs on the littles,
    /// heavy threads are promoted big-first (default).
    #[default]
    EnergyAware,
    /// Race-to-idle: every thread prefers the fastest free core
    /// (big → mid → little), regardless of intensity.
    PerformanceFirst,
    /// Strict packing: everything goes to the little cluster and
    /// time-shares there; big/mid stay dark.
    LittleOnly,
}

impl PlacementPolicy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::EnergyAware => "energy-aware",
            PlacementPolicy::PerformanceFirst => "performance-first",
            PlacementPolicy::LittleOnly => "little-only",
        }
    }
}

/// Scheduler over a fixed cluster topology.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// (kind, cores) per cluster, in `SocConfig::clusters` order.
    clusters: Vec<(ClusterKind, usize)>,
    policy: PlacementPolicy,
}

impl Scheduler {
    /// Build an energy-aware scheduler for the given platform.
    pub fn new(soc: &SocConfig) -> Self {
        Scheduler::with_policy(soc, PlacementPolicy::EnergyAware)
    }

    /// Build a scheduler with an explicit placement policy.
    pub fn with_policy(soc: &SocConfig, policy: PlacementPolicy) -> Self {
        Scheduler {
            clusters: soc.clusters.iter().map(|c| (c.kind, c.cores)).collect(),
            policy,
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    fn index_of(&self, kind: ClusterKind) -> Option<usize> {
        self.clusters.iter().position(|&(k, _)| k == kind)
    }

    /// Place the runnable threads onto clusters for one tick.
    ///
    /// Placement is deterministic: threads are considered in descending
    /// intensity order; a cluster has one slot per core, and when every
    /// preferred cluster is full the thread time-shares on the last
    /// preference (the cluster model handles oversubscription).
    pub fn place(&self, demand: &CpuDemand) -> Placement {
        let mut assignments: Vec<Vec<ThreadDemand>> = vec![Vec::new(); self.clusters.len()];
        if demand.threads.is_empty() {
            // Nothing runnable: the full algorithm below would produce the
            // same all-empty placement; skip its allocations.
            return Placement { assignments };
        }
        let mut free: Vec<usize> = self.clusters.iter().map(|&(_, cores)| cores).collect();

        let mut threads: Vec<&ThreadDemand> = demand
            .threads
            .iter()
            .filter(|t| t.intensity > 0.0)
            .collect();
        threads.sort_by(|a, b| b.intensity.total_cmp(&a.intensity));

        for thread in threads {
            let preference: &[ClusterKind] = match self.policy {
                PlacementPolicy::EnergyAware => {
                    if thread.intensity >= HEAVY_THRESHOLD {
                        &[ClusterKind::Big, ClusterKind::Mid, ClusterKind::Little]
                    } else if thread.intensity >= LIGHT_THRESHOLD {
                        &[ClusterKind::Little, ClusterKind::Mid, ClusterKind::Big]
                    } else {
                        &[ClusterKind::Little]
                    }
                }
                PlacementPolicy::PerformanceFirst => {
                    &[ClusterKind::Big, ClusterKind::Mid, ClusterKind::Little]
                }
                PlacementPolicy::LittleOnly => &[ClusterKind::Little],
            };

            let mut chosen = None;
            for &kind in preference {
                if let Some(i) = self.index_of(kind) {
                    if free[i] > 0 {
                        chosen = Some(i);
                        break;
                    }
                }
            }
            // Everything full (or the preferred kinds do not exist on this
            // platform): time-share on the last existing preference, or on
            // cluster 0 as the final fallback.
            let idx = chosen
                .or_else(|| preference.iter().rev().find_map(|&k| self.index_of(k)))
                .unwrap_or(0);
            if free[idx] > 0 {
                free[idx] -= 1;
            }
            assignments[idx].push(thread.clone());
        }

        Placement { assignments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> (Scheduler, SocConfig) {
        let soc = SocConfig::snapdragon_888();
        (Scheduler::new(&soc), soc)
    }

    #[test]
    fn heavy_thread_goes_to_big() {
        let (s, soc) = sched();
        let p = s.place(&CpuDemand::single_thread(0.95));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Little).is_empty());
    }

    #[test]
    fn light_threads_pack_on_little() {
        let (s, soc) = sched();
        let p = s.place(&CpuDemand::multi_thread(6, 0.2));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 6);
        assert!(p.for_kind(&soc, ClusterKind::Big).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
    }

    #[test]
    fn medium_threads_spill_little_then_mid() {
        let (s, soc) = sched();
        let p = s.place(&CpuDemand::multi_thread(6, 0.5));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 4);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 2);
    }

    #[test]
    fn multicore_burst_loads_all_clusters() {
        let (s, soc) = sched();
        let p = s.place(&CpuDemand::multi_thread(8, 0.9));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 3);
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 4);
    }

    #[test]
    fn oversubscribed_heavy_threads_timeshare_on_little() {
        let (s, soc) = sched();
        let p = s.place(&CpuDemand::multi_thread(12, 0.9));
        assert_eq!(p.thread_count(), 12);
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 8);
    }

    #[test]
    fn zero_intensity_threads_are_dropped() {
        let (s, _) = sched();
        let p = s.place(&CpuDemand::multi_thread(4, 0.0));
        assert_eq!(p.thread_count(), 0);
    }

    #[test]
    fn heaviest_thread_wins_the_big_core() {
        let (s, soc) = sched();
        let mut demand = CpuDemand::default();
        demand.threads.push(ThreadDemand::new(0.8));
        demand.threads.push(ThreadDemand::new(0.99));
        let p = s.place(&demand);
        let big = p.for_kind(&soc, ClusterKind::Big);
        assert_eq!(big.len(), 1);
        assert!((big[0].intensity - 0.99).abs() < 1e-12);
        // The other heavy thread spills to mid.
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 1);
    }

    #[test]
    fn single_cluster_platform_takes_everything() {
        let soc = SocConfig::builder("mono")
            .cluster(crate::config::ClusterConfig {
                model: "OnlyCore".into(),
                kind: ClusterKind::Little,
                cores: 2,
                max_freq_mhz: 2000.0,
                min_freq_mhz: 500.0,
                l1i_kib: 32,
                l1d_kib: 32,
                l2_kib: 256,
                issue_width: 2.0,
                branch_predictor_quality: 0.9,
            })
            .build()
            .unwrap();
        let s = Scheduler::new(&soc);
        let p = s.place(&CpuDemand::multi_thread(5, 0.9));
        assert_eq!(p.assignments[0].len(), 5);
    }

    #[test]
    fn performance_first_races_to_the_big_core() {
        let soc = SocConfig::snapdragon_888();
        let s = Scheduler::with_policy(&soc, PlacementPolicy::PerformanceFirst);
        let p = s.place(&CpuDemand::multi_thread(2, 0.2));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 1);
        assert!(p.for_kind(&soc, ClusterKind::Little).is_empty());
    }

    #[test]
    fn little_only_keeps_big_and_mid_dark() {
        let soc = SocConfig::snapdragon_888();
        let s = Scheduler::with_policy(&soc, PlacementPolicy::LittleOnly);
        let p = s.place(&CpuDemand::multi_thread(8, 0.95));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 8);
        assert!(p.for_kind(&soc, ClusterKind::Big).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
        assert_eq!(PlacementPolicy::LittleOnly.name(), "little-only");
    }

    #[test]
    fn placement_is_deterministic() {
        let (s, _) = sched();
        let d = CpuDemand::multi_thread(7, 0.6);
        assert_eq!(s.place(&d), s.place(&d));
    }

    #[test]
    fn empty_demand_early_out_matches_full_path() {
        let (s, _) = sched();
        let empty = s.place(&CpuDemand::default());
        assert_eq!(empty.assignments.len(), s.clusters.len());
        assert_eq!(empty.thread_count(), 0);
        // Identical to what the full algorithm produces for an equivalent
        // no-runnable-threads demand (all intensities zero).
        let zeros = s.place(&CpuDemand::multi_thread(3, 0.0));
        assert_eq!(empty, zeros);
    }
}
