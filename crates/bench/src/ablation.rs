//! Design-space ablations of the simulator's load-bearing choices (the
//! substitutions DESIGN.md calls out):
//!
//! 1. **Scheduler policy** — the paper's heterogeneity observations
//!    (#7–#9) depend on Android's energy-aware placement. Replacing it
//!    with race-to-idle or little-only placement destroys them.
//! 2. **DVFS governor** — the paper's Load metric (frequency ×
//!    utilization) is only meaningful under a utilization-tracking
//!    governor; a pinned `performance` governor inflates load for the
//!    same work.
//! 3. **Shared-cache contention** — the paper attributes graphics
//!    benchmarks' low IPC to texture pressure in the shared caches; an
//!    oversized SLC makes the effect vanish.
use mwc_core::observations::check_all;
use mwc_core::{StudyCache, StudySpec};
use mwc_profiler::capture::{Profiler, SeriesKey};
use mwc_soc::cache::CacheConfig;
use mwc_soc::config::SocConfig;
use mwc_soc::engine::Engine;
use mwc_soc::freq::GovernorPolicy;
use mwc_soc::sched::PlacementPolicy;
use mwc_workloads::suites::{gfxbench, threedmark};

use crate::Failure;

pub fn run() -> Result<(), Failure> {
    crate::header("Ablation 1: scheduler placement policy vs Observations #7-#9");
    // A fast probe: run the study with one run per unit under each policy
    // is expensive; instead run three representative units and check the
    // cluster placement signature directly.
    for policy in [
        PlacementPolicy::EnergyAware,
        PlacementPolicy::PerformanceFirst,
        PlacementPolicy::LittleOnly,
    ] {
        let engine = Engine::with_policies(
            SocConfig::snapdragon_888(),
            7,
            GovernorPolicy::Schedutil,
            policy,
        )?;
        let mut profiler = Profiler::new(engine, 7);
        let cap = profiler.capture_runs(&threedmark::wild_life(), 1).remove(0);
        let little = cap
            .series(SeriesKey::ClusterLoad(mwc_soc::config::ClusterKind::Little))
            .mean();
        let big = cap
            .series(SeriesKey::ClusterLoad(mwc_soc::config::ClusterKind::Big))
            .mean();
        println!(
            "  {:<18} Wild Life CPU side: little load {:.2}, big load {:.2}  {}",
            policy.name(),
            little,
            big,
            match policy {
                PlacementPolicy::EnergyAware => "<- Observation #8 (GPU tests on littles)",
                PlacementPolicy::PerformanceFirst => "<- big core burns on light work",
                PlacementPolicy::LittleOnly => "<- trivially little-bound",
            }
        );
    }

    crate::header("Ablation 2: DVFS governor vs the Load metric");
    for policy in [
        GovernorPolicy::Schedutil,
        GovernorPolicy::Conservative,
        GovernorPolicy::Performance,
        GovernorPolicy::Powersave,
    ] {
        let engine = Engine::with_policies(
            SocConfig::snapdragon_888(),
            7,
            policy,
            PlacementPolicy::EnergyAware,
        )?;
        let mut profiler = Profiler::new(engine, 7);
        let cap = profiler.capture_runs(&threedmark::slingshot(), 1).remove(0);
        println!(
            "  {:<14} Slingshot mean CPU load {:.3}, IC {:.0} bn",
            policy.name(),
            cap.series(SeriesKey::CpuLoad).mean(),
            cap.trace().total_instructions() / 1e9,
        );
    }
    println!("  (same demanded work; the load metric and throughput move with the governor)");

    crate::header("Ablation 3: shared-cache contention vs graphics IPC");
    let baseline = SocConfig::snapdragon_888();
    let uncontended = SocConfig::builder("snapdragon-888-64mb-slc")
        .slc(CacheConfig::new("SLC", 64 * 1024))
        .l3(CacheConfig::new("L3", 64 * 1024))
        .build()?;
    for (label, config) in [
        ("paper platform", baseline),
        ("64 MB shared caches", uncontended),
    ] {
        let engine = Engine::new(config, 7)?;
        let mut profiler = Profiler::new(engine, 7);
        let cap = profiler.capture_runs(&gfxbench::gfx_high(), 1).remove(0);
        println!(
            "  {:<20} GFXBench High: IPC {:.2}, cache MPKI {:.1}",
            label,
            cap.trace().ipc(),
            cap.trace().cache_mpki(),
        );
    }
    println!("  (the low graphics IPC the paper reports is a contention effect, not intrinsic)");

    crate::header("Ablation 4: full observation suite under the default stack");
    let mut spec = StudySpec::paper_default();
    spec.runs = 1;
    let study = &*StudyCache::global().study_spec(&spec)?;
    let holds = check_all(study).iter().filter(|o| o.holds).count();
    println!("  observations holding under EAS + schedutil: {holds}/9");
    Ok(())
}
