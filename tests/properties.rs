//! Property-based tests (proptest) over the core invariants of the
//! analysis toolkit and the SoC models.

use proptest::prelude::*;

use mwc_analysis::cluster::{hierarchical, kmeans, pam, Clustering, Linkage};
use mwc_analysis::distance::{euclidean, pairwise_euclidean};
use mwc_analysis::matrix::Matrix;
use mwc_analysis::stats::{
    correlation_matrix, max_normalize, min_max_normalize, normalize_columns, pearson,
    CorrelationStrength, NormalizeMode,
};
use mwc_analysis::subset::{incremental_distances, runtime_reduction, total_min_euclidean};
use mwc_analysis::validation::{dunn_index, silhouette_width};
use mwc_soc::cache::{CacheConfig, CacheHierarchy, MemoryProfile};
use mwc_soc::config::SocConfig;
use mwc_soc::cpu::{CpuDemand, InstructionMix, ThreadDemand};
use mwc_soc::engine::Engine;
use mwc_soc::freq::Governor;
use mwc_soc::gpu::GpuDemand;
use mwc_soc::sched::Scheduler;
use mwc_soc::workload::{ConstantWorkload, Demand};
use mwc_workloads::kernels::{compress, crypto, fft, psnr, raytrace};

/// Strategy: a small matrix of finite values in a reasonable range.
fn matrix_strategy(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, cols..=cols),
        2..=max_rows,
    )
    .prop_map(|rows| Matrix::from_rows(&rows).expect("uniform rows"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- distances ----------

    #[test]
    fn euclidean_is_a_metric(
        a in prop::collection::vec(-50.0f64..50.0, 4),
        b in prop::collection::vec(-50.0f64..50.0, 4),
        c in prop::collection::vec(-50.0f64..50.0, 4),
    ) {
        let dab = euclidean(&a, &b);
        let dba = euclidean(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry");
        prop_assert!(dab >= 0.0, "non-negativity");
        prop_assert!(euclidean(&a, &a) < 1e-12, "identity");
        prop_assert!(euclidean(&a, &c) <= dab + euclidean(&b, &c) + 1e-9, "triangle");
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal(m in matrix_strategy(10, 3)) {
        let d = pairwise_euclidean(&m);
        for i in 0..m.rows() {
            prop_assert_eq!(d.get(i, i), 0.0);
            for j in 0..m.rows() {
                prop_assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
            }
        }
    }

    // ---------- columnar kernels vs scalar references ----------
    // The chunked kernels are layout rewrites, not numeric rewrites: every
    // output must match the scalar per-pair / per-column code bit for bit.

    #[test]
    fn columnar_pairwise_is_bit_identical_to_scalar(m in matrix_strategy(12, 5)) {
        let d = pairwise_euclidean(&m);
        for i in 0..m.rows() {
            for j in 0..i {
                prop_assert_eq!(
                    d.get(i, j).to_bits(),
                    euclidean(m.row(i), m.row(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn fused_correlation_is_bit_identical_to_scalar_pearson(m in matrix_strategy(12, 5)) {
        let c = correlation_matrix(&m);
        for i in 0..m.cols() {
            prop_assert_eq!(c.get(i, i), 1.0);
            for j in 0..i {
                prop_assert_eq!(
                    c.get(i, j).to_bits(),
                    pearson(&m.col(i), &m.col(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn fused_correlation_with_gaps_is_bit_identical(
        rows in prop::collection::vec(
            prop::collection::vec(-40.0f64..100.0, 4..=4),
            3..12,
        ),
    ) {
        // Map the negative third of the sampled range to NaN gaps, so some
        // columns take the fused path and some the pairwise-complete
        // scalar fallback.
        let gappy: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| if v < 0.0 { f64::NAN } else { v }).collect())
            .collect();
        let m = Matrix::from_rows(&gappy).expect("uniform rows");
        let c = correlation_matrix(&m);
        for i in 0..m.cols() {
            for j in 0..i {
                prop_assert_eq!(
                    c.get(i, j).to_bits(),
                    pearson(&m.col(i), &m.col(j)).to_bits(),
                    "pair ({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn columnar_normalization_is_bit_identical_to_per_column_scalar(
        m in matrix_strategy(12, 5),
        mode_max in any::<bool>(),
    ) {
        let mode = if mode_max { NormalizeMode::Max } else { NormalizeMode::MinMax };
        let n = normalize_columns(&m, mode);
        for c in 0..m.cols() {
            let col = m.col(c);
            let reference = match mode {
                NormalizeMode::Max => max_normalize(&col),
                NormalizeMode::MinMax => min_max_normalize(&col),
            };
            let got = n.col(c);
            prop_assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "column {}", c);
            }
        }
    }

    // ---------- statistics ----------

    #[test]
    fn pearson_is_bounded_and_symmetric(
        xs in prop::collection::vec(-100.0f64..100.0, 3..30),
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 - 1.0).collect();
        let r = pearson(&xs, &ys);
        prop_assert!(r.abs() <= 1.0 + 1e-9);
        prop_assert!((pearson(&xs, &ys) - pearson(&ys, &xs)).abs() < 1e-12);
        // A perfect affine relation has |r| = 1 (unless xs is constant).
        if xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9) {
            prop_assert!((r - 1.0).abs() < 1e-6, "affine relation gives r = 1, got {r}");
        }
    }

    #[test]
    fn normalizations_stay_in_unit_interval(
        xs in prop::collection::vec(0.0f64..1e6, 1..40),
    ) {
        for v in max_normalize(&xs) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        for v in min_max_normalize(&xs) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn correlation_strength_bands_are_total(r in -1.0f64..=1.0) {
        // classify never panics and respects the band edges.
        let band = CorrelationStrength::classify(r);
        if r.abs() >= 0.8 {
            prop_assert_eq!(band, CorrelationStrength::Strong);
        } else if r.abs() >= 0.4 {
            prop_assert_eq!(band, CorrelationStrength::Moderate);
        } else {
            prop_assert_eq!(band, CorrelationStrength::None);
        }
    }

    // ---------- clustering ----------

    #[test]
    fn kmeans_produces_valid_deterministic_clusterings(
        m in matrix_strategy(12, 4),
        k in 1usize..=4,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= m.rows());
        let a = kmeans(&m, k, seed).expect("valid k");
        let b = kmeans(&m, k, seed).expect("valid k");
        prop_assert_eq!(&a, &b, "determinism");
        prop_assert_eq!(a.len(), m.rows());
        prop_assert!(a.labels().iter().all(|&l| l < k));
        // k-means never leaves a cluster empty.
        prop_assert!(a.members().iter().all(|g| !g.is_empty()));
    }

    #[test]
    fn pam_and_hierarchical_produce_valid_partitions(
        m in matrix_strategy(10, 3),
        k in 1usize..=3,
    ) {
        prop_assume!(k <= m.rows());
        let p = pam(&m, k, 0).expect("valid k");
        prop_assert!(p.labels().iter().all(|&l| l < k));
        let h = hierarchical(&m, Linkage::Average).expect("non-empty").cut(k).expect("valid k");
        prop_assert!(h.labels().iter().all(|&l| l < k));
        prop_assert_eq!(h.members().iter().filter(|g| !g.is_empty()).count(), k);
    }

    #[test]
    fn dendrogram_cut_sizes_are_consistent(m in matrix_strategy(9, 3)) {
        let d = hierarchical(&m, Linkage::Complete).expect("non-empty");
        prop_assert_eq!(d.merges().len(), m.rows() - 1);
        for k in 1..=m.rows() {
            let c = d.cut(k).expect("valid k");
            let non_empty = c.members().iter().filter(|g| !g.is_empty()).count();
            prop_assert_eq!(non_empty, k);
        }
    }

    // ---------- validation ----------

    #[test]
    fn validation_measures_are_in_range(m in matrix_strategy(10, 3), k in 2usize..=3) {
        prop_assume!(k <= m.rows());
        let c = kmeans(&m, k, 1).expect("valid k");
        prop_assert!(dunn_index(&m, &c) >= 0.0);
        let s = silhouette_width(&m, &c);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }

    // ---------- subsetting ----------

    #[test]
    fn representativeness_improves_monotonically(m in matrix_strategy(8, 3)) {
        let order: Vec<usize> = (0..m.rows()).collect();
        let mut last = f64::INFINITY;
        for end in 1..=m.rows() {
            let d = total_min_euclidean(&m, &order[..end]);
            prop_assert!(d <= last + 1e-9, "adding members never hurts");
            last = d;
        }
        prop_assert!(last.abs() < 1e-9, "full set has zero distance");
        let curve = incremental_distances(&m, &[0]);
        prop_assert_eq!(curve.len(), m.rows());
    }

    #[test]
    fn runtime_reduction_is_a_percentage(
        runtimes in prop::collection::vec(1.0f64..1e4, 2..12),
        pick in 0usize..2,
    ) {
        let r = runtime_reduction(&runtimes, &[pick]);
        prop_assert!((0.0..=100.0).contains(&r));
    }

    // ---------- SoC models ----------

    #[test]
    fn miss_ratio_is_bounded_and_monotone_in_working_set(
        ws in 1.0f64..1e7,
        locality in 0.0f64..1.0,
        apki in 0.0f64..500.0,
    ) {
        let h = CacheHierarchy::new(
            64, 512, CacheConfig::new("L3", 4096), CacheConfig::new("SLC", 3072),
        );
        let small = h.misses(&MemoryProfile {
            working_set_kib: ws,
            locality,
            accesses_per_kilo_instr: apki,
        });
        let large = h.misses(&MemoryProfile {
            working_set_kib: ws * 2.0,
            locality,
            accesses_per_kilo_instr: apki,
        });
        prop_assert!(small.total_mpki() >= 0.0);
        prop_assert!(large.total_mpki() + 1e-9 >= small.total_mpki(), "monotone in ws");
        prop_assert!(small.l1_mpki >= small.l2_mpki);
        prop_assert!(small.l2_mpki >= small.l3_mpki);
        prop_assert!(small.l3_mpki >= small.slc_mpki);
        prop_assert!(small.total_mpki() <= apki * 4.0 + 1e-9, "bounded by accesses");
    }

    #[test]
    fn governor_stays_within_its_range(
        utils in prop::collection::vec(0.0f64..1.5, 1..100),
    ) {
        let mut g = Governor::for_range(300.0, 3000.0);
        for u in utils {
            let f = g.tick(u);
            prop_assert!((300.0..=3000.0).contains(&f), "frequency {f} out of range");
        }
    }

    #[test]
    fn scheduler_conserves_threads(
        intensities in prop::collection::vec(0.01f64..1.0, 0..20),
    ) {
        let soc = SocConfig::snapdragon_888();
        let sched = Scheduler::new(&soc);
        let demand = CpuDemand {
            threads: intensities.iter().map(|&i| ThreadDemand::new(i)).collect(),
        };
        let placement = sched.place(&demand);
        prop_assert_eq!(placement.thread_count(), intensities.len());
        // Total placed intensity equals total demanded intensity.
        let placed: f64 = placement
            .assignments
            .iter()
            .flatten()
            .map(|t| t.intensity)
            .sum();
        let demanded: f64 = intensities.iter().sum();
        prop_assert!((placed - demanded).abs() < 1e-9);
    }

    #[test]
    fn instruction_mix_always_normalizes(
        a in 0.0f64..10.0, b in 0.0f64..10.0, c in 0.0f64..10.0,
        d in 0.0f64..10.0, e in 0.0f64..10.0,
    ) {
        let mix = InstructionMix::new(a, b, c, d, e);
        prop_assert!((mix.total() - 1.0).abs() < 1e-9);
        for frac in [mix.int_ops, mix.fp_ops, mix.simd_ops, mix.load_store, mix.branches] {
            prop_assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn same_partition_is_an_equivalence_up_to_relabelling(
        labels in prop::collection::vec(0usize..3, 4..10),
        perm_seed in 0usize..6,
    ) {
        let k = 3;
        let c = Clustering::new(labels.clone(), k).expect("valid labels");
        // Apply one of the six permutations of {0, 1, 2}.
        let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let p = perms[perm_seed];
        let relabelled: Vec<usize> = labels.iter().map(|&l| p[l]).collect();
        let c2 = Clustering::new(relabelled, k).expect("valid labels");
        prop_assert!(c.same_partition(&c2));
    }

    // ---------- engine invariants ----------

    #[test]
    fn engine_samples_are_always_in_range(
        n_threads in 0usize..10,
        intensity in 0.0f64..1.0,
        gpu_intensity in 0.0f64..1.0,
        seconds in 1.0f64..8.0,
        seed in 0u64..100,
    ) {
        let mut d = Demand::idle();
        d.cpu = CpuDemand::multi_thread(n_threads, intensity);
        d.gpu = Some(GpuDemand::scene(gpu_intensity));
        let w = ConstantWorkload::new("prop", seconds, d);
        let mut engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        let trace = engine.run(&w);
        prop_assert_eq!(trace.samples.len(), (seconds / mwc_soc::TICK_SECONDS).round() as usize);
        for s in &trace.samples {
            prop_assert!(s.instructions >= 0.0);
            prop_assert!(s.cycles >= s.instructions / 8.0 - 1e-6, "IPC can never exceed 8");
            prop_assert!(s.cache_misses >= 0.0);
            prop_assert!(s.branch_misses <= s.branches + 1e-9);
            for c in &s.clusters {
                prop_assert!((0.0..=1.0).contains(&c.utilization));
                prop_assert!((0.0..=1.0).contains(&c.load));
                prop_assert!(c.frequency_mhz > 0.0);
            }
            prop_assert!((0.0..=1.0).contains(&s.gpu_utilization));
            prop_assert!((0.0..=1.0).contains(&s.gpu_shaders_busy));
            prop_assert!((0.0..=1.0).contains(&s.gpu_bus_busy));
            prop_assert!((0.0..=1.0).contains(&s.memory_used_fraction));
            prop_assert!((0.0..=1.0).contains(&s.memory_bandwidth_utilization));
        }
    }

    // ---------- kernel invariants ----------

    #[test]
    fn xtea_roundtrips_any_block(v0: u32, v1: u32, k0: u32, k1: u32, k2: u32, k3: u32) {
        let key = [k0, k1, k2, k3];
        let enc = crypto::xtea_encrypt([v0, v1], &key);
        prop_assert_eq!(crypto::xtea_decrypt(enc, &key), [v0, v1]);
    }

    #[test]
    fn compression_roundtrips_any_bytes(data in prop::collection::vec(any::<u8>(), 0..600)) {
        let tokens = compress::compress(&data);
        prop_assert_eq!(compress::decompress(&tokens), data);
    }

    #[test]
    fn fft_roundtrips_any_power_of_two_signal(
        log_n in 2u32..8,
        seed in 0u64..50,
    ) {
        let n = 1usize << log_n;
        let original: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let phase = (i as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                ((phase * 0.37).sin(), (phase * 0.11).cos())
            })
            .collect();
        let mut data = original.clone();
        fft::fft(&mut data, false);
        fft::fft(&mut data, true);
        for (a, b) in data.iter().zip(&original) {
            prop_assert!((a.0 - b.0).abs() < 1e-8);
            prop_assert!((a.1 - b.1).abs() < 1e-8);
        }
    }

    #[test]
    fn psnr_decreases_with_noise(base in 1u8..200, noise in 1u8..55) {
        let reference = vec![base; 256];
        let small: Vec<u8> = reference.iter().map(|&v| v.saturating_add(1)).collect();
        let large: Vec<u8> = reference.iter().map(|&v| v.saturating_add(noise.max(2))).collect();
        prop_assert!(psnr::psnr(&reference, &small) >= psnr::psnr(&reference, &large));
    }

    #[test]
    fn ray_sphere_hits_are_on_the_sphere(
        ox in -1.5f64..1.5,
        oy in -1.5f64..1.5,
        r in 0.5f64..2.0,
    ) {
        let s = raytrace::Sphere {
            center: raytrace::Vec3::new(0.0, 0.0, 0.0),
            radius: r,
        };
        let origin = raytrace::Vec3::new(ox, oy, 10.0);
        let dir = raytrace::Vec3::new(0.0, 0.0, -1.0);
        if let Some(t) = raytrace::intersect(origin, dir, &s) {
            let hit = raytrace::Vec3::new(ox, oy, 10.0 - t);
            prop_assert!((hit.length() - r).abs() < 1e-6, "hit point lies on the sphere");
        } else {
            // A miss means the ray passes outside the radius.
            prop_assert!(ox * ox + oy * oy > r * r - 1e-9);
        }
    }
}

/// Strategy: a counter-style series (non-negative, like loads and rates)
/// where each sample may have been lost by a flaky profiler — the negative
/// quarter of the sampled range maps to NaN gaps.
fn gappy_series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-33.0f64..100.0, 1..=max_len).prop_map(|values| {
        values
            .into_iter()
            .map(|v| if v < 0.0 { f64::NAN } else { v })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- gap-tolerant time series ----------

    #[test]
    fn gap_tolerant_series_stats_are_finite(values in gappy_series(40)) {
        let s = mwc_profiler::TimeSeries::new(0.1, values);
        prop_assert!(s.mean().is_finite());
        prop_assert!(s.min().is_finite());
        prop_assert!(s.max().is_finite());
        prop_assert!((0.0..=1.0).contains(&s.completeness()));
        prop_assert!(s.min() <= s.max() + 1e-12);
    }

    #[test]
    fn interpolated_series_is_gap_free_and_bounded(values in gappy_series(40)) {
        let s = mwc_profiler::TimeSeries::new(0.1, values);
        let filled = s.interpolate_gaps();
        prop_assert_eq!(filled.len(), s.len());
        let finite: Vec<f64> = s.values.iter().copied().filter(|v| v.is_finite()).collect();
        let (lo, hi) = if finite.is_empty() {
            (0.0, 0.0)
        } else {
            (
                finite.iter().copied().fold(f64::INFINITY, f64::min),
                finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        for v in &filled.values {
            prop_assert!(v.is_finite(), "no gap survives interpolation");
            // Linear interpolation between neighbours never overshoots
            // the observed range.
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(v));
        }
        let resampled = filled.resample(7);
        prop_assert!(resampled.values.iter().all(|v| v.is_finite()));
    }

    // ---------- pairwise-complete correlations ----------

    #[test]
    fn correlations_with_gaps_stay_finite_and_bounded(
        xs in gappy_series(30),
        ys in gappy_series(30),
    ) {
        let p = pearson(&xs, &ys);
        prop_assert!(p.is_finite());
        prop_assert!(p.abs() <= 1.0 + 1e-9);
        let s = mwc_analysis::stats::spearman(&xs, &ys);
        prop_assert!(s.is_finite());
        prop_assert!(s.abs() <= 1.0 + 1e-9);
    }
}

proptest! {
    // Each case runs two full (single-run) studies; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn fault_off_study_is_thread_count_invariant(threads in 1usize..6, seed in 0u64..500) {
        use mwc_core::pipeline::Characterization;
        use mwc_core::StudySpec;
        let spec = StudySpec::new(SocConfig::snapdragon_888(), seed, 1);
        let serial = Characterization::try_run_spec(&spec.clone().with_threads(1))
            .expect("fault-free study succeeds");
        let threaded = Characterization::try_run_spec(&spec.with_threads(threads))
            .expect("fault-free study succeeds");
        prop_assert!(serial == threaded, "bit-identical for {threads} workers, seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- result-cache keys (pure digests: cheap, no simulation) ----------

    #[test]
    fn cache_key_is_deterministic_and_input_sensitive(
        seed in 0u64..10_000,
        runs in 1usize..8,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;

        let study_key = |cfg: &SocConfig, seed, runs, faults: &FaultConfig| {
            StudySpec::new(cfg.clone(), seed, runs)
                .with_faults(faults.clone())
                .study_key()
        };

        let cfg = SocConfig::snapdragon_888();
        let faults = FaultConfig::default();
        let key = study_key(&cfg, seed, runs, &faults);
        // Stable: recomputing from identical inputs yields the same key —
        // and the inputs are hashed by content, so the key survives
        // process boundaries (nothing address- or time-dependent).
        prop_assert_eq!(key, study_key(&cfg, seed, runs, &faults));
        prop_assert_eq!(key, study_key(&SocConfig::snapdragon_888(), seed, runs, &faults));
        // Sensitive: every keyed input moves the key.
        prop_assert_ne!(key, study_key(&cfg, seed ^ 1, runs, &faults));
        prop_assert_ne!(key, study_key(&cfg, seed, runs + 1, &faults));
        let mut grown = SocConfig::snapdragon_888();
        grown.memory.capacity_mib += 1.0;
        prop_assert_ne!(key, study_key(&grown, seed, runs, &faults));
        let flaky = FaultConfig { dropout_rate: 0.01, ..FaultConfig::default() };
        prop_assert_ne!(key, study_key(&cfg, seed, runs, &flaky));
    }

    #[test]
    fn sweep_key_is_deterministic_and_input_sensitive(
        digest in 0u64..u64::MAX,
        ks in prop::collection::vec(2usize..12, 1..6),
    ) {
        use mwc_core::cache::sweep_key;

        let key = sweep_key(digest, &ks);
        prop_assert_eq!(key, sweep_key(digest, &ks));
        prop_assert_ne!(key, sweep_key(digest ^ 1, &ks));
        let mut longer = ks.clone();
        longer.push(99);
        prop_assert_ne!(key, sweep_key(digest, &longer));
    }

    // ---------- stage-graph keys (pure digests: cheap, no simulation) ----------

    #[test]
    fn stage_keys_ignore_fields_that_never_reach_the_simulation(
        seed in 0u64..10_000,
        runs in 1usize..8,
        threads in 1usize..16,
        fault_seed in 0u64..10_000,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;
        use mwc_workloads::registry::all_units;

        let base = StudySpec::new(SocConfig::snapdragon_888(), seed, runs);
        // Worker count and the seed of a *disabled* fault config (no rate
        // set, so no fault can fire) never reach the simulation — neither
        // the study key nor any unit key may move.
        let tweaked = StudySpec::new(SocConfig::snapdragon_888(), seed, runs)
            .with_threads(threads)
            .with_faults(FaultConfig { seed: fault_seed, ..FaultConfig::default() });
        prop_assert_eq!(base.study_key(), tweaked.study_key());
        for (i, u) in all_units().iter().enumerate() {
            prop_assert_eq!(base.unit_key(i, u), tweaked.unit_key(i, u));
        }
        // The keyed inputs still move every key.
        let moved = StudySpec::new(SocConfig::snapdragon_888(), seed ^ 1, runs);
        prop_assert_ne!(base.study_key(), moved.study_key());
        for (i, u) in all_units().iter().enumerate() {
            prop_assert_ne!(base.unit_key(i, u), moved.unit_key(i, u));
        }
    }

    #[test]
    fn stage_keys_are_stable_under_spec_field_order(
        seed in 0u64..10_000,
        priorities in prop::collection::vec(0u64..u64::MAX, 18..=18),
        take in 2usize..18,
    ) {
        use mwc_core::StudySpec;
        use mwc_profiler::FaultConfig;
        use mwc_workloads::registry::all_units;

        let units = all_units();
        let names: Vec<&'static str> = units.iter().map(|u| u.name).collect();
        // The stand-in proptest has no shuffle strategy; induce a random
        // permutation by ranking generated priorities.
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by_key(|&i| (priorities[i], i));

        let jitter = |s: u64| FaultConfig {
            seed: s,
            jitter_amplitude: 0.01,
            ..FaultConfig::default()
        };

        // Per-unit overrides are keyed by content, not insertion order.
        let spec_at = |idx: &[usize]| {
            idx.iter().fold(
                StudySpec::new(SocConfig::snapdragon_888(), seed, 1),
                |spec, &i| spec.with_unit_faults(names[i], jitter(i as u64)),
            )
        };
        let forward = spec_at(&order);
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let backward = spec_at(&reversed);
        prop_assert_eq!(forward.study_key(), backward.study_key());
        for (i, u) in units.iter().enumerate() {
            prop_assert_eq!(forward.unit_key(i, u), backward.unit_key(i, u));
        }

        // Re-inserting an override replaces it: a detour through another
        // value and back is invisible to the key.
        let detoured = forward
            .clone()
            .with_unit_faults(names[0], jitter(9_999))
            .with_unit_faults(names[0], jitter(0));
        prop_assert_eq!(detoured.study_key(), forward.study_key());

        // A `Named` selection hashes in registry order, not listing order.
        let permuted: Vec<&str> = order.iter().take(take).map(|&i| names[i]).collect();
        let mut registry_order = permuted.clone();
        registry_order.sort_by_key(|n| names.iter().position(|m| m == n).expect("known unit"));
        let a = StudySpec::new(SocConfig::snapdragon_888(), seed, 1).with_units(permuted);
        let b = StudySpec::new(SocConfig::snapdragon_888(), seed, 1).with_units(registry_order);
        prop_assert_eq!(a.study_key(), b.study_key());
    }
}

/// Workload shim recording every normalized time the engine samples it at.
struct TNormRecorder {
    duration: f64,
    demand: Demand,
    sampled: std::cell::RefCell<Vec<f64>>,
}

impl TNormRecorder {
    fn new(duration: f64, demand: Demand) -> Self {
        TNormRecorder {
            duration,
            demand,
            sampled: std::cell::RefCell::new(Vec::new()),
        }
    }
}

impl mwc_soc::Workload for TNormRecorder {
    fn name(&self) -> &str {
        "t-norm-recorder"
    }
    fn duration_seconds(&self) -> f64 {
        self.duration
    }
    fn demand_at(&self, t_norm: f64) -> Demand {
        self.sampled.borrow_mut().push(t_norm);
        self.demand.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- simulation clock ----------

    #[test]
    fn any_positive_duration_samples_in_domain(
        // Log-uniform over ~9 decades: exercises sub-tick durations (the
        // historical empty-trace bug), half-tick rounding edges and long
        // runs alike.
        log_duration in -7.0f64..2.0,
        nudge in 0.0f64..1.0,
        seed in 0u64..50,
    ) {
        let duration = 10.0f64.powf(log_duration) * (1.0 + nudge);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.6);
        let w = TNormRecorder::new(duration, d);
        let mut engine = Engine::new(SocConfig::snapdragon_888(), seed).expect("preset");
        let trace = engine.run(&w);
        // Positive duration: never an empty trace, and exactly the clock's
        // tick count.
        prop_assert!(!trace.samples.is_empty());
        let expected = ((duration / mwc_soc::TICK_SECONDS).round() as usize).max(1);
        prop_assert_eq!(trace.samples.len(), expected);
        // Every sampled normalized time is inside demand_at's domain.
        for &t in w.sampled.borrow().iter() {
            prop_assert!((0.0..1.0).contains(&t), "t_norm {} out of [0, 1) at duration {}", t, duration);
        }
    }
}
