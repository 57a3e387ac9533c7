//! Validation sweep over cluster counts and algorithms (Figure 4).
//!
//! The sweep evaluates `|Algorithm::ALL| × |ks|` cells, and every measure
//! in every cell ultimately consults the same pairwise dissimilarities. So
//! [`sweep`] computes the expensive shared state exactly once —
//!
//! * the full pairwise Euclidean distance matrix,
//! * each leave-one-column-out matrix and *its* distance matrix (APN/AD
//!   recluster the data once per removed feature), and
//! * one hierarchical dendrogram per data set, cut per `k` (agglomeration
//!   does not depend on `k`, only the cut does)
//!
//! — and then evaluates the `(algorithm, k)` grid in parallel, each cell
//! reading the shared state. The result is `PartialEq`-identical to the
//! naive per-cell recomputation, which [`sweep_unshared`] retains as a
//! reference (and benchmark baseline).

use crate::cluster::{
    hierarchical, hierarchical_with_distances, kmeans, pam, pam_with_distances, Clustering,
    Dendrogram, Linkage,
};
use crate::distance::pairwise_euclidean;
use crate::error::AnalysisError;
use crate::matrix::Matrix;
use crate::sym::SymMatrix;
use crate::validation::internal::{
    dunn_index, dunn_index_with_distances, silhouette_width, silhouette_width_with_distances,
};
use crate::validation::stability::{
    ad_from, apn_from, average_distance, average_proportion_non_overlap,
};

/// Seed used for every clustering run inside a sweep. All three algorithms
/// are deterministic in this crate for a fixed seed, so the whole sweep is
/// reproducible.
const SWEEP_SEED: u64 = 42;

/// The clustering algorithms compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Lloyd's k-means with k-means++ seeding.
    KMeans,
    /// Partitioning Around Medoids.
    Pam,
    /// Agglomerative hierarchical clustering (Ward linkage).
    Hierarchical,
}

impl Algorithm {
    /// All algorithms, in the paper's order.
    pub const ALL: [Algorithm; 3] = [Algorithm::KMeans, Algorithm::Pam, Algorithm::Hierarchical];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::KMeans => "K-means",
            Algorithm::Pam => "PAM",
            Algorithm::Hierarchical => "Hierarchical",
        }
    }

    /// Run the algorithm on `m` with `k` clusters (seed fixed; all three
    /// algorithms are deterministic in this crate's implementations).
    pub fn run(self, m: &Matrix, k: usize) -> Result<Clustering, AnalysisError> {
        match self {
            Algorithm::KMeans => kmeans(m, k, SWEEP_SEED),
            Algorithm::Pam => pam(m, k, SWEEP_SEED),
            Algorithm::Hierarchical => hierarchical(m, Linkage::Ward)?.cut(k),
        }
    }
}

/// All four validation measures for one (algorithm, k) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The algorithm evaluated.
    pub algorithm: Algorithm,
    /// The number of clusters evaluated.
    pub k: usize,
    /// Dunn index (higher better).
    pub dunn: f64,
    /// Mean silhouette width (higher better).
    pub silhouette: f64,
    /// Average proportion of non-overlap (lower better).
    pub apn: f64,
    /// Average distance (lower better).
    pub ad: f64,
}

/// The full sweep result across algorithms and cluster counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationSweep {
    /// One point per (algorithm, k) pair, grouped by algorithm then k.
    pub points: Vec<SweepPoint>,
}

impl ValidationSweep {
    /// The k that maximizes the Dunn index for the given algorithm.
    pub fn best_k_by_dunn(&self, algorithm: Algorithm) -> Option<usize> {
        self.best_k_by(algorithm, |p| p.dunn, true)
    }

    /// The k that maximizes silhouette width for the given algorithm.
    pub fn best_k_by_silhouette(&self, algorithm: Algorithm) -> Option<usize> {
        self.best_k_by(algorithm, |p| p.silhouette, true)
    }

    /// The k that minimizes APN for the given algorithm.
    pub fn best_k_by_apn(&self, algorithm: Algorithm) -> Option<usize> {
        self.best_k_by(algorithm, |p| p.apn, false)
    }

    /// The k that minimizes AD for the given algorithm.
    pub fn best_k_by_ad(&self, algorithm: Algorithm) -> Option<usize> {
        self.best_k_by(algorithm, |p| p.ad, false)
    }

    fn best_k_by(
        &self,
        algorithm: Algorithm,
        score: impl Fn(&SweepPoint) -> f64,
        maximize: bool,
    ) -> Option<usize> {
        // Ties break toward the smaller k: a coarser clustering that scores
        // the same is preferred (the parsimony reading the paper applies
        // when APN "shows a tie ... with a general preference towards the
        // lower range").
        let mut best: Option<(f64, usize)> = None;
        for p in self.points.iter().filter(|p| p.algorithm == algorithm) {
            let s = if maximize { score(p) } else { -score(p) };
            if best.map(|(b, _)| s > b).unwrap_or(true) {
                best = Some((s, p.k));
            }
        }
        best.map(|(_, k)| k)
    }

    /// Points for one algorithm, ascending in k.
    pub fn for_algorithm(&self, algorithm: Algorithm) -> Vec<&SweepPoint> {
        self.points
            .iter()
            .filter(|p| p.algorithm == algorithm)
            .collect()
    }
}

/// Per-sweep shared state: every distance computed once, every dendrogram
/// built once. `reduced[col]` is the data with feature `col` removed —
/// the leave-one-column-out variants the stability measures recluster.
struct SweepContext<'a> {
    m: &'a Matrix,
    d_full: SymMatrix,
    reduced: Vec<Matrix>,
    d_reduced: Vec<SymMatrix>,
    dend_full: Dendrogram,
    dend_reduced: Vec<Dendrogram>,
}

impl SweepContext<'_> {
    fn new(m: &Matrix) -> Result<SweepContext<'_>, AnalysisError> {
        let mut span = mwc_obs::span("analysis.sweep_context");
        span.field("rows", m.rows());
        span.field("cols", m.cols());
        let d_full = pairwise_euclidean(m);
        let reduced: Vec<Matrix> = (0..m.cols()).map(|col| m.without_col(col)).collect();
        let d_reduced: Vec<SymMatrix> = reduced.iter().map(pairwise_euclidean).collect();
        let dend_full = hierarchical_with_distances(&d_full, Linkage::Ward)?;
        let dend_reduced = d_reduced
            .iter()
            .map(|d| hierarchical_with_distances(d, Linkage::Ward))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepContext {
            m,
            d_full,
            reduced,
            d_reduced,
            dend_full,
            dend_reduced,
        })
    }

    /// Cluster the full data over the shared distance matrix / dendrogram.
    /// `k` was validated by [`sweep`] up front, so failures here indicate a
    /// bug — they are propagated as typed errors rather than panics.
    fn cluster_full(&self, algorithm: Algorithm, k: usize) -> Result<Clustering, AnalysisError> {
        match algorithm {
            Algorithm::KMeans => kmeans(self.m, k, SWEEP_SEED),
            Algorithm::Pam => {
                mwc_obs::metrics::counter_add("analysis.distance_reuse_hits", 1);
                pam_with_distances(&self.d_full, k)
            }
            Algorithm::Hierarchical => {
                mwc_obs::metrics::counter_add("analysis.distance_reuse_hits", 1);
                self.dend_full.cut(k)
            }
        }
    }

    /// Cluster the data with feature `col` removed (same row count, so the
    /// up-front `k` validation still covers it).
    fn cluster_reduced(
        &self,
        algorithm: Algorithm,
        k: usize,
        col: usize,
    ) -> Result<Clustering, AnalysisError> {
        match algorithm {
            Algorithm::KMeans => kmeans(&self.reduced[col], k, SWEEP_SEED),
            Algorithm::Pam => {
                mwc_obs::metrics::counter_add("analysis.distance_reuse_hits", 1);
                pam_with_distances(&self.d_reduced[col], k)
            }
            Algorithm::Hierarchical => {
                mwc_obs::metrics::counter_add("analysis.distance_reuse_hits", 1);
                self.dend_reduced[col].cut(k)
            }
        }
    }

    /// All four measures for one grid cell, entirely from shared state.
    fn evaluate(&self, algorithm: Algorithm, k: usize) -> Result<SweepPoint, AnalysisError> {
        let mut span = mwc_obs::span("analysis.cell");
        span.field("algorithm", algorithm.name());
        span.field("k", k);
        let full = self.cluster_full(algorithm, k)?;
        let reduced: Vec<Clustering> = (0..self.reduced.len())
            .map(|col| self.cluster_reduced(algorithm, k, col))
            .collect::<Result<_, _>>()?;
        // The three distance-based measures all read the shared matrix.
        mwc_obs::metrics::counter_add("analysis.distance_reuse_hits", 3);
        Ok(SweepPoint {
            algorithm,
            k,
            dunn: dunn_index_with_distances(&self.d_full, &full),
            silhouette: silhouette_width_with_distances(&self.d_full, &full),
            apn: apn_from(&full, &reduced),
            ad: ad_from(&self.d_full, &full, &reduced),
        })
    }
}

/// Evaluate every algorithm at every `k` in `ks` with all four measures.
///
/// Pairwise distances (full and leave-one-column-out) and hierarchical
/// dendrograms are computed once and shared by every cell, and the
/// `(algorithm, k)` grid is evaluated in parallel (worker count from
/// `MWC_THREADS`, see `mwc-parallel`). The result is identical to
/// [`sweep_unshared`].
pub fn sweep(m: &Matrix, ks: &[usize]) -> Result<ValidationSweep, AnalysisError> {
    let mut span = mwc_obs::span("analysis.sweep");
    span.field("ks", ks.len());
    if ks.is_empty() {
        return Ok(ValidationSweep { points: Vec::new() });
    }
    let n = m.rows();
    if let Some(&k) = ks.iter().find(|&&k| k == 0 || k > n) {
        return Err(AnalysisError::InvalidClusterCount(format!(
            "k = {k} for {n} observations"
        )));
    }
    let ctx = SweepContext::new(m)?;
    let cells: Vec<(Algorithm, usize)> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| ks.iter().map(move |&k| (algorithm, k)))
        .collect();
    span.field("cells", cells.len());
    let points = mwc_parallel::ordered_map(
        &cells,
        mwc_parallel::configured_threads(),
        |&(algorithm, k), _| ctx.evaluate(algorithm, k),
    )
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(ValidationSweep { points })
}

/// [`sweep`] without any sharing: every cell reclusters from scratch and
/// every measure recomputes its own distances, serially. Kept as the
/// reference implementation ([`sweep`] must match it exactly) and as the
/// baseline for the `sweep_shared_distances` benchmark.
pub fn sweep_unshared(m: &Matrix, ks: &[usize]) -> Result<ValidationSweep, AnalysisError> {
    let mut points = Vec::with_capacity(ks.len() * Algorithm::ALL.len());
    for &algorithm in &Algorithm::ALL {
        for &k in ks {
            let clustering = algorithm.run(m, k)?;
            let clusterer = move |mm: &Matrix, kk: usize| algorithm.run(mm, kk);
            points.push(SweepPoint {
                algorithm,
                k,
                dunn: dunn_index(m, &clustering),
                silhouette: silhouette_width(m, &clustering),
                apn: average_proportion_non_overlap(m, k, &clusterer)?,
                ad: average_distance(m, k, &clusterer)?,
            });
        }
    }
    Ok(ValidationSweep { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clearly separated blobs in 4-D; every feature carries the
    /// separation, so stability measures behave.
    fn data() -> Matrix {
        let mut rows = Vec::new();
        for c in 0..3 {
            let base = c as f64 * 10.0;
            for i in 0..4 {
                let jitter = i as f64 * 0.15;
                rows.push(vec![
                    base + jitter,
                    base - jitter,
                    base + 0.5 * jitter,
                    base,
                ]);
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn sweep_covers_all_pairs() {
        let s = sweep(&data(), &[2, 3, 4]).unwrap();
        assert_eq!(s.points.len(), 9);
    }

    #[test]
    fn internal_measures_pick_true_k() {
        let s = sweep(&data(), &[2, 3, 4, 5]).unwrap();
        for alg in Algorithm::ALL {
            assert_eq!(s.best_k_by_dunn(alg), Some(3), "{alg:?} dunn");
            assert_eq!(s.best_k_by_silhouette(alg), Some(3), "{alg:?} silhouette");
        }
    }

    #[test]
    fn ad_prefers_large_k() {
        let s = sweep(&data(), &[2, 3, 4, 5]).unwrap();
        let best = s.best_k_by_ad(Algorithm::KMeans).unwrap();
        assert!(best >= 4, "AD is biased toward many clusters, got {best}");
    }

    #[test]
    fn for_algorithm_filters() {
        let s = sweep(&data(), &[2, 3]).unwrap();
        let pts = s.for_algorithm(Algorithm::Pam);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.algorithm == Algorithm::Pam));
    }

    #[test]
    fn invalid_k_propagates() {
        assert!(sweep(&data(), &[0]).is_err());
        assert!(sweep(&data(), &[13]).is_err());
        assert!(sweep_unshared(&data(), &[0]).is_err());
    }

    #[test]
    fn empty_ks_is_empty_sweep() {
        let s = sweep(&data(), &[]).unwrap();
        assert!(s.points.is_empty());
    }

    #[test]
    fn shared_path_matches_unshared_reference() {
        let m = data();
        let ks = [2, 3, 4, 5];
        assert_eq!(sweep(&m, &ks).unwrap(), sweep_unshared(&m, &ks).unwrap());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::KMeans.name(), "K-means");
        assert_eq!(Algorithm::Pam.name(), "PAM");
        assert_eq!(Algorithm::Hierarchical.name(), "Hierarchical");
    }
}
