//! Columnar compute kernels behind the public statistics API.
//!
//! Every hot numeric loop in this crate funnels through here. The kernels
//! share one design rule that makes them both fast and reproducible:
//! **vectorize across independent outputs, never across one output's
//! reduction**. A chunked multi-accumulator sum changes `f64` bits
//! (floating-point addition is not associative); instead each kernel keeps
//! every per-output accumulation in exactly the scalar reference order and
//! lets the autovectorizer run the *outputs* in SIMD lanes:
//!
//! * pairwise distances — dimensions in the outer loop, pairs in the inner
//!   loop over a contiguous column-major copy, one accumulator per pair;
//! * Pearson correlation — the data is centered once (row-major), then the
//!   Gram accumulation runs time-outer / feature-pair-inner over contiguous
//!   row slices;
//! * normalization — per-column bounds from one row-order pass, then a
//!   single row-major rewrite.
//!
//! Every kernel is bit-identical to its scalar reference (property-tested
//! in `tests/properties.rs`).

use std::time::Instant;

use crate::matrix::Matrix;

/// Scope timer feeding the `kernel.*_ns` histograms (`mwc-obs`). Reads the
/// clock only when collection is enabled, so disabled runs pay one atomic
/// load — results are never affected either way (digest-neutral).
pub(crate) struct KernelTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl KernelTimer {
    pub(crate) fn new(name: &'static str) -> Self {
        KernelTimer {
            name,
            start: mwc_obs::enabled().then(Instant::now),
        }
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            mwc_obs::metrics::observe_duration_ns(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Column-major copy of `m` (column `c` occupies `[c·n, (c+1)·n)`). This
/// is the transpose that makes the pairs-inner distance loop read
/// contiguous memory.
pub(crate) fn to_col_major(m: &Matrix) -> Vec<f64> {
    let n = m.rows();
    let cols = m.cols();
    let mut out = vec![0.0f64; n * cols];
    for (t, row) in m.iter_rows().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * n + t] = v;
        }
    }
    out
}

/// Packed strictly-lower triangle of pairwise **Euclidean distances**
/// between the rows of `m`, in [`crate::SymMatrix`] packed order.
///
/// For each row `i` the kernel keeps one accumulator per earlier row `j`
/// and adds `(x_ic − x_jc)²` dimension by dimension — the same sequential
/// order as the scalar `euclidean(row_i, row_j)`, so every distance is
/// bit-identical to the scalar reference, while the
/// inner `j` loop runs over contiguous memory and autovectorizes.
pub(crate) fn pairwise_euclidean_packed(m: &Matrix) -> Vec<f64> {
    let n = m.rows();
    let cols = m.cols();
    let xt = to_col_major(m);
    let mut packed = vec![0.0f64; n * n.saturating_sub(1) / 2];
    let mut start = 0usize;
    for i in 1..n {
        let acc = &mut packed[start..start + i];
        for c in 0..cols {
            let col = &xt[c * n..c * n + n];
            let xi = col[i];
            for (a, &xj) in acc.iter_mut().zip(&col[..i]) {
                let d = xi - xj;
                *a += d * d;
            }
        }
        start += i;
    }
    packed.iter().map(|&s| s.sqrt()).collect()
}

/// Per-column state for the fused Pearson kernel.
struct Centered {
    /// Row-major centered data (`NaN`-free columns only are meaningful).
    rows: Vec<f64>,
    /// `Σ dx²` per column, accumulated in row order.
    sumsq: Vec<f64>,
    /// Whether every value in the column is finite (fast path eligible).
    finite: Vec<bool>,
    n: usize,
}

/// Center every all-finite column of `m` about its mean (row-major layout
/// preserved) and accumulate its `Σ dx²`, both in ascending row order —
/// exactly the order the scalar [`crate::stats::pearson`] uses.
fn center_columns(m: &Matrix) -> Centered {
    let n = m.rows();
    let cols = m.cols();
    let mut finite = vec![true; cols];
    let mut sums = vec![0.0f64; cols];
    for row in m.iter_rows() {
        for (c, &v) in row.iter().enumerate() {
            finite[c] &= v.is_finite();
            sums[c] += v;
        }
    }
    let means: Vec<f64> = sums.iter().map(|s| s / n.max(1) as f64).collect();
    let mut rows = vec![0.0f64; n * cols];
    let mut sumsq = vec![0.0f64; cols];
    for (t, row) in m.iter_rows().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            let dx = v - means[c];
            rows[t * cols + c] = dx;
            sumsq[c] += dx * dx;
        }
    }
    Centered {
        rows,
        sumsq,
        finite,
        n,
    }
}

/// Pairwise Pearson correlation matrix of the columns of `m` (features ×
/// features, symmetric, unit diagonal), computed as a fused Gram
/// accumulation over the centered data.
///
/// Columns containing gaps (non-finite values) fall back to the scalar
/// pairwise-complete [`crate::stats::pearson`] for every pair they touch —
/// gap filtering makes the pair's means depend on *which* indices survive,
/// so those pairs cannot share centered columns. All-finite pairs take the
/// fused path: covariances accumulate time-outer / pair-inner over
/// contiguous centered rows, in the same per-pair order as the scalar
/// two-pass reference (bit-identical).
pub(crate) fn correlation_matrix_fused(m: &Matrix) -> Matrix {
    let k = m.cols();
    let ctr = center_columns(m);
    let mut out = Matrix::zeros(k, k);
    // Gram lower triangle: cov[i][j] for j < i, one contiguous accumulator
    // row per i, time as the sequential outer loop.
    let mut cov = vec![0.0f64; k * k.saturating_sub(1) / 2];
    if ctr.n >= 2 {
        let mut start = 0usize;
        for i in 1..k {
            let acc = &mut cov[start..start + i];
            for t in 0..ctr.n {
                let row = &ctr.rows[t * k..t * k + k];
                let xi = row[i];
                for (a, &xj) in acc.iter_mut().zip(&row[..i]) {
                    *a += xi * xj;
                }
            }
            start += i;
        }
    }
    let mut gapped: Vec<Option<Vec<f64>>> = vec![None; k];
    let mut start = 0usize;
    for i in 0..k {
        out.set(i, i, 1.0);
        for j in 0..i {
            let r = if ctr.n < 2 {
                0.0
            } else if ctr.finite[i] && ctr.finite[j] {
                let vx = ctr.sumsq[i];
                let vy = ctr.sumsq[j];
                if vx == 0.0 || vy == 0.0 {
                    0.0
                } else {
                    cov[start + j] / (vx.sqrt() * vy.sqrt())
                }
            } else {
                // Gap fallback: pairwise-complete scalar path on column
                // copies (materialized at most once per column).
                let col = |slot: &mut Option<Vec<f64>>, c: usize| {
                    slot.get_or_insert_with(|| m.col(c)).clone()
                };
                let ci = col(&mut gapped[i], i);
                let cj = col(&mut gapped[j], j);
                crate::stats::pearson(&ci, &cj)
            };
            out.set(i, j, r);
            out.set(j, i, r);
        }
        if i > 0 {
            start += i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::euclidean;
    use crate::stats::pearson;

    fn sample() -> Matrix {
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..7)
                    .map(|j| ((i * 7 + j) as f64 * 0.7315).sin() * 12.0)
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn kernels_pairwise_matches_scalar_euclidean() {
        let m = sample();
        let packed = pairwise_euclidean_packed(&m);
        let mut idx = 0;
        for i in 1..m.rows() {
            for j in 0..i {
                let reference = euclidean(m.row(i), m.row(j));
                let got = packed[idx];
                assert_eq!(got.to_bits(), reference.to_bits(), "pair ({i},{j})");
                idx += 1;
            }
        }
    }

    #[test]
    fn kernels_correlation_matches_scalar_pearson() {
        let m = sample();
        let c = correlation_matrix_fused(&m);
        for i in 0..m.cols() {
            assert_eq!(c.get(i, i), 1.0);
            for j in 0..i {
                let reference = pearson(&m.col(i), &m.col(j));
                let got = c.get(i, j);
                assert_eq!(got, c.get(j, i));
                assert_eq!(got.to_bits(), reference.to_bits(), "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn kernels_correlation_gap_columns_fall_back() {
        let mut rows: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, (i as f64 * 0.9).cos(), i as f64 * 2.0])
            .collect();
        rows[3][1] = f64::NAN;
        let m = Matrix::from_rows(&rows).unwrap();
        let c = correlation_matrix_fused(&m);
        for i in 0..3 {
            for j in 0..i {
                let reference = pearson(&m.col(i), &m.col(j));
                assert_eq!(c.get(i, j).to_bits(), reference.to_bits());
            }
        }
        // Columns 0 and 2 are perfectly proportional.
        assert!((c.get(0, 2) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn kernels_degenerate_shapes() {
        let one = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let c = correlation_matrix_fused(&one);
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.get(0, 0), 1.0);
        assert!(pairwise_euclidean_packed(&one).is_empty());
        let constant = Matrix::from_rows(&[vec![3.0, 1.0], vec![3.0, 2.0]]).unwrap();
        assert_eq!(correlation_matrix_fused(&constant).get(0, 1), 0.0);
    }
}
