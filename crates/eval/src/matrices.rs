//! The batch engine constructing the dissimilarity matrices `W` and `E`.
//!
//! Section 3 of the paper decouples distance-matrix computation from
//! classification: `W` (train x train) drives leave-one-out parameter
//! tuning, `E` (test x train) drives the reported test accuracy.
//!
//! Construction is *row-parallel*: worker threads claim matrix rows from
//! a shared counter ([`crate::parallel::parallel_fill_rows`]) and each
//! carries its own [`Workspace`]. Every row is one
//! [`Distance::distance_row_ws`] call, so the DP/FFT measures run through
//! their allocation-free `distance_ws` path and MSM, TWE, banded DTW and
//! the NCC family through their batch-axis kernels (eight training series
//! per SIMD lane, bit-identical to the per-pair values). Train-by-train matrices of measures whose
//! [`Distance::is_symmetric`] hint holds additionally compute only the
//! upper triangle (row `i` against `items[i..]`) and mirror it — the
//! hint promises bit-identical `d(x, y)` and `d(y, x)`, so the mirrored
//! matrix equals the full computation exactly.
//!
//! Kernels take the same builders as every other distance: an
//! evaluation cell measures a
//! [`KernelDistance`](tsdist_core::measure::KernelDistance) through a
//! kernel cell measure whose row call computes each series' log
//! self-similarity once, not per pair (see [`crate::cell`]).
//!
//! The `*_into` builders fill a caller-owned [`Matrix`], which the
//! supervised grid loop uses to reuse one `W` allocation across all grid
//! points.
//!
//! # No cutoffs here — deliberately
//!
//! The batch engine never threads `Distance::distance_upto` cutoffs, even
//! though the scan engine ([`crate::scan`]) threads them: these
//! matrices feed Wilcoxon/Friedman/Nemenyi statistics and LOOCV tuning,
//! which consume *every* entry, so an early-abandoned (`>=` cutoff,
//! typically infinite) entry would silently corrupt rank computations —
//! and the symmetric mirror would spread it. Cutoffs are only admissible
//! where the sole consumer is an argmin; see the "Early abandoning and
//! cutoff threading" section of `DESIGN.md`.
//!
//! Callers building a train-by-train matrix should prefer
//! [`symmetric_distance_matrix`], which exploits the symmetry hint
//! automatically.

use crate::error::EvalError;
use crate::parallel::parallel_fill_rows;
use tsdist_core::measure::Distance;
use tsdist_core::Workspace;
use tsdist_linalg::Matrix;

/// Computes the `rows.len() x cols.len()` dissimilarity matrix
/// `M[i][j] = d(rows[i], cols[j])`.
pub fn distance_matrix(d: &dyn Distance, rows: &[Vec<f64>], cols: &[Vec<f64>]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    distance_matrix_into(d, rows, cols, &mut out);
    out
}

/// [`distance_matrix`] into a caller-owned matrix (resized as needed).
fn distance_matrix_into(d: &dyn Distance, rows: &[Vec<f64>], cols: &[Vec<f64>], out: &mut Matrix) {
    out.resize(rows.len(), cols.len());
    parallel_fill_rows(
        out.as_mut_slice(),
        cols.len(),
        Workspace::default,
        |ws, i, out_row| d.distance_row_ws(&rows[i], cols, out_row, ws),
    );
}

/// Computes the square `items x items` matrix, exploiting the measure's
/// [`Distance::is_symmetric`] hint: when it holds, only the upper
/// triangle is computed and mirrored.
pub fn symmetric_distance_matrix(d: &dyn Distance, items: &[Vec<f64>]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    symmetric_distance_matrix_into(d, items, &mut out);
    out
}

/// [`symmetric_distance_matrix`] into a caller-owned matrix.
pub fn symmetric_distance_matrix_into(d: &dyn Distance, items: &[Vec<f64>], out: &mut Matrix) {
    if !d.is_symmetric() {
        distance_matrix_into(d, items, items, out);
        return;
    }
    let n = items.len();
    out.resize(n, n);
    parallel_fill_rows(
        out.as_mut_slice(),
        n,
        Workspace::default,
        |ws, i, out_row| d.distance_row_ws(&items[i], &items[i..], &mut out_row[i..], ws),
    );
    mirror_upper_to_lower(out);
}

/// Copies the strict upper triangle onto the lower one.
fn mirror_upper_to_lower(m: &mut Matrix) {
    for i in 1..m.rows() {
        for j in 0..i {
            m[(i, j)] = m[(j, i)];
        }
    }
}

/// Computes `W` and `E` as plain Euclidean distances between embedding
/// rows (`z` holds train rows first, then test rows) — how the paper
/// compares embedding measures. An `n_train` above the embedded row count
/// is a typed error.
pub fn embedding_matrices(z: &Matrix, n_train: usize) -> Result<(Matrix, Matrix), EvalError> {
    let e = embedding_test_matrix(z, n_train)?;
    let w = Matrix::from_fn(n_train, n_train, |i, j| ed(z.row(i), z.row(j)));
    Ok((w, e))
}

/// The `E` of [`embedding_matrices`] alone, for callers that need no `W`.
pub(crate) fn embedding_test_matrix(z: &Matrix, n_train: usize) -> Result<Matrix, EvalError> {
    let n = z.rows();
    if n_train > n {
        return Err(EvalError::TrainCountExceedsRows { n_train, rows: n });
    }
    Ok(Matrix::from_fn(n - n_train, n_train, |i, j| {
        ed(z.row(n_train + i), z.row(j))
    }))
}

/// Euclidean distance between two embedding rows.
fn ed(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{with_cell_measure, CancelFlag};
    use tsdist_core::elastic::Dtw;
    use tsdist_core::kernel::{Gak, Rbf};
    use tsdist_core::lockstep::{Euclidean, KullbackLeibler};
    use tsdist_core::measure::KernelDistance;
    use tsdist_core::normalization::Normalization;

    fn toy(n: usize, m: usize, off: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| ((i * m + j) as f64 * 0.7).sin() + off)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn distance_matrix_matches_direct_calls() {
        let rows = toy(4, 6, 0.0);
        let cols = toy(3, 6, 0.5);
        let m = distance_matrix(&Euclidean, &rows, &cols);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], Euclidean.distance(&rows[i], &cols[j]));
            }
        }
    }

    #[test]
    fn train_matrix_diagonal_is_zero_for_metrics() {
        let train = toy(5, 8, 0.0);
        let w = symmetric_distance_matrix(&Euclidean, &train);
        for i in 0..5 {
            assert_eq!(w[(i, i)], 0.0);
        }
    }

    #[test]
    fn symmetric_fast_path_is_bit_identical_to_full_computation() {
        // DTW is a DP measure with a ws override and a symmetric hint —
        // the strongest end-to-end check of the mirrored triangle.
        let items = toy(9, 24, 0.0);
        let d = Dtw::with_window_pct(10.0);
        assert!(Distance::is_symmetric(&d));
        let fast = symmetric_distance_matrix(&d, &items);
        for i in 0..9 {
            for j in 0..9 {
                let direct = d.distance(&items[i], &items[j]);
                assert_eq!(fast[(i, j)].to_bits(), direct.to_bits(), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn asymmetric_measures_bypass_the_mirror() {
        let items = toy(6, 10, 1.5);
        assert!(!Distance::is_symmetric(&KullbackLeibler));
        let w = symmetric_distance_matrix(&KullbackLeibler, &items);
        for i in 0..6 {
            for j in 0..6 {
                let direct = KullbackLeibler.distance(&items[i], &items[j]);
                assert_eq!(w[(i, j)].to_bits(), direct.to_bits(), "cell ({i},{j})");
            }
        }
        // The matrix genuinely is asymmetric, so mirroring would have
        // produced wrong values.
        assert!(!w.is_symmetric(1e-12));
    }

    #[test]
    fn into_variants_reuse_and_reshape_buffers() {
        let a = toy(4, 6, 0.0);
        let b = toy(7, 6, 0.3);
        let mut m = Matrix::zeros(0, 0);
        distance_matrix_into(&Euclidean, &a, &b, &mut m);
        assert_eq!((m.rows(), m.cols()), (4, 7));
        let first = m.clone();
        // Refill with swapped shape; contents must match a fresh build.
        distance_matrix_into(&Euclidean, &b, &a, &mut m);
        assert_eq!((m.rows(), m.cols()), (7, 4));
        assert_eq!(m, distance_matrix(&Euclidean, &b, &a));
        // And going back reproduces the original bit-for-bit.
        distance_matrix_into(&Euclidean, &a, &b, &mut m);
        assert_eq!(m, first);
    }

    /// A kernel's train-by-train and test-by-train matrices, built by
    /// the matrix builders on the cell measure of `d` over `train`.
    fn kernel_pair(d: &dyn Distance, train: &[Vec<f64>], test: &[Vec<f64>]) -> (Matrix, Matrix) {
        let flag = CancelFlag::new();
        let cell = |f: &dyn Fn(&dyn Distance) -> Matrix| {
            with_cell_measure(d, Normalization::ZScore, &flag, train, f)
        };
        let w = cell(&|d| symmetric_distance_matrix(d, train));
        (w, cell(&|d| distance_matrix(d, test, train)))
    }

    /// Every entry of `(W, E)` equals `d`'s per-pair value, bit for bit.
    fn assert_pair_matches(d: &dyn Distance, train: &[Vec<f64>], test: &[Vec<f64>]) {
        let (w, e) = kernel_pair(d, train, test);
        for (m, rows, name) in [(&w, train, "W"), (&e, test, "E")] {
            assert_eq!((m.rows(), m.cols()), (rows.len(), train.len()));
            for (i, x) in rows.iter().enumerate() {
                for (j, y) in train.iter().enumerate() {
                    let expect = d.distance(x, y);
                    assert_eq!(m[(i, j)].to_bits(), expect.to_bits(), "{name} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn kernel_matrices_match_kernel_distance_adapter() {
        // RBF is symmetric, so `W` takes the mirrored upper triangle.
        let d = KernelDistance(Rbf::new(0.1));
        assert!(d.is_symmetric());
        assert_pair_matches(&d, &toy(4, 6, 0.0), &toy(3, 6, 0.3));
    }

    #[test]
    fn alignment_kernel_matrices_match_the_serial_definition() {
        // Eleven training series span two chunks of `LANES` columns.
        let d = KernelDistance(Gak::new(0.5));
        assert!(!d.is_symmetric());
        assert_pair_matches(&d, &toy(11, 12, 0.0), &toy(3, 12, 0.4));
    }

    #[test]
    fn embedding_matrices_have_correct_shapes() {
        let z = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f64);
        let (w, e) = embedding_matrices(&z, 5).unwrap();
        assert_eq!((w.rows(), w.cols()), (5, 5));
        assert_eq!((e.rows(), e.cols()), (2, 5));
        // Self-distance zero on the diagonal.
        for i in 0..5 {
            assert_eq!(w[(i, i)], 0.0);
        }
    }

    #[test]
    fn embedding_matrices_reject_oversized_train_count() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(
            embedding_matrices(&z, 4),
            Err(EvalError::TrainCountExceedsRows {
                n_train: 4,
                rows: 3
            })
        );
    }
}
