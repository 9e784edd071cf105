//! High-level evaluation of measures on datasets: normalization handling,
//! the supervised (LOOCCV) and unsupervised settings, and the two kinds
//! of measure: distances and embeddings. A kernel is a distance
//! ([`KernelDistance`](tsdist_core::measure::KernelDistance)), evaluated
//! here under z-normalization like any other: the cell measures it with
//! each series' self-similarity computed once. Unsupervised distance
//! evaluation goes through the [`Eval`](crate::request::Eval) request
//! builder, which runs `distance_cell`; the study runner's distance
//! cells are `Eval` requests.
//!
//! Every function here is a cancellable, fault-classified cell core, the
//! work the fault-tolerant [`CellRunner`](crate::runner::CellRunner)
//! executes inside each cell. The measure is wrapped in a guarded adapter
//! that honours a [`CancelFlag`] (so watchdog deadlines interrupt even the
//! matrix kernels), the supervised grid loop checks the flag between
//! parameter points, and every dissimilarity matrix is screened for
//! NaN/±Inf at the source, reported as [`CellError::NonFiniteDistance`]
//! instead of silently sorting last in the 1-NN selection. Callers without
//! a deadline pass `&CancelFlag::new()`.

use crate::cell::{find_non_finite, with_cell_measure, CancelFlag, CellError, Evaluation};
use crate::error::EvalError;
use crate::matrices::{embedding_matrices, embedding_test_matrix, symmetric_distance_matrix_into};
use crate::nn::{loocv_accuracy, one_nn_accuracy};
use crate::scan::{one_nn_vote_accuracy, Rows, Scan};
use tsdist_core::embedding::Embedding;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::{Dataset, Label};
use tsdist_linalg::Matrix;

/// Applies the study's preprocessing: every series is first z-normalized
/// (the paper z-normalizes all datasets for archive compatibility), then
/// the evaluation normalization is applied on top.
pub fn prepare(ds: &Dataset, norm: Normalization) -> Dataset {
    ds.map_series(|s| preprocess_series(s, norm))
}

/// The per-series preprocessing pipeline behind [`prepare`]: z-normalize,
/// then apply `norm` on top. Shared with the query path of the
/// [`Eval`](crate::request::Eval) builder so wire queries are prepared
/// exactly (bit-for-bit) like dataset series.
pub(crate) fn preprocess_series(s: &[f64], norm: Normalization) -> Vec<f64> {
    let z = Normalization::ZScore.apply(s);
    norm.apply(&z)
}

/// Fails with [`CellError::NonFiniteDistance`] at the first NaN/±Inf
/// entry of `m`, in row-major order.
fn screen(m: &Matrix) -> Result<(), CellError> {
    match find_non_finite(m) {
        Some((i, j)) => Err(CellError::NonFiniteDistance { i, j }),
        None => Ok(()),
    }
}

/// Algorithm 1 on a screened test-by-train `E`.
fn test_accuracy(e: &Matrix, prepared: &Dataset) -> Result<f64, CellError> {
    screen(e)?;
    one_nn_accuracy(e, &prepared.test_labels, &prepared.train_labels).map_err(Into::into)
}

/// The one supervised grid loop (Section 3's LOOCCV tuning). For each of
/// the `points` grid points it checks `cancel`, lets `point` fill `W`,
/// screens `W` and scores the LOOCV accuracy on it. The first point with
/// the best accuracy wins ties, in grid order. Of what each `point`
/// returns besides `W` (an embedding's `E`, or nothing), only the
/// winner's is kept; `score` gives the winner's test accuracy from its
/// index and that value. Returns the evaluation and the winning index.
///
/// Nothing but `W` is screened per point, so a non-finite test-by-train
/// entry fails a cell only at the winning point, whose `E` `score`
/// builds or receives and screens.
fn tune<T>(
    points: usize,
    train_labels: &[Label],
    cancel: &CancelFlag,
    mut point: impl FnMut(usize, &mut Matrix) -> Result<T, CellError>,
    score: impl FnOnce(usize, T) -> Result<f64, CellError>,
) -> Result<(Evaluation, usize), CellError> {
    let mut w = Matrix::zeros(0, 0);
    let mut best: Option<(usize, f64, T)> = None;
    for idx in 0..points {
        cancel.checkpoint()?;
        let kept = point(idx, &mut w)?;
        screen(&w)?;
        let train_acc = loocv_accuracy(&w, train_labels)?;
        if best.as_ref().is_none_or(|&(_, acc, _)| train_acc > acc) {
            best = Some((idx, train_acc, kept));
        }
    }
    let (idx, train_acc, kept) = best.ok_or(CellError::from(EvalError::EmptyGrid))?;
    let evaluation = Evaluation {
        accuracy: score(idx, kept)?,
        train_accuracy: Some(train_acc),
    };
    Ok((evaluation, idx))
}

/// The one distance-cell core, shared by the runner and the
/// [`Eval`](crate::request::Eval) builder: Algorithm 1 over a
/// [`prepare`]d dataset's test split, through an Auto [`Scan`] whose
/// plan inputs are `index` and `pruned`, with the NaN/±Inf screen.
///
/// The measure is guarded by `cancel` (and rescaled per pair under a
/// pairwise `norm`; a kernel's train self-similarities are computed once
/// for the cell). An unindexed, unpruned scan computes every row of
/// `E` exactly like [`distance_matrix`](crate::matrices::distance_matrix)
/// and reports the first non-finite entry in row-major order, as
/// [`find_non_finite`] does. Other plans never see every entry, so their
/// screen is best-effort: only distances computed exactly are inspectable
/// (an abandoned candidate legitimately reports `INFINITY`). A fault is
/// reported as [`CellError::NonFiniteDistance`] with `i` the test row and
/// `j` the training index.
pub(crate) fn distance_cell(
    d: &dyn Distance,
    prepared: &Dataset,
    norm: Normalization,
    cancel: &CancelFlag,
    index: Option<&TrainIndex>,
    pruned: bool,
) -> Result<Evaluation, CellError> {
    cancel.checkpoint()?;
    let nns = with_cell_measure(d, norm, cancel, &prepared.train, |d| {
        let scan = Scan::new(d, &prepared.train).pruned(pruned).auto(true);
        let scan = index.map_or(scan, |ix| scan.indexed(ix));
        scan.nearest(Rows::Queries(&prepared.test)).0
    });
    if let Some((i, j)) = nns
        .iter()
        .enumerate()
        .find_map(|(i, nn)| nn.non_finite.map(|j| (i, j)))
    {
        return Err(CellError::NonFiniteDistance { i, j });
    }
    let accuracy = one_nn_vote_accuracy(&nns, &prepared.test_labels, &prepared.train_labels)?;
    Ok(Evaluation::unsupervised(accuracy))
}

/// Supervised evaluation of a distance grid: every grid point's LOOCV
/// training accuracy is computed from `W`; the best (first on ties, in
/// grid order — matching the deterministic tuning of Section 3) is then
/// scored on the test split. Returns that evaluation and the winning
/// grid index.
pub fn evaluate_distance_supervised(
    grid: &[Box<dyn Distance>],
    ds: &Dataset,
    norm: Normalization,
    cancel: &CancelFlag,
) -> Result<(Evaluation, usize), CellError> {
    let prepared = prepare(ds, norm);
    // Symmetric measures only compute the upper triangle of `W`.
    let point = |idx: usize, w: &mut Matrix| {
        with_cell_measure(grid[idx].as_ref(), norm, cancel, &prepared.train, |d| {
            symmetric_distance_matrix_into(d, &prepared.train, w);
        });
        Ok(())
    };
    let score = |best: usize, ()| {
        let d = grid[best].as_ref();
        Ok(distance_cell(d, &prepared, norm, cancel, None, false)?.accuracy)
    };
    tune(grid.len(), &prepared.train_labels, cancel, point, score)
}

/// Train series then test series: the input an embedding is fitted on
/// (its first `prepared.train.len()` rows) and applied to.
fn train_then_test(prepared: &Dataset) -> Vec<Vec<f64>> {
    prepared
        .train
        .iter()
        .chain(&prepared.test)
        .cloned()
        .collect()
}

/// Test accuracy of one embedding on one dataset (fit on the train
/// split, embed everything, compare representations with ED).
/// Embeddings have no pairwise kernel to guard, so cancellation is
/// checked before the (single) embedding pass.
pub fn evaluate_embedding(
    emb: &dyn Embedding,
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    cancel.checkpoint()?;
    let prepared = prepare(ds, Normalization::ZScore);
    let n_train = prepared.train.len();
    let z = emb.embed(&train_then_test(&prepared), n_train);
    let e = embedding_test_matrix(&z, n_train)?;
    Ok(Evaluation::unsupervised(test_accuracy(&e, &prepared)?))
}

/// Supervised evaluation of an embedding grid (LOOCV on `W`, test on the
/// winner's `E`), returning the evaluation and the winning grid index.
pub fn evaluate_embedding_supervised(
    grid: &[Box<dyn Embedding>],
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<(Evaluation, usize), CellError> {
    let prepared = prepare(ds, Normalization::ZScore);
    let (all, n_train) = (train_then_test(&prepared), prepared.train.len());
    let point = |idx: usize, w: &mut Matrix| {
        let e;
        (*w, e) = embedding_matrices(&grid[idx].embed(&all, n_train), n_train)?;
        Ok(e)
    };
    let score = |_, e: Matrix| test_accuracy(&e, &prepared);
    tune(grid.len(), &prepared.train_labels, cancel, point, score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Eval;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tsdist_core::elastic::Dtw;
    use tsdist_core::kernel::Rbf;
    use tsdist_core::lockstep::Euclidean;
    use tsdist_core::measure::{Kernel, KernelDistance};
    use tsdist_core::Workspace;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

    fn easy_dataset() -> Dataset {
        // Archetype index 0 (Shape) is the easiest.
        generate_dataset(&ArchiveConfig::quick(1, 42), 0)
    }

    fn distance_accuracy(d: &dyn Distance, ds: &Dataset, norm: Normalization) -> f64 {
        let report = Eval::new(d).on(ds).normalized(norm).run().unwrap();
        report.accuracy.unwrap()
    }

    #[test]
    fn euclidean_beats_chance_on_shape_data() {
        let ds = easy_dataset();
        let acc = distance_accuracy(&Euclidean, &ds, Normalization::ZScore);
        let chance = 1.0 / ds.n_classes() as f64;
        assert!(acc > chance, "acc {acc} <= chance {chance}");
    }

    #[test]
    fn prepare_applies_znorm_then_method() {
        let ds = easy_dataset();
        let p = prepare(&ds, Normalization::MinMax);
        for s in &p.train {
            let lo = s.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = s.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!((lo - 0.0).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn supervised_tuning_selects_a_grid_point() {
        let ds = easy_dataset();
        let grid: Vec<Box<dyn Distance>> = vec![
            Box::new(Dtw::with_window_pct(0.0)),
            Box::new(Dtw::with_window_pct(10.0)),
        ];
        let flag = CancelFlag::new();
        let (out, best) =
            evaluate_distance_supervised(&grid, &ds, Normalization::ZScore, &flag).unwrap();
        assert!(best < 2);
        assert!((0.0..=1.0).contains(&out.accuracy));
        assert!(out.train_accuracy.is_some_and(|a| (0.0..=1.0).contains(&a)));
        // The winner is scored exactly like an unsupervised evaluation.
        let alone = distance_accuracy(grid[best].as_ref(), &ds, Normalization::ZScore);
        assert_eq!(out.accuracy.to_bits(), alone.to_bits());
    }

    #[test]
    fn kernel_evaluation_beats_chance_on_shape_data() {
        let ds = easy_dataset();
        let acc = distance_accuracy(&KernelDistance(Rbf::new(0.01)), &ds, Normalization::ZScore);
        let chance = 1.0 / ds.n_classes() as f64;
        assert!(acc > chance, "acc {acc} <= chance {chance}");
    }

    #[test]
    fn adaptive_scaling_normalization_runs_via_wrapper() {
        let ds = easy_dataset();
        let acc = distance_accuracy(&Euclidean, &ds, Normalization::AdaptiveScaling);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn supervised_ties_break_to_first_grid_point() {
        let ds = easy_dataset();
        // Identical grid points: the first must win.
        let grid: Vec<Box<dyn Distance>> = vec![Box::new(Euclidean), Box::new(Euclidean)];
        let flag = CancelFlag::new();
        let out = evaluate_distance_supervised(&grid, &ds, Normalization::ZScore, &flag);
        assert_eq!(out.unwrap().1, 0);
    }

    /// Every call of a [`Counting`] measure.
    static CALLS: AtomicUsize = AtomicUsize::new(0);

    /// ED, an RBF kernel and the identity embedding in one type, counting
    /// its calls so a test can tell whether a matrix was built.
    struct Counting;
    impl Distance for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Euclidean.distance(x, y)
        }
    }
    impl Kernel for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn kernel_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Rbf::new(0.01).kernel(x, y)
        }
    }
    impl Embedding for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn embed(&self, series: &[Vec<f64>], _n_train: usize) -> Matrix {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Matrix::from_fn(series.len(), series[0].len(), |i, j| series[i][j])
        }
    }

    /// RBF over the common prefix; `poison`ed, NaN between series of
    /// different lengths. With test series one sample longer than train
    /// series, only `E` goes non-finite, and `W` is the unpoisoned one.
    struct CrossNan {
        poison: bool,
    }
    impl Kernel for CrossNan {
        fn name(&self) -> String {
            "cross-nan".into()
        }
        fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
            self.log_kernel_ws(x, y, ws).exp()
        }
        fn log_kernel_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
            if self.poison && x.len() != y.len() {
                return f64::NAN;
            }
            let m = x.len().min(y.len());
            Rbf::new(0.01).kernel(&x[..m], &y[..m]).ln()
        }
    }

    #[test]
    fn a_non_finite_e_fails_a_kernel_cell_only_at_the_winning_grid_point() {
        let mut ds = easy_dataset();
        ds.test.iter_mut().for_each(|s| s.push(0.0));
        let flag = CancelFlag::new();
        // Both points give the same `W`, so the first wins the tie.
        let grid = |poison_first: bool| -> Vec<Box<dyn Distance>> {
            vec![
                Box::new(KernelDistance(CrossNan {
                    poison: poison_first,
                })),
                Box::new(KernelDistance(CrossNan {
                    poison: !poison_first,
                })),
            ]
        };
        let z = Normalization::ZScore;
        let (out, best) = evaluate_distance_supervised(&grid(false), &ds, z, &flag).unwrap();
        assert_eq!(best, 0);
        assert!((0.0..=1.0).contains(&out.accuracy));
        let lost = evaluate_distance_supervised(&grid(true), &ds, z, &flag);
        assert!(
            matches!(lost, Err(CellError::NonFiniteDistance { .. })),
            "{lost:?}"
        );
    }

    /// The supervised evaluation of `kind` over `n` identical grid points.
    fn tuned(
        kind: &str,
        n: usize,
        ds: &Dataset,
        flag: &CancelFlag,
    ) -> Result<(Evaluation, usize), CellError> {
        match kind {
            "distance" => {
                let grid: Vec<Box<dyn Distance>> =
                    (0..n).map(|_| Box::new(Counting) as _).collect();
                evaluate_distance_supervised(&grid, ds, Normalization::ZScore, flag)
            }
            "kernel" => {
                let grid: Vec<Box<dyn Distance>> = (0..n)
                    .map(|_| Box::new(KernelDistance(Counting)) as _)
                    .collect();
                evaluate_distance_supervised(&grid, ds, Normalization::ZScore, flag)
            }
            _ => {
                let grid: Vec<Box<dyn Embedding>> =
                    (0..n).map(|_| Box::new(Counting) as _).collect();
                evaluate_embedding_supervised(&grid, ds, flag)
            }
        }
    }

    #[test]
    fn the_grid_loop_rejects_empty_grids_breaks_ties_first_and_cancels_early() {
        let ds = easy_dataset();
        let (flag, raised) = (CancelFlag::new(), CancelFlag::new());
        raised.cancel();
        for kind in ["distance", "kernel", "embedding"] {
            let empty = tuned(kind, 0, &ds, &flag);
            assert_eq!(empty, Err(CellError::Eval(EvalError::EmptyGrid)), "{kind}");

            let (alone, _) = tuned(kind, 1, &ds, &flag).unwrap();
            let (tied, best) = tuned(kind, 2, &ds, &flag).unwrap();
            assert_eq!(
                (tied, best),
                (alone, 0),
                "{kind}: ties break to the first point"
            );

            let before = CALLS.load(Ordering::Relaxed);
            let cancelled = tuned(kind, 2, &ds, &raised);
            assert_eq!(cancelled, Err(CellError::DeadlineExceeded), "{kind}");
            let calls = CALLS.load(Ordering::Relaxed) - before;
            assert_eq!(calls, 0, "{kind}: a matrix was built after cancellation");
        }
    }

    /// RBF, counting its `log_kernel_ws` calls per instance.
    struct CountingKernel {
        symmetric: bool,
        calls: Arc<AtomicUsize>,
    }
    impl Kernel for CountingKernel {
        fn name(&self) -> String {
            "counting-kernel".into()
        }
        fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
            self.log_kernel_ws(x, y, ws).exp()
        }
        fn log_kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Rbf::new(0.01).log_kernel_ws(x, y, ws)
        }
        fn is_symmetric(&self) -> bool {
            self.symmetric
        }
    }

    #[test]
    fn a_supervised_kernel_cell_computes_each_self_similarity_once_per_matrix() {
        let ds = easy_dataset();
        let (n, t, points) = (ds.train.len(), ds.test.len(), 3);
        for symmetric in [true, false] {
            let calls = Arc::new(AtomicUsize::new(0));
            let grid: Vec<Box<dyn Distance>> = (0..points)
                .map(|_| {
                    let calls = Arc::clone(&calls);
                    Box::new(KernelDistance(CountingKernel { symmetric, calls })) as _
                })
                .collect();
            let flag = CancelFlag::new();
            evaluate_distance_supervised(&grid, &ds, Normalization::ZScore, &flag).unwrap();
            // Each grid point's `W`: `n` self-similarities and the cross
            // terms of the upper triangle (symmetric) or of every cell.
            // The winner's `E`: `n + t` self-similarities, `t·n` cross.
            let cross = if symmetric { n * (n + 1) / 2 } else { n * n };
            let expect = points * (n + cross) + n + t + t * n;
            let calls = calls.load(Ordering::Relaxed);
            assert_eq!(calls, expect, "symmetric: {symmetric}");
        }
    }
}
