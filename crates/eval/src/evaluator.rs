//! High-level evaluation of measures on datasets: normalization handling,
//! the supervised (LOOCCV) and unsupervised settings, and category-
//! specific paths for distances, kernels, and embeddings. Unsupervised
//! distance evaluation goes through the [`Eval`](crate::request::Eval)
//! request builder, which shares `distance_cell` with the study runner.

use crate::cell::{
    find_non_finite, CancelFlag, CellError, Evaluation, GuardedDistance, GuardedKernel,
};
use crate::error::EvalError;
use crate::matrices::{
    distance_matrix, embedding_matrices, kernel_matrices, kernel_matrices_into,
    symmetric_distance_matrix_into,
};
use crate::nn::{
    check_shapes, loocv_accuracy, one_nn_accuracy, try_loocv_accuracy, try_one_nn_accuracy,
};
use crate::scan::{one_nn_vote_accuracy, Rows, Scan};
use tsdist_core::embedding::Embedding;
use tsdist_core::measure::{Distance, Kernel};
use tsdist_core::normalization::{AdaptiveScaled, Normalization};
use tsdist_core::TrainIndex;
use tsdist_data::Dataset;
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

/// Outcome of a supervised (grid-tuned) evaluation on one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisedOutcome {
    /// Test accuracy of the selected grid point.
    pub test_accuracy: f64,
    /// LOOCV training accuracy of the selected grid point.
    pub train_accuracy: f64,
    /// Index of the selected grid point (ties break to the first).
    pub best_index: usize,
}

/// The matrix-backed 1-NN test accuracy of one distance measure, which
/// the supervised grid path scores its winning grid point with.
fn distance_accuracy(d: &dyn Distance, ds: &Dataset, norm: Normalization) -> f64 {
    let prepared = prepare(ds, norm);
    let e = if norm.is_pairwise() {
        let wrapped = AdaptiveScaled::new(d);
        distance_matrix(&wrapped, &prepared.test, &prepared.train)
    } else {
        distance_matrix(d, &prepared.test, &prepared.train)
    };
    one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)
}

/// Supervised evaluation of a parameter grid: every grid point's LOOCV
/// training accuracy is computed from `W`; the best (first on ties, in
/// grid order — matching the deterministic tuning of Section 3) is then
/// scored on the test split.
///
/// # Panics
///
/// Panics when `grid` is empty — there is no "best of nothing" to
/// score.
pub fn evaluate_distance_supervised(
    grid: &[Box<dyn Distance>],
    ds: &Dataset,
    norm: Normalization,
) -> SupervisedOutcome {
    assert!(!grid.is_empty(), "empty parameter grid");
    let prepared = prepare(ds, norm);
    let mut best_idx = 0;
    let mut best_train = f64::NEG_INFINITY;
    // One `W` buffer reused across the whole grid; symmetric measures only
    // compute the upper triangle.
    let mut w = Matrix::zeros(0, 0);
    for (idx, d) in grid.iter().enumerate() {
        if norm.is_pairwise() {
            let wrapped = AdaptiveScaled::new(d);
            symmetric_distance_matrix_into(&wrapped, &prepared.train, &mut w);
        } else {
            symmetric_distance_matrix_into(d.as_ref(), &prepared.train, &mut w);
        }
        let train_acc = loocv_accuracy(&w, &prepared.train_labels);
        if train_acc > best_train {
            best_train = train_acc;
            best_idx = idx;
        }
    }
    let test_accuracy = distance_accuracy(grid[best_idx].as_ref(), ds, norm);
    SupervisedOutcome {
        test_accuracy,
        train_accuracy: best_train,
        best_index: best_idx,
    }
}

/// Test accuracy of one kernel on one dataset (kernels are evaluated
/// under z-normalization, as in Section 8).
pub fn evaluate_kernel(k: &dyn Kernel, ds: &Dataset) -> f64 {
    let prepared = prepare(ds, Normalization::ZScore);
    let (_, e) = kernel_matrices(k, &prepared.train, &prepared.test);
    one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)
}

// --- Cancellable, fault-classified cell cores -------------------------------
//
// The `try_evaluate_*` functions below are what the fault-tolerant
// [`CellRunner`](crate::runner::CellRunner) executes inside each cell.
// They differ from the panicking entry points above in three ways: the
// measure is wrapped in a guarded adapter that honours a [`CancelFlag`]
// (so watchdog deadlines interrupt even the matrix kernels), supervised
// grid loops check the flag cooperatively between parameter points, and
// every dissimilarity matrix is screened for NaN/±Inf at the source —
// reported as [`CellError::NonFiniteDistance`] instead of silently
// sorting last in the 1-NN selection. Healthy cells compute bit-identical
// accuracies to the panicking paths (the guards delegate transparently,
// including `distance_ws` and `is_symmetric`).

/// The one distance-cell core, shared by the runner and the
/// [`Eval`](crate::request::Eval) builder: Algorithm 1 over a
/// [`prepare`]d dataset's test split, through a [`Scan`] whose plan
/// inputs are `index` and `pruned`, with the NaN/±Inf screen.
///
/// The measure is guarded by `cancel`. An unindexed, unpruned scan builds
/// `E` exactly like [`distance_matrix`] and reports the first non-finite
/// entry in row-major order, as [`find_non_finite`] does. Other plans
/// never see every entry, so their screen is best-effort: only distances
/// computed exactly are inspectable (an abandoned candidate legitimately
/// reports `INFINITY`). A fault is reported as
/// [`CellError::NonFiniteDistance`] with `i` the test row and `j` the
/// training index.
pub(crate) fn distance_cell(
    d: &dyn Distance,
    prepared: &Dataset,
    norm: Normalization,
    cancel: &CancelFlag,
    index: Option<&TrainIndex>,
    pruned: bool,
    warm_start: bool,
) -> Result<Evaluation, CellError> {
    cancel.checkpoint()?;
    let guarded = GuardedDistance::new(d, cancel);
    let scaled;
    let d: &dyn Distance = if norm.is_pairwise() {
        // Per-pair rescaling invalidates every precomputed bound; the
        // wrapper declares no index profile, so no row gets a structure.
        scaled = AdaptiveScaled::new(&guarded);
        &scaled
    } else {
        &guarded
    };
    let mut scan = Scan::new(d, &prepared.train)
        .pruned(pruned)
        .warm_start(warm_start);
    if let Some(ix) = index {
        scan = scan.indexed(ix);
    }
    let (nns, _) = scan.nearest(Rows::Queries(&prepared.test));
    if let Some((i, j)) = nns
        .iter()
        .enumerate()
        .find_map(|(i, nn)| nn.non_finite.map(|j| (i, j)))
    {
        return Err(CellError::NonFiniteDistance { i, j });
    }
    check_shapes(
        prepared.test.len(),
        prepared.train.len(),
        &prepared.test_labels,
        &prepared.train_labels,
    )?;
    let accuracy = one_nn_vote_accuracy(&nns, &prepared.test_labels, &prepared.train_labels);
    Ok(Evaluation::unsupervised(accuracy))
}

/// Cancellable, fault-classified variant of
/// [`evaluate_distance_supervised`]: the flag is checked between grid
/// points, and the selected point's LOOCV accuracy is returned alongside
/// the test accuracy.
pub fn try_evaluate_distance_supervised(
    grid: &[Box<dyn Distance>],
    ds: &Dataset,
    norm: Normalization,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    if grid.is_empty() {
        return Err(EvalError::EmptyGrid.into());
    }
    let prepared = prepare(ds, norm);
    let mut best_idx = 0;
    let mut best_train = f64::NEG_INFINITY;
    let mut w = Matrix::zeros(0, 0);
    for (idx, d) in grid.iter().enumerate() {
        cancel.checkpoint()?;
        let guarded = GuardedDistance::new(d.as_ref(), cancel);
        if norm.is_pairwise() {
            let wrapped = AdaptiveScaled::new(guarded);
            symmetric_distance_matrix_into(&wrapped, &prepared.train, &mut w);
        } else {
            symmetric_distance_matrix_into(&guarded, &prepared.train, &mut w);
        }
        if let Some((i, j)) = find_non_finite(&w) {
            return Err(CellError::NonFiniteDistance { i, j });
        }
        let train_acc = try_loocv_accuracy(&w, &prepared.train_labels)?;
        if train_acc > best_train {
            best_train = train_acc;
            best_idx = idx;
        }
    }
    let test = distance_cell(
        grid[best_idx].as_ref(),
        &prepared,
        norm,
        cancel,
        None,
        false,
        true,
    )?;
    Ok(Evaluation {
        accuracy: test.accuracy,
        train_accuracy: Some(best_train),
    })
}

/// Cancellable, fault-classified variant of [`evaluate_kernel`].
pub fn try_evaluate_kernel(
    k: &dyn Kernel,
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    cancel.checkpoint()?;
    let prepared = prepare(ds, Normalization::ZScore);
    let guarded = GuardedKernel::new(k, cancel);
    let (_, e) = kernel_matrices(&guarded, &prepared.train, &prepared.test);
    if let Some((i, j)) = find_non_finite(&e) {
        return Err(CellError::NonFiniteDistance { i, j });
    }
    let accuracy = try_one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)?;
    Ok(Evaluation::unsupervised(accuracy))
}

/// Supervised evaluation of a kernel grid (LOOCV on `W`, test on `E`),
/// cancellable and fault-classified.
pub fn try_evaluate_kernel_supervised(
    grid: &[Box<dyn Kernel>],
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    if grid.is_empty() {
        return Err(EvalError::EmptyGrid.into());
    }
    let prepared = prepare(ds, Normalization::ZScore);
    let mut best_train = f64::NEG_INFINITY;
    let mut w = Matrix::zeros(0, 0);
    let mut e = Matrix::zeros(0, 0);
    let mut best_e = Matrix::zeros(0, 0);
    for k in grid.iter() {
        cancel.checkpoint()?;
        let guarded = GuardedKernel::new(k.as_ref(), cancel);
        kernel_matrices_into(&guarded, &prepared.train, &prepared.test, &mut w, &mut e);
        if let Some((i, j)) = find_non_finite(&w).or_else(|| find_non_finite(&e)) {
            return Err(CellError::NonFiniteDistance { i, j });
        }
        let train_acc = try_loocv_accuracy(&w, &prepared.train_labels)?;
        if train_acc > best_train {
            best_train = train_acc;
            std::mem::swap(&mut best_e, &mut e);
        }
    }
    let accuracy = try_one_nn_accuracy(&best_e, &prepared.test_labels, &prepared.train_labels)?;
    Ok(Evaluation {
        accuracy,
        train_accuracy: Some(best_train),
    })
}

/// Test accuracy of one embedding on one dataset (fit on the train
/// split, embed everything, compare representations with ED),
/// cancellable and fault-classified. Embeddings have no pairwise kernel to guard, so cancellation is
/// checked before the (single) embedding pass.
pub fn try_evaluate_embedding(
    emb: &dyn Embedding,
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    cancel.checkpoint()?;
    let prepared = prepare(ds, Normalization::ZScore);
    let mut all = prepared.train.clone();
    all.extend(prepared.test.iter().cloned());
    let z = emb.embed(&all, prepared.train.len());
    let (_, e) = embedding_matrices(&z, prepared.train.len());
    if let Some((i, j)) = find_non_finite(&e) {
        return Err(CellError::NonFiniteDistance { i, j });
    }
    let accuracy = try_one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)?;
    Ok(Evaluation::unsupervised(accuracy))
}

/// Supervised evaluation of an embedding grid, cancellable and
/// fault-classified: the flag is checked between grid points.
pub fn try_evaluate_embedding_supervised(
    grid: &[Box<dyn Embedding>],
    ds: &Dataset,
    cancel: &CancelFlag,
) -> Result<Evaluation, CellError> {
    if grid.is_empty() {
        return Err(EvalError::EmptyGrid.into());
    }
    let prepared = prepare(ds, Normalization::ZScore);
    let mut all = prepared.train.clone();
    all.extend(prepared.test.iter().cloned());
    let n_train = prepared.train.len();

    let mut best_train = f64::NEG_INFINITY;
    let mut best_e = None;
    for emb in grid.iter() {
        cancel.checkpoint()?;
        let z = emb.embed(&all, n_train);
        let (w, e) = embedding_matrices(&z, n_train);
        if let Some((i, j)) = find_non_finite(&w).or_else(|| find_non_finite(&e)) {
            return Err(CellError::NonFiniteDistance { i, j });
        }
        let train_acc = try_loocv_accuracy(&w, &prepared.train_labels)?;
        if train_acc > best_train {
            best_train = train_acc;
            best_e = Some(e);
        }
    }
    let e = match best_e {
        Some(e) => e,
        // tsdist-lint: allow(no-unwrap-in-lib, reason = "non-empty grid was checked above, so a winner always exists")
        None => unreachable!("non-empty grid always selects a point"),
    };
    let accuracy = try_one_nn_accuracy(&e, &prepared.test_labels, &prepared.train_labels)?;
    Ok(Evaluation {
        accuracy,
        train_accuracy: Some(best_train),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::elastic::Dtw;
    use tsdist_core::kernel::Rbf;
    use tsdist_core::lockstep::Euclidean;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

    fn easy_dataset() -> Dataset {
        // Archetype index 0 (Shape) is the easiest.
        generate_dataset(&ArchiveConfig::quick(1, 42), 0)
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
        let out = evaluate_distance_supervised(&grid, &ds, Normalization::ZScore);
        assert!(out.best_index < 2);
        assert!((0.0..=1.0).contains(&out.test_accuracy));
        assert!((0.0..=1.0).contains(&out.train_accuracy));
    }

    #[test]
    fn supervised_ties_break_to_first_grid_point() {
        let ds = easy_dataset();
        // Identical grid points: the first must win.
        let grid: Vec<Box<dyn Distance>> = vec![Box::new(Euclidean), Box::new(Euclidean)];
        let out = evaluate_distance_supervised(&grid, &ds, Normalization::ZScore);
        assert_eq!(out.best_index, 0);
    }

    #[test]
    fn kernel_evaluation_beats_chance_on_shape_data() {
        let ds = easy_dataset();
        let acc = evaluate_kernel(&Rbf::new(0.01), &ds);
        let chance = 1.0 / ds.n_classes() as f64;
        assert!(acc > chance, "acc {acc} <= chance {chance}");
    }

    #[test]
    fn adaptive_scaling_normalization_runs_via_wrapper() {
        let ds = easy_dataset();
        let acc = distance_accuracy(&Euclidean, &ds, Normalization::AdaptiveScaling);
        assert!((0.0..=1.0).contains(&acc));
    }
}
