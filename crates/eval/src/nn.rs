//! The 1-NN classifier of Algorithm 1, plus its leave-one-out variant.

use crate::error::EvalError;
use tsdist_data::Label;
use tsdist_linalg::Matrix;

/// Algorithm 1 verbatim: test accuracy of the 1-NN classifier given the
/// test-by-train dissimilarity matrix `E`. Ties break to the *first*
/// training series with the minimal distance (strict `<` comparison), as
/// in the paper's pseudocode. A matrix whose shape disagrees with the
/// label vectors, or an empty train split, is a typed error.
pub fn one_nn_accuracy(
    e: &Matrix,
    test_labels: &[Label],
    train_labels: &[Label],
) -> Result<f64, EvalError> {
    check_shapes(e.rows(), e.cols(), test_labels, train_labels)?;
    let mut correct = 0usize;
    for (i, &true_label) in test_labels.iter().enumerate() {
        let mut best_dist = f64::INFINITY;
        let mut predicted = train_labels[0];
        for (j, &candidate) in train_labels.iter().enumerate() {
            let dist = e[(i, j)];
            if dist < best_dist {
                best_dist = dist;
                predicted = candidate;
            }
        }
        if predicted == true_label {
            correct += 1;
        }
    }
    Ok(correct as f64 / test_labels.len() as f64)
}

/// The shape checks of Algorithm 1 for `rows` test rows against `cols`
/// training series: one label per row and per column, and at least one
/// training series.
pub(crate) fn check_shapes(
    rows: usize,
    cols: usize,
    test_labels: &[Label],
    train_labels: &[Label],
) -> Result<(), EvalError> {
    if rows != test_labels.len() {
        return Err(EvalError::ShapeMismatch {
            what: "row/label count",
            expected: rows,
            got: test_labels.len(),
        });
    }
    if cols != train_labels.len() {
        return Err(EvalError::ShapeMismatch {
            what: "col/label count",
            expected: cols,
            got: train_labels.len(),
        });
    }
    if cols == 0 {
        return Err(EvalError::EmptyTrainSet);
    }
    Ok(())
}

/// Leave-one-out training accuracy from the train-by-train matrix `W`:
/// the same classifier, with each series' self-comparison excluded. The
/// paper uses this (LOOCCV) to tune parameters on the training split. A
/// `W` that is not square or disagrees with the labels is a typed error.
pub fn loocv_accuracy(w: &Matrix, train_labels: &[Label]) -> Result<f64, EvalError> {
    if w.rows() != w.cols() {
        return Err(EvalError::NotSquare {
            rows: w.rows(),
            cols: w.cols(),
        });
    }
    if w.rows() != train_labels.len() {
        return Err(EvalError::ShapeMismatch {
            what: "shape/label count",
            expected: w.rows(),
            got: train_labels.len(),
        });
    }
    let p = train_labels.len();
    if p <= 1 {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for i in 0..p {
        let mut best_dist = f64::INFINITY;
        let mut predicted = None;
        for (j, &candidate) in train_labels.iter().enumerate() {
            if j == i {
                continue;
            }
            let dist = w[(i, j)];
            if dist < best_dist {
                best_dist = dist;
                predicted = Some(candidate);
            }
        }
        if predicted == Some(train_labels[i]) {
            correct += 1;
        }
    }
    Ok(correct as f64 / p as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_scores_one() {
        // Test series 0 nearest to train 0 (class 0), test 1 to train 1.
        let e = Matrix::from_vec(2, 2, vec![0.1, 5.0, 5.0, 0.1]);
        let acc = one_nn_accuracy(&e, &[0, 1], &[0, 1]);
        assert_eq!(acc, Ok(1.0));
    }

    #[test]
    fn total_confusion_scores_zero() {
        let e = Matrix::from_vec(2, 2, vec![5.0, 0.1, 0.1, 5.0]);
        assert_eq!(one_nn_accuracy(&e, &[0, 1], &[0, 1]), Ok(0.0));
    }

    #[test]
    fn ties_break_to_first_training_series() {
        // Both training series at equal distance: Algorithm 1's strict
        // `<` keeps the first.
        let e = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        assert_eq!(one_nn_accuracy(&e, &[0], &[0, 1]), Ok(1.0));
        assert_eq!(one_nn_accuracy(&e, &[1], &[0, 1]), Ok(0.0));
    }

    #[test]
    fn negative_distances_are_legal() {
        // Similarity-derived measures (e.g. -NCC) produce negative values.
        let e = Matrix::from_vec(1, 2, vec![-3.0, -1.0]);
        assert_eq!(one_nn_accuracy(&e, &[1], &[1, 0]), Ok(1.0));
    }

    #[test]
    fn loocv_excludes_self() {
        // W diagonal is zero (self-distance); without exclusion everything
        // would be trivially correct.
        let w = Matrix::from_vec(
            3,
            3,
            vec![
                0.0, 1.0, 9.0, //
                1.0, 0.0, 9.0, //
                9.0, 9.0, 0.0,
            ],
        );
        // Series 0 and 1 are mutual NNs (same class), series 2's NN is
        // series 0 (different class).
        let acc = loocv_accuracy(&w, &[0, 0, 1]).unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn loocv_single_series_is_zero() {
        let w = Matrix::from_vec(1, 1, vec![0.0]);
        assert_eq!(loocv_accuracy(&w, &[0]), Ok(0.0));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let e = Matrix::zeros(2, 2);
        assert!(matches!(
            one_nn_accuracy(&e, &[0], &[0, 1]),
            Err(EvalError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_and_non_square_inputs_are_typed_errors() {
        assert!(matches!(
            one_nn_accuracy(&Matrix::zeros(0, 0), &[], &[]),
            Err(EvalError::EmptyTrainSet)
        ));
        assert!(matches!(
            loocv_accuracy(&Matrix::zeros(2, 3), &[0, 0]),
            Err(EvalError::NotSquare { rows: 2, cols: 3 })
        ));
    }
}
