//! A k-NN generalization of Algorithm 1, with confusion matrices and
//! per-class metrics.
//!
//! The paper fixes `k = 1` (1-NN mirrors similarity search and is
//! parameter-free); the generalization is provided for downstream users
//! and for sanity analyses — e.g. verifying that a measure's advantage is
//! not an artifact of the `k = 1` decision boundary.

use crate::error::EvalError;
use crate::nn::check_shapes;
use tsdist_data::Label;
use tsdist_linalg::Matrix;

/// Majority-vote k-NN accuracy from the test-by-train matrix `E`.
/// Vote ties break towards the class of the nearer neighbour (the first
/// encountered in distance order), which reduces to Algorithm 1 at
/// `k = 1`. Shape mismatches, an empty train split and `k == 0` are
/// typed errors.
pub fn knn_accuracy(
    e: &Matrix,
    test_labels: &[Label],
    train_labels: &[Label],
    k: usize,
) -> Result<f64, EvalError> {
    if k == 0 {
        return Err(EvalError::ZeroK);
    }
    check_shapes(e.rows(), e.cols(), test_labels, train_labels)?;
    let correct = (0..e.rows())
        .filter(|&i| predict_row(e.row(i), train_labels, k) == Some(test_labels[i]))
        .count();
    Ok(correct as f64 / test_labels.len().max(1) as f64)
}

/// Predicts one test series from its distance row; `None` with an empty
/// training set (no neighbour exists).
///
/// Distances are ordered by [`f64::total_cmp`], so NaN distances (which a
/// degenerate measure/normalization combination can produce) sort after
/// every finite value instead of panicking, and the selection stays
/// deterministic.
fn predict_row(row: &[f64], train_labels: &[Label], k: usize) -> Option<Label> {
    let k = k.min(train_labels.len());
    let by_distance_then_index = |a: &usize, b: &usize| row[*a].total_cmp(&row[*b]).then(a.cmp(b));
    // Indices of the k smallest distances, in increasing distance order:
    // an O(n) partial selection of the k nearest, then a sort of only
    // those k, instead of sorting the whole row.
    let mut idx: Vec<usize> = (0..row.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, by_distance_then_index);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_distance_then_index);
    majority_vote(&idx[..k], train_labels)
}

/// Majority vote over `neighbours` (training indices in increasing
/// distance order); ties resolve to the class whose nearest member comes
/// first among the neighbours. `None` when `neighbours` is empty.
///
/// Shared between the matrix-backed [`predict_row`] and the scan
/// engine in [`crate::scan`], so both paths vote identically.
pub(crate) fn majority_vote(neighbours: &[usize], train_labels: &[Label]) -> Option<Label> {
    let mut counts: Vec<(Label, usize, usize)> = Vec::new(); // (label, votes, first_pos)
    for (pos, &j) in neighbours.iter().enumerate() {
        let label = train_labels[j];
        match counts.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, votes, _)) => *votes += 1,
            None => counts.push((label, 1, pos)),
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
        .map(|(label, _, _)| label)
}

/// A confusion matrix over `n_classes` dense class labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n_classes: usize,
    /// `counts[truth][predicted]`.
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Builds the 1-NN confusion matrix from `E`.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn from_one_nn(e: &Matrix, test_labels: &[Label], train_labels: &[Label]) -> Self {
        assert_eq!(e.rows(), test_labels.len());
        assert_eq!(e.cols(), train_labels.len());
        assert!(
            !train_labels.is_empty() || test_labels.is_empty(),
            "no training series to predict from"
        );
        let n_classes = test_labels
            .iter()
            .chain(train_labels)
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut counts = vec![vec![0usize; n_classes]; n_classes];
        for (i, &truth) in test_labels.iter().enumerate() {
            let predicted = match predict_row(e.row(i), train_labels, 1) {
                Some(p) => p,
                // The train split was checked non-empty above.
                // tsdist-lint: allow(no-unwrap-in-lib, reason = "train split was checked non-empty above")
                None => unreachable!("non-empty train split always has a neighbour"),
            };
            counts[truth][predicted] += 1;
        }
        ConfusionMatrix { n_classes, counts }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Count of series with true class `truth` predicted as `predicted`.
    pub fn count(&self, truth: Label, predicted: Label) -> usize {
        self.counts[truth][predicted]
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.n_classes).map(|c| self.counts[c][c]).sum();
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Per-class recall (`None` for classes absent from the test split).
    pub fn recall(&self, class: Label) -> Option<f64> {
        let row: usize = self.counts[class].iter().sum();
        if row == 0 {
            None
        } else {
            Some(self.counts[class][class] as f64 / row as f64)
        }
    }

    /// Per-class precision (`None` for classes never predicted).
    pub fn precision(&self, class: Label) -> Option<f64> {
        let col: usize = (0..self.n_classes).map(|t| self.counts[t][class]).sum();
        if col == 0 {
            None
        } else {
            Some(self.counts[class][class] as f64 / col as f64)
        }
    }

    /// Macro-averaged F1 over classes present in the test split.
    pub fn macro_f1(&self) -> f64 {
        let mut f1_sum = 0.0;
        let mut present = 0usize;
        for c in 0..self.n_classes {
            if let Some(r) = self.recall(c) {
                present += 1;
                let p = self.precision(c).unwrap_or(0.0);
                if p + r > 0.0 {
                    f1_sum += 2.0 * p * r / (p + r);
                }
            }
        }
        if present == 0 {
            0.0
        } else {
            f1_sum / present as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_matrix() -> (Matrix, Vec<Label>, Vec<Label>) {
        // 3 train (classes 0,0,1), 4 test.
        let train_labels = vec![0, 0, 1];
        let test_labels = vec![0, 0, 1, 1];
        let e = Matrix::from_vec(
            4,
            3,
            vec![
                0.1, 0.2, 0.9, // -> class 0 (correct)
                0.3, 0.1, 0.8, // -> class 0 (correct)
                0.9, 0.8, 0.1, // -> class 1 (correct)
                0.2, 0.9, 0.3, // -> class 0 (wrong)
            ],
        );
        (e, test_labels, train_labels)
    }

    #[test]
    fn k1_matches_algorithm_1() {
        let (e, test, train) = toy_matrix();
        let knn = knn_accuracy(&e, &test, &train, 1);
        let one_nn = crate::nn::one_nn_accuracy(&e, &test, &train);
        assert_eq!(knn, one_nn);
        assert_eq!(knn, Ok(0.75));
    }

    #[test]
    fn k3_majority_vote() {
        let (e, test, train) = toy_matrix();
        // With k=3 every row votes over labels [0,0,1]: always class 0.
        let acc = knn_accuracy(&e, &test, &train, 3);
        assert_eq!(acc, Ok(0.5));
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let (e, test, train) = toy_matrix();
        assert_eq!(
            knn_accuracy(&e, &test, &train, 99),
            knn_accuracy(&e, &test, &train, 3)
        );
    }

    #[test]
    fn vote_tie_goes_to_nearer_class() {
        // Two train series, one per class, k=2: tie -> nearer one wins.
        let e = Matrix::from_vec(1, 2, vec![0.2, 0.1]);
        let acc = knn_accuracy(&e, &[1], &[0, 1], 2);
        assert_eq!(acc, Ok(1.0));
    }

    #[test]
    fn confusion_matrix_counts_and_metrics() {
        let (e, test, train) = toy_matrix();
        let cm = ConfusionMatrix::from_one_nn(&e, &test, &train);
        assert_eq!(cm.n_classes(), 2);
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.count(1, 0), 1);
        assert_eq!(cm.accuracy(), 0.75);
        assert_eq!(cm.recall(0), Some(1.0));
        assert_eq!(cm.recall(1), Some(0.5));
        assert_eq!(cm.precision(1), Some(1.0));
        let f1 = cm.macro_f1();
        assert!(f1 > 0.7 && f1 < 0.9, "f1 = {f1}");
    }

    #[test]
    fn knn_reports_typed_errors() {
        let (e, test, train) = toy_matrix();
        assert!(matches!(
            knn_accuracy(&e, &test, &train, 0),
            Err(EvalError::ZeroK)
        ));
        assert!(matches!(
            knn_accuracy(&e, &test[..2], &train, 1),
            Err(EvalError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_distances_sort_last_instead_of_panicking() {
        // A NaN distance (degenerate measure/normalization combination)
        // must rank after every finite neighbour deterministically.
        let e = Matrix::from_vec(1, 3, vec![f64::NAN, 0.2, 0.1]);
        assert_eq!(knn_accuracy(&e, &[1], &[0, 0, 1], 1), Ok(1.0));
        assert_eq!(knn_accuracy(&e, &[0], &[0, 0, 1], 2), Ok(0.0));
    }

    #[test]
    fn partial_selection_matches_full_sort_semantics() {
        // Duplicated distances: index order must break ties exactly as the
        // previous full sort did.
        let e = Matrix::from_vec(1, 5, vec![0.3, 0.1, 0.3, 0.1, 0.2]);
        // k=3 nearest are indices 1, 3 (dist 0.1) then 4 (0.2).
        let acc = knn_accuracy(&e, &[1], &[0, 1, 0, 1, 0], 3);
        assert_eq!(acc, Ok(1.0));
    }

    #[test]
    fn absent_class_metrics_are_none() {
        let e = Matrix::from_vec(1, 1, vec![0.5]);
        let cm = ConfusionMatrix::from_one_nn(&e, &[0], &[0]);
        // Only class 0 exists.
        assert_eq!(cm.n_classes(), 1);
        assert_eq!(cm.recall(0), Some(1.0));
    }
}
