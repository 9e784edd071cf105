//! Property-based tests for the evaluation platform.

use proptest::prelude::*;
use tsdist_eval::{knn_accuracy, loocv_accuracy, one_nn_accuracy, parallel_map};
use tsdist_linalg::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accuracy is always a probability, and k=1 kNN equals Algorithm 1.
    #[test]
    fn accuracies_are_probabilities_and_k1_matches(
        r in 1usize..8,
        p in 1usize..8,
        data in proptest::collection::vec(0.0f64..100.0, 64),
        labels in proptest::collection::vec(0usize..3, 16),
    ) {
        let e = Matrix::from_fn(r, p, |i, j| data[(i * p + j) % data.len()]);
        let test_labels: Vec<usize> = (0..r).map(|i| labels[i % labels.len()]).collect();
        let train_labels: Vec<usize> = (0..p).map(|i| labels[(i + 5) % labels.len()]).collect();
        let acc = one_nn_accuracy(&e, &test_labels, &train_labels).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert_eq!(Ok(acc), knn_accuracy(&e, &test_labels, &train_labels, 1));
    }

    /// LOOCV accuracy is invariant to the matrix diagonal (self-distances
    /// are excluded by construction).
    #[test]
    fn loocv_ignores_diagonal(
        n in 2usize..8,
        data in proptest::collection::vec(0.01f64..100.0, 64),
        diag in proptest::collection::vec(-1000.0f64..1000.0, 8),
        labels in proptest::collection::vec(0usize..3, 8),
    ) {
        let labels: Vec<usize> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let w = Matrix::from_fn(n, n, |i, j| data[(i * n + j) % data.len()]);
        let mut w2 = w.clone();
        for i in 0..n {
            w2[(i, i)] = diag[i % diag.len()];
        }
        prop_assert_eq!(loocv_accuracy(&w, &labels), loocv_accuracy(&w2, &labels));
    }

    /// parallel_map is exactly a map.
    #[test]
    fn parallel_map_is_a_map(n in 0usize..200, mult in 1usize..100) {
        let out = parallel_map(n, |i| i * mult);
        let expected: Vec<usize> = (0..n).map(|i| i * mult).collect();
        prop_assert_eq!(out, expected);
    }

    /// A strictly-better duplicate of the true class in the training set
    /// can only improve 1-NN accuracy (monotonicity sanity).
    #[test]
    fn adding_perfect_neighbour_never_hurts(
        r in 1usize..6,
        p in 1usize..6,
        data in proptest::collection::vec(0.1f64..10.0, 36),
        labels in proptest::collection::vec(0usize..2, 12),
    ) {
        let e = Matrix::from_fn(r, p, |i, j| data[(i * p + j) % data.len()]);
        let test_labels: Vec<usize> = (0..r).map(|i| labels[i % labels.len()]).collect();
        let train_labels: Vec<usize> = (0..p).map(|i| labels[(i + 3) % labels.len()]).collect();
        let base = one_nn_accuracy(&e, &test_labels, &train_labels).unwrap();

        // Append one column per test row with distance 0 and the true label?
        // That needs per-row labels; instead append a zero-distance column
        // labelled with the first test row's class and check that row is
        // now correct.
        let e2 = Matrix::from_fn(r, p + 1, |i, j| {
            if j < p { e[(i, j)] } else if i == 0 { 0.0 } else { f64::INFINITY }
        });
        let mut train2 = train_labels.clone();
        train2.push(test_labels[0]);
        let improved = one_nn_accuracy(&e2, &test_labels, &train2).unwrap();
        prop_assert!(improved >= base - 1e-12);
    }
}
