//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use tsdist_linalg::{symmetric_eigen, Matrix};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) within floating tolerance.
    #[test]
    fn matmul_is_associative(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn transpose_of_product(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 3),
    ) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    /// Eigendecomposition reconstructs random symmetric matrices and
    /// produces orthonormal eigenvectors with sorted eigenvalues.
    #[test]
    fn eigen_reconstruction(raw in matrix_strategy(5, 5)) {
        let a = Matrix::from_fn(5, 5, |i, j| (raw[(i, j)] + raw[(j, i)]) / 2.0);
        let e = symmetric_eigen(&a);
        // Sorted descending.
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // V V^T == I.
        let vvt = e.vectors.matmul(&e.vectors.transpose());
        prop_assert!(vvt.max_abs_diff(&Matrix::identity(5)) < 1e-8);
        // V diag(values) V^T == A.
        let mut d = Matrix::zeros(5, 5);
        for i in 0..5 {
            d[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&d).matmul(&e.vectors.transpose());
        prop_assert!(a.max_abs_diff(&recon) < 1e-7);
    }

    /// Trace is preserved by the eigendecomposition (sum of eigenvalues).
    #[test]
    fn eigenvalues_sum_to_trace(raw in matrix_strategy(4, 4)) {
        let a = Matrix::from_fn(4, 4, |i, j| (raw[(i, j)] + raw[(j, i)]) / 2.0);
        let trace: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let e = symmetric_eigen(&a);
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
    }
}
