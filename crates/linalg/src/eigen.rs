//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The embedding measures need eigenpairs of small symmetric kernel
//! matrices (landmark Gram matrices of size k x k, with k around 20-100).
//! The Jacobi method is simple, numerically robust, and delivers full
//! accuracy for this size regime; asymptotically faster methods are not
//! worth their complexity here.

use crate::matrix::Matrix;

/// Eigendecomposition of a symmetric matrix: `a = V diag(values) V^T`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Column `j` of this matrix is the eigenvector for `values[j]`.
    pub vectors: Matrix,
}

/// Computes all eigenvalues and eigenvectors of a symmetric matrix using
/// cyclic Jacobi rotations.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn symmetric_eigen(a: &Matrix) -> SymmetricEigen {
    assert_eq!(
        a.rows(),
        a.cols(),
        "eigendecomposition requires a square matrix"
    );
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    if n == 0 {
        return SymmetricEigen {
            values: Vec::new(),
            vectors: v,
        };
    }

    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        // Sum of squares of the strict upper triangle.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= 1e-12 * (1.0 + m.frobenius_norm()) {
            break;
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Rotation angle from the standard Jacobi formulas.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation: rows/columns p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Collect and sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let values_raw: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| values_raw[j].total_cmp(&values_raw[i]));

    let values: Vec<f64> = order.iter().map(|&i| values_raw[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    SymmetricEigen { values, vectors }
}

/// Nyström feature map: given the landmark kernel matrix `k_ll` (k x k,
/// symmetric PSD) and the data-to-landmark kernel matrix `k_nl` (n x k),
/// returns an `n x d` representation `Z = K_nl * U_d * diag(lambda_d)^{-1/2}`
/// such that `Z Z^T` approximates the full kernel matrix.
///
/// Eigenvalues below `1e-10 * lambda_max` are discarded; `d` is capped at
/// `dims`.
///
/// # Panics
///
/// Panics when `k_ll` is not square or `k_nl`'s column count differs
/// from the landmark count — mismatched kernel blocks have no Nyström
/// factorization.
pub fn nystroem_features(k_ll: &Matrix, k_nl: &Matrix, dims: usize) -> Matrix {
    assert_eq!(k_ll.rows(), k_ll.cols(), "landmark kernel must be square");
    assert_eq!(
        k_nl.cols(),
        k_ll.rows(),
        "data-to-landmark kernel has wrong width"
    );
    let eig = symmetric_eigen(k_ll);
    let lam_max = eig.values.first().copied().unwrap_or(0.0).max(0.0);
    let keep: Vec<usize> = (0..eig.values.len())
        .filter(|&i| eig.values[i] > 1e-10 * lam_max && eig.values[i] > 0.0)
        .take(dims)
        .collect();

    let n = k_nl.rows();
    let mut z = Matrix::zeros(n, keep.len());
    for (out_j, &j) in keep.iter().enumerate() {
        let inv_sqrt = 1.0 / eig.values[j].sqrt();
        for i in 0..n {
            let mut acc = 0.0;
            for l in 0..k_ll.rows() {
                acc += k_nl[(i, l)] * eig.vectors[(l, j)];
            }
            z[(i, out_j)] = acc * inv_sqrt;
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        let n = e.values.len();
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            d[(i, i)] = e.values[i];
        }
        e.vectors.matmul(&d).matmul(&e.vectors.transpose())
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_the_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -1.0;
        a[(2, 2)] = 2.0;
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_recovers_input() {
        // A random-ish symmetric matrix.
        let n = 6;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let a = Matrix::from_fn(n, n, |i, j| (b[(i, j)] + b[(j, i)]) / 2.0);
        let e = symmetric_eigen(&a);
        let r = reconstruct(&e);
        assert!(a.max_abs_diff(&r) < 1e-8, "diff {}", a.max_abs_diff(&r));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 5;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = symmetric_eigen(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn nystroem_reproduces_gram_matrix_exactly_when_landmarks_are_all_points() {
        // With landmarks == all points, Z Z^T must equal K (up to dropped
        // near-zero eigenvalues).
        let n = 5;
        // A PSD kernel: K = B B^T.
        let b = Matrix::from_fn(n, 3, |i, j| ((i + 2 * j) % 4) as f64 * 0.5 + 0.1);
        let k = b.matmul(&b.transpose());
        let z = nystroem_features(&k, &k, n);
        let approx = z.matmul(&z.transpose());
        assert!(
            k.max_abs_diff(&approx) < 1e-8,
            "diff {}",
            k.max_abs_diff(&approx)
        );
    }

    #[test]
    fn empty_matrix_is_handled() {
        let a = Matrix::zeros(0, 0);
        let e = symmetric_eigen(&a);
        assert!(e.values.is_empty());
    }
}
