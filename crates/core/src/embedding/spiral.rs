//! SPIRAL: Similarity-PreservIng RepresentAtion Learning (Lei et al.
//! 2017).
//!
//! SPIRAL builds a partial DTW similarity matrix and factorizes it so
//! that inner products of the representations preserve the sampled
//! similarities. Our from-scratch variant samples the similarity matrix
//! at `k` landmark columns and factorizes with the Nyström method —
//! the same "preserve a sampled similarity matrix by low-rank
//! factorization" construction, with the landmark pattern replacing
//! uniform random sampling (documented as a simplification in
//! `DESIGN.md`).

use super::{select_landmarks, Embedding};
use crate::elastic::Dtw;
use crate::measure::Distance;
use crate::workspace::Workspace;
use tsdist_linalg::{nystroem_features, Matrix};

/// The SPIRAL embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spiral {
    /// Bandwidth γ of the DTW-to-similarity transform
    /// `s = exp(-DTW / (γ m))`.
    pub gamma: f64,
    /// Number of landmark columns sampled from the similarity matrix.
    pub landmarks: usize,
    /// Representation length.
    pub dims: usize,
    /// Seed for landmark selection.
    pub seed: u64,
}

impl Spiral {
    /// Creates a SPIRAL embedder.
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not positive or `landmarks`/`dims` is
    /// zero.
    pub fn new(gamma: f64, landmarks: usize, dims: usize, seed: u64) -> Self {
        assert!(gamma > 0.0, "SPIRAL gamma must be positive");
        assert!(
            landmarks > 0 && dims > 0,
            "landmarks and dims must be positive"
        );
        Spiral {
            gamma,
            landmarks,
            dims,
            seed,
        }
    }

    fn similarity(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let dtw = Dtw::unconstrained().distance_ws(x, y, ws);
        (-dtw / (self.gamma * x.len().max(1) as f64)).exp()
    }
}

impl Embedding for Spiral {
    fn name(&self) -> String {
        format!("SPIRAL(γ={})", self.gamma)
    }

    fn embed(&self, series: &[Vec<f64>], n_train: usize) -> Matrix {
        let lm_idx = select_landmarks(series, n_train.max(1), self.landmarks, self.seed);
        let k = lm_idx.len();
        let n = series.len();

        let mut ws = Workspace::new();
        let s_ll = Matrix::from_fn(k, k, |i, j| {
            self.similarity(&series[lm_idx[i]], &series[lm_idx[j]], &mut ws)
        });
        let s_nl = Matrix::from_fn(n, k, |i, j| {
            self.similarity(&series[i], &series[lm_idx[j]], &mut ws)
        });
        nystroem_features(&s_ll, &s_nl, self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| (j as f64 * 0.4 + (i % 3) as f64 * 2.0).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn shape_is_respected() {
        let s = toy(9, 20);
        let z = Spiral::new(1.0, 6, 4, 2).embed(&s, 7);
        assert_eq!(z.rows(), 9);
        assert!(z.cols() <= 4);
    }

    #[test]
    fn self_similarity_is_one() {
        let s = toy(3, 16);
        let sp = Spiral::new(1.0, 3, 3, 0);
        assert!((sp.similarity(&s[0], &s[0], &mut Workspace::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_class_series_embed_nearby() {
        // Classes repeat with period 3 in `toy`.
        let s = toy(9, 24);
        let z = Spiral::new(1.0, 6, 6, 0).embed(&s, 9);
        let ed = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>()
        };
        // Series 0 and 3 share a class; 0 and 1 do not.
        assert!(ed(z.row(0), z.row(3)) < ed(z.row(0), z.row(1)));
    }

    #[test]
    fn preserves_landmark_similarities_when_landmarks_cover_everything() {
        let s = toy(5, 16);
        let sp = Spiral::new(1.0, 5, 5, 0);
        let z = sp.embed(&s, 5);
        let mut ws = Workspace::new();
        for i in 0..5 {
            for j in 0..5 {
                let approx: f64 = z.row(i).iter().zip(z.row(j)).map(|(a, b)| a * b).sum();
                let exact = sp.similarity(&s[i], &s[j], &mut ws);
                assert!(
                    (approx - exact).abs() < 1e-6,
                    "({i},{j}): {approx} vs {exact}"
                );
            }
        }
    }
}
