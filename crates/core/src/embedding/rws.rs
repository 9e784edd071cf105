//! RWS: Random Warping Series (Wu et al. 2018).
//!
//! RWS approximates an alignment kernel with random features: `R` short
//! random series are sampled (lengths up to `D_max = 25`, as in Table 4),
//! and each time series is represented by its alignment score against
//! each random series, `φ_r(x) = exp(-DTW(x, ω_r) / (γ m)) / sqrt(R)`.
//!
//! This is a simplified variant of the original (which uses the GAK
//! alignment soft-score); the essential property — a fixed-length,
//! warping-aware random feature map whose ED approximates an alignment
//! kernel — is retained.

use super::Embedding;
use crate::elastic::Dtw;
use crate::measure::Distance;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsdist_linalg::Matrix;

/// The RWS embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rws {
    /// Alignment bandwidth γ (Table 4's grid, 1e-3 ..= 1e3).
    pub gamma: f64,
    /// Number of random series `R` = representation length.
    pub features: usize,
    /// Maximum random-series length `D_max` (Table 4: 25).
    pub d_max: usize,
    /// Seed for the random series.
    pub seed: u64,
}

impl Rws {
    /// Creates an RWS embedder.
    ///
    /// # Panics
    ///
    /// Panics when `gamma` is not positive, `features` is zero, or
    /// `d_max` is zero.
    pub fn new(gamma: f64, features: usize, d_max: usize, seed: u64) -> Self {
        assert!(gamma > 0.0, "RWS gamma must be positive");
        assert!(features > 0, "RWS needs at least one feature");
        assert!(d_max >= 1, "RWS needs positive random-series length");
        Rws {
            gamma,
            features,
            d_max,
            seed,
        }
    }

    fn random_series(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        (0..self.features)
            .map(|_| {
                let len = rng.gen_range(1..=self.d_max);
                (0..len)
                    .map(|_| {
                        // Box–Muller standard normal.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    })
                    .collect()
            })
            .collect()
    }
}

impl Embedding for Rws {
    fn name(&self) -> String {
        format!("RWS(γ={})", self.gamma)
    }

    fn embed(&self, series: &[Vec<f64>], _n_train: usize) -> Matrix {
        let omegas = self.random_series();
        let scale = 1.0 / (self.features as f64).sqrt();
        let dtw = Dtw::unconstrained();
        let mut ws = Workspace::new();
        Matrix::from_fn(series.len(), self.features, |i, r| {
            let x = &series[i];
            let d = dtw.distance_ws(x, &omegas[r], &mut ws);
            scale * (-d / (self.gamma * x.len().max(1) as f64)).exp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| (0..m).map(|j| (j as f64 * 0.3 + i as f64).sin()).collect())
            .collect()
    }

    #[test]
    fn shape_and_bounds() {
        let s = toy(8, 20);
        let z = Rws::new(1.0, 10, 25, 5).embed(&s, 8);
        assert_eq!(z.rows(), 8);
        assert_eq!(z.cols(), 10);
        let scale = 1.0 / 10f64.sqrt();
        for i in 0..8 {
            for &v in z.row(i) {
                assert!(v > 0.0 && v <= scale + 1e-12);
            }
        }
    }

    #[test]
    fn identical_series_identical_features() {
        let mut s = toy(4, 16);
        s.push(s[2].clone());
        let z = Rws::new(1.0, 8, 10, 1).embed(&s, 4);
        for c in 0..z.cols() {
            assert_eq!(z[(2, c)], z[(4, c)]);
        }
    }

    #[test]
    fn different_seeds_give_different_features() {
        let s = toy(4, 16);
        let a = Rws::new(1.0, 8, 10, 1).embed(&s, 4);
        let b = Rws::new(1.0, 8, 10, 2).embed(&s, 4);
        assert!(a.max_abs_diff(&b) > 1e-9);
    }

    #[test]
    fn warped_copies_embed_nearby() {
        let m = 40;
        let x: Vec<f64> = (0..m)
            .map(|i| (-((i as f64 - 20.0) / 5.0).powi(2) / 2.0).exp())
            .collect();
        let warped: Vec<f64> = (0..m)
            .map(|i| {
                let t = (i as f64 / (m - 1) as f64).powf(1.2) * (m - 1) as f64;
                let d = (t - 20.0) / 5.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let unrelated: Vec<f64> = (0..m).map(|i| ((i * 13 % 7) as f64) / 3.0).collect();
        let z = Rws::new(1.0, 32, 25, 11).embed(&[x, warped, unrelated], 3);
        let ed = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>()
        };
        assert!(ed(z.row(0), z.row(1)) < ed(z.row(0), z.row(2)));
    }
}
