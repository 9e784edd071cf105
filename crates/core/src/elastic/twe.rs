//! The Time Warp Edit distance (Marteau 2008).
//!
//! TWE combines LCSS-style editing with DTW-style warping: a stiffness
//! parameter `ν` charges for warping in *time* (multiplied by the
//! timestamp gap) and `λ` penalizes delete operations. With MSM, it is
//! one of the two measures the paper finds significantly better than DTW.

use super::batch::{self, LaneBlock};
use super::eapruned::rows_upto;
use crate::lanes::LANES;
use crate::measure::Distance;
use crate::workspace::Workspace;

/// TWE distance with deletion penalty `lambda` and stiffness `nu`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Twe {
    /// Deletion penalty λ (Table 4: `{0, 0.25, 0.5, 0.75, 1.0}`).
    pub lambda: f64,
    /// Stiffness ν (Table 4: `{1e-5, ..., 1}`); the unsupervised pick is
    /// `λ = 1, ν = 1e-4`.
    pub nu: f64,
}

impl Twe {
    /// Creates TWE.
    ///
    /// # Panics
    /// Panics if either parameter is negative.
    pub fn new(lambda: f64, nu: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        assert!(nu >= 0.0, "nu must be non-negative");
        Twe { lambda, nu }
    }
}

impl Distance for Twe {
    fn name(&self) -> String {
        format!("TWE(λ={},ν={})", self.lambda, self.nu)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // With no cutoff, `rows_upto` runs its exact sweep.
        self.distance_upto(x, y, ws, f64::INFINITY)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        // Row-major: the anti-diagonal order measured 1.1-1.8x slower
        // for TWE (DESIGN.md §9.2). Matrix rows get their SIMD lanes
        // from `distance_row_ws` instead.
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::INFINITY };
        }
        // 1-based with an implicit 0th sample equal to 0 (Marteau's
        // convention); timestamps are the indices.
        let xi = |i: usize| if i == 0 { 0.0 } else { x[i - 1] };
        let yj = |j: usize| if j == 0 { 0.0 } else { y[j - 1] };
        // Row 0 deletes all of y, column 0 all of x.
        rows_upto(
            (m + 1, n + 1),
            0.0,
            cutoff,
            ws,
            |j, left| left + (yj(j) - yj(j - 1)).abs() + self.nu + self.lambda,
            |i, up| up + (xi(i) - xi(i - 1)).abs() + self.nu + self.lambda,
            #[inline(always)]
            |i, j, diag, up, left| {
                // Match both current samples (and their predecessors),
                // delete in x, delete in y.
                let m_cost = diag
                    + (xi(i) - yj(j)).abs()
                    + (xi(i - 1) - yj(j - 1)).abs()
                    + 2.0 * self.nu * (i as f64 - j as f64).abs();
                let dx = up + (xi(i) - xi(i - 1)).abs() + self.nu + self.lambda;
                let dy = left + (yj(j) - yj(j - 1)).abs() + self.nu + self.lambda;
                m_cost.min(dx).min(dy)
            },
        )
    }

    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        batch::row_ws::<LANES, _>(self, x, cols, out, ws);
    }
}

impl LaneBlock<LANES> for Twe {
    fn block_ws(
        &self,
        x: &[f64],
        cols: &[&[f64]; LANES],
        ws: &mut Workspace,
    ) -> Option<[f64; LANES]> {
        batch::twe_block_ws(self.lambda, self.nu, x, cols, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 5] = [0.0, 1.0, 2.0, 1.0, 0.0];

    #[test]
    fn identical_series_zero() {
        assert_eq!(Twe::new(1.0, 1e-4).distance(&X, &X), 0.0);
    }

    #[test]
    fn symmetric() {
        let y = [0.5, 1.5, 1.0, 0.0, 2.0];
        let t = Twe::new(0.5, 0.01);
        assert!((t.distance(&X, &y) - t.distance(&y, &X)).abs() < 1e-12);
    }

    #[test]
    fn positive_for_different_series() {
        let y = [1.0, 0.0, 1.0, 2.0, 1.0];
        assert!(Twe::new(1.0, 1e-4).distance(&X, &y) > 0.0);
    }

    #[test]
    fn stiffness_penalizes_time_warping() {
        // A shifted spike requires warping; higher nu should cost more.
        let x: Vec<f64> = (0..20).map(|i| if i == 5 { 3.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..20).map(|i| if i == 12 { 3.0 } else { 0.0 }).collect();
        let loose = Twe::new(0.0, 1e-5).distance(&x, &y);
        let stiff = Twe::new(0.0, 1.0).distance(&x, &y);
        assert!(stiff > loose);
    }

    #[test]
    fn lambda_penalizes_deletions() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 1.5, 2.0]; // one extra sample to delete
        let cheap = Twe::new(0.0, 1e-4).distance(&x, &y);
        let pricey = Twe::new(1.0, 1e-4).distance(&x, &y);
        assert!(pricey >= cheap);
    }

    #[test]
    fn triangle_inequality_spot_check() {
        // TWE is a metric for nu > 0.
        let series = [
            vec![0.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0],
            vec![1.0, 0.0, 1.0],
        ];
        let t = Twe::new(0.5, 0.1);
        for a in &series {
            for b in &series {
                for c in &series {
                    let ab = t.distance(a, b);
                    let bc = t.distance(b, c);
                    let ac = t.distance(a, c);
                    assert!(ac <= ab + bc + 1e-9);
                }
            }
        }
    }

    #[test]
    fn unequal_lengths_supported() {
        let d = Twe::new(1.0, 1e-4).distance(&[1.0, 2.0], &[1.0, 1.5, 2.0, 2.5]);
        assert!(d.is_finite() && d > 0.0);
    }
}
