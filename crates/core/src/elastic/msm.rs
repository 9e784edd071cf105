//! The Move–Split–Merge distance (Stefan, Athitsos & Das 2013).
//!
//! MSM edits one series into the other with three operations — move
//! (substitute, cost = value change), split, and merge (both cost the
//! constant `c`) — and, unlike DTW/LCSS/EDR, is a *metric*. It is one of
//! the two measures (with TWE) that the paper finds significantly better
//! than DTW, debunking M4.

use super::batch::{self, LaneBlock};
use super::eapruned::rows_upto;
use crate::lanes::LANES;
use crate::measure::Distance;
use crate::workspace::Workspace;

/// MSM distance with split/merge cost `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msm {
    /// The split/merge cost (Table 4 tunes `c` over
    /// `{0.01, ..., 500}`; the paper's unsupervised pick is `c = 0.5`).
    pub cost: f64,
}

impl Msm {
    /// Creates MSM with the given split/merge cost.
    ///
    /// # Panics
    /// Panics if `cost` is negative.
    pub fn new(cost: f64) -> Self {
        assert!(cost >= 0.0, "MSM cost must be non-negative, got {cost}");
        Msm { cost }
    }

    /// The split/merge cost function C(new, adjacent, opposite):
    /// `c` when `new` lies between its neighbours, otherwise `c` plus the
    /// distance to the nearer neighbour. Non-short-circuit `&`/`|` and a
    /// final select keep it branch-free. The batch-axis row kernel uses
    /// an interval form of the same cost that is equal on finite inputs;
    /// this form also fixes what NaN and ±∞ inputs give.
    #[inline]
    fn c(&self, new: f64, adjacent: f64, opposite: f64) -> f64 {
        let between = (adjacent <= new) & (new <= opposite) | (adjacent >= new) & (new >= opposite);
        let far = self.cost + (new - adjacent).abs().min((new - opposite).abs());
        if between {
            self.cost
        } else {
            far
        }
    }
}

impl Distance for Msm {
    fn name(&self) -> String {
        format!("MSM(c={})", self.cost)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // With no cutoff, `rows_upto` runs its exact sweep.
        self.distance_upto(x, y, ws, f64::INFINITY)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        // Row-major: the left-neighbour (merge) term serializes each
        // row, and diagonal order measured ~2x slower for MSM. Matrix
        // rows get their SIMD lanes from `distance_row_ws` instead.
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::INFINITY };
        }
        // 0-based: row 0 and column 0 hold the first samples' chains.
        rows_upto(
            (m, n),
            (x[0] - y[0]).abs(),
            cutoff,
            ws,
            |j, left| left + self.c(y[j], y[j - 1], x[0]),
            |i, up| up + self.c(x[i], x[i - 1], y[0]),
            #[inline(always)]
            |i, j, diag, up, left| {
                let move_cost = diag + (x[i] - y[j]).abs();
                let split_x = up + self.c(x[i], x[i - 1], y[j]);
                let merge_y = left + self.c(y[j], x[i], y[j - 1]);
                move_cost.min(split_x).min(merge_y)
            },
        )
    }

    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        batch::row_ws::<LANES, _>(self, x, cols, out, ws);
    }
}

impl LaneBlock<LANES> for Msm {
    fn block_ws(
        &self,
        x: &[f64],
        cols: &[&[f64]; LANES],
        ws: &mut Workspace,
    ) -> Option<[f64; LANES]> {
        batch::msm_block_ws(self.cost, x, cols, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 5] = [0.0, 1.0, 2.0, 1.0, 0.0];

    #[test]
    fn identical_series_zero() {
        assert_eq!(Msm::new(0.5).distance(&X, &X), 0.0);
    }

    #[test]
    fn symmetric() {
        let y = [0.5, 1.5, 1.0, 0.0, 2.0];
        let m = Msm::new(0.5);
        assert!((m.distance(&X, &y) - m.distance(&y, &X)).abs() < 1e-12);
    }

    #[test]
    fn single_point_is_absolute_difference() {
        assert_eq!(Msm::new(1.0).distance(&[3.0], &[5.5]), 2.5);
    }

    #[test]
    fn triangle_inequality_holds() {
        // MSM is a metric; verify on a grid of small examples.
        let series = [
            vec![0.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 3.0, 0.0],
        ];
        let m = Msm::new(0.3);
        for a in &series {
            for b in &series {
                for c in &series {
                    let ab = m.distance(a, b);
                    let bc = m.distance(b, c);
                    let ac = m.distance(a, c);
                    assert!(ac <= ab + bc + 1e-9, "triangle violated");
                }
            }
        }
    }

    #[test]
    fn split_merge_costs_bound_stretch() {
        // y repeats a value of x: one split (cost c) suffices.
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 1.0, 2.0];
        let c = 0.25;
        let d = Msm::new(c).distance(&x, &y);
        assert!((d - c).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn higher_cost_penalizes_warping_more() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 0.0, 1.0, 2.0]; // needs one stretch
        let cheap = Msm::new(0.01).distance(&x, &y);
        let pricey = Msm::new(10.0).distance(&x, &y);
        assert!(cheap < pricey);
    }

    #[test]
    fn unequal_lengths_supported() {
        let d = Msm::new(0.5).distance(&[1.0, 2.0], &[1.0, 1.5, 2.0, 2.5, 3.0]);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let _ = Msm::new(-1.0);
    }
}
