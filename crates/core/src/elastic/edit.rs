//! The edit-distance-based elastic measures: LCSS, EDR, ERP, and Swale.

use super::band_radius;
use super::eapruned::{rows_upto, rows_ws};
use crate::measure::Distance;
use crate::workspace::Workspace;

/// Longest Common Subsequence distance (Vlachos et al. 2002).
///
/// Two points match when they differ by less than `epsilon`; matching is
/// restricted to a temporal window of `delta_pct`% of the series length.
/// The distance is `1 - LCSS / min(m, n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lcss {
    /// Value-match threshold.
    pub epsilon: f64,
    /// Warping window as a percentage of the series length.
    pub delta_pct: f64,
}

impl Lcss {
    /// Creates LCSS with threshold `epsilon` and window `delta_pct`%.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is negative or `delta_pct` is outside
    /// `[0, 100]` — construction-time validation so every later
    /// distance call runs unchecked.
    pub fn new(epsilon: f64, delta_pct: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        assert!(
            (0.0..=100.0).contains(&delta_pct),
            "delta percentage must be within [0, 100]"
        );
        Lcss { epsilon, delta_pct }
    }
}

impl Distance for Lcss {
    fn name(&self) -> String {
        format!("LCSS(ε={},δ={})", self.epsilon, self.delta_pct)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return 1.0;
        }
        let band = band_radius(self.delta_pct, m, n);

        let (mut prev, mut curr) = ws.int_rows2(n + 1);
        prev.fill(0);
        for i in 1..=m {
            curr.fill(0);
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(n);
            for j in lo..=hi {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "branchy threshold recurrence; the comparison chain, not the bounds check, dominates and blocks vectorization")
                if (x[i - 1] - y[j - 1]).abs() < self.epsilon {
                    curr[j] = prev[j - 1] + 1;
                } else {
                    curr[j] = prev[j].max(curr[j - 1]);
                }
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        let lcss = prev.iter().copied().max().unwrap_or(0) as f64;
        1.0 - lcss / m.min(n) as f64
    }
}

/// Edit Distance on Real sequences (Chen et al. 2005).
///
/// Points within `epsilon` match at cost 0, otherwise substitution,
/// insertion, and deletion all cost 1. Normalized by the longer length so
/// that values are comparable across datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edr {
    /// Value-match threshold.
    pub epsilon: f64,
}

impl Edr {
    /// Creates EDR with threshold `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is negative.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Edr { epsilon }
    }
}

impl Distance for Edr {
    fn name(&self) -> String {
        format!("EDR(ε={})", self.epsilon)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { 1.0 };
        }
        // Counts are small integers, exact in `f64`.
        let edits = rows_ws(
            (m + 1, n + 1),
            0.0,
            ws,
            |j, _| j as f64,
            |i, _| i as f64,
            #[inline(always)]
            |i, j, diag, up, left| {
                let subcost = f64::from((x[i - 1] - y[j - 1]).abs() > self.epsilon);
                (diag + subcost).min(up + 1.0).min(left + 1.0)
            },
        );
        edits / m.max(n) as f64
    }
}

/// Edit distance with Real Penalty (Chen & Ng 2004).
///
/// ERP bridges DTW and edit distances: gaps are measured against a
/// constant reference value `g` (canonically 0), making ERP a metric and,
/// notably, the only parameter-free elastic measure in the study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erp {
    /// The gap reference value; the literature standard is 0.
    pub gap: f64,
}

impl Default for Erp {
    fn default() -> Self {
        Erp { gap: 0.0 }
    }
}

impl Erp {
    /// ERP with gap reference `g = 0`.
    pub fn new() -> Self {
        Erp::default()
    }
}

impl Distance for Erp {
    fn name(&self) -> String {
        "ERP".into()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // With no cutoff, `rows_upto` runs its exact sweep.
        self.distance_upto(x, y, ws, f64::INFINITY)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        // Row-major: the anti-diagonal order was not reliably faster for
        // ERP (DESIGN.md §9.2).
        let g = self.gap;
        // Row 0 deletes all of y against gaps, column 0 all of x.
        rows_upto(
            (x.len() + 1, y.len() + 1),
            0.0,
            cutoff,
            ws,
            |j, left| left + (y[j - 1] - g).abs(),
            |i, up| up + (x[i - 1] - g).abs(),
            #[inline(always)]
            |i, j, diag, up, left| {
                let match_cost = diag + (x[i - 1] - y[j - 1]).abs();
                let del_x = up + (x[i - 1] - g).abs();
                let del_y = left + (y[j - 1] - g).abs();
                match_cost.min(del_x).min(del_y)
            },
        )
    }
}

/// Sequence Weighted ALignmEnt (Swale; Morse & Patel 2007).
///
/// A similarity model: matching points (within `epsilon`) earn `reward`,
/// gaps pay `penalty`. The similarity is negated into a dissimilarity for
/// 1-NN use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Swale {
    /// Value-match threshold.
    pub epsilon: f64,
    /// Score for each matched pair.
    pub reward: f64,
    /// Cost deducted for each gap.
    pub penalty: f64,
}

impl Swale {
    /// Creates Swale with the paper's parameterization (Table 4 uses
    /// `reward = 1`, `penalty = 5` and tunes `epsilon`).
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is negative.
    pub fn new(epsilon: f64, reward: f64, penalty: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Swale {
            epsilon,
            reward,
            penalty,
        }
    }
}

impl Distance for Swale {
    fn name(&self) -> String {
        format!(
            "Swale(ε={},r={},p={})",
            self.epsilon, self.reward, self.penalty
        )
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return 0.0;
        }
        // Boundary cells pay one gap per skipped point.
        let gaps = |k: usize| -self.penalty * k as f64;
        let score = rows_ws(
            (m + 1, n + 1),
            gaps(0),
            ws,
            |j, _| gaps(j),
            |i, _| gaps(i),
            #[inline(always)]
            |i, j, diag, up, left| {
                if (x[i - 1] - y[j - 1]).abs() <= self.epsilon {
                    diag + self.reward
                } else {
                    (up - self.penalty).max(left - self.penalty)
                }
            },
        );
        -score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 6] = [0.0, 0.5, 1.0, 0.5, 0.0, -0.5];
    const Y: [f64; 6] = [0.1, 0.6, 0.9, 0.4, 0.1, -0.4];

    #[test]
    fn lcss_identical_series_have_zero_distance() {
        let d = Lcss::new(0.1, 100.0).distance(&X, &X);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn lcss_close_series_match_fully_with_generous_epsilon() {
        let d = Lcss::new(0.2, 100.0).distance(&X, &Y);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn lcss_tiny_epsilon_matches_nothing() {
        let d = Lcss::new(1e-9, 100.0).distance(&X, &Y);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn lcss_distance_decreases_with_epsilon() {
        let mut last = 2.0;
        for eps in [0.01, 0.05, 0.12, 0.3, 1.0] {
            let d = Lcss::new(eps, 100.0).distance(&X, &Y);
            assert!(d <= last);
            last = d;
        }
    }

    #[test]
    fn edr_identical_is_zero_and_disjoint_is_one() {
        assert_eq!(Edr::new(0.1).distance(&X, &X), 0.0);
        let far: Vec<f64> = X.iter().map(|v| v + 100.0).collect();
        assert_eq!(Edr::new(0.1).distance(&X, &far), 1.0);
    }

    #[test]
    fn edr_counts_one_edit_for_one_outlier() {
        let mut y = X;
        y[3] = 50.0;
        let d = Edr::new(0.1).distance(&X, &y);
        assert!((d - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn erp_identical_is_zero() {
        assert_eq!(Erp::new().distance(&X, &X), 0.0);
    }

    #[test]
    fn erp_equal_length_upper_bounded_by_l1() {
        // Matching everything without gaps costs exactly L1.
        let l1: f64 = X.iter().zip(&Y).map(|(a, b)| (a - b).abs()).sum();
        let erp = Erp::new().distance(&X, &Y);
        assert!(erp <= l1 + 1e-12);
    }

    #[test]
    fn erp_triangle_inequality_spot_check() {
        let z = [0.3, -0.1, 0.8, 0.2, 0.9, -1.0];
        let dxy = Erp::new().distance(&X, &Y);
        let dyz = Erp::new().distance(&Y, &z);
        let dxz = Erp::new().distance(&X, &z);
        assert!(dxz <= dxy + dyz + 1e-9, "ERP should be a metric");
    }

    #[test]
    fn erp_gap_handling_on_unequal_lengths() {
        let short = [1.0, 2.0];
        let long = [1.0, 0.0, 2.0];
        // Optimal: match 1-1, gap the 0 (cost |0 - 0| = 0), match 2-2.
        let d = Erp::new().distance(&short, &long);
        assert!(d.abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn swale_rewards_full_matches() {
        let s = Swale::new(0.2, 1.0, 5.0);
        // All 6 points match: similarity 6, distance -6.
        assert_eq!(s.distance(&X, &Y), -6.0);
    }

    #[test]
    fn swale_penalizes_gaps() {
        let s = Swale::new(0.01, 1.0, 5.0);
        let far: Vec<f64> = X.iter().map(|v| v + 100.0).collect();
        // Nothing matches; the best alignment pays gap penalties.
        assert!(s.distance(&X, &far) > 0.0);
    }

    #[test]
    fn swale_better_match_gives_smaller_distance() {
        let s = Swale::new(0.2, 1.0, 5.0);
        let half_match: Vec<f64> = X
            .iter()
            .enumerate()
            .map(|(i, v)| if i < 3 { *v } else { v + 10.0 })
            .collect();
        assert!(s.distance(&X, &Y) < s.distance(&X, &half_match));
    }

    #[test]
    fn lcss_band_limits_matching() {
        // A large shift defeats a narrow band but not a wide one.
        let mut shifted = [0.0; 6];
        shifted[3..6].copy_from_slice(&X[0..3]);
        let narrow = Lcss::new(0.05, 5.0).distance(&X, &shifted);
        let wide = Lcss::new(0.05, 100.0).distance(&X, &shifted);
        assert!(wide <= narrow);
    }
}
