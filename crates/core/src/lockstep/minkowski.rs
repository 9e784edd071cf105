//! The Minkowski (Lp) family: Euclidean, City-block, Minkowski, Chebyshev.

use super::lockstep_measure;
use crate::lanes::{lane_sum, lane_sum_upto, lane_sum_upto_by};
use crate::measure::Distance;
use crate::workspace::Workspace;

lockstep_measure!(
    /// Euclidean distance (L2 norm), the paper's lock-step baseline (M2):
    /// `sqrt(sum (x_i - y_i)^2)`.
    Euclidean,
    "ED",
    metric All,
    |x, y| lane_sum(x, y, |a, b| (a - b) * (a - b)).sqrt(),
    |x, y, cutoff| {
        // Cheap squared trigger, then an exact confirm on the rounded
        // sqrt: sqrt is correctly rounded and monotone, so a partial sum
        // whose sqrt already reaches `cutoff` bounds the full distance.
        // The lane kernel accumulates exactly like the exact path, so a
        // non-abandoned sum (and hence its sqrt) matches bit-for-bit.
        let sq = cutoff * cutoff;
        match lane_sum_upto_by(
            x,
            y,
            |a, b| (a - b) * (a - b),
            |partial| partial >= sq && partial.sqrt() >= cutoff,
        ) {
            Some(sum) => sum.sqrt(),
            None => f64::INFINITY,
        }
    }
);

lockstep_measure!(
    /// City-block / Manhattan distance (L1 norm): `sum |x_i - y_i|`.
    CityBlock,
    "Manhattan",
    metric All,
    |x, y| lane_sum(x, y, |a, b| (a - b).abs()),
    |x, y, cutoff| lane_sum_upto(x, y, cutoff, |a, b| (a - b).abs())
);

lockstep_measure!(
    /// Chebyshev distance (L-infinity norm): `max |x_i - y_i|`.
    ///
    /// The lane reduction is bit-identical to the old sequential fold:
    /// `f64::max` ignores NaN in any order and the absolute-value terms
    /// exclude negative zero, so max is exactly reassociable.
    Chebyshev,
    "Chebyshev",
    metric All,
    |x, y| crate::lanes::lane_max(x, y, |a, b| (a - b).abs()),
    |x, y, cutoff| {
        // Running max is monotone non-decreasing, so a block whose
        // combined max reaches the cutoff settles the comparison.
        crate::lanes::lane_max_upto(x, y, cutoff, |a, b| (a - b).abs())
    }
);

/// Minkowski distance (Lp norm) with tunable order `p`:
/// `(sum |x_i - y_i|^p)^(1/p)`.
///
/// The only lock-step measure requiring supervised tuning; Table 4's grid
/// spans `p` from 0.1 (a "fractional norm") to 20.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minkowski {
    /// The order of the norm; must be positive (values below 1 give a
    /// well-defined dissimilarity even though it is no longer a metric).
    pub p: f64,
}

impl Minkowski {
    /// Creates the Lp measure.
    ///
    /// # Panics
    /// Panics if `p` is not strictly positive.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0, "Minkowski order must be positive, got {p}");
        Minkowski { p }
    }
}

impl Distance for Minkowski {
    fn name(&self) -> String {
        format!("Minkowski(p={})", self.p)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        lane_sum(x, y, |a, b| (a - b).abs().powf(self.p)).powf(1.0 / self.p)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        if cutoff.is_nan() || cutoff == f64::INFINITY {
            return self.distance_ws(x, y, ws);
        }
        // `powf` is not correctly rounded, so the cheap `cutoff^p` trigger
        // is confirmed against the actual root with a 1e-9 relative margin
        // (orders of magnitude above powf's few-ulp error) before
        // abandoning. For negative cutoffs `cutoff.powf(p)` is NaN and the
        // trigger never fires: the exact value is computed, which is
        // trivially admissible. The lane kernel accumulates exactly like
        // the exact path, so a non-abandoned sum matches bit-for-bit.
        let thresh = cutoff.powf(self.p);
        let p = self.p;
        match lane_sum_upto_by(
            x,
            y,
            |a, b| (a - b).abs().powf(p),
            |partial| partial >= thresh && partial.powf(1.0 / p) >= cutoff * (1.0 + 1e-9),
        ) {
            Some(sum) => sum.powf(1.0 / p),
            None => f64::INFINITY,
        }
    }

    fn lanes_hint(&self) -> usize {
        crate::lanes::LANES
    }

    fn metric_regime(&self) -> crate::measure::MetricRegime {
        // Lp is a norm-induced metric only for p >= 1; the fractional
        // orders in Table 4's grid (p < 1) break the triangle inequality
        // and must stay out of the pivot layer.
        if self.p >= 1.0 {
            crate::measure::MetricRegime::All
        } else {
            crate::measure::MetricRegime::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
    const Y: [f64; 4] = [2.0, 2.0, 1.0, 6.0];
    // diffs: -1, 0, 2, -2

    #[test]
    fn euclidean_hand_value() {
        assert!((Euclidean.distance(&X, &Y) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cityblock_hand_value() {
        assert_eq!(CityBlock.distance(&X, &Y), 5.0);
    }

    #[test]
    fn chebyshev_hand_value() {
        assert_eq!(Chebyshev.distance(&X, &Y), 2.0);
    }

    #[test]
    fn minkowski_reduces_to_special_cases() {
        assert!((Minkowski::new(2.0).distance(&X, &Y) - Euclidean.distance(&X, &Y)).abs() < 1e-12);
        assert!((Minkowski::new(1.0).distance(&X, &Y) - CityBlock.distance(&X, &Y)).abs() < 1e-12);
    }

    #[test]
    fn minkowski_approaches_chebyshev_for_large_p() {
        let d = Minkowski::new(50.0).distance(&X, &Y);
        assert!((d - Chebyshev.distance(&X, &Y)).abs() < 0.1);
    }

    #[test]
    fn lp_norms_are_monotone_decreasing_in_p() {
        let d1 = Minkowski::new(1.0).distance(&X, &Y);
        let d2 = Minkowski::new(2.0).distance(&X, &Y);
        let d5 = Minkowski::new(5.0).distance(&X, &Y);
        assert!(d1 >= d2 && d2 >= d5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_order_panics() {
        let _ = Minkowski::new(0.0);
    }

    #[test]
    fn triangle_inequality_for_euclidean() {
        let z = [0.0, 5.0, -1.0, 2.0];
        let dxz = Euclidean.distance(&X, &z);
        let dxy = Euclidean.distance(&X, &Y);
        let dyz = Euclidean.distance(&Y, &z);
        assert!(dxz <= dxy + dyz + 1e-12);
    }
}
