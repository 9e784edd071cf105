//! The Combinations family: three measures that mix ideas from multiple
//! families.
//!
//! Avg(L1, L∞) is one of the measures Table 2 finds significantly better
//! than ED under z-score, UnitLength, and MeanNorm.

use super::{clamp_pos, lockstep_measure, safe_div};
use crate::lanes::lane_sum;

lockstep_measure!(
    /// Taneja divergence: `sum ((x+y)/2) ln((x+y) / (2 sqrt(x*y)))`.
    Taneja,
    "Taneja",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        let m = 0.5 * (a + b);
        m * ((a + b) / (2.0 * (a * b).sqrt())).ln()
    })
);

lockstep_measure!(
    /// Kumar–Johnson distance: `sum (x^2 - y^2)^2 / (2 (x*y)^{3/2})`.
    KumarJohnson,
    "KumarJohnson",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        let num = (a * a - b * b) * (a * a - b * b);
        safe_div(num, 2.0 * (ca * cb).powf(1.5))
    })
);

lockstep_measure!(
    /// Average of L1 and L∞: `(sum |x-y| + max |x-y|) / 2`.
    AvgL1Linf,
    "AvgL1Linf",
    |x, y| {
        let l1 = lane_sum(x, y, |a, b| (a - b).abs());
        let linf = x
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        0.5 * (l1 + linf)
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn avg_l1_linf_hand_value() {
        // L1 = 0.2, Linf = 0.1 -> 0.15.
        assert!((AvgL1Linf.distance(&X, &Y) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn avg_l1_linf_between_halves() {
        use crate::lockstep::{Chebyshev, CityBlock};
        let avg = AvgL1Linf.distance(&X, &Y);
        let l1 = CityBlock.distance(&X, &Y);
        let linf = Chebyshev.distance(&X, &Y);
        assert!(avg >= linf && avg <= l1);
    }

    #[test]
    fn taneja_zero_for_identical() {
        assert!(Taneja.distance(&X, &X).abs() < 1e-12);
    }

    #[test]
    fn taneja_positive_for_different_densities() {
        // AM >= GM, so each term is non-negative.
        assert!(Taneja.distance(&X, &Y) > 0.0);
    }

    #[test]
    fn kumar_johnson_zero_for_identical() {
        assert!(KumarJohnson.distance(&X, &X).abs() < 1e-12);
    }

    #[test]
    fn all_symmetric() {
        for m in [&Taneja as &dyn Distance, &KumarJohnson, &AvgL1Linf] {
            assert!(
                (m.distance(&X, &Y) - m.distance(&Y, &X)).abs() < 1e-12,
                "{} not symmetric",
                m.name()
            );
        }
    }

    #[test]
    fn finite_on_hostile_input() {
        let x = [0.0, -2.0, 1.0];
        let y = [1.0, 0.0, -1.0];
        assert!(Taneja.distance(&x, &y).is_finite());
        assert!(KumarJohnson.distance(&x, &y).is_finite());
        assert!(AvgL1Linf.distance(&x, &y).is_finite());
    }
}
