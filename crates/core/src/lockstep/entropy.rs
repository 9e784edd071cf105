//! The Shannon entropy family: six divergences built on `x * ln(x/y)`.
//!
//! All six require density-like positive inputs; values are clamped to a
//! positive floor before logarithms (`clamp_pos`).

use super::{clamp_pos, lockstep_measure};
use crate::lanes::lane_sum;

lockstep_measure!(
    asymmetric
    /// Kullback–Leibler divergence: `sum x ln(x/y)`. Asymmetric.
    KullbackLeibler,
    "KullbackLeibler",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        a * (a / b).ln()
    })
);

lockstep_measure!(
    /// Jeffreys divergence (symmetrized KL): `sum (x - y) ln(x/y)`.
    Jeffreys,
    "Jeffreys",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        // `ln(ca) - ln(cb)` rather than `(ca / cb).ln()`: the former is the
        // exact negation of its swap, so each term — and therefore the sum —
        // is bit-identical under argument exchange, as `is_symmetric()`
        // promises. `ln(ca / cb)` is not (division then log round
        // differently than the two logs), which the conformance oracle
        // caught as a one-ULP mirror divergence in symmetric matrices.
        (ca - cb) * (ca.ln() - cb.ln())
    })
);

lockstep_measure!(
    asymmetric
    /// K divergence: `sum x ln(2x / (x+y))`.
    KDivergence,
    "KDivergence",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        a * (2.0 * a / (a + b)).ln()
    })
);

lockstep_measure!(
    /// Topsøe distance: `sum [x ln(2x/(x+y)) + y ln(2y/(x+y))]` — twice
    /// the Jensen–Shannon divergence. Evaluated under MinMax in Table 2.
    Topsoe,
    "Topsoe",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        let m = a + b;
        a * (2.0 * a / m).ln() + b * (2.0 * b / m).ln()
    })
);

lockstep_measure!(
    /// Jensen–Shannon divergence:
    /// `(1/2) [sum x ln(2x/(x+y)) + sum y ln(2y/(x+y))]`.
    JensenShannon,
    "JensenShannon",
    |x, y| 0.5
        * lane_sum(x, y, |a, b| {
            let (a, b) = (clamp_pos(a), clamp_pos(b));
            let m = a + b;
            a * (2.0 * a / m).ln() + b * (2.0 * b / m).ln()
        })
);

lockstep_measure!(
    /// Jensen difference:
    /// `sum [(x ln x + y ln y)/2 - ((x+y)/2) ln((x+y)/2)]`.
    JensenDifference,
    "JensenDifference",
    |x, y| lane_sum(x, y, |a, b| {
        let (a, b) = (clamp_pos(a), clamp_pos(b));
        let m = 0.5 * (a + b);
        0.5 * (a * a.ln() + b * b.ln()) - m * m.ln()
    })
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.25, 0.25, 0.5];
    const Y: [f64; 3] = [0.5, 0.25, 0.25];

    #[test]
    fn kl_zero_for_identical_densities() {
        assert!(KullbackLeibler.distance(&X, &X).abs() < 1e-12);
    }

    #[test]
    fn kl_is_asymmetric_in_general() {
        let x = [0.7, 0.2, 0.1];
        let y = [0.1, 0.2, 0.7];
        let fwd = KullbackLeibler.distance(&x, &y);
        let bwd = KullbackLeibler.distance(&y, &x);
        // Symmetric for this particular swap; use a non-symmetric pair.
        assert!((fwd - bwd).abs() < 1e-12);
        let z = [0.6, 0.3, 0.1];
        assert!((KullbackLeibler.distance(&x, &z) - KullbackLeibler.distance(&z, &x)).abs() > 1e-6);
    }

    #[test]
    fn jeffreys_is_kl_sum() {
        let kl_xy = KullbackLeibler.distance(&X, &Y);
        let kl_yx = KullbackLeibler.distance(&Y, &X);
        assert!((Jeffreys.distance(&X, &Y) - (kl_xy + kl_yx)).abs() < 1e-12);
    }

    #[test]
    fn topsoe_is_twice_jensen_shannon() {
        assert!((Topsoe.distance(&X, &Y) - 2.0 * JensenShannon.distance(&X, &Y)).abs() < 1e-12);
    }

    #[test]
    fn jensen_shannon_equals_jensen_difference() {
        // Algebraically identical for densities.
        assert!((JensenShannon.distance(&X, &Y) - JensenDifference.distance(&X, &Y)).abs() < 1e-10);
    }

    #[test]
    fn jensen_shannon_is_bounded_by_ln2() {
        // JS divergence of densities is at most ln 2.
        let x = [1.0, 0.0, 0.0];
        let y = [0.0, 0.0, 1.0];
        let js = JensenShannon.distance(&x, &y);
        assert!(js <= std::f64::consts::LN_2 + 1e-6, "js = {js}");
        assert!(js > 0.5);
    }

    #[test]
    fn all_finite_on_hostile_input() {
        let x = [0.0, -1.0, 2.0];
        let y = [-2.0, 0.0, 0.0];
        for m in [
            KullbackLeibler.distance(&x, &y),
            Jeffreys.distance(&x, &y),
            KDivergence.distance(&x, &y),
            Topsoe.distance(&x, &y),
            JensenShannon.distance(&x, &y),
            JensenDifference.distance(&x, &y),
        ] {
            assert!(m.is_finite());
        }
    }

    #[test]
    fn symmetric_members_are_symmetric() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(Jeffreys),
            Box::new(Topsoe),
            Box::new(JensenShannon),
            Box::new(JensenDifference),
        ];
        for m in measures {
            assert!(
                (m.distance(&X, &Y) - m.distance(&Y, &X)).abs() < 1e-12,
                "{} not symmetric",
                m.name()
            );
        }
    }
}
