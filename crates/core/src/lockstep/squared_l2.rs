//! The squared-L2 (chi-squared) family: eight measures built on
//! `(x - y)^2` with varying denominators.
//!
//! Clark (evaluated under MinMax in the paper's Table 2) belongs here.

use super::{lockstep_measure, safe_div};
use crate::lanes::{lane_sum, lane_sum_upto};

lockstep_measure!(
    /// Squared Euclidean distance: `sum (x-y)^2`.
    SquaredEuclidean,
    "SquaredED",
    |x, y| lane_sum(x, y, |a, b| (a - b) * (a - b)),
    |x, y, cutoff| lane_sum_upto(x, y, cutoff, |a, b| (a - b) * (a - b))
);

lockstep_measure!(
    asymmetric
    /// Pearson chi-squared distance: `sum (x-y)^2 / y`.
    PearsonChiSq,
    "PearsonChiSq",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), b))
);

lockstep_measure!(
    asymmetric
    /// Neyman chi-squared distance: `sum (x-y)^2 / x`.
    NeymanChiSq,
    "NeymanChiSq",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a))
);

lockstep_measure!(
    /// (Symmetric) squared chi-squared distance: `sum (x-y)^2 / (x+y)`.
    SquaredChiSq,
    "SquaredChiSq",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a + b))
);

lockstep_measure!(
    /// Probabilistic symmetric chi-squared: `2 sum (x-y)^2 / (x+y)`.
    ProbSymmetricChiSq,
    "ProbSymChiSq",
    |x, y| 2.0 * lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a + b))
);

lockstep_measure!(
    /// Divergence distance: `2 sum (x-y)^2 / (x+y)^2`.
    Divergence,
    "Divergence",
    |x, y| 2.0 * lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), (a + b) * (a + b)))
);

lockstep_measure!(
    /// Clark distance: `sqrt(sum ((x-y)/(x+y))^2)`.
    Clark,
    "Clark",
    |x, y| lane_sum(x, y, |a, b| {
        let r = safe_div((a - b).abs(), a + b);
        r * r
    })
    .sqrt()
);

lockstep_measure!(
    /// Additive symmetric chi-squared: `sum (x-y)^2 (x+y) / (x*y)`.
    AdditiveSymmetricChiSq,
    "AddSymChiSq",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b) * (a + b), a * b))
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn squared_euclidean_is_ed_squared() {
        use crate::lockstep::Euclidean;
        let ed = Euclidean.distance(&X, &Y);
        assert!((SquaredEuclidean.distance(&X, &Y) - ed * ed).abs() < 1e-12);
    }

    #[test]
    fn pearson_and_neyman_are_transposes() {
        assert!((PearsonChiSq.distance(&X, &Y) - NeymanChiSq.distance(&Y, &X)).abs() < 1e-12);
    }

    #[test]
    fn prob_symmetric_is_twice_squared_chisq() {
        assert!(
            (ProbSymmetricChiSq.distance(&X, &Y) - 2.0 * SquaredChiSq.distance(&X, &Y)).abs()
                < 1e-12
        );
    }

    #[test]
    fn clark_hand_value() {
        let expected = ((0.1f64 / 0.3).powi(2) + (0.1f64 / 1.1).powi(2)).sqrt();
        assert!((Clark.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn divergence_hand_value() {
        let expected = 2.0 * (0.01 / 0.09 + 0.01 / 1.21);
        assert!((Divergence.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn additive_symmetric_hand_value() {
        let expected = 0.01 * 0.3 / 0.02 + 0.01 * 1.1 / 0.3;
        assert!((AdditiveSymmetricChiSq.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_for_identical() {
        for d in [
            SquaredEuclidean.distance(&X, &X),
            PearsonChiSq.distance(&X, &X),
            NeymanChiSq.distance(&X, &X),
            SquaredChiSq.distance(&X, &X),
            ProbSymmetricChiSq.distance(&X, &X),
            Divergence.distance(&X, &X),
            Clark.distance(&X, &X),
            AdditiveSymmetricChiSq.distance(&X, &X),
        ] {
            assert!(d.abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_variants_are_symmetric() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(SquaredEuclidean),
            Box::new(SquaredChiSq),
            Box::new(ProbSymmetricChiSq),
            Box::new(Divergence),
            Box::new(Clark),
            Box::new(AdditiveSymmetricChiSq),
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
