//! The five measures Cha's survey proposed without prior literature
//! appearance (nicknamed "Emanon" 1–5 there).
//!
//! Vicis-Symmetric chi-squared 3 (Emanon4) is one of the previously
//! unknown measures the paper finds significantly better than ED — but
//! only under MinMax normalization.

use super::{lockstep_measure, safe_div};
use crate::lanes::lane_sum;

lockstep_measure!(
    /// Vicis–Wave Hedges (Emanon1): `sum |x-y| / min(x,y)`.
    VicisWaveHedges,
    "VicisWaveHedges",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b).abs(), a.min(b)))
);

lockstep_measure!(
    /// Vicis symmetric chi-squared 1 (Emanon2): `sum (x-y)^2 / min(x,y)^2`.
    VicisSymmetricChiSq1,
    "Emanon2",
    |x, y| lane_sum(x, y, |a, b| {
        let mn = a.min(b);
        safe_div((a - b) * (a - b), mn * mn)
    })
);

lockstep_measure!(
    /// Vicis symmetric chi-squared 2 (Emanon3): `sum (x-y)^2 / min(x,y)`.
    VicisSymmetricChiSq2,
    "Emanon3",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a.min(b)))
);

lockstep_measure!(
    /// Vicis symmetric chi-squared 3 (Emanon4): `sum (x-y)^2 / max(x,y)`.
    VicisSymmetricChiSq3,
    "Emanon4",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a.max(b)))
);

lockstep_measure!(
    /// Max-symmetric chi-squared (Emanon5):
    /// `max(sum (x-y)^2/x, sum (x-y)^2/y)`.
    MaxSymmetricChiSq,
    "Emanon5",
    |x, y| {
        let dx = lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), a));
        let dy = lane_sum(x, y, |a, b| safe_div((a - b) * (a - b), b));
        dx.max(dy)
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn emanon4_hand_value() {
        let expected = 0.01 / 0.2 + 0.01 / 0.6;
        assert!((VicisSymmetricChiSq3.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn emanon3_hand_value() {
        let expected = 0.01 / 0.1 + 0.01 / 0.5;
        assert!((VicisSymmetricChiSq2.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn emanon2_hand_value() {
        let expected = 0.01 / 0.01 + 0.01 / 0.25;
        assert!((VicisSymmetricChiSq1.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn max_symmetric_is_max_of_pearson_and_neyman() {
        use crate::lockstep::{NeymanChiSq, PearsonChiSq};
        let p = PearsonChiSq.distance(&X, &Y);
        let n = NeymanChiSq.distance(&X, &Y);
        assert!((MaxSymmetricChiSq.distance(&X, &Y) - p.max(n)).abs() < 1e-12);
    }

    #[test]
    fn min_denominator_dominates_max_denominator() {
        // Same numerator with smaller denominators gives larger distances:
        // Emanon2 >= Emanon3-style orderings on positive data < 1.
        let d_min = VicisSymmetricChiSq2.distance(&X, &Y);
        let d_max = VicisSymmetricChiSq3.distance(&X, &Y);
        assert!(d_min >= d_max);
    }

    #[test]
    fn zero_for_identical_and_symmetric() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(VicisWaveHedges),
            Box::new(VicisSymmetricChiSq1),
            Box::new(VicisSymmetricChiSq2),
            Box::new(VicisSymmetricChiSq3),
            Box::new(MaxSymmetricChiSq),
        ];
        for m in measures {
            assert!(m.distance(&X, &X).abs() < 1e-12, "{}", m.name());
            assert!(
                (m.distance(&X, &Y) - m.distance(&Y, &X)).abs() < 1e-12,
                "{} not symmetric",
                m.name()
            );
        }
    }

    #[test]
    fn finite_on_zero_inputs() {
        let x = [0.0, 0.0];
        let y = [1.0, 0.0];
        for m in [
            VicisWaveHedges.distance(&x, &y),
            VicisSymmetricChiSq1.distance(&x, &y),
            VicisSymmetricChiSq2.distance(&x, &y),
            VicisSymmetricChiSq3.distance(&x, &y),
            MaxSymmetricChiSq.distance(&x, &y),
        ] {
            assert!(m.is_finite());
        }
    }
}
