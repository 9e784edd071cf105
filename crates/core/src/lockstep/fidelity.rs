//! The Fidelity (squared-chord) family: five measures built on
//! `sqrt(x * y)`.
//!
//! These formulas require density-like non-negative inputs; values are
//! clamped to a small positive floor (`clamp_pos`), which is why
//! they only become competitive under normalizations that keep the data
//! positive (MinMax) — one of the paper's motivations for studying
//! normalization at all.

use super::{clamp_pos, lockstep_measure};
use crate::lanes::lane_sum;
use crate::measure::EPS;

lockstep_measure!(
    /// Fidelity dissimilarity: `1 - sum sqrt(x*y)` (the Bhattacharyya
    /// coefficient subtracted from one).
    Fidelity,
    "Fidelity",
    |x, y| 1.0 - lane_sum(x, y, |a, b| (clamp_pos(a) * clamp_pos(b)).sqrt())
);

lockstep_measure!(
    /// Bhattacharyya distance: `-ln sum sqrt(x*y)`.
    Bhattacharyya,
    "Bhattacharyya",
    |x, y| -lane_sum(x, y, |a, b| (clamp_pos(a) * clamp_pos(b)).sqrt())
        .max(EPS)
        .ln()
);

lockstep_measure!(
    /// Hellinger distance: `sqrt(2 sum (sqrt(x) - sqrt(y))^2)`.
    Hellinger,
    "Hellinger",
    |x, y| (2.0
        * lane_sum(x, y, |a, b| {
            let d = clamp_pos(a).sqrt() - clamp_pos(b).sqrt();
            d * d
        }))
    .sqrt()
);

lockstep_measure!(
    /// Matusita distance: `sqrt(sum (sqrt(x) - sqrt(y))^2)`.
    Matusita,
    "Matusita",
    |x, y| lane_sum(x, y, |a, b| {
        let d = clamp_pos(a).sqrt() - clamp_pos(b).sqrt();
        d * d
    })
    .sqrt()
);

lockstep_measure!(
    /// Squared-chord distance: `sum (sqrt(x) - sqrt(y))^2`.
    SquaredChord,
    "SquaredChord",
    |x, y| lane_sum(x, y, |a, b| {
        let d = clamp_pos(a).sqrt() - clamp_pos(b).sqrt();
        d * d
    })
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.25, 0.25, 0.5];
    const Y: [f64; 3] = [0.5, 0.25, 0.25];

    #[test]
    fn fidelity_zero_for_identical_densities() {
        // sum sqrt(x*x) = sum x = 1 for a density.
        assert!(Fidelity.distance(&X, &X).abs() < 1e-9);
    }

    #[test]
    fn bhattacharyya_zero_for_identical_densities() {
        assert!(Bhattacharyya.distance(&X, &X).abs() < 1e-9);
    }

    #[test]
    fn hellinger_is_sqrt2_matusita() {
        let h = Hellinger.distance(&X, &Y);
        let m = Matusita.distance(&X, &Y);
        assert!((h - 2.0f64.sqrt() * m).abs() < 1e-12);
    }

    #[test]
    fn squared_chord_is_matusita_squared() {
        let sc = SquaredChord.distance(&X, &Y);
        let m = Matusita.distance(&X, &Y);
        assert!((sc - m * m).abs() < 1e-12);
    }

    #[test]
    fn squared_chord_hand_value() {
        let s5 = 0.5f64.sqrt();
        let s25 = 0.5; // sqrt(0.25)
        let expected = (s25 - s5) * (s25 - s5) * 2.0;
        assert!((SquaredChord.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn negative_inputs_are_clamped_not_nan() {
        let x = [-1.0, 0.0, 1.0];
        let y = [1.0, -1.0, 0.5];
        for d in [
            Fidelity.distance(&x, &y),
            Bhattacharyya.distance(&x, &y),
            Hellinger.distance(&x, &y),
            Matusita.distance(&x, &y),
            SquaredChord.distance(&x, &y),
        ] {
            assert!(d.is_finite());
        }
    }

    #[test]
    fn symmetry() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(Fidelity),
            Box::new(Bhattacharyya),
            Box::new(Hellinger),
            Box::new(Matusita),
            Box::new(SquaredChord),
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
