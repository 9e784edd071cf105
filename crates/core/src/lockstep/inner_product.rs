//! The Inner Product family: six measures built on `sum x*y`.
//!
//! Jaccard (as a *distance*, not the set similarity) is one of the
//! measures the paper surfaces as significantly better than ED — but only
//! under MeanNorm normalization.

use super::{lockstep_measure, safe_div};
use crate::lanes::lane_sum;

lockstep_measure!(
    /// Inner-product dissimilarity: `1 - sum x*y`. (Any strictly
    /// decreasing transform of the similarity yields the same 1-NN
    /// decisions.)
    InnerProduct,
    "InnerProduct",
    |x, y| 1.0 - lane_sum(x, y, |a, b| a * b)
);

lockstep_measure!(
    /// Harmonic-mean dissimilarity: `1 - 2 sum (x*y / (x+y))`.
    HarmonicMean,
    "HarmonicMean",
    |x, y| 1.0 - 2.0 * lane_sum(x, y, |a, b| safe_div(a * b, a + b))
);

lockstep_measure!(
    /// Cosine distance: `1 - sum x*y / (||x|| * ||y||)`.
    Cosine,
    "Cosine",
    |x, y| {
        let dot = lane_sum(x, y, |a, b| a * b);
        let nx = lane_sum(x, x, |a, b| a * b).sqrt();
        let ny = lane_sum(y, y, |a, b| a * b).sqrt();
        1.0 - safe_div(dot, nx * ny)
    }
);

lockstep_measure!(
    /// Kumar–Hassebrook (PCE) dissimilarity:
    /// `1 - sum x*y / (sum x^2 + sum y^2 - sum x*y)`.
    KumarHassebrook,
    "KumarHassebrook",
    |x, y| {
        let dot = lane_sum(x, y, |a, b| a * b);
        let sx = lane_sum(x, x, |a, b| a * b);
        let sy = lane_sum(y, y, |a, b| a * b);
        1.0 - safe_div(dot, sx + sy - dot)
    }
);

lockstep_measure!(
    /// Jaccard distance: `sum (x-y)^2 / (sum x^2 + sum y^2 - sum x*y)`.
    Jaccard,
    "Jaccard",
    |x, y| {
        let num = lane_sum(x, y, |a, b| (a - b) * (a - b));
        let dot = lane_sum(x, y, |a, b| a * b);
        let sx = lane_sum(x, x, |a, b| a * b);
        let sy = lane_sum(y, y, |a, b| a * b);
        safe_div(num, sx + sy - dot)
    }
);

lockstep_measure!(
    /// Dice distance: `sum (x-y)^2 / (sum x^2 + sum y^2)`.
    Dice,
    "Dice",
    |x, y| {
        let num = lane_sum(x, y, |a, b| (a - b) * (a - b));
        let sx = lane_sum(x, x, |a, b| a * b);
        let sy = lane_sum(y, y, |a, b| a * b);
        safe_div(num, sx + sy)
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn cosine_of_identical_direction_is_zero() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        assert!(Cosine.distance(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_one() {
        assert!((Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_and_dice_zero_on_identical() {
        assert!(Jaccard.distance(&X, &X).abs() < 1e-12);
        assert!(Dice.distance(&X, &X).abs() < 1e-12);
    }

    #[test]
    fn jaccard_hand_value() {
        // num = .01 + .01 + 0 = .02
        // dot = .02 + .30 + .09 = .41; sx = .38; sy = .46
        let expected = 0.02 / (0.38 + 0.46 - 0.41);
        assert!((Jaccard.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn dice_hand_value() {
        let expected = 0.02 / (0.38 + 0.46);
        assert!((Dice.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn kumar_hassebrook_is_one_minus_jaccard_similarity() {
        // KH similarity and the Jaccard distance relate via
        // d_Jaccard = 1 - s_KH.
        let kh = KumarHassebrook.distance(&X, &Y);
        let jac = Jaccard.distance(&X, &Y);
        assert!((kh - jac).abs() < 1e-12);
    }

    #[test]
    fn inner_product_decreases_with_alignment() {
        let a = [1.0, 1.0];
        let aligned = [1.0, 1.0];
        let anti = [-1.0, -1.0];
        assert!(InnerProduct.distance(&a, &aligned) < InnerProduct.distance(&a, &anti));
    }

    #[test]
    fn symmetry() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(InnerProduct),
            Box::new(HarmonicMean),
            Box::new(Cosine),
            Box::new(KumarHassebrook),
            Box::new(Jaccard),
            Box::new(Dice),
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
