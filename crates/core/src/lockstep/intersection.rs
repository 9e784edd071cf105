//! The Intersection family: seven measures built on coordinate-wise
//! minima and maxima.

use super::{lockstep_measure, safe_div};
use crate::lanes::lane_sum;

lockstep_measure!(
    /// Non-intersection distance: `(1/2) sum |x-y|` (the distance form of
    /// the histogram-intersection similarity `sum min(x,y)`).
    Intersection,
    "Intersection",
    |x, y| 0.5 * lane_sum(x, y, |a, b| (a - b).abs())
);

lockstep_measure!(
    /// Wave Hedges distance: `sum |x-y| / max(x,y)`.
    WaveHedges,
    "WaveHedges",
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b).abs(), a.max(b)))
);

lockstep_measure!(
    /// Czekanowski distance: `sum |x-y| / sum (x+y)` (equal to Sørensen;
    /// Cha's survey lists both and the paper counts both, noting that
    /// equivalent measures must produce identical accuracies).
    Czekanowski,
    "Czekanowski",
    |x, y| safe_div(
        lane_sum(x, y, |a, b| (a - b).abs()),
        lane_sum(x, y, |a, b| a + b)
    )
);

lockstep_measure!(
    /// Motyka distance: `sum max(x,y) / sum (x+y)` (equals
    /// `1 - sum min / sum (x+y)`; ranges in `[1/2, 1]` on positive data).
    Motyka,
    "Motyka",
    |x, y| safe_div(lane_sum(x, y, f64::max), lane_sum(x, y, |a, b| a + b))
);

lockstep_measure!(
    /// Kulczynski similarity `s = sum min / sum |x-y|`, used as the
    /// dissimilarity `1/s = sum |x-y| / sum min(x,y)`.
    KulczynskiS,
    "Kulczynski-s",
    |x, y| safe_div(
        lane_sum(x, y, |a, b| (a - b).abs()),
        lane_sum(x, y, f64::min)
    )
);

lockstep_measure!(
    /// Ruzicka distance: `1 - sum min(x,y) / sum max(x,y)`.
    Ruzicka,
    "Ruzicka",
    |x, y| 1.0 - safe_div(lane_sum(x, y, f64::min), lane_sum(x, y, f64::max))
);

lockstep_measure!(
    /// Tanimoto distance: `(sum max - sum min) / sum max`.
    Tanimoto,
    "Tanimoto",
    |x, y| {
        let mx = lane_sum(x, y, f64::max);
        let mn = lane_sum(x, y, f64::min);
        safe_div(mx - mn, mx)
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn intersection_is_half_l1() {
        assert!((Intersection.distance(&X, &Y) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wave_hedges_hand_value() {
        let expected = 0.1 / 0.2 + 0.1 / 0.6 + 0.0;
        assert!((WaveHedges.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn motyka_of_identical_positive_series_is_half() {
        assert!((Motyka.distance(&X, &X) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ruzicka_and_tanimoto_agree_on_positive_data() {
        // 1 - min/max == (max - min)/max.
        let a = Ruzicka.distance(&X, &Y);
        let b = Tanimoto.distance(&X, &Y);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn czekanowski_equals_sorensen() {
        use crate::lockstep::Sorensen;
        assert!(
            (Czekanowski.distance(&X, &Y) - Sorensen.distance(&X, &Y)).abs() < 1e-12,
            "survey-equivalent measures must agree"
        );
    }

    #[test]
    fn zero_for_identical_series() {
        for d in [
            Intersection.distance(&X, &X),
            WaveHedges.distance(&X, &X),
            Czekanowski.distance(&X, &X),
            KulczynskiS.distance(&X, &X),
            Ruzicka.distance(&X, &X),
            Tanimoto.distance(&X, &X),
        ] {
            assert!(d.abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(Intersection),
            Box::new(WaveHedges),
            Box::new(Czekanowski),
            Box::new(Motyka),
            Box::new(KulczynskiS),
            Box::new(Ruzicka),
            Box::new(Tanimoto),
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
