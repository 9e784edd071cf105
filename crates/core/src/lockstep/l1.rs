//! The L1 family: six measures built on absolute differences.
//!
//! This is the family the paper's Table 2 crowns: Lorentzian (the natural
//! logarithm of L1) ranks first among lock-step measures under z-score,
//! and Manhattan-style measures significantly outperform ED — the
//! heavy-tailed-noise robustness of L1 at work.

use super::{lockstep_measure, safe_div};
use crate::lanes::{lane_sum, lane_sum_upto};

lockstep_measure!(
    /// Sørensen distance: `sum |x-y| / sum (x+y)`.
    Sorensen,
    "Sorensen",
    |x, y| safe_div(
        lane_sum(x, y, |a, b| (a - b).abs()),
        lane_sum(x, y, |a, b| a + b)
    )
);

lockstep_measure!(
    /// Gower distance: the mean absolute difference, `(1/m) sum |x-y|`.
    Gower,
    "Gower",
    metric All,
    |x, y| lane_sum(x, y, |a, b| (a - b).abs()) / x.len().max(1) as f64
);

lockstep_measure!(
    /// Soergel distance: `sum |x-y| / sum max(x,y)`. One of the paper's
    /// newly surfaced winners — but only under MinMax normalization.
    ///
    /// On density-like data (every coordinate `>= EPS`) the denominator
    /// guard never fires and Soergel is the Ruzicka/Jaccard metric, so it
    /// declares `MetricRegime::Positive`.
    Soergel,
    "Soergel",
    metric Positive,
    |x, y| safe_div(
        lane_sum(x, y, |a, b| (a - b).abs()),
        lane_sum(x, y, f64::max)
    )
);

lockstep_measure!(
    /// Kulczynski distance: `sum |x-y| / sum min(x,y)`.
    KulczynskiD,
    "Kulczynski-d",
    |x, y| safe_div(
        lane_sum(x, y, |a, b| (a - b).abs()),
        lane_sum(x, y, f64::min)
    )
);

lockstep_measure!(
    /// Canberra distance: `sum |x-y| / (x+y)` — a per-coordinate weighted L1.
    ///
    /// Keeps the default `distance_upto`: its terms are non-negative only
    /// where every `x_i + y_i >= 0`, and on such (logistic-mapped) data an
    /// abandon behind a non-negativity prescan scanned slower than the
    /// plain sum (DESIGN.md, "Who truly abandons").
    ///
    /// Canberra is the classical metric on non-negative reals, but the
    /// `safe_div` guard bends the triangle inequality for coordinate
    /// pairs summing below `EPS` (e.g. `d(0, ε) > d(0, ε/2) + d(ε/2, ε)`
    /// under a guarded denominator). `MetricRegime::Positive` — every
    /// coordinate `>= EPS` — is exactly the regime where the guard never
    /// fires and the classical proof applies, so the pivot layer engages
    /// there and nowhere else.
    Canberra,
    "Canberra",
    metric Positive,
    |x, y| lane_sum(x, y, |a, b| safe_div((a - b).abs(), a + b))
);

lockstep_measure!(
    /// Lorentzian distance: `sum ln(1 + |x-y|)` — the log-compressed L1
    /// that Section 5 identifies as the new state-of-the-art lock-step
    /// measure.
    ///
    /// Early-abandonable: `ln(1 + |x-y|) >= 0`, so partial sums are
    /// monotone.
    ///
    /// A metric on all of `R^n`: `t ↦ ln(1 + t)` is concave, increasing,
    /// and zero at zero, hence subadditive, so each coordinate term is a
    /// metric and their sum is too — `metric All`.
    Lorentzian,
    "Lorentzian",
    metric All,
    |x, y| lane_sum(x, y, |a, b| (1.0 + (a - b).abs()).ln()),
    |x, y, cutoff| lane_sum_upto(x, y, cutoff, |a, b| (1.0 + (a - b).abs()).ln())
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    const X: [f64; 3] = [0.2, 0.5, 0.3];
    const Y: [f64; 3] = [0.1, 0.6, 0.3];

    #[test]
    fn sorensen_hand_value() {
        // |diffs| = .1, .1, 0 -> 0.2; sums = .3 + 1.1 + .6 = 2.0
        assert!((Sorensen.distance(&X, &Y) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gower_is_mean_absolute_difference() {
        assert!((Gower.distance(&X, &Y) - 0.2 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn soergel_hand_value() {
        // max sums: .2 + .6 + .3 = 1.1
        assert!((Soergel.distance(&X, &Y) - 0.2 / 1.1).abs() < 1e-12);
    }

    #[test]
    fn kulczynski_hand_value() {
        // min sums: .1 + .5 + .3 = 0.9
        assert!((KulczynskiD.distance(&X, &Y) - 0.2 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn canberra_hand_value() {
        let expected = 0.1 / 0.3 + 0.1 / 1.1 + 0.0;
        assert!((Canberra.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn lorentzian_hand_value() {
        let expected = 1.1f64.ln() * 2.0;
        assert!((Lorentzian.distance(&X, &Y) - expected).abs() < 1e-12);
    }

    #[test]
    fn lorentzian_compresses_outliers_relative_to_l1() {
        // An outlier dominates L1 but is log-compressed in Lorentzian:
        // the ratio outlier/inlier distance is much larger under L1.
        let base = [0.0; 8];
        let inlier = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let mut outlier = [0.0; 8];
        outlier[0] = 4.0; // same L1 mass as inlier
        let l1_ratio = super::super::CityBlock.distance(&base, &outlier)
            / super::super::CityBlock.distance(&base, &inlier);
        let lor_ratio = Lorentzian.distance(&base, &outlier) / Lorentzian.distance(&base, &inlier);
        assert!((l1_ratio - 1.0).abs() < 1e-12);
        assert!(lor_ratio < 0.55, "Lorentzian should discount the spike");
    }

    #[test]
    fn all_are_symmetric() {
        let measures: Vec<Box<dyn Distance>> = vec![
            Box::new(Sorensen),
            Box::new(Gower),
            Box::new(Soergel),
            Box::new(KulczynskiD),
            Box::new(Canberra),
            Box::new(Lorentzian),
        ];
        for m in measures {
            let a = m.distance(&X, &Y);
            let b = m.distance(&Y, &X);
            assert!((a - b).abs() < 1e-12, "{} not symmetric", m.name());
        }
    }

    #[test]
    fn identical_series_give_zero() {
        for m in [
            Sorensen.distance(&X, &X),
            Gower.distance(&X, &X),
            Soergel.distance(&X, &X),
            KulczynskiD.distance(&X, &X),
            Canberra.distance(&X, &X),
            Lorentzian.distance(&X, &X),
        ] {
            assert!(m.abs() < 1e-12);
        }
    }
}
