//! The 8 time-series normalization methods of Section 4.
//!
//! Seven of the methods are per-series transformations; the eighth,
//! AdaptiveScaling (Eq. 7), is *pairwise* — it rescales one series by the
//! optimal factor for each comparison — and is therefore applied by
//! wrapping a distance measure ([`AdaptiveScaled`]) rather than by
//! preprocessing.

use crate::measure::Distance;

/// A per-series or pairwise normalization method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Normalization {
    /// Z-score: zero mean, unit variance (Eq. 1). The literature default.
    ZScore,
    /// Min-max scaling into `[0, 1]` (Eq. 2).
    MinMax,
    /// Min-max scaling into an arbitrary `[a, b]` (Eq. 3); used when a
    /// measure cannot deal with zeros.
    MinMaxRange(f64, f64),
    /// Mean normalization: z-score numerator over min-max denominator (Eq. 4).
    MeanNorm,
    /// Division by the median (Eq. 5).
    MedianNorm,
    /// Scaling to unit Euclidean norm (Eq. 6).
    UnitLength,
    /// Pairwise adaptive scaling (Eq. 7); see [`AdaptiveScaled`].
    AdaptiveScaling,
    /// Logistic (sigmoid) activation (Eq. 8).
    Logistic,
    /// Hyperbolic tangent activation (Eq. 9).
    Tanh,
}

impl Normalization {
    /// The 8 methods evaluated in the paper (with `MinMax` standing in for
    /// the `[a, b]` family at `a = 0, b = 1`).
    pub const ALL: [Normalization; 8] = [
        Normalization::ZScore,
        Normalization::MinMax,
        Normalization::MeanNorm,
        Normalization::MedianNorm,
        Normalization::UnitLength,
        Normalization::AdaptiveScaling,
        Normalization::Logistic,
        Normalization::Tanh,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Normalization::ZScore => "z-score".into(),
            Normalization::MinMax => "MinMax".into(),
            Normalization::MinMaxRange(a, b) => format!("MinMax[{a},{b}]"),
            Normalization::MeanNorm => "MeanNorm".into(),
            Normalization::MedianNorm => "MedianNorm".into(),
            Normalization::UnitLength => "UnitLength".into(),
            Normalization::AdaptiveScaling => "Adaptive".into(),
            Normalization::Logistic => "Logistic".into(),
            Normalization::Tanh => "Tanh".into(),
        }
    }

    /// Whether this method is pairwise (applied per comparison) instead of
    /// per series.
    pub fn is_pairwise(&self) -> bool {
        matches!(self, Normalization::AdaptiveScaling)
    }

    /// Applies the normalization to one series.
    ///
    /// For [`Normalization::AdaptiveScaling`] this is the identity: the
    /// scaling happens per comparison via [`AdaptiveScaled`].
    ///
    /// Degenerate inputs (constant series for z-score/MinMax/MeanNorm,
    /// zero-norm for UnitLength, zero median for MedianNorm) return the
    /// mean-centred or unchanged series instead of dividing by zero.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        match self {
            Normalization::ZScore => {
                let (mean, sd) = mean_std(x);
                if sd <= 0.0 {
                    x.iter().map(|v| v - mean).collect()
                } else {
                    x.iter().map(|v| (v - mean) / sd).collect()
                }
            }
            Normalization::MinMax => Normalization::MinMaxRange(0.0, 1.0).apply(x),
            Normalization::MinMaxRange(a, b) => {
                let (lo, hi) = min_max(x);
                let range = hi - lo;
                if range <= 0.0 {
                    vec![*a; x.len()]
                } else {
                    x.iter().map(|v| a + (v - lo) * (b - a) / range).collect()
                }
            }
            Normalization::MeanNorm => {
                let (mean, _) = mean_std(x);
                let (lo, hi) = min_max(x);
                let range = hi - lo;
                if range <= 0.0 {
                    x.iter().map(|v| v - mean).collect()
                } else {
                    x.iter().map(|v| (v - mean) / range).collect()
                }
            }
            Normalization::MedianNorm => {
                let med = median(x);
                if med.abs() <= f64::EPSILON {
                    x.to_vec()
                } else {
                    x.iter().map(|v| v / med).collect()
                }
            }
            Normalization::UnitLength => {
                let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
                if norm <= 0.0 {
                    x.to_vec()
                } else {
                    x.iter().map(|v| v / norm).collect()
                }
            }
            Normalization::AdaptiveScaling => x.to_vec(),
            Normalization::Logistic => x.iter().map(|v| 1.0 / (1.0 + (-v).exp())).collect(),
            Normalization::Tanh => x.iter().map(|v| v.tanh()).collect(),
        }
    }
}

/// Mean and (population) standard deviation of a series.
pub fn mean_std(x: &[f64]) -> (f64, f64) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn min_max(x: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in x {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

fn median(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Wraps a distance with the pairwise AdaptiveScaling method (Eq. 7): each
/// comparison first rescales `y` by the least-squares-optimal factor
/// `a* = (x·y) / (y·y)` — the scale under which `a*·y` best matches `x` —
/// and then measures `d(x, a*·y)` (Chu & Wong 1999).
pub struct AdaptiveScaled<D: Distance> {
    inner: D,
}

impl<D: Distance> AdaptiveScaled<D> {
    /// Wraps `inner` with adaptive scaling.
    pub fn new(inner: D) -> Self {
        AdaptiveScaled { inner }
    }
}

impl<D: Distance> Distance for AdaptiveScaled<D> {
    fn name(&self) -> String {
        format!("Adaptive({})", self.inner.name())
    }

    fn lanes_hint(&self) -> usize {
        // Scaling is a cheap prologue; the inner measure's kernel does
        // the heavy lifting.
        self.inner.lanes_hint()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut crate::Workspace) -> f64 {
        let xy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|b| b * b).sum();
        let a = if yy > 0.0 { xy / yy } else { 1.0 };
        let mut scaled = ws.take_aux();
        scaled.extend(y.iter().map(|v| a * v));
        let d = self.inner.distance_ws(x, &scaled, ws);
        ws.put_aux(scaled);
        d
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut crate::Workspace, cutoff: f64) -> f64 {
        // The scaling is cutoff-independent; the inner measure prunes
        // against the same cutoff on the scaled pair (same `a` and the
        // same scaled values as the exact path, so the contract holds).
        let xy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|b| b * b).sum();
        let a = if yy > 0.0 { xy / yy } else { 1.0 };
        let mut scaled = ws.take_aux();
        scaled.extend(y.iter().map(|v| a * v));
        let d = self.inner.distance_upto(x, &scaled, ws, cutoff);
        ws.put_aux(scaled);
        d
    }

    fn is_symmetric(&self) -> bool {
        // The scaling factor is fit to the second argument only.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Vec<f64> {
        vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    }

    #[test]
    fn zscore_yields_zero_mean_unit_variance() {
        let z = Normalization::ZScore.apply(&series());
        let (mean, sd) = mean_std(&z);
        assert!(mean.abs() < 1e-12);
        assert!((sd - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zscore_of_constant_series_is_zero() {
        let z = Normalization::ZScore.apply(&[5.0; 4]);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let z = Normalization::MinMax.apply(&series());
        let lo = z.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn minmax_range_maps_to_ab() {
        let z = Normalization::MinMaxRange(1.0, 2.0).apply(&series());
        let lo = z.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((lo - 1.0).abs() < 1e-12);
        assert!((hi - 2.0).abs() < 1e-12);
    }

    #[test]
    fn meannorm_is_zero_mean_and_bounded_by_one() {
        let z = Normalization::MeanNorm.apply(&series());
        let (mean, _) = mean_std(&z);
        assert!(mean.abs() < 1e-12);
        let spread = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - z.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_length_has_unit_norm() {
        let z = Normalization::UnitLength.apply(&series());
        let norm: f64 = z.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_norm_divides_by_median() {
        let z = Normalization::MedianNorm.apply(&[2.0, 4.0, 6.0]);
        assert_eq!(z, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn median_of_even_length_is_midpoint() {
        let z = Normalization::MedianNorm.apply(&[1.0, 3.0, 2.0, 4.0]);
        // median = 2.5
        assert_eq!(z, vec![0.4, 1.2, 0.8, 1.6]);
    }

    #[test]
    fn logistic_maps_into_unit_interval() {
        let z = Normalization::Logistic.apply(&[-100.0, 0.0, 100.0]);
        assert!(z[0] < 1e-10);
        assert!((z[1] - 0.5).abs() < 1e-12);
        assert!(z[2] > 1.0 - 1e-10);
    }

    #[test]
    fn tanh_matches_formula() {
        // (e^{2x} - 1) / (e^{2x} + 1) == tanh(x).
        for &x in &[-2.0f64, -0.5, 0.0, 0.3, 1.7] {
            let formula = ((2.0 * x).exp() - 1.0) / ((2.0 * x).exp() + 1.0);
            let got = Normalization::Tanh.apply(&[x])[0];
            assert!((got - formula).abs() < 1e-12);
        }
    }

    #[test]
    fn zscore_is_invariant_to_scale_and_translation() {
        let x = series();
        let y: Vec<f64> = x.iter().map(|v| 3.5 * v - 7.0).collect();
        let zx = Normalization::ZScore.apply(&x);
        let zy = Normalization::ZScore.apply(&y);
        for (a, b) in zx.iter().zip(&zy) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn adaptive_scaling_makes_scaled_copies_identical() {
        struct Ed;
        impl Distance for Ed {
            fn name(&self) -> String {
                "ED".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut crate::Workspace) -> f64 {
                x.iter()
                    .zip(y)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            }
        }
        let d = AdaptiveScaled::new(Ed);
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0]; // x scaled by 2
        assert!(d.distance(&x, &y) < 1e-12);
        // And it is not symmetric in general, but still finite.
        assert!(d.distance(&y, &x).is_finite());
    }

    #[test]
    fn pairwise_flag() {
        assert!(Normalization::AdaptiveScaling.is_pairwise());
        assert!(!Normalization::ZScore.is_pairwise());
        // AdaptiveScaling's per-series application is the identity.
        assert_eq!(
            Normalization::AdaptiveScaling.apply(&[1.0, 2.0]),
            vec![1.0, 2.0]
        );
    }

    #[test]
    fn median_with_nan_is_deterministic_instead_of_panicking() {
        // total_cmp sorts NaN above every finite value, so the median of
        // [1, 2, 3, 4, NaN] is 3.
        let z = Normalization::MedianNorm.apply(&[1.0, 2.0, 3.0, 4.0, f64::NAN]);
        assert!((z[0] - 1.0 / 3.0).abs() < 1e-12);
    }
}
