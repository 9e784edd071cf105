//! The two lock-step measures outside Cha's survey: DISSIM and the
//! adaptive scaling distance (ASD).

use crate::measure::Distance;
use crate::workspace::Workspace;

/// DISSIM (Frentzos et al. 2007): the definite integral over time of the
/// pointwise distance between the two series' linear interpolants.
///
/// The paper describes it as "a modified version of ED that considers in
/// the distance of the ith points the i+1th points — a form of a smoothing
/// operation". We compute the integral exactly per unit segment: with
/// `d(t)` the absolute difference of the linear interpolants on `[i, i+1]`
/// (endpoint gaps `a = x_i - y_i`, `b = x_{i+1} - y_{i+1}`),
///
/// * same sign: `∫|d| = (|a| + |b|) / 2` (a trapezoid),
/// * sign change: `∫|d| = (a^2 + b^2) / (2(|a| + |b|))` (two triangles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dissim;

impl Distance for Dissim {
    fn name(&self) -> String {
        "DISSIM".into()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        let m = x.len().min(y.len());
        if m < 2 {
            return x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum();
        }
        let mut acc = 0.0;
        for (xs, ys) in x.windows(2).zip(y.windows(2)) {
            let a = xs[0] - ys[0];
            let b = xs[1] - ys[1];
            if a * b >= 0.0 {
                acc += 0.5 * (a.abs() + b.abs());
            } else {
                let denom = a.abs() + b.abs();
                acc += 0.5 * (a * a + b * b) / denom;
            }
        }
        acc
    }
}

/// Adaptive scaling distance (ASD; Chu & Wong 1999, Yang & Leskovec 2011):
/// embeds the AdaptiveScaling normalization (Eq. 7) into an inner-product
/// comparison — each pair is compared under the optimal scaling factor
/// `a* = (x·y) / (y·y)`, giving `d = ||x - a* y||`, the residual of the
/// best least-squares amplitude match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveScalingDistance;

impl Distance for AdaptiveScalingDistance {
    fn name(&self) -> String {
        "ASD".into()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        let xy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|b| b * b).sum();
        let a = if yy > 0.0 { xy / yy } else { 0.0 };
        x.iter()
            .zip(y)
            .map(|(p, q)| {
                let d = p - a * q;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    fn is_symmetric(&self) -> bool {
        // The optimal scaling factor a* = (x·y)/(y·y) is fit to the second
        // argument only.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dissim_zero_for_identical() {
        let x = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(Dissim.distance(&x, &x), 0.0);
    }

    #[test]
    fn dissim_constant_gap_is_gap_times_segments() {
        // x - y == 2 everywhere; integral over m-1 unit segments = 2(m-1).
        let x = [3.0, 3.0, 3.0, 3.0];
        let y = [1.0, 1.0, 1.0, 1.0];
        assert!((Dissim.distance(&x, &y) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn dissim_sign_change_integrates_triangles() {
        // Gap goes +1 -> -1 linearly: two triangles of area 1/4 each.
        let x = [1.0, 0.0];
        let y = [0.0, 1.0];
        assert!((Dissim.distance(&x, &y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dissim_is_smoother_than_pointwise_l1_on_alternating_noise() {
        // Alternating +1/-1 noise partially cancels inside segments.
        let x = [0.0; 6];
        let y = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let l1: f64 = 6.0;
        let d = Dissim.distance(&x, &y);
        assert!(d < l1 * 0.6, "dissim {d} should smooth the oscillation");
    }

    #[test]
    fn dissim_handles_single_point() {
        assert_eq!(Dissim.distance(&[2.0], &[5.0]), 3.0);
    }

    #[test]
    fn asd_is_zero_for_scaled_copies() {
        let x = [1.0, 2.0, 3.0];
        let y = [0.5, 1.0, 1.5];
        assert!(AdaptiveScalingDistance.distance(&x, &y) < 1e-12);
    }

    #[test]
    fn asd_equals_orthogonal_residual() {
        // d^2 = ||x||^2 - (x·y)^2/||y||^2 (projection residual).
        let x = [1.0, 0.0, 2.0];
        let y = [0.0, 1.0, 1.0];
        let xy = 2.0f64;
        let xx = 5.0;
        let yy = 2.0;
        let expected = (xx - xy * xy / yy).sqrt();
        assert!((AdaptiveScalingDistance.distance(&x, &y) - expected).abs() < 1e-12);
    }

    #[test]
    fn asd_handles_zero_reference() {
        let x = [1.0, 2.0];
        let y = [0.0, 0.0];
        let d = AdaptiveScalingDistance.distance(&x, &y);
        assert!((d - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn asd_is_scale_invariant_in_second_argument() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 1.0, 2.0];
        let y2: Vec<f64> = y.iter().map(|v| v * 7.0).collect();
        let d1 = AdaptiveScalingDistance.distance(&x, &y);
        let d2 = AdaptiveScalingDistance.distance(&x, &y2);
        assert!((d1 - d2).abs() < 1e-10);
    }
}
