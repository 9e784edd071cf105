//! Multivariate extensions of the core measures.
//!
//! The paper restricts itself to univariate series and notes (footnote 1)
//! that "most of the measures we consider can be extended with some
//! effort for ... multivariate time series where each point represents a
//! vector", leaving that as future work. This module provides the
//! standard extensions for the headline measures: a multivariate series
//! is a `d x m` collection, `series[dim][t]`.
//!
//! * [`ed_multivariate`] — lock-step ED over vector-valued points,
//! * [`dtw_dependent`] — one shared warping path, vector local costs
//!   (the "DTW_D" of the multivariate literature),
//! * [`dtw_independent`] — per-dimension warping, summed ("DTW_I");
//!   `DTW_I <= DTW_D` always, since each dimension may warp freely,
//! * [`sbd_independent`] — per-dimension SBD, averaged,
//! * [`znorm_dims`] — per-dimension z-normalization.

use crate::elastic::dtw::dtw_banded_ws;
use crate::measure::Distance;
use crate::normalization::Normalization;
use crate::sliding::CrossCorrelation;
use crate::workspace::Workspace;

/// Validates a `d x m` multivariate series pair and returns `(d, m)`.
///
/// # Panics
/// Panics on empty inputs, mismatched dimension counts, or ragged
/// dimensions.
fn check_pair(x: &[Vec<f64>], y: &[Vec<f64>]) -> (usize, usize) {
    assert!(!x.is_empty() && !y.is_empty(), "empty multivariate series");
    assert_eq!(x.len(), y.len(), "dimension count mismatch");
    let m = x[0].len();
    assert!(
        x.iter().all(|d| d.len() == m) && y.iter().all(|d| d.len() == m),
        "ragged multivariate series"
    );
    (x.len(), m)
}

/// Per-dimension z-normalization.
pub fn znorm_dims(x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    x.iter().map(|d| Normalization::ZScore.apply(d)).collect()
}

/// Multivariate Euclidean distance:
/// `sqrt(sum_t sum_dim (x[dim][t] - y[dim][t])^2)`.
pub fn ed_multivariate(x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
    check_pair(x, y);
    x.iter()
        .zip(y)
        .map(|(xd, yd)| {
            xd.iter()
                .zip(yd)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .sum::<f64>()
        .sqrt()
}

/// Dependent multivariate DTW ("DTW_D"): a single warping path over
/// vector-valued points, with the squared Euclidean local cost
/// `sum_dim (x[dim][i] - y[dim][j])^2`. `band` is the absolute
/// Sakoe–Chiba radius.
pub fn dtw_dependent(x: &[Vec<f64>], y: &[Vec<f64>], band: usize) -> f64 {
    let (d, m) = check_pair(x, y);
    let n = y[0].len();
    const INF: f64 = f64::INFINITY;
    let band = band.max(m.abs_diff(n));

    let mut prev = vec![INF; n + 1];
    let mut curr = vec![INF; n + 1];
    prev[0] = 0.0;
    for i in 1..=m {
        curr.fill(INF);
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        for j in lo..=hi {
            let mut cost = 0.0;
            for dim in 0..d {
                let diff = x[dim][i - 1] - y[dim][j - 1];
                cost += diff * diff;
            }
            let best = prev[j - 1].min(prev[j]).min(curr[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Independent multivariate DTW ("DTW_I"): each dimension warps on its
/// own; the distances are summed. Always `<=` [`dtw_dependent`] at the
/// same band, since the shared path is one feasible choice per dimension.
pub fn dtw_independent(x: &[Vec<f64>], y: &[Vec<f64>], band: usize) -> f64 {
    check_pair(x, y);
    let mut ws = Workspace::new();
    x.iter()
        .zip(y)
        .map(|(xd, yd)| dtw_banded_ws(xd, yd, band.max(xd.len().abs_diff(yd.len())), &mut ws))
        .sum()
}

/// Independent multivariate SBD: the per-dimension `1 - NCC_c`
/// dissimilarities, averaged. Each dimension finds its own best shift.
pub fn sbd_independent(x: &[Vec<f64>], y: &[Vec<f64>]) -> f64 {
    let (d, _) = check_pair(x, y);
    let sbd = CrossCorrelation::sbd();
    x.iter()
        .zip(y)
        .map(|(xd, yd)| sbd.distance(xd, yd))
        .sum::<f64>()
        / d as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bivariate(phase: f64) -> Vec<Vec<f64>> {
        vec![
            (0..32).map(|i| (i as f64 * 0.4 + phase).sin()).collect(),
            (0..32).map(|i| (i as f64 * 0.25 + phase).cos()).collect(),
        ]
    }

    #[test]
    fn identical_series_have_zero_distance_everywhere() {
        let x = bivariate(0.0);
        assert_eq!(ed_multivariate(&x, &x), 0.0);
        assert_eq!(dtw_dependent(&x, &x, 32), 0.0);
        assert_eq!(dtw_independent(&x, &x, 32), 0.0);
        assert!(sbd_independent(&znorm_dims(&x), &znorm_dims(&x)) < 1e-9);
    }

    #[test]
    fn multivariate_ed_reduces_to_univariate_for_one_dimension() {
        use crate::lockstep::Euclidean;
        let x = vec![vec![1.0, 2.0, 3.0]];
        let y = vec![vec![2.0, 0.0, 4.0]];
        assert!((ed_multivariate(&x, &y) - Euclidean.distance(&x[0], &y[0])).abs() < 1e-12);
    }

    #[test]
    fn independent_dtw_never_exceeds_dependent() {
        for phase in [0.3, 0.9, 1.7] {
            let x = bivariate(0.0);
            let y = bivariate(phase);
            let band = 8;
            let dep = dtw_dependent(&x, &y, band);
            let ind = dtw_independent(&x, &y, band);
            assert!(
                ind <= dep + 1e-9,
                "DTW_I {ind} > DTW_D {dep} at phase {phase}"
            );
        }
    }

    #[test]
    fn dependent_dtw_with_zero_band_is_squared_multivariate_ed() {
        let x = bivariate(0.0);
        let y = bivariate(0.5);
        let ed = ed_multivariate(&x, &y);
        let dtw0 = dtw_dependent(&x, &y, 0);
        assert!((dtw0 - ed * ed).abs() < 1e-9);
    }

    #[test]
    fn sbd_handles_per_dimension_shifts() {
        // Each dimension shifted by a different lag: independent SBD
        // still matches both.
        let bump = |c: f64| -> Vec<f64> {
            Normalization::ZScore.apply(
                &(0..64)
                    .map(|i| (-((i as f64 - c) / 3.0).powi(2) / 2.0).exp())
                    .collect::<Vec<_>>(),
            )
        };
        let x = vec![bump(20.0), bump(40.0)];
        let y = vec![bump(30.0), bump(25.0)];
        let d = sbd_independent(&x, &y);
        assert!(d < 0.15, "d = {d}");
    }

    #[test]
    fn znorm_dims_normalizes_each_dimension() {
        let x = vec![vec![10.0, 20.0, 30.0], vec![-5.0, 0.0, 5.0]];
        for dim in znorm_dims(&x) {
            let mean: f64 = dim.iter().sum::<f64>() / dim.len() as f64;
            assert!(mean.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "dimension count mismatch")]
    fn mismatched_dimensions_panic() {
        let x = vec![vec![1.0, 2.0]];
        let y = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let _ = ed_multivariate(&x, &y);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_dimensions_panic() {
        let x = vec![vec![1.0, 2.0], vec![1.0]];
        let _ = ed_multivariate(&x, &x.clone());
    }
}
