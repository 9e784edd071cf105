//! Further elastic-measure variants the paper discusses in Section 7:
//! the Complexity-Invariant Distance (CID) weighting scheme and the
//! Itakura-parallelogram band shape. Together with DDTW and WDTW (in
//! [`super::dtw`]) these are the "extensions that can potentially be used
//! in combination with all elastic measures" that the paper excludes from
//! its main grids to avoid a parameter explosion; we provide them for the
//! ablation benches.

use super::eapruned::rows_upto;
use crate::measure::Distance;
use crate::workspace::Workspace;

/// Complexity-Invariant Distance (Batista et al. 2014): scales any base
/// distance by the ratio of the two series' complexity estimates,
///
/// ```text
/// CID(x, y) = d(x, y) * max(CE(x), CE(y)) / min(CE(x), CE(y))
/// CE(x) = sqrt(sum (x_{i+1} - x_i)^2)
/// ```
///
/// compensating for the bias of raw distances towards simple (smooth)
/// series.
pub struct Cid<D: Distance> {
    inner: D,
}

impl<D: Distance> Cid<D> {
    /// Wraps `inner` with the complexity correction.
    pub fn new(inner: D) -> Self {
        Cid { inner }
    }

    /// The complexity estimate `CE(x)`.
    pub fn complexity(x: &[f64]) -> f64 {
        x.windows(2)
            .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
            .sum::<f64>()
            .sqrt()
    }
}

impl<D: Distance> Distance for Cid<D> {
    fn name(&self) -> String {
        format!("CID({})", self.inner.name())
    }

    fn lanes_hint(&self) -> usize {
        // The complexity correction is O(n) scalar work; the inner
        // measure dominates, so report its vectorization.
        self.inner.lanes_hint()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let d = self.inner.distance_ws(x, y, ws);
        let cx = Self::complexity(x);
        let cy = Self::complexity(y);
        let (hi, lo) = if cx >= cy { (cx, cy) } else { (cy, cx) };
        if lo <= f64::EPSILON {
            // A constant series has zero complexity; fall back to the raw
            // distance rather than dividing by zero.
            return d;
        }
        d * hi / lo
    }

    fn is_symmetric(&self) -> bool {
        // The complexity correction is symmetric; symmetry hinges on the
        // wrapped measure.
        self.inner.is_symmetric()
    }
}

/// DTW constrained by the Itakura parallelogram instead of the
/// Sakoe–Chiba band: the warping path must stay inside a parallelogram
/// whose maximum local slope is `max_slope` (classically 2), pinching the
/// admissible region at both endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItakuraDtw {
    /// Maximum local slope of the warping path (must be > 1).
    pub max_slope: f64,
}

impl ItakuraDtw {
    /// Itakura DTW with the given maximum slope.
    ///
    /// # Panics
    /// Panics if `max_slope <= 1`.
    pub fn new(max_slope: f64) -> Self {
        assert!(
            max_slope > 1.0,
            "Itakura slope must exceed 1, got {max_slope}"
        );
        ItakuraDtw { max_slope }
    }

    /// Whether cell `(i, j)` (1-based) lies inside the parallelogram for
    /// lengths `m`, `n`: the path from `(1,1)` to `(m,n)` must keep its
    /// slope within `[1/s, s]` on both legs.
    fn inside(&self, i: usize, j: usize, m: usize, n: usize) -> bool {
        let (i, j, m, n) = (i as f64, j as f64, m as f64, n as f64);
        let s = self.max_slope;
        let from_start_ok = (j - 1.0) <= s * (i - 1.0) && (j - 1.0) >= (i - 1.0) / s;
        let to_end_ok = (n - j) <= s * (m - i) && (n - j) >= (m - i) / s;
        from_start_ok && to_end_ok
    }

    /// The parallelogram-masked DTW DP, exact at an infinite or NaN
    /// `cutoff` and early abandoned below it (`eapruned::rows_upto`).
    /// Only the origin of row 0 and column 0 is inside the
    /// parallelogram; masked cells stay INF.
    fn dp(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        let m = x.len();
        let n = y.len();
        const INF: f64 = f64::INFINITY;
        rows_upto(
            (m + 1, n + 1),
            0.0,
            cutoff,
            ws,
            |_, _| INF,
            |_, _| INF,
            #[inline(always)]
            |i, j, diag, up, left| {
                if !self.inside(i, j, m, n) {
                    return INF;
                }
                let d = x[i - 1] - y[j - 1];
                let best = diag.min(up).min(left);
                if best.is_finite() {
                    d * d + best
                } else {
                    INF
                }
            },
        )
    }
}

impl Distance for ItakuraDtw {
    fn name(&self) -> String {
        format!("DTW-Itakura(s={})", self.max_slope)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::INFINITY };
        }
        let result = self.dp(x, y, ws, f64::INFINITY);
        if result.is_finite() {
            result
        } else {
            super::Dtw::unconstrained().distance_ws(x, y, ws)
        }
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        if cutoff.is_nan() || cutoff == f64::INFINITY || x.len() != y.len() {
            // Unequal lengths can pinch the parallelogram shut, which the
            // exact path resolves with an unconstrained-DTW fallback — a
            // pruned INF must not be mistaken for a pinch, so only the
            // equal-length case (whose diagonal is always admissible, and
            // therefore never falls back) is pruned.
            return self.distance_ws(x, y, ws);
        }
        if x.is_empty() {
            return 0.0;
        }
        self.dp(x, y, ws, cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::Dtw;
    use crate::lockstep::Euclidean;

    #[test]
    fn cid_equals_base_distance_for_equal_complexity() {
        let x = [0.0, 1.0, 0.0, 1.0];
        let y = [1.0, 0.0, 1.0, 0.0];
        let cid = Cid::new(Euclidean);
        // Same complexity: correction factor 1.
        use crate::measure::Distance as _;
        assert!((cid.distance(&x, &y) - Euclidean.distance(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn cid_penalizes_complexity_mismatch() {
        let smooth = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
        let jagged = [0.0, 0.5, 0.0, 0.5, 0.0, 0.5];
        let flatish = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55];
        let cid = Cid::new(Euclidean);
        // smooth-vs-jagged gets inflated relative to smooth-vs-flatish.
        let ratio_cid = cid.distance(&smooth, &jagged) / cid.distance(&smooth, &flatish);
        let ratio_ed = Euclidean.distance(&smooth, &jagged) / Euclidean.distance(&smooth, &flatish);
        assert!(ratio_cid > ratio_ed);
    }

    #[test]
    fn cid_handles_constant_series() {
        let c = [2.0; 5];
        let x = [0.0, 1.0, 2.0, 1.0, 0.0];
        let cid = Cid::new(Euclidean);
        assert!(cid.distance(&c, &x).is_finite());
    }

    #[test]
    fn complexity_estimate_matches_formula() {
        let x = [0.0, 3.0, 3.0, 0.0];
        // diffs: 3, 0, -3 -> sqrt(18)
        assert!((Cid::<Euclidean>::complexity(&x) - 18f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn itakura_zero_for_identical() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin()).collect();
        let d = ItakuraDtw::new(2.0).distance(&x, &x);
        assert!(d.abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn itakura_is_at_least_unconstrained_dtw() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5).sin()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5 + 0.7).cos()).collect();
        let constrained = ItakuraDtw::new(2.0).distance(&x, &y);
        let free = Dtw::unconstrained().distance(&x, &y);
        assert!(constrained >= free - 1e-9);
    }

    #[test]
    fn itakura_pinches_endpoints_more_than_sakoe_chiba() {
        // A pattern shifted right: the parallelogram forbids large warps
        // near the endpoints, so Itakura should cost at least as much as
        // a generous Sakoe-Chiba band.
        let x: Vec<f64> = (0..32).map(|i| if i < 4 { 3.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..32).map(|i| if i >= 28 { 3.0 } else { 0.0 }).collect();
        let itakura = ItakuraDtw::new(2.0).distance(&x, &y);
        let wide_band = Dtw::unconstrained().distance(&x, &y);
        assert!(itakura >= wide_band - 1e-9);
    }

    #[test]
    fn itakura_finite_on_unequal_lengths() {
        let x = [0.0, 1.0, 2.0, 1.0];
        let y = [0.0, 0.5, 1.0, 1.5, 2.0, 1.0, 0.5];
        assert!(ItakuraDtw::new(2.0).distance(&x, &y).is_finite());
    }
}
