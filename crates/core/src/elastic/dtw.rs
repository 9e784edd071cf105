//! Dynamic Time Warping with the Sakoe–Chiba band.
//!
//! DTW finds the monotone warping path through the `m x m` cost matrix
//! that minimizes the accumulated squared pointwise distance. The band
//! width `δ` is expressed, as in the paper's Table 4, as a *percentage of
//! the series length*: `δ = 10` permits the path to stray 10% of `m` cells
//! from the diagonal, `δ = 100` is unconstrained, and `δ = 0` degenerates
//! to the Euclidean alignment.

use super::batch::{self, LaneBlock};
use super::wavefront::{wavefront_pruned, wavefront_ws, Squared, Weighted};
use crate::lanes::{LANES, MAX_ROW_BLOCK};
use crate::measure::Distance;
use crate::workspace::Workspace;

/// DTW distance with a Sakoe–Chiba band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dtw {
    /// Band width as a percentage of the series length (0–100).
    pub window_pct: f64,
}

impl Dtw {
    /// DTW with a band of `window_pct`% of the series length.
    ///
    /// # Panics
    /// Panics if `window_pct` is negative or above 100.
    pub fn with_window_pct(window_pct: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&window_pct),
            "window percentage must be within [0, 100], got {window_pct}"
        );
        Dtw { window_pct }
    }

    /// Unconstrained DTW (`δ = 100`).
    pub fn unconstrained() -> Self {
        Dtw { window_pct: 100.0 }
    }

    /// The absolute band radius for series lengths `m`, `n`: at least
    /// `|m - n|` so a path always exists.
    ///
    /// Public so the index tier can build Keogh envelopes with the *same*
    /// band arithmetic the measure evaluates with — any drift between the
    /// two would make the envelope bounds inadmissible.
    pub fn band(&self, m: usize, n: usize) -> usize {
        band_radius(self.window_pct, m, n)
    }
}

/// The Sakoe–Chiba band radius for a `window_pct`% band over lengths
/// `m`, `n` — the single source of truth shared by [`Dtw`] and the index
/// tier's envelope builder.
pub fn band_radius(window_pct: f64, m: usize, n: usize) -> usize {
    let base = (window_pct / 100.0 * m.max(n) as f64).ceil() as usize;
    base.max(m.abs_diff(n))
}

impl Distance for Dtw {
    fn name(&self) -> String {
        if self.window_pct >= 100.0 {
            "DTW".into()
        } else {
            format!("DTW(δ={})", self.window_pct)
        }
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // The anti-diagonal wavefront kernel: bit-identical to the
        // row-major reference `dtw_banded_ws` (same per-cell dataflow),
        // but free of its left-neighbour dependency chain.
        wavefront_ws(x, y, self.band(x.len(), y.len()), Squared, ws)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        if cutoff.is_nan() || cutoff == f64::INFINITY {
            return self.distance_ws(x, y, ws);
        }
        wavefront_pruned(x, y, self.band(x.len(), y.len()), Squared, cutoff, ws).0
    }

    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        // Row-major across sixteen columns, one per lane: at narrow
        // bands the wavefront's diagonals are too short to fill the
        // vector unit, while the lanes always are full.
        batch::row_ws::<MAX_ROW_BLOCK, _>(self, x, cols, out, ws);
    }

    fn lanes_hint(&self) -> usize {
        LANES
    }

    fn index_profile(&self) -> crate::measure::IndexProfile {
        // Plain banded DTW over raw values is exactly what LB_PAA /
        // LB_Keogh envelopes lower-bound. The derivative and weighted
        // variants below keep the `None` default: envelopes over the raw
        // series say nothing about transformed or reweighted costs.
        crate::measure::IndexProfile::KeoghDtw {
            window_pct: self.window_pct,
        }
    }
}

impl<const W: usize> LaneBlock<W> for Dtw {
    fn block_ws(&self, x: &[f64], cols: &[&[f64]; W], ws: &mut Workspace) -> Option<[f64; W]> {
        batch::dtw_block_ws(self.band(x.len(), cols[0].len()), x, cols, ws)
    }
}

/// Banded DTW with squared local costs and a two-row rolling DP whose
/// rows live in `ws`. `band` is the absolute Sakoe–Chiba radius.
///
/// The row-major reference for the wavefront kernel behind [`Dtw`]
/// (DESIGN.md §9.2). No production path calls it: the tests and
/// `bench_kernels`' dp gate compare the wavefront against it bit for
/// bit.
pub fn dtw_banded_ws(x: &[f64], y: &[f64], band: usize, ws: &mut Workspace) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { f64::INFINITY };
    }

    const INF: f64 = f64::INFINITY;
    let (mut prev, mut curr) = ws.dp_rows2(n + 1);
    prev.fill(INF);
    prev[0] = 0.0;

    for i in 1..=m {
        curr.fill(INF);
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        if lo > hi {
            std::mem::swap(&mut prev, &mut curr);
            continue;
        }
        for j in lo..=hi {
            // tsdist-lint: allow(hot-path-bounds-check, reason = "reference row-major kernel: the wavefront equivalence tests and bench_kernels' dp gate compare against it; no production path calls it")
            let d = x[i - 1] - y[j - 1];
            let cost = d * d;
            let best = prev[j - 1].min(prev[j]).min(curr[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Derivative DTW (Keogh & Pazzani 2001): DTW applied to the estimated
/// first derivative
/// `d_i = ((x_i - x_{i-1}) + (x_{i+1} - x_{i-1}) / 2) / 2`,
/// one of the popular DTW variants the paper discusses in Section 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivativeDtw {
    /// The underlying banded DTW.
    pub dtw: Dtw,
}

impl DerivativeDtw {
    /// DDTW with the given band percentage.
    pub fn with_window_pct(window_pct: f64) -> Self {
        DerivativeDtw {
            dtw: Dtw::with_window_pct(window_pct),
        }
    }

    /// Keogh's derivative estimate; endpoints copy their neighbour.
    pub fn derivative(x: &[f64]) -> Vec<f64> {
        let mut d = Vec::new();
        Self::derivative_into(x, &mut d);
        d
    }

    /// [`DerivativeDtw::derivative`] writing into a reused buffer
    /// (cleared first).
    pub fn derivative_into(x: &[f64], d: &mut Vec<f64>) {
        let m = x.len();
        d.clear();
        if m < 3 {
            d.resize(m, 0.0);
            return;
        }
        d.reserve(m);
        d.push(0.0);
        for i in 1..m - 1 {
            d.push(((x[i] - x[i - 1]) + (x[i + 1] - x[i - 1]) / 2.0) / 2.0);
        }
        d.push(0.0);
        d[0] = d[1];
        d[m - 1] = d[m - 2];
    }

    /// Runs `dp` on the derivatives of `x` and `y`. They live in the aux
    /// arenas so the DP rows remain free for the nested banded-DTW call.
    fn with_derivatives(
        x: &[f64],
        y: &[f64],
        ws: &mut Workspace,
        dp: impl FnOnce(&[f64], &[f64], &mut Workspace) -> f64,
    ) -> f64 {
        let mut dx = ws.take_aux();
        let mut dy = ws.take_aux2();
        Self::derivative_into(x, &mut dx);
        Self::derivative_into(y, &mut dy);
        let d = dp(&dx, &dy, ws);
        ws.put_aux(dx);
        ws.put_aux2(dy);
        d
    }
}

impl Distance for DerivativeDtw {
    fn name(&self) -> String {
        format!("DDTW(δ={})", self.dtw.window_pct)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        Self::with_derivatives(x, y, ws, |dx, dy, ws| self.dtw.distance_ws(dx, dy, ws))
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        // The derivative transform is cutoff-independent; the nested DTW
        // does the pruning (and handles non-finite cutoffs itself).
        Self::with_derivatives(x, y, ws, |dx, dy, ws| {
            self.dtw.distance_upto(dx, dy, ws, cutoff)
        })
    }

    fn lanes_hint(&self) -> usize {
        self.dtw.lanes_hint()
    }
}

/// Weighted DTW (Jeong et al. 2011): penalizes warping-path cells by a
/// logistic weight of their distance from the diagonal,
/// `w(k) = 1 / (1 + exp(-g (k - m/2)))`, discouraging large warps without
/// a hard band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedDtw {
    /// Steepness of the logistic penalty (Jeong et al. use `g = 0.05`).
    pub g: f64,
}

impl WeightedDtw {
    /// WDTW with logistic steepness `g`.
    pub fn new(g: f64) -> Self {
        WeightedDtw { g }
    }

    /// Runs `dp` on the logistic weights for lengths `m`, `n`
    /// (`weights[k]` for `|i - j| = k`), held in the aux arena.
    fn with_weights(
        &self,
        m: usize,
        n: usize,
        ws: &mut Workspace,
        dp: impl FnOnce(&[f64], &mut Workspace) -> f64,
    ) -> f64 {
        let half = m.max(n) as f64 / 2.0;
        let mut weights = ws.take_aux();
        weights.extend((0..m.max(n)).map(|k| 1.0 / (1.0 + (-self.g * (k as f64 - half)).exp())));
        let out = dp(&weights, ws);
        ws.put_aux(weights);
        out
    }
}

impl Distance for WeightedDtw {
    fn name(&self) -> String {
        format!("WDTW(g={})", self.g)
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // Anti-diagonal wavefront sweep, bit-identical to the row-major
        // reference `wdtw_row_major` (same per-cell dataflow). Band
        // `m + n` is the unbanded range.
        let (m, n) = (x.len(), y.len());
        self.with_weights(m, n, ws, |w, ws| wavefront_ws(x, y, m + n, Weighted(w), ws))
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        if cutoff.is_nan() || cutoff == f64::INFINITY {
            return self.distance_ws(x, y, ws);
        }
        // Wavefront live-window pruning, with the logistic weight folded
        // into the (still non-negative) local cost.
        let (m, n) = (x.len(), y.len());
        self.with_weights(m, n, ws, |w, ws| {
            wavefront_pruned(x, y, m + n, Weighted(w), cutoff, ws).0
        })
    }

    fn lanes_hint(&self) -> usize {
        LANES
    }
}

/// Weighted DTW with logistic steepness `g` as a plain row-major DP over
/// allocated rows: the reference the wavefront kernel behind
/// [`WeightedDtw`] is bit-compared against (DESIGN.md §9.2).
pub fn wdtw_row_major(x: &[f64], y: &[f64], g: f64) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { f64::INFINITY };
    }
    const INF: f64 = f64::INFINITY;
    let half = m.max(n) as f64 / 2.0;
    // Precompute weights for all |i - j|.
    let weights: Vec<f64> = (0..m.max(n))
        .map(|k| 1.0 / (1.0 + (-g * (k as f64 - half)).exp()))
        .collect();

    let mut prev = vec![INF; n + 1];
    let mut curr = vec![INF; n + 1];
    prev[0] = 0.0;
    for i in 1..=m {
        curr.fill(INF);
        for j in 1..=n {
            let d = x[i - 1] - y[j - 1];
            let w = weights[i.abs_diff(j)];
            let best = prev[j - 1].min(prev[j]).min(curr[j - 1]);
            curr[j] = w * d * d + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::Euclidean;

    #[test]
    fn dtw_zero_for_identical() {
        let x = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(Dtw::unconstrained().distance(&x, &x), 0.0);
    }

    #[test]
    fn dtw_zero_band_equals_squared_euclidean() {
        let x = [1.0, 3.0, 2.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0];
        let d0 = Dtw::with_window_pct(0.0).distance(&x, &y);
        let ed = Euclidean.distance(&x, &y);
        assert!((d0 - ed * ed).abs() < 1e-12);
    }

    #[test]
    fn dtw_handles_local_stretch_that_defeats_euclid() {
        // y is x with a plateau stretched: DTW aligns it nearly perfectly.
        let x = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 0.0];
        let y = [0.0, 1.0, 2.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        let dtw = Dtw::unconstrained().distance(&x, &y);
        let ed = Euclidean.distance(&x, &y);
        assert!(dtw < 1e-12, "dtw = {dtw}");
        assert!(ed > 1.0);
    }

    #[test]
    fn wider_band_never_increases_distance() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4 + 0.8).sin()).collect();
        let mut last = f64::INFINITY;
        for pct in [0.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let d = Dtw::with_window_pct(pct).distance(&x, &y);
            assert!(d <= last + 1e-12, "band {pct} increased distance");
            last = d;
        }
    }

    #[test]
    fn dtw_supports_unequal_lengths() {
        let x = [0.0, 1.0, 2.0, 1.0, 0.0];
        let y = [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.0];
        let d = Dtw::with_window_pct(10.0).distance(&x, &y);
        assert!(d.is_finite());
    }

    #[test]
    fn dtw_monotone_under_growing_perturbation() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.5).sin()).collect();
        let mut last = 0.0;
        for amp in [0.0, 0.2, 0.5, 1.0] {
            let y: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, v)| v + amp * ((i % 3) as f64 - 1.0))
                .collect();
            let d = Dtw::unconstrained().distance(&x, &y);
            assert!(d >= last - 1e-12);
            last = d;
        }
    }

    #[test]
    #[should_panic(expected = "window percentage")]
    fn invalid_band_panics() {
        let _ = Dtw::with_window_pct(150.0);
    }

    #[test]
    fn ddtw_ignores_constant_offsets() {
        // Derivatives kill vertical offsets entirely.
        let x = [0.0, 1.0, 4.0, 9.0, 16.0, 25.0];
        let y: Vec<f64> = x.iter().map(|v| v + 100.0).collect();
        let d = DerivativeDtw::with_window_pct(100.0).distance(&x, &y);
        assert!(d < 1e-12, "d = {d}");
    }

    #[test]
    fn ddtw_derivative_of_line_is_constant_slope() {
        let x = [0.0, 2.0, 4.0, 6.0, 8.0];
        let d = DerivativeDtw::derivative(&x);
        for v in &d {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn wdtw_zero_for_identical_and_positive_otherwise() {
        let x = [1.0, 2.0, 0.5, 3.0];
        let y = [0.5, 1.5, 2.5, 0.0];
        let w = WeightedDtw::new(0.05);
        assert!(w.distance(&x, &x).abs() < 1e-12);
        assert!(w.distance(&x, &y) > 0.0);
    }

    #[test]
    fn wdtw_penalizes_far_from_diagonal_alignment_more_with_steeper_g() {
        // A shifted pattern needs off-diagonal alignment; steeper g makes
        // that costlier.
        let x: Vec<f64> = (0..32).map(|i| if i == 8 { 5.0 } else { 0.0 }).collect();
        let y: Vec<f64> = (0..32).map(|i| if i == 20 { 5.0 } else { 0.0 }).collect();
        let soft = WeightedDtw::new(0.01).distance(&x, &y);
        let hard = WeightedDtw::new(0.5).distance(&x, &y);
        assert!(hard >= soft);
    }
}
