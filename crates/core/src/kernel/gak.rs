//! The Global Alignment Kernel (Cuturi 2011).
//!
//! GAK sums the scores of *all* monotone alignments between two series,
//! where each aligned pair contributes the "geometrically divided"
//! Gaussian local kernel
//!
//! ```text
//! κ(a, b) = k(a, b) / (2 - k(a, b)),   k(a, b) = exp(-(a-b)^2 / (2σ^2))
//! ```
//!
//! (the division keeps the alignment kernel positive definite). The sum
//! over exponentially many alignments is computed by the DTW-style DP
//! `K[i][j] = κ(x_i, y_j) (K[i-1][j] + K[i][j-1] + K[i-1][j-1])`.
//!
//! The products of thousands of sub-unit local kernels underflow `f64`
//! almost immediately, so the DP runs in linear space with *per-row
//! rescaling*: whenever a row's maximum drifts out of a safe magnitude
//! band, the row is rescaled and the log of the factor accumulated. This
//! is ~6x faster than a per-cell log-sum-exp DP (one `exp` per cell
//! instead of three `exp` + two `ln`) while producing the same
//! `log k(x, y)` to full precision.

use super::rescale_row;
use crate::measure::Kernel;
use crate::workspace::Workspace;

/// GAK with Gaussian bandwidth multiplier γ.
///
/// Following Cuturi's recommendation, the effective bandwidth scales
/// with the series length: `σ = γ * sqrt(max(m, n))`. For z-normalized
/// series the median pointwise gap is O(1), so Table 4's γ grid
/// (0.01..=20) then spans from razor-sharp to near-flat local kernels —
/// interpreting γ as an *absolute* σ instead degenerates the kernel for
/// small grid values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gak {
    /// Bandwidth multiplier γ (Table 4's grid, 0.01..=20).
    pub sigma: f64,
}

impl Gak {
    /// Creates the global alignment kernel.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0, "GAK sigma must be positive, got {sigma}");
        Gak { sigma }
    }
}

impl Kernel for Gak {
    fn name(&self) -> String {
        format!("GAK(γ={})", self.sigma)
    }

    /// The raw kernel value `exp(log k)` — may underflow for long series;
    /// the normalized-distance path goes through
    /// [`Kernel::log_kernel_ws`], which is exact.
    fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.log_kernel_ws(x, y, ws).exp()
    }

    /// Log of the alignment kernel value (the quantity actually used for
    /// normalized comparisons; the raw value may be far below `f64`
    /// range), from one linear-space DP over two rolling rows drawn from
    /// `ws`, rescaled per row.
    fn log_kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::NEG_INFINITY };
        }
        let sigma_eff = self.sigma * (m.max(n) as f64).sqrt();
        let inv = 1.0 / (2.0 * sigma_eff * sigma_eff);

        // Linear-space rolling rows with cumulative log rescaling.
        let (mut prev, mut curr) = ws.dp_rows2(n + 1);
        prev.fill(0.0);
        prev[0] = 1.0;
        let mut log_scale = 0.0f64;

        for i in 1..=m {
            curr[0] = 0.0;
            let xi = x[i - 1];
            let mut row_max = 0.0f64;
            for j in 1..=n {
                let d = xi - y[j - 1];
                let k_local = (-d * d * inv).exp();
                let kappa = k_local / (2.0 - k_local);
                let v = kappa * (prev[j] + curr[j - 1] + prev[j - 1]);
                curr[j] = v;
                row_max = row_max.max(v);
            }
            // Rescale when the row drifts towards under/overflow. prev is
            // about to be discarded (it becomes this row), so only the
            // accumulated scale must track the change.
            log_scale += rescale_row(curr, row_max);
            std::mem::swap(&mut prev, &mut curr);
        }
        if prev[n] <= 0.0 {
            f64::NEG_INFINITY
        } else {
            prev[n].ln() + log_scale
        }
    }

    fn is_symmetric(&self) -> bool {
        // The per-row rescale triggers on *row* maxima, which transposing
        // the DP changes; values match only to rounding, not bit-for-bit.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::log_add3;
    use crate::measure::{Distance, KernelDistance};

    fn log_kernel(gak: &Gak, x: &[f64], y: &[f64]) -> f64 {
        gak.log_kernel_ws(x, y, &mut Workspace::new())
    }

    fn normalized_distance(gak: Gak, x: &[f64], y: &[f64]) -> f64 {
        KernelDistance(gak).distance(x, y)
    }

    /// Reference log-sum-exp DP, kept as the oracle for the rescaled
    /// linear DP.
    fn log_kernel_logsumexp(gak: &Gak, x: &[f64], y: &[f64]) -> f64 {
        let (m, n) = (x.len(), y.len());
        let sigma_eff = gak.sigma * (m.max(n) as f64).sqrt();
        let inv = 1.0 / (2.0 * sigma_eff * sigma_eff);
        const NEG_INF: f64 = f64::NEG_INFINITY;
        let mut prev = vec![NEG_INF; n + 1];
        let mut curr = vec![NEG_INF; n + 1];
        prev[0] = 0.0;
        for i in 1..=m {
            curr[0] = NEG_INF;
            for j in 1..=n {
                let d = x[i - 1] - y[j - 1];
                let k_local = (-d * d * inv).exp();
                let log_kappa = k_local.ln() - (2.0 - k_local).ln();
                curr[j] = log_kappa + log_add3(prev[j], curr[j - 1], prev[j - 1]);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[n]
    }

    #[test]
    fn rescaled_dp_matches_logsumexp_oracle() {
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin() * 2.0).collect();
        let y: Vec<f64> = (0..60)
            .map(|i| (i as f64 * 0.31 + 0.4).cos() * 1.5)
            .collect();
        for sigma in [0.05, 0.5, 1.0, 5.0] {
            let g = Gak::new(sigma);
            let fast = log_kernel(&g, &x, &y);
            let oracle = log_kernel_logsumexp(&g, &x, &y);
            if fast == f64::NEG_INFINITY || oracle == f64::NEG_INFINITY {
                // Tiny sigma: every local kernel underflows to zero in
                // both implementations.
                assert_eq!(fast, oracle, "sigma {sigma}");
            } else {
                assert!(
                    (fast - oracle).abs() < 1e-7 * oracle.abs().max(1.0),
                    "sigma {sigma}: {fast} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn subnormal_row_maximum_stays_finite() {
        // γ = 0.01 at length 16 gives σ = 0.04, so a first-sample gap of
        // 1.5082 makes κ(x₁, y₁) ≈ 1e-309: subnormal, with a reciprocal
        // that overflows. Every later cell of DP row 1 is at most that
        // value, so it is the row maximum, and multiplying the row by the
        // reciprocal would make its zero cell `curr[0]` NaN.
        let y: Vec<f64> = (0..16).map(|j| (j as f64 * 0.37).sin()).collect();
        let mut x: Vec<f64> = (0..16)
            .map(|i| (i as f64 * 0.37).sin() + 0.02 * (i as f64).cos())
            .collect();
        x[0] = y[0] + 1.5082;
        let g = Gak::new(0.01);
        for (a, b) in [(&x, &y), (&y, &x)] {
            let fast = log_kernel(&g, a, b);
            let oracle = log_kernel_logsumexp(&g, a, b);
            assert!(fast.is_finite(), "{fast}");
            let ulps = crate::kernel::ulp_diff(fast, oracle);
            assert!(
                ulps <= crate::kernel::KERNEL_MAX_ULPS,
                "{fast} vs {oracle}: {ulps} ulps"
            );
        }
        assert_eq!(normalized_distance(g, &x, &y), 1.0);
    }

    #[test]
    fn identical_series_have_maximal_normalized_similarity() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin()).collect();
        let d = normalized_distance(Gak::new(1.0), &x, &x);
        assert!(d.abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn normalized_similarity_is_at_most_one() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..24).map(|i| ((i % 5) as f64) - 2.0).collect();
        let d = normalized_distance(Gak::new(1.0), &x, &y);
        assert!(d >= -1e-9, "d = {d}");
        assert!(d <= 1.0 + 1e-9);
    }

    #[test]
    fn log_space_survives_long_series() {
        // 400 points would underflow a direct product of local kernels.
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.05).sin()).collect();
        let y: Vec<f64> = (0..400).map(|i| (i as f64 * 0.05 + 0.5).sin()).collect();
        let l = log_kernel(&Gak::new(0.5), &x, &y);
        assert!(l.is_finite());
        let d = normalized_distance(Gak::new(0.5), &x, &y);
        assert!(d.is_finite() && d > 0.0 && d <= 1.0, "d = {d}");
    }

    #[test]
    fn warped_copy_is_closer_than_unrelated_series() {
        let x: Vec<f64> = (0..48)
            .map(|i| (-((i as f64 - 24.0) / 6.0).powi(2) / 2.0).exp())
            .collect();
        let warped: Vec<f64> = (0..48)
            .map(|i| {
                let t = (i as f64 / 47.0).powf(1.25) * 47.0;
                let d = (t - 24.0) / 6.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let noise: Vec<f64> = (0..48).map(|i| ((i * 7 % 11) as f64) / 5.0 - 1.0).collect();
        let g = Gak::new(0.5);
        let d_warp = normalized_distance(g, &x, &warped);
        let d_noise = normalized_distance(g, &x, &noise);
        assert!(d_warp < d_noise);
    }

    #[test]
    fn tiny_sigma_sharpens_discrimination() {
        let x = [0.0, 1.0, 0.0, -1.0];
        let y = [0.1, 0.9, 0.1, -0.9];
        let close_broad = normalized_distance(Gak::new(5.0), &x, &y);
        let close_sharp = normalized_distance(Gak::new(0.05), &x, &y);
        assert!(close_sharp > close_broad);
    }

    #[test]
    fn empty_input_conventions() {
        let g = Gak::new(1.0);
        assert_eq!(log_kernel(&g, &[], &[]), 0.0);
        assert_eq!(log_kernel(&g, &[], &[1.0]), f64::NEG_INFINITY);
    }
}
