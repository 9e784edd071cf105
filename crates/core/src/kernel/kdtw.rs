//! KDTW: the regularized Dynamic Time Warping kernel (Marteau & Gibet
//! 2014).
//!
//! KDTW makes DTW-style alignment positive definite by (i) summing over
//! all alignments instead of minimizing, with the regularized local
//! kernel `κ(a, b) = (exp(-ν (a-b)^2) + ε) / (3 (1 + ε))`, and (ii)
//! adding a corrective term `K'` that walks the two diagonals. Following
//! the reference recursion:
//!
//! ```text
//! K [i][j] = κ(x_i, y_j) (K[i-1][j] + K[i][j-1] + K[i-1][j-1])
//! K'[i][j] = K'[i-1][j] κ(x_i, y_i) + K'[i][j-1] κ(x_j, y_j)
//!            (+ K'[i-1][j-1] κ(x_i, y_j)   when i == j)
//! KDTW(x, y) = K[m][n] + K'[m][n]
//! ```
//!
//! Like GAK, the raw values underflow `f64` almost immediately, so both
//! DPs run in linear space with per-row rescaling and the two
//! log-magnitudes are combined at the end. This is the kernel the paper
//! reports as the first measure to significantly outperform DTW in *both*
//! supervised and unsupervised settings.

use super::{log_add, rescale_row};
use crate::measure::Kernel;
use crate::workspace::Workspace;

/// KDTW with stiffness ν (the paper's γ grid, `2^-15 ..= 2^0`; the
/// unsupervised pick is `γ = 0.125`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kdtw {
    /// Local-kernel stiffness ν.
    pub nu: f64,
}

/// Regularization epsilon of the local kernel (reference implementation
/// value).
const LOCAL_EPS: f64 = 1e-3;

impl Kdtw {
    /// Creates the KDTW kernel.
    ///
    /// # Panics
    /// Panics if `nu` is not strictly positive.
    pub fn new(nu: f64) -> Self {
        assert!(nu > 0.0, "KDTW nu must be positive, got {nu}");
        Kdtw { nu }
    }

    /// The regularized local kernel κ(a, b) (linear domain).
    #[inline]
    fn local(&self, a: f64, b: f64) -> f64 {
        let d = a - b;
        ((-self.nu * d * d).exp() + LOCAL_EPS) / (3.0 * (1.0 + LOCAL_EPS))
    }
}

impl Kernel for Kdtw {
    fn name(&self) -> String {
        format!("KDTW(ν={})", self.nu)
    }

    fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.log_kernel_ws(x, y, ws).exp()
    }

    /// Log of the KDTW kernel value, from the two linear-space DPs over
    /// four rolling rows drawn from `ws`, each rescaled per row.
    fn log_kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::NEG_INFINITY };
        }

        // Diagonal local kernels κ(x_i, y_i), index clamped to the shorter
        // length for unequal series.
        let min_mn = m.min(n);
        let mut diag = ws.take_aux();
        diag.extend((0..min_mn).map(|i| self.local(x[i], y[i])));
        let result = {
            let diag_at = |i: usize| diag[(i - 1).min(min_mn - 1)];

            // Linear-space rolling rows with separate cumulative log
            // scales for the two DPs.
            let (mut k_prev, mut k_curr, mut kp_prev, mut kp_curr) = ws.dp_rows4(n + 1);
            let mut k_scale = 0.0f64;
            let mut kp_scale = 0.0f64;

            // Row 0.
            k_prev[0] = 1.0;
            kp_prev[0] = 1.0;
            for j in 1..=n {
                k_prev[j] = k_prev[j - 1] * self.local(x[0], y[j - 1]);
                kp_prev[j] = kp_prev[j - 1] * diag_at(j);
            }

            for i in 1..=m {
                k_curr[0] = k_prev[0] * self.local(x[i - 1], y[0]);
                kp_curr[0] = kp_prev[0] * diag_at(i);
                let mut k_max = k_curr[0];
                let mut kp_max = kp_curr[0];
                for j in 1..=n {
                    let lk = self.local(x[i - 1], y[j - 1]);
                    let v = lk * (k_prev[j] + k_curr[j - 1] + k_prev[j - 1]);
                    k_curr[j] = v;
                    k_max = k_max.max(v);

                    let mut w = kp_prev[j] * diag_at(i) + kp_curr[j - 1] * diag_at(j);
                    if i == j {
                        w += kp_prev[j - 1] * lk;
                    }
                    kp_curr[j] = w;
                    kp_max = kp_max.max(w);
                }
                // K' rows never mix with K rows, so the scales stay
                // independent.
                k_scale += rescale_row(k_curr, k_max);
                kp_scale += rescale_row(kp_curr, kp_max);
                std::mem::swap(&mut k_prev, &mut k_curr);
                std::mem::swap(&mut kp_prev, &mut kp_curr);
            }

            let log_k = if k_prev[n] > 0.0 {
                k_prev[n].ln() + k_scale
            } else {
                f64::NEG_INFINITY
            };
            let log_kp = if kp_prev[n] > 0.0 {
                kp_prev[n].ln() + kp_scale
            } else {
                f64::NEG_INFINITY
            };
            log_add(log_k, log_kp)
        };
        ws.put_aux(diag);
        result
    }

    fn is_symmetric(&self) -> bool {
        // Per-row rescaling triggers on row maxima; transposing changes
        // which rows rescale, so values agree only to rounding.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::log_add3;
    use crate::measure::{Distance, KernelDistance};

    fn log_kernel(k: &Kdtw, x: &[f64], y: &[f64]) -> f64 {
        k.log_kernel_ws(x, y, &mut Workspace::new())
    }

    /// Direct full-matrix f64 DP (no rescaling) — valid for short series,
    /// used as the oracle.
    fn kdtw_naive(k: &Kdtw, x: &[f64], y: &[f64]) -> f64 {
        let (m, n) = (x.len(), y.len());
        let mut dp = vec![vec![0.0f64; n + 1]; m + 1];
        let mut dp1 = vec![vec![0.0f64; n + 1]; m + 1];
        let min_mn = m.min(n);
        let diag = |i: usize| {
            let idx = (i - 1).min(min_mn - 1);
            k.local(x[idx], y[idx])
        };
        dp[0][0] = 1.0;
        dp1[0][0] = 1.0;
        for j in 1..=n {
            dp[0][j] = dp[0][j - 1] * k.local(x[0], y[j - 1]);
            dp1[0][j] = dp1[0][j - 1] * diag(j);
        }
        for i in 1..=m {
            dp[i][0] = dp[i - 1][0] * k.local(x[i - 1], y[0]);
            dp1[i][0] = dp1[i - 1][0] * diag(i);
            for j in 1..=n {
                let lk = k.local(x[i - 1], y[j - 1]);
                dp[i][j] = lk * (dp[i - 1][j] + dp[i][j - 1] + dp[i - 1][j - 1]);
                dp1[i][j] = dp1[i - 1][j] * diag(i) + dp1[i][j - 1] * diag(j);
                if i == j {
                    dp1[i][j] += dp1[i - 1][j - 1] * lk;
                }
            }
        }
        (dp[m][n] + dp1[m][n]).ln()
    }

    /// Log-space twin of [`kdtw_naive`]: the same two DPs with every
    /// product a sum of logs and every sum a log-sum-exp, so nothing
    /// underflows at any length.
    fn kdtw_logsumexp(k: &Kdtw, x: &[f64], y: &[f64]) -> f64 {
        let (m, n) = (x.len(), y.len());
        let min_mn = m.min(n);
        let ln_local = |a: f64, b: f64| k.local(a, b).ln();
        let ln_diag = |i: usize| {
            let idx = (i - 1).min(min_mn - 1);
            ln_local(x[idx], y[idx])
        };
        let mut dp = vec![vec![f64::NEG_INFINITY; n + 1]; m + 1];
        let mut dp1 = vec![vec![f64::NEG_INFINITY; n + 1]; m + 1];
        dp[0][0] = 0.0;
        dp1[0][0] = 0.0;
        for j in 1..=n {
            dp[0][j] = dp[0][j - 1] + ln_local(x[0], y[j - 1]);
            dp1[0][j] = dp1[0][j - 1] + ln_diag(j);
        }
        for i in 1..=m {
            dp[i][0] = dp[i - 1][0] + ln_local(x[i - 1], y[0]);
            dp1[i][0] = dp1[i - 1][0] + ln_diag(i);
            for j in 1..=n {
                let lk = ln_local(x[i - 1], y[j - 1]);
                dp[i][j] = lk + log_add3(dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]);
                dp1[i][j] = log_add(dp1[i - 1][j] + ln_diag(i), dp1[i][j - 1] + ln_diag(j));
                if i == j {
                    dp1[i][j] = log_add(dp1[i][j], dp1[i - 1][j - 1] + lk);
                }
            }
        }
        log_add(dp[m][n], dp1[m][n])
    }

    #[test]
    fn row_maxima_at_the_local_kernel_floor_stay_finite() {
        // κ ≥ ε / (3 (1 + ε)) ≈ 3.3e-4 for every input, so a row maximum
        // is at least 3.3e-4 times the previous row's, which the rescale
        // keeps at or above 1e-120: no input drives a KDTW row maximum
        // subnormal, unlike GAK's. Series 10 apart under a stiff ν put
        // every local kernel on that floor, the deepest a row can fall
        // between rescales.
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..300).map(|j| 10.0 + (j as f64 * 0.13).cos()).collect();
        let k = Kdtw::new(1.0);
        assert_eq!(k.local(x[0], y[0]), LOCAL_EPS / (3.0 * (1.0 + LOCAL_EPS)));
        for (a, b) in [(&x, &y), (&y, &x)] {
            let fast = log_kernel(&k, a, b);
            let oracle = kdtw_logsumexp(&k, a, b);
            assert!(fast.is_finite(), "{fast}");
            let ulps = crate::kernel::ulp_diff(fast, oracle);
            assert!(
                ulps <= crate::kernel::KERNEL_MAX_ULPS,
                "{fast} vs {oracle}: {ulps} ulps"
            );
        }
    }

    #[test]
    fn rescaled_dp_matches_naive_oracle() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.5).sin()).collect();
        let y: Vec<f64> = (0..20).map(|i| (i as f64 * 0.45 + 0.2).cos()).collect();
        for nu in [0.01, 0.125, 1.0] {
            let k = Kdtw::new(nu);
            let fast = log_kernel(&k, &x, &y);
            let oracle = kdtw_naive(&k, &x, &y);
            assert!(
                (fast - oracle).abs() < 1e-9 * oracle.abs().max(1.0),
                "nu {nu}: {fast} vs {oracle}"
            );
            let logspace = kdtw_logsumexp(&k, &x, &y);
            assert!(
                (logspace - oracle).abs() < 1e-9 * oracle.abs().max(1.0),
                "nu {nu}: log-space oracle {logspace} vs {oracle}"
            );
        }
    }

    #[test]
    fn normalized_self_distance_is_zero() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let d = KernelDistance(Kdtw::new(0.125)).distance(&x, &x);
        assert!(d.abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn symmetric() {
        let x = [0.2, 1.1, -0.6, 0.4, 0.9];
        let y = [1.0, -0.3, 0.5, -1.2, 0.0];
        let k = Kdtw::new(0.125);
        let a = log_kernel(&k, &x, &y);
        let b = log_kernel(&k, &y, &x);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn log_space_survives_long_series() {
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.04).sin()).collect();
        let y: Vec<f64> = (0..500).map(|i| (i as f64 * 0.04 + 0.3).sin()).collect();
        let l = log_kernel(&Kdtw::new(0.125), &x, &y);
        assert!(l.is_finite());
        let d = KernelDistance(Kdtw::new(0.125)).distance(&x, &y);
        assert!((0.0..=1.0 + 1e-9).contains(&d), "d = {d}");
    }

    #[test]
    fn closer_series_have_smaller_normalized_distance() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let near: Vec<f64> = x.iter().map(|v| v + 0.05).collect();
        let far: Vec<f64> = (0..32).map(|i| ((i * 11 % 7) as f64) - 3.0).collect();
        let d = KernelDistance(Kdtw::new(0.125));
        assert!(d.distance(&x, &near) < d.distance(&x, &far));
    }

    #[test]
    fn warping_tolerated_better_than_rbf() {
        // A locally stretched bump: the alignment kernel should rate it
        // relatively closer than the lock-step RBF does.
        use crate::kernel::Rbf;
        let x: Vec<f64> = (0..48)
            .map(|i| (-((i as f64 - 24.0) / 5.0).powi(2) / 2.0).exp())
            .collect();
        let warped: Vec<f64> = (0..48)
            .map(|i| {
                let t = (i as f64 / 47.0).powf(1.3) * 47.0;
                let d = (t - 24.0) / 5.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let unrelated: Vec<f64> = (0..48).map(|i| ((i % 4) as f64) / 2.0 - 0.75).collect();
        let kd = KernelDistance(Kdtw::new(0.5));
        let rd = KernelDistance(Rbf::new(0.5));
        let k_ratio = kd.distance(&x, &warped) / kd.distance(&x, &unrelated).max(1e-12);
        let r_ratio = rd.distance(&x, &warped) / rd.distance(&x, &unrelated).max(1e-12);
        assert!(k_ratio < r_ratio, "kdtw {k_ratio} vs rbf {r_ratio}");
    }

    #[test]
    fn unequal_lengths_supported() {
        let x = [0.0, 1.0, 0.0];
        let y = [0.0, 0.5, 1.0, 0.5, 0.0];
        let l = log_kernel(&Kdtw::new(0.125), &x, &y);
        assert!(l.is_finite());
    }
}
