//! The 4 kernel measures of Section 8.
//!
//! Kernel functions map series into a high-dimensional space implicitly;
//! positive semi-definiteness gives convex learning problems. For 1-NN
//! evaluation each kernel is turned into the normalized dissimilarity
//! `d(x, y) = 1 - k(x, y) / sqrt(k(x,x) k(y,y))` (the evaluation platform
//! caches the self-similarities).
//!
//! * [`Rbf`] — the lock-step Radial Basis Function baseline,
//! * [`Sink`] — the shift-invariant kernel summing `exp(γ · NCC_c)` over
//!   all shifts (Paparrizos & Franklin 2019),
//! * [`Gak`] — Cuturi's Global Alignment Kernel (elastic; log-space DP),
//! * [`Kdtw`] — Marteau & Gibet's regularized DTW kernel (elastic;
//!   log-space DP with the diagonal corrective term).

mod gak;
mod kdtw;
mod rbf;
mod sink;

pub use gak::Gak;
pub use kdtw::Kdtw;
pub use rbf::Rbf;
pub use sink::Sink;

/// Numerically stable `log(exp(a) + exp(b))`.
#[inline]
pub(crate) fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Stable `log(exp(a) + exp(b) + exp(c))`.
#[inline]
#[cfg_attr(not(test), allow(dead_code))] // oracle for the rescaled DPs
pub(crate) fn log_add3(a: f64, b: f64, c: f64) -> f64 {
    log_add(log_add(a, b), c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Distance, Kernel, KernelDistance};

    #[test]
    fn log_add_matches_direct_computation() {
        for (a, b) in [(0.0f64, 0.0f64), (-1.0, -2.0), (3.0, -3.0)] {
            let expected = (a.exp() + b.exp()).ln();
            assert!((log_add(a, b) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn log_add_handles_negative_infinity() {
        assert_eq!(log_add(f64::NEG_INFINITY, 1.5), 1.5);
        assert_eq!(log_add(1.5, f64::NEG_INFINITY), 1.5);
    }

    #[test]
    fn log_add_is_stable_for_extreme_magnitudes() {
        let v = log_add(-1000.0, -1000.0);
        assert!((v - (-1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
        let w = log_add3(-2000.0, -2000.0, -2000.0);
        assert!((w - (-2000.0 + 3f64.ln())).abs() < 1e-9);
    }

    fn znorm(x: &[f64]) -> Vec<f64> {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let sd = (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
            .sqrt()
            .max(1e-12);
        x.iter().map(|v| (v - mean) / sd).collect()
    }

    fn all_kernels() -> Vec<Box<dyn Kernel>> {
        vec![
            Box::new(Rbf::new(0.25)),
            Box::new(Sink::new(5.0)),
            Box::new(Gak::new(1.0)),
            Box::new(Kdtw::new(0.125)),
        ]
    }

    #[test]
    fn the_paper_evaluates_exactly_4_kernels() {
        assert_eq!(all_kernels().len(), 4);
    }

    #[test]
    fn normalized_kernel_distance_is_zero_for_identical_series() {
        let x = znorm(&[0.3, 1.1, -0.4, 0.9, -1.6, 0.2, 0.8, -1.3]);
        for k in all_kernels() {
            let name = k.name();
            let d = KernelDistance(k).distance(&x, &x);
            assert!(d.abs() < 1e-9, "{name}: d(x,x) = {d}");
        }
    }

    #[test]
    fn normalized_kernel_distance_separates_different_series() {
        let x = znorm(&[0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0, -1.0]);
        let y = znorm(&[3.0, -2.0, 3.0, -2.0, 3.0, -2.0, 3.0, -2.0]);
        for k in all_kernels() {
            let name = k.name();
            let d = KernelDistance(k).distance(&x, &y);
            assert!(d > 1e-4, "{name}: d(x,y) = {d} too small");
            assert!(d.is_finite(), "{name}");
        }
    }

    #[test]
    fn kernels_are_symmetric() {
        let x = znorm(&[0.4, -0.9, 1.2, 0.1, -1.5, 0.7]);
        let y = znorm(&[1.0, 0.3, -0.8, 1.4, -0.2, -1.7]);
        for k in all_kernels() {
            let a = k.kernel(&x, &y);
            let b = k.kernel(&y, &x);
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{} not symmetric: {a} vs {b}",
                k.name()
            );
        }
    }
}
