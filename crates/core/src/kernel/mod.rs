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

/// Rescales a linear-space DP row whose maximum `max` has left the safe
/// band `[1e-120, 1e120]`, so the row's maximum becomes 1, and returns
/// `ln(max)` for the caller's log scale; leaves the row alone and returns
/// 0 otherwise, or when `max` is 0 (the row underflowed completely).
///
/// The row is multiplied by the reciprocal while that is finite. A
/// subnormal `max` has an infinite reciprocal, and `0 · ∞` would turn
/// the row's zero cells into NaN, so such a row is divided by `max`.
#[inline]
pub(crate) fn rescale_row(row: &mut [f64], max: f64) -> f64 {
    let drifted = max > 0.0 && !(1e-120..=1e120).contains(&max);
    if !drifted {
        return 0.0;
    }
    let f = 1.0 / max;
    if f.is_finite() {
        for v in row.iter_mut() {
            *v *= f;
        }
    } else {
        for v in row.iter_mut() {
            *v /= max;
        }
    }
    max.ln()
}

/// Stable `log(exp(a) + exp(b) + exp(c))`.
#[inline]
#[cfg_attr(not(test), allow(dead_code))] // oracle for the rescaled DPs
pub(crate) fn log_add3(a: f64, b: f64, c: f64) -> f64 {
    log_add(log_add(a, b), c)
}

/// The kernel row of DESIGN.md §9.4's ULP table: the most a rescaled
/// linear-space DP may drift from its log-space oracle.
#[cfg(test)]
pub(crate) const KERNEL_MAX_ULPS: u64 = 56;

/// Representable `f64`s between `a` and `b` (both finite).
#[cfg(test)]
pub(crate) fn ulp_diff(a: f64, b: f64) -> u64 {
    let ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    ordered(a).abs_diff(ordered(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Distance, Kernel, KernelDistance};

    #[test]
    fn rescale_row_divides_by_a_subnormal_maximum() {
        // 1e-309 is subnormal and its reciprocal overflows to +∞.
        let max = 1e-309f64;
        assert!((1.0 / max).is_infinite());
        let mut row = [0.0, max, 0.0];
        let log_factor = rescale_row(&mut row, max);
        assert_eq!(log_factor, max.ln());
        assert_eq!(row, [0.0, 1.0, 0.0]);
    }

    #[test]
    fn rescale_row_keeps_the_reciprocal_and_the_safe_band() {
        let mut row = [0.0, 1e-130, 3e-131];
        let f = 1.0 / 1e-130;
        let expected = [0.0, 1e-130 * f, 3e-131 * f];
        assert_eq!(rescale_row(&mut row, 1e-130), 1e-130f64.ln());
        assert_eq!(row.map(f64::to_bits), expected.map(f64::to_bits));
        for max in [0.0, 1e-120, 1.0, 1e120] {
            let mut row = [0.0, max];
            assert_eq!(rescale_row(&mut row, max), 0.0);
            assert_eq!(row, [0.0, max]);
        }
    }

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
