//! SINK: the Shift-INvariant Kernel (Paparrizos & Franklin 2019).
//!
//! SINK sums an exponentiated coefficient-normalized cross-correlation
//! over *all* shifts:
//!
//! ```text
//! k(x, y) = sum_w exp(γ * CC_w(x, y) / (||x|| ||y||))
//! ```
//!
//! which makes it a smooth, PSD analogue of NCC_c: instead of only the
//! best shift, every alignment contributes with exponential weighting.
//! Like NCC_c it costs O(m log m) via the FFT — the paper's Figure 9
//! places SINK and NCC_c together in the accuracy-to-runtime sweet spot.

use crate::measure::Kernel;
use crate::workspace::Workspace;

/// The SINK kernel with exponent weight γ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sink {
    /// Exponent weight γ (Table 4 tunes over `1..=20`).
    pub gamma: f64,
}

impl Sink {
    /// Creates the SINK kernel.
    ///
    /// # Panics
    /// Panics if `gamma` is not strictly positive.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "SINK gamma must be positive, got {gamma}");
        Sink { gamma }
    }
}

impl Kernel for Sink {
    fn name(&self) -> String {
        format!("SINK(γ={})", self.gamma)
    }

    fn kernel_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        let denom = (nx * ny).max(f64::MIN_POSITIVE);
        ws.cc_scratch()
            .cross_correlation(x, y)
            .iter()
            .map(|&cc| (self.gamma * cc / denom).exp())
            .sum()
    }

    fn is_symmetric(&self) -> bool {
        // cross_correlation(x, y) and (y, x) are reverses computed through
        // different FFT pairings; equal only to rounding.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn znorm(x: &[f64]) -> Vec<f64> {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let sd = (x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
            .sqrt()
            .max(1e-12);
        x.iter().map(|v| (v - mean) / sd).collect()
    }

    #[test]
    fn self_kernel_dominates_cross_kernel_normalized() {
        let x = znorm(&[0.1, 0.9, -1.2, 0.4, 1.5, -0.7, 0.3, -1.3]);
        let y = znorm(&[1.4, -0.3, 0.2, -1.8, 0.9, 0.5, -1.0, 0.1]);
        let k = Sink::new(5.0);
        let kxx = k.self_kernel(&x);
        let kyy = k.self_kernel(&y);
        let kxy = k.kernel(&x, &y);
        assert!(kxy / (kxx * kyy).sqrt() <= 1.0 + 1e-9);
    }

    #[test]
    fn shifted_copies_stay_highly_similar() {
        // A compact bump shifted in time: the best shift matches exactly,
        // which dominates the exponentially weighted sum.
        let bump = |center: f64| -> Vec<f64> {
            (0..64)
                .map(|i| (-((i as f64 - center) / 4.0).powi(2) / 2.0).exp())
                .collect()
        };
        let (x, y) = (znorm(&bump(20.0)), znorm(&bump(33.0)));
        let k = Sink::new(10.0);
        let sim = k.kernel(&x, &y) / (k.self_kernel(&x) * k.self_kernel(&y)).sqrt();
        assert!(sim > 0.5, "normalized SINK similarity {sim}");
        // And far above the similarity to an unrelated sawtooth.
        let z = znorm(&(0..64).map(|i| (i % 5) as f64).collect::<Vec<_>>());
        let sim_z = k.kernel(&x, &z) / (k.self_kernel(&x) * k.self_kernel(&z)).sqrt();
        assert!(sim > sim_z, "{sim} !> {sim_z}");
    }

    #[test]
    fn gamma_sharpens_the_kernel() {
        // Larger gamma concentrates weight on the best shift, so the
        // normalized similarity to an unrelated series shrinks.
        let x = znorm(&(0..32).map(|i| (i as f64 * 0.7).sin()).collect::<Vec<_>>());
        let y = znorm(
            &(0..32)
                .map(|i| ((i * i % 13) as f64) - 6.0)
                .collect::<Vec<_>>(),
        );
        let sim = |g: f64| {
            let k = Sink::new(g);
            k.kernel(&x, &y) / (k.self_kernel(&x) * k.self_kernel(&y)).sqrt()
        };
        assert!(sim(20.0) < sim(1.0));
    }

    #[test]
    fn kernel_is_positive() {
        let x = [0.0, 0.0, 0.0];
        let y = [1.0, -1.0, 1.0];
        assert!(Sink::new(3.0).kernel(&x, &y) > 0.0);
    }
}
