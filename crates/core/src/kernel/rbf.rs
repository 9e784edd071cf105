//! The Radial Basis Function kernel — the lock-step kernel baseline.

use crate::measure::Kernel;
use crate::workspace::Workspace;

/// RBF kernel: `k(x, y) = exp(-γ ||x - y||^2)`.
///
/// The paper finds RBF significantly *worse* than NCC_c — it inherits
/// ED's blindness to shift and warping, and its exponential decay
/// compresses distant neighbours together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rbf {
    /// Bandwidth γ (Table 4 tunes over `2^-15 .. 2^0`).
    pub gamma: f64,
}

impl Rbf {
    /// Creates the RBF kernel.
    ///
    /// # Panics
    /// Panics if `gamma` is not strictly positive.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "RBF gamma must be positive, got {gamma}");
        Rbf { gamma }
    }
}

impl Kernel for Rbf {
    fn name(&self) -> String {
        format!("RBF(γ={})", self.gamma)
    }

    fn kernel_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        let sq: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
        (-self.gamma * sq).exp()
    }

    fn self_kernel(&self, _x: &[f64]) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_kernel_is_one() {
        let k = Rbf::new(0.5);
        let x = [1.0, -2.0, 3.0];
        assert_eq!(k.self_kernel(&x), 1.0);
        assert!((k.kernel(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_decays_with_distance() {
        let k = Rbf::new(1.0);
        let x = [0.0, 0.0];
        let near = [0.1, 0.0];
        let far = [3.0, 0.0];
        assert!(k.kernel(&x, &near) > k.kernel(&x, &far));
    }

    #[test]
    fn hand_value() {
        let k = Rbf::new(0.5);
        // ||x - y||^2 = 4.
        let v = k.kernel(&[0.0, 0.0], &[2.0, 0.0]);
        assert!((v - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn bounded_in_unit_interval() {
        let k = Rbf::new(2.0f64.powi(-10));
        let x = [5.0, -5.0, 5.0];
        let y = [-5.0, 5.0, -5.0];
        let v = k.kernel(&x, &y);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_gamma_panics() {
        let _ = Rbf::new(0.0);
    }
}
