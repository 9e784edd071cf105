//! Multiple-comparison correction.
//!
//! Holm's step-down procedure controls the family-wise error rate when
//! one baseline is compared against many measures (exactly the shape of
//! Tables 2/3/5/6/7), as Demšar (2006) recommends.

/// Holm's step-down correction: given raw p-values, returns for each the
/// adjusted p-value; `adjusted[i] < alpha` controls the family-wise error
/// rate at `alpha` across all comparisons.
pub fn holm_adjust(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    if m == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| p_values[a].total_cmp(&p_values[b]));

    let mut adjusted = vec![0.0; m];
    let mut running_max = 0.0f64;
    for (rank, &idx) in order.iter().enumerate() {
        let factor = (m - rank) as f64;
        let adj = (p_values[idx] * factor).min(1.0);
        running_max = running_max.max(adj);
        adjusted[idx] = running_max;
    }
    adjusted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holm_adjustment_is_monotone_and_bounded() {
        let p = [0.01, 0.04, 0.03, 0.005];
        let adj = holm_adjust(&p);
        assert_eq!(adj.len(), 4);
        for (raw, a) in p.iter().zip(&adj) {
            assert!(a >= raw);
            assert!(*a <= 1.0);
        }
        // Smallest raw p-value gets multiplied by m.
        assert!((adj[3] - 0.02).abs() < 1e-12);
    }

    #[test]
    fn holm_preserves_order_of_evidence() {
        let p = [0.2, 0.001, 0.05];
        let adj = holm_adjust(&p);
        assert!(adj[1] <= adj[2] && adj[2] <= adj[0]);
    }

    #[test]
    fn holm_handles_empty_input() {
        assert!(holm_adjust(&[]).is_empty());
    }

    #[test]
    fn holm_adjust_with_nan_is_deterministic_instead_of_panicking() {
        let adj = holm_adjust(&[0.01, f64::NAN, 0.02]);
        // NaN sorts above every finite p-value in the total order, so
        // the finite entries keep their usual Holm adjustments and the
        // NaN entry clamps to 1.
        assert!((adj[0] - 0.03).abs() < 1e-12);
        assert!((adj[2] - 0.04).abs() < 1e-12);
        assert_eq!(adj[1], 1.0);
    }
}
