//! The 7 elastic measures of Section 7, plus popular variants and DTW
//! lower bounds.
//!
//! Elastic measures create a non-linear mapping between points of two
//! series via dynamic programming, allowing regions to stretch or shrink.
//! The seven evaluated by the paper:
//!
//! | Measure | Parameters (Table 4) | Notes |
//! |---------|----------------------|-------|
//! | [`Dtw`] | window δ (% of length) | Sakoe–Chiba band |
//! | [`Lcss`] | ε, window δ | threshold matching |
//! | [`Edr`] | ε | edit distance on reals |
//! | [`Erp`] | — | parameter-free, a metric |
//! | [`Msm`] | cost c | a metric; beats DTW (M4) |
//! | [`Twe`] | λ, ν | beats DTW (M4) |
//! | [`Swale`] | ε, reward r, penalty p | similarity model |
//!
//! Variants discussed but not tabulated by the paper — [`DerivativeDtw`],
//! [`WeightedDtw`] — are provided for the ablation benches, as are the
//! [`lower_bounds`] used to accelerate DTW 1-NN search.
//!
//! All DP implementations run in O(m) memory. The production DTW, DDTW
//! and WDTW paths use three rolling anti-diagonals (the crate-private
//! `wavefront` module, one exact and one pruned sweep shared by DTW and
//! WDTW), and their row-major references ([`dtw_banded_ws`],
//! [`wdtw_row_major`]) two rolling rows. MSM, TWE, ERP, EDR, Swale and
//! ItakuraDtw write their DP once, as cell closures that the
//! crate-private `eapruned` module runs through one exact and one
//! early-abandon row-major sweep: every `distance_ws` takes the exact
//! one, and the `distance_upto` of MSM, TWE, ERP and ItakuraDtw the
//! pruned one. MSM/TWE/DTW matrix rows run one row-major DP across eight
//! training series at a time, one per SIMD lane
//! (`Distance::distance_row_ws`).

pub(crate) mod batch;
pub mod dtw;
mod eapruned;
pub mod edit;
pub mod lower_bounds;
pub mod msm;
pub mod twe;
pub mod variants;
mod wavefront;

pub use dtw::{band_radius, dtw_banded_ws, wdtw_row_major, DerivativeDtw, Dtw, WeightedDtw};
pub use edit::{Edr, Erp, Lcss, Swale};
pub use lower_bounds::{keogh_envelope, lb_keogh, lb_keogh_full, lb_keogh_upto, lb_kim};
pub use msm::Msm;
pub use twe::Twe;
pub use variants::{Cid, ItakuraDtw};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Distance;

    fn all_defaults() -> Vec<Box<dyn Distance>> {
        vec![
            Box::new(Dtw::with_window_pct(10.0)),
            Box::new(Lcss::new(0.2, 5.0)),
            Box::new(Edr::new(0.1)),
            Box::new(Erp::new()),
            Box::new(Msm::new(0.5)),
            Box::new(Twe::new(1.0, 1e-4)),
            Box::new(Swale::new(0.2, 1.0, 5.0)),
        ]
    }

    #[test]
    fn seven_elastic_measures_match_the_paper() {
        assert_eq!(all_defaults().len(), 7);
    }

    #[test]
    fn all_are_finite_and_self_minimal() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.53).cos()).collect();
        for m in all_defaults() {
            let dxy = m.distance(&x, &y);
            let dxx = m.distance(&x, &x);
            assert!(dxy.is_finite(), "{}", m.name());
            assert!(dxx <= dxy + 1e-12, "{}: self not minimal", m.name());
        }
    }

    #[test]
    fn elastic_measures_tolerate_warping_better_than_ed() {
        // Construct a warped copy: elastic distances should view it as far
        // closer (relative to a genuinely different series) than ED does.
        use crate::lockstep::Euclidean;
        let x: Vec<f64> = (0..48)
            .map(|i| (-((i as f64 - 24.0) / 6.0).powi(2) / 2.0).exp())
            .collect();
        // The same bump, locally stretched.
        let warped: Vec<f64> = (0..48)
            .map(|i| {
                let t = (i as f64 / 47.0).powf(1.3) * 47.0;
                let d = (t - 24.0) / 6.0;
                (-d * d / 2.0).exp()
            })
            .collect();
        let other: Vec<f64> = (0..48)
            .map(|i| (-((i as f64 - 10.0) / 3.0).powi(2) / 2.0).exp())
            .collect();

        let ed_ratio = Euclidean.distance(&x, &warped) / Euclidean.distance(&x, &other).max(1e-12);
        let dtw = Dtw::with_window_pct(20.0);
        let dtw_ratio = dtw.distance(&x, &warped) / dtw.distance(&x, &other).max(1e-12);
        assert!(
            dtw_ratio < ed_ratio,
            "DTW should relatively tolerate warping: dtw {dtw_ratio} vs ed {ed_ratio}"
        );
    }
}
