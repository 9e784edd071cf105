//! The 4 sliding (cross-correlation) measures of Section 6.
//!
//! Cross-correlation slides one series over the other and takes the best
//! inner product over all shifts `s in [-m, m]` (Eq. 10), computed in
//! O(m log m) with the FFT. The paper's Eq. (11) derives four similarity
//! variants, which we expose as dissimilarities:
//!
//! * `NCC` — the raw maximum, `max_w CC_w(x, y)`,
//! * `NCC_b` — the biased estimator, `max_w CC_w / m`,
//! * `NCC_u` — the unbiased estimator, `max_w CC_w / (m - |w - m|)`,
//! * `NCC_c` — coefficient normalization, `max_w CC_w / (||x|| ||y||)`;
//!   `1 - NCC_c` is the Shape-Based Distance (SBD) of k-Shape.
//!
//! For `NCC_c` the similarity lies in `[-1, 1]`, so `d = 1 - sim` is a
//! bounded dissimilarity; for the unnormalized variants we use `d = -sim`,
//! which induces the identical 1-NN ordering.

use std::array;

use crate::elastic::batch::{self, LaneBlock};
use crate::lanes::LANES;
use crate::measure::Distance;
use crate::workspace::Workspace;
use tsdist_fft::overlap_at;

/// The normalization variant of the cross-correlation measure (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NccVariant {
    /// Raw maximum of the cross-correlation sequence.
    Raw,
    /// Biased estimator: divide by the series length `m`.
    Biased,
    /// Unbiased estimator: divide by the overlap length `m - |w - m|`.
    Unbiased,
    /// Coefficient normalization: divide by `||x|| * ||y||` (SBD).
    Coefficient,
}

impl NccVariant {
    /// All four variants, in the paper's order.
    pub const ALL: [NccVariant; 4] = [
        NccVariant::Raw,
        NccVariant::Biased,
        NccVariant::Unbiased,
        NccVariant::Coefficient,
    ];
}

/// A sliding cross-correlation dissimilarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrossCorrelation {
    variant: NccVariant,
}

impl CrossCorrelation {
    /// Creates the measure for the given variant.
    pub const fn new(variant: NccVariant) -> Self {
        CrossCorrelation { variant }
    }

    /// The NCC_c measure (SBD), the paper's strongest parameter-free
    /// baseline.
    pub const fn sbd() -> Self {
        CrossCorrelation::new(NccVariant::Coefficient)
    }

    /// The maximum normalized similarity over all shifts:
    /// [`CrossCorrelation::similarity_ws`] with a fresh [`Workspace`].
    pub fn similarity(&self, x: &[f64], y: &[f64]) -> f64 {
        self.similarity_ws(x, y, &mut Workspace::new())
    }

    /// The maximum normalized similarity over all shifts, with the FFT
    /// buffers drawn from `ws`.
    pub fn similarity_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        let cc = ws.cc_scratch().cross_correlation(x, y);
        self.variant.reduce(|| cc.iter().copied(), x, y)
    }

    /// The dissimilarity of a similarity: `1 - sim` for NCC_c (SBD),
    /// `-sim` for the unnormalized variants.
    fn dissimilarity(&self, sim: f64) -> f64 {
        match self.variant {
            NccVariant::Coefficient => 1.0 - sim,
            _ => -sim,
        }
    }
}

/// Distances from `x` to [`LANES`] equal-length, non-empty columns
/// through the lane cross-correlation; lane `l` is `distance_ws(x,
/// cols[l])` bit for bit.
impl LaneBlock<LANES> for CrossCorrelation {
    fn block_ws(
        &self,
        x: &[f64],
        cols: &[&[f64]; LANES],
        ws: &mut Workspace,
    ) -> Option<[f64; LANES]> {
        let rows = ws.cc_scratch().cross_correlation_lanes(x, cols);
        Some(array::from_fn(|l| {
            let lane = || rows.iter().map(|r| r[l]);
            self.dissimilarity(self.variant.reduce(lane, x, cols[l]))
        }))
    }
}

impl NccVariant {
    /// The variant's similarity of `x` and `y` from their
    /// cross-correlation sequence `cc` (a slice for one pair, one lane
    /// of the rows for a lane block): the maximum over all shifts of the
    /// sequence scaled by Eq. (11)'s normalizer. Empty series have
    /// similarity 0. The one reduction behind the pair and the lane
    /// path.
    fn reduce<I: Iterator<Item = f64>>(self, cc: impl FnOnce() -> I, x: &[f64], y: &[f64]) -> f64 {
        if x.is_empty() || y.is_empty() {
            return 0.0;
        }
        let max = |it: I| it.fold(f64::MIN, f64::max);
        match self {
            NccVariant::Raw => max(cc()),
            NccVariant::Biased => max(cc()) / x.len().max(y.len()) as f64,
            NccVariant::Unbiased => cc()
                .enumerate()
                .map(|(w, v)| {
                    let overlap = overlap_at(x.len(), y.len(), w).max(1);
                    v / overlap as f64
                })
                .fold(f64::MIN, f64::max),
            NccVariant::Coefficient => {
                let denom = norm(x) * norm(y);
                if denom <= 0.0 {
                    0.0
                } else {
                    max(cc()) / denom
                }
            }
        }
    }
}

/// The Euclidean norm `||x||`.
fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

impl Distance for CrossCorrelation {
    fn name(&self) -> String {
        match self.variant {
            NccVariant::Raw => "NCC".into(),
            NccVariant::Biased => "NCC_b".into(),
            NccVariant::Unbiased => "NCC_u".into(),
            NccVariant::Coefficient => "NCC_c".into(),
        }
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.dissimilarity(self.similarity_ws(x, y, ws))
    }

    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        // Eight columns per FFT, one per lane; the query's spectrum is
        // computed once per row and transform length.
        batch::row_ws::<LANES, _>(self, x, cols, out, ws);
    }

    fn is_symmetric(&self) -> bool {
        // The FFT cross-correlation's rounding depends on which argument
        // is conjugated, so d(x, y) and d(y, x) match only approximately.
        false
    }
}

/// The Shape-Based Distance `SBD = 1 - NCC_c`, provided as a named alias.
pub type Sbd = CrossCorrelation;

#[cfg(test)]
mod tests {
    use super::*;

    fn znorm(x: &[f64]) -> Vec<f64> {
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let sd = var.sqrt().max(1e-12);
        x.iter().map(|v| (v - mean) / sd).collect()
    }

    #[test]
    fn sbd_zero_for_identical_series() {
        let x = znorm(&[1.0, 3.0, 2.0, 5.0, 4.0, 1.0, 0.0, 2.0]);
        let d = CrossCorrelation::sbd().distance(&x, &x);
        assert!(d.abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn sbd_is_shift_invariant() {
        // A compact bump shifted in time correlates perfectly at the
        // matching lag (linear shift; signal is zero elsewhere).
        let bump = |center: f64| -> Vec<f64> {
            (0..64)
                .map(|i| (-((i as f64 - center) / 4.0).powi(2) / 2.0).exp())
                .collect()
        };
        let x = znorm(&bump(20.0));
        let y = znorm(&bump(35.0));
        let d = CrossCorrelation::sbd().distance(&x, &y);
        assert!(d < 0.1, "d = {d}");
        // Lock-step ED, by contrast, sees them as very different.
        use crate::lockstep::Euclidean;
        let ed = Euclidean.distance(&x, &y);
        assert!(ed > 1.0, "ed = {ed}");
    }

    #[test]
    fn sbd_bounded_in_zero_two() {
        let x = znorm(&[1.0, -2.0, 3.0, 0.0, 1.5]);
        let y = znorm(&[-1.0, 2.0, -3.0, 0.0, -1.5]);
        let d = CrossCorrelation::sbd().distance(&x, &y);
        assert!((0.0..=2.0).contains(&d), "d = {d}");
    }

    #[test]
    fn variants_agree_on_argmax_shift_for_aligned_data() {
        // For z-normalized equal-length series all variants should view an
        // identical copy as maximally similar.
        let x = znorm(&[0.0, 1.0, 4.0, 1.0, 0.0, -1.0, -4.0, -1.0]);
        let raw = CrossCorrelation::new(NccVariant::Raw).similarity(&x, &x);
        let b = CrossCorrelation::new(NccVariant::Biased).similarity(&x, &x);
        let c = CrossCorrelation::new(NccVariant::Coefficient).similarity(&x, &x);
        // raw = sum x^2 = m (z-normalized), biased = 1, coefficient = 1.
        assert!((raw - x.len() as f64).abs() < 1e-9);
        assert!((b - 1.0).abs() < 1e-9);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unbiased_divides_by_overlap() {
        // A spike matching at full shift: unbiased rescaling makes short
        // overlaps count fully.
        let x = [1.0, 0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0, 1.0];
        let u = CrossCorrelation::new(NccVariant::Unbiased).similarity(&x, &y);
        // Overlap-1 alignment gives product 1 / 1 = 1.
        assert!((u - 1.0).abs() < 1e-9, "u = {u}");
    }

    #[test]
    fn ncc_b_similarity_matches_raw_over_m() {
        let x = znorm(&[0.3, 1.2, -0.7, 0.9, -1.7, 0.1]);
        let y = znorm(&[1.0, -0.2, 0.4, -0.9, 0.8, -1.1]);
        let raw = CrossCorrelation::new(NccVariant::Raw).similarity(&x, &y);
        let b = CrossCorrelation::new(NccVariant::Biased).similarity(&x, &y);
        assert!((b - raw / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sbd_equals_zscore_ncc_c_relationship() {
        // For z-normalized series NCC_c == NCC_b because ||x|| = sqrt(m).
        let x = znorm(&[0.5, 2.0, -1.0, 0.0, 1.0, -2.0, 0.3, 0.7]);
        let y = znorm(&[1.5, -0.5, 0.8, -1.2, 0.2, 0.9, -1.8, 0.1]);
        let b = CrossCorrelation::new(NccVariant::Biased).similarity(&x, &y);
        let c = CrossCorrelation::new(NccVariant::Coefficient).similarity(&x, &y);
        assert!((b - c).abs() < 1e-9, "b = {b}, c = {c}");
    }

    #[test]
    fn names() {
        assert_eq!(CrossCorrelation::new(NccVariant::Raw).name(), "NCC");
        assert_eq!(CrossCorrelation::new(NccVariant::Biased).name(), "NCC_b");
        assert_eq!(CrossCorrelation::new(NccVariant::Unbiased).name(), "NCC_u");
        assert_eq!(CrossCorrelation::sbd().name(), "NCC_c");
    }
}
