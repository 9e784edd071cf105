//! Piecewise Aggregate Approximation (PAA) summaries and the admissible
//! LB_PAA lower bound over Keogh envelopes.
//!
//! Following the classical exact-indexing construction (Keogh &
//! Ratanamahatana), each train series' Keogh envelope `(upper, lower)` is
//! summarized per segment by `Û_s = max_{i∈s} upper_i` and
//! `L̂_s = min_{i∈s} lower_i`. For a query summarized by its segment means
//! `q̄_s`, the bound
//!
//! ```text
//! LB_PAA = Σ_s m_s · e_s²,   e_s = max(q̄_s − Û_s, L̂_s − q̄_s, 0)
//! ```
//!
//! satisfies `LB_PAA ≤ LB_Keogh ≤ DTW_band` in exact arithmetic:
//! widening the envelope to the segment-constant `[L̂_s, Û_s]` only
//! shrinks each pointwise excursion, and the per-point excursion-squared
//! function `ĥ(t) = ((t−Û)⁺)² + ((L̂−t)⁺)²` is convex, so Jensen gives
//! `Σ_{i∈s} ĥ(q_i) ≥ m_s · ĥ(q̄_s)`. The floating-point gap between this
//! evaluation order and `lb_keogh`'s lane-reduced sums is covered by
//! deflating the final value by [`LB_DEFLATE`] (relative 1e-9, orders of
//! magnitude above the summation error), keeping every produced bound
//! strictly admissible so index-pruned 1-NN answers stay byte-identical
//! to the exact scan.

/// Relative deflation applied to computed lower bounds so floating-point
/// reassociation can never push a bound above the true distance it
/// provably (in exact arithmetic) sits below.
pub const LB_DEFLATE: f64 = 1.0 - 1e-9;

/// Segment boundaries for a PAA summary: `segments + 1` cut points with
/// `bounds[s] = s * len / segments` (integer arithmetic), covering
/// `0..len` without gaps. Every segment is non-empty when
/// `segments <= len`.
pub fn segment_bounds(len: usize, segments: usize) -> Vec<usize> {
    let segments = segments.clamp(1, len.max(1));
    (0..=segments).map(|s| s * len / segments).collect()
}

/// Per-segment means of `x` under the given boundaries, written into
/// `out` (cleared first).
pub fn paa_means(x: &[f64], bounds: &[usize], out: &mut Vec<f64>) {
    out.clear();
    for w in bounds.windows(2) {
        let seg = &x[w[0]..w[1]];
        let sum: f64 = seg.iter().sum();
        out.push(sum / seg.len().max(1) as f64);
    }
}

/// Per-segment envelope summary: `(Û, L̂)` with `Û_s` the maximum of
/// `upper` and `L̂_s` the minimum of `lower` over segment `s`.
pub fn envelope_summary(upper: &[f64], lower: &[f64], bounds: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut umax = Vec::with_capacity(bounds.len() - 1);
    let mut lmin = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        umax.push(
            upper[w[0]..w[1]]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        );
        lmin.push(
            lower[w[0]..w[1]]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        );
    }
    (umax, lmin)
}

/// LB_PAA: the deflated segment-level lower bound on `LB_Keogh` (and
/// hence on banded DTW) of the query whose segment means are `qmeans`
/// against the envelope summarized by `(umax, lmin)`.
///
/// NaN anywhere collapses the bound to `0.0` (`NaN.max(0.0) == 0.0`), so
/// non-finite queries or envelopes can never prune a candidate — the
/// cascade falls through to the exact computation.
pub fn lb_paa(qmeans: &[f64], umax: &[f64], lmin: &[f64], bounds: &[usize]) -> f64 {
    lb_paa_by(qmeans, umax.iter().copied(), lmin.iter().copied(), bounds)
}

/// [`lb_paa`] over any summary layout: `umax` and `lmin` yield one
/// candidate's `Û_s` and `L̂_s` in segment order.
pub(crate) fn lb_paa_by(
    qmeans: &[f64],
    umax: impl Iterator<Item = f64>,
    lmin: impl Iterator<Item = f64>,
    bounds: &[usize],
) -> f64 {
    let mut sum = 0.0;
    for (((&q, u), l), w) in qmeans.iter().zip(umax).zip(lmin).zip(bounds.windows(2)) {
        // NaN comparisons are all-false, which would silently zero this
        // segment's excursion while other segments still contribute — an
        // inadmissible partial bound. Collapse to "no bound" instead.
        if !(q.is_finite() && u.is_finite() && l.is_finite()) {
            return 0.0;
        }
        sum += paa_term(q, u, l, segment_len(w));
    }
    deflate(sum)
}

/// The point count `m_s` of the segment `w = [start, end]`.
#[inline(always)]
pub(crate) fn segment_len(w: &[usize]) -> f64 {
    (w[1] - w[0]) as f64
}

/// One segment's LB_PAA term `m_s · e_s²` for a finite query mean `q`
/// against the finite summary `(u, l)`: the expression every LB_PAA
/// sum accumulates, whichever layout it reads.
#[inline(always)]
pub(crate) fn paa_term(q: f64, u: f64, l: f64, m: f64) -> f64 {
    let e = if q > u {
        q - u
    } else if q < l {
        l - q
    } else {
        0.0
    };
    m * e * e
}

/// The stored form of an LB_PAA sum: deflated by [`LB_DEFLATE`].
#[inline(always)]
pub(crate) fn deflate(sum: f64) -> f64 {
    (sum * LB_DEFLATE).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::{dtw_banded_ws, keogh_envelope, lb_keogh};
    use crate::workspace::Workspace;

    #[test]
    fn segment_bounds_cover_the_series_without_gaps() {
        for (len, segments) in [(10, 3), (7, 7), (64, 8), (5, 9), (1, 1)] {
            let b = segment_bounds(len, segments);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), len);
            for w in b.windows(2) {
                assert!(w[0] < w[1], "empty segment in {b:?} (len={len})");
            }
        }
    }

    #[test]
    fn paa_means_of_constant_series_are_the_constant() {
        let x = vec![2.5; 12];
        let b = segment_bounds(12, 4);
        let mut out = Vec::new();
        paa_means(&x, &b, &mut out);
        assert_eq!(out, vec![2.5; 4]);
    }

    #[test]
    fn lb_paa_is_admissible_against_lb_keogh_and_dtw() {
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.31).sin() * 1.3).collect();
        let y: Vec<f64> = (0..48).map(|i| (i as f64 * 0.47).cos()).collect();
        for band in [0usize, 2, 5, 48] {
            let (upper, lower) = keogh_envelope(&y, band);
            let bounds = segment_bounds(48, 6);
            let (umax, lmin) = envelope_summary(&upper, &lower, &bounds);
            let mut qmeans = Vec::new();
            paa_means(&x, &bounds, &mut qmeans);
            let paa = lb_paa(&qmeans, &umax, &lmin, &bounds);
            let keogh = lb_keogh(&x, &upper, &lower);
            let dtw = dtw_banded_ws(&x, &y, band, &mut Workspace::new());
            assert!(paa <= keogh, "band {band}: LB_PAA {paa} > LB_Keogh {keogh}");
            assert!(
                keogh <= dtw * (1.0 + 1e-9),
                "band {band}: LB_Keogh {keogh} > DTW {dtw}"
            );
        }
    }

    #[test]
    fn nan_query_yields_a_zero_bound() {
        let bounds = segment_bounds(4, 2);
        let lb = lb_paa(&[f64::NAN, 1.0], &[0.0, 0.0], &[0.0, 0.0], &bounds);
        assert_eq!(lb, 0.0);
    }
}
