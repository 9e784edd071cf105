//! Lower bounds for DTW, used to prune expensive comparisons in 1-NN
//! search.
//!
//! Section 10 of the paper notes that elastic-measure runtimes can be
//! substantially improved with lower bounding. We implement the two
//! classics — LB_Kim and LB_Keogh — plus the envelope computation, and
//! the evaluation crate exposes a pruned 1-NN search built on them (an
//! ablation experiment in the bench harness measures the pruning rate).
//!
//! Both bounds hold for *squared-cost* DTW as implemented in
//! [`super::Dtw`], i.e. `lb(x, y) <= dtw(x, y)`.

/// LB_Kim (simplified 4-point form): squared differences of first and
/// last points are unavoidable costs for any warping path.
pub fn lb_kim(x: &[f64], y: &[f64]) -> f64 {
    if x.is_empty() || y.is_empty() {
        return 0.0;
    }
    let first = x[0] - y[0];
    let last = x[x.len() - 1] - y[y.len() - 1];
    first * first + last * last
}

/// One van Herk–Gil-Werman sliding-extreme pass: `out[i] =
/// pick(y[i-band ..= i+band])` (clamped to the array), in O(n) total
/// regardless of `band`.
///
/// The series is conceptually padded with `band` copies of `neutral` on
/// each side, partitioned into blocks of `2·band + 1`, and scanned twice
/// — a forward prefix-extreme `p` and a backward suffix-extreme `s`
/// within each block. Every window of width `2·band + 1` spans at most
/// two adjacent blocks, so its extreme is `pick(s[start], p[end])`.
/// `max`/`min` are exactly commutative and associative on non-NaN data,
/// so the result is bit-identical to the naive per-window scan.
fn sliding_extreme(
    y: &[f64],
    band: usize,
    neutral: f64,
    pick: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let n = y.len();
    let w = 2 * band + 1;
    let len = n + 2 * band;
    let val = |j: usize| {
        if (band..band + n).contains(&j) {
            y[j - band]
        } else {
            neutral
        }
    };
    let mut p = vec![0.0f64; len];
    for j in 0..len {
        let v = val(j);
        p[j] = if j % w == 0 { v } else { pick(p[j - 1], v) };
    }
    let mut s = vec![0.0f64; len];
    for j in (0..len).rev() {
        let v = val(j);
        s[j] = if j == len - 1 || (j + 1) % w == 0 {
            v
        } else {
            pick(s[j + 1], v)
        };
    }
    (0..n).map(|i| pick(s[i], p[i + 2 * band])).collect()
}

/// The Keogh warping envelope of `y` for band radius `band`:
/// `upper[i] = max(y[i-band ..= i+band])`, `lower[i] = min(...)`.
///
/// Computed with the van Herk–Gil-Werman sliding-window algorithm —
/// O(n) independent of the band radius (the naive per-window scan is
/// O(n·band), which dominates envelope-cache builds at sakoe-chiba
/// radii of 10%+). Bit-identical to the naive scan.
pub fn keogh_envelope(y: &[f64], band: usize) -> (Vec<f64>, Vec<f64>) {
    if y.is_empty() {
        return (Vec::new(), Vec::new());
    }
    if band == 0 {
        return (y.to_vec(), y.to_vec());
    }
    let upper = sliding_extreme(y, band, f64::NEG_INFINITY, f64::max);
    let lower = sliding_extreme(y, band, f64::INFINITY, f64::min);
    (upper, lower)
}

/// LB_Keogh: the squared distance from `x` to the envelope of `y`.
/// Requires equal lengths (as in the paper's rectangular datasets).
///
/// The per-element excursion is computed branchlessly — `du = (v-u)⁺`,
/// `dl = (l-v)⁺`, at most one of which is non-zero for a valid envelope,
/// so `(du + dl)²` equals the branchy `if v > u … else if v < l …` term
/// bit-for-bit — and accumulated through the multi-lane
/// [`crate::lanes::lane_sum3`] reduction (the sum reassociates by a few
/// ULPs relative to a sequential fold; LB_Keogh is only ever compared
/// against a pruning threshold, so the shift is harmless).
///
/// # Panics
/// Panics if `x.len() != upper.len()`.
pub fn lb_keogh(x: &[f64], upper: &[f64], lower: &[f64]) -> f64 {
    assert_eq!(x.len(), upper.len(), "envelope length mismatch");
    assert_eq!(x.len(), lower.len(), "envelope length mismatch");
    crate::lanes::lane_sum3(x, upper, lower, keogh_term)
}

/// Early-abandoning [`lb_keogh`]: returns [`f64::INFINITY`] once the
/// partial sum provably reaches `cutoff` (checked per lane block),
/// otherwise the exact [`lb_keogh`] value bit-for-bit. A non-finite
/// `cutoff` disables abandoning.
///
/// # Panics
/// Panics if `x.len() != upper.len()`.
pub fn lb_keogh_upto(x: &[f64], upper: &[f64], lower: &[f64], cutoff: f64) -> f64 {
    assert_eq!(x.len(), upper.len(), "envelope length mismatch");
    assert_eq!(x.len(), lower.len(), "envelope length mismatch");
    if !cutoff.is_finite() {
        return crate::lanes::lane_sum3(x, upper, lower, keogh_term);
    }
    crate::lanes::lane_sum3_upto(x, upper, lower, cutoff, keogh_term)
}

/// The branchless LB_Keogh term: squared excursion of `v` outside
/// `[l, u]`, zero inside.
#[inline]
fn keogh_term(v: f64, u: f64, l: f64) -> f64 {
    let du = (v - u).max(0.0);
    let dl = (l - v).max(0.0);
    let d = du + dl;
    d * d
}

/// Convenience: LB_Keogh computing the envelope on the fly.
pub fn lb_keogh_full(x: &[f64], y: &[f64], band: usize) -> f64 {
    let (upper, lower) = keogh_envelope(y, band);
    lb_keogh(x, &upper, &lower)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::dtw::dtw_banded_ws;
    use crate::workspace::Workspace;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_series(rng: &mut StdRng, m: usize) -> Vec<f64> {
        (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn envelope_brackets_the_series() {
        let y = [0.0, 3.0, -1.0, 2.0, 1.0];
        let (u, l) = keogh_envelope(&y, 1);
        for i in 0..y.len() {
            assert!(l[i] <= y[i] && y[i] <= u[i]);
        }
        // Radius 1 takes neighbour extremes.
        assert_eq!(u[0], 3.0);
        assert_eq!(l[2], -1.0);
    }

    #[test]
    fn envelope_with_zero_band_is_the_series() {
        let y = [1.0, -2.0, 0.5];
        let (u, l) = keogh_envelope(&y, 0);
        assert_eq!(u, y.to_vec());
        assert_eq!(l, y.to_vec());
    }

    /// The O(n·band) reference the vHGW scans must reproduce exactly.
    fn naive_envelope(y: &[f64], band: usize) -> (Vec<f64>, Vec<f64>) {
        let n = y.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(band);
            let hi = (i + band).min(n - 1);
            let mut mx = f64::NEG_INFINITY;
            let mut mn = f64::INFINITY;
            for &v in &y[lo..=hi] {
                mx = mx.max(v);
                mn = mn.min(v);
            }
            upper.push(mx);
            lower.push(mn);
        }
        (upper, lower)
    }

    #[test]
    fn vhgw_envelope_is_bit_identical_to_the_naive_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 7, 8, 9, 19, 33, 128] {
            let y = random_series(&mut rng, n);
            for band in [0usize, 1, 2, 3, 5, 7, n / 2, n.saturating_sub(1), n, n + 5] {
                let (u, l) = keogh_envelope(&y, band);
                let (nu, nl) = naive_envelope(&y, band);
                for i in 0..n {
                    assert_eq!(
                        u[i].to_bits(),
                        nu[i].to_bits(),
                        "upper mismatch n={n} band={band} i={i}"
                    );
                    assert_eq!(
                        l[i].to_bits(),
                        nl[i].to_bits(),
                        "lower mismatch n={n} band={band} i={i}"
                    );
                }
            }
        }
        assert_eq!(keogh_envelope(&[], 3), (vec![], vec![]));
    }

    #[test]
    fn lane_lb_keogh_matches_branchy_reference_and_upto_contract() {
        let mut rng = StdRng::seed_from_u64(1234);
        for n in [1usize, 7, 8, 9, 19, 64, 200] {
            let x = random_series(&mut rng, n);
            let y = random_series(&mut rng, n);
            let (u, l) = keogh_envelope(&y, 3.min(n - 1));
            let lane = lb_keogh(&x, &u, &l);
            // Branchy sequential reference: per-term values are identical,
            // only the accumulation order differs.
            let mut seq = 0.0;
            for i in 0..n {
                if x[i] > u[i] {
                    let d = x[i] - u[i];
                    seq += d * d;
                } else if x[i] < l[i] {
                    let d = l[i] - x[i];
                    seq += d * d;
                }
            }
            assert!(
                (lane - seq).abs() <= 1e-12 * seq.abs().max(1.0),
                "n={n}: lane {lane} vs seq {seq}"
            );
            // Non-abandoned upto is bit-identical to the exact kernel.
            let no_abandon = lb_keogh_upto(&x, &u, &l, f64::INFINITY);
            assert_eq!(lane.to_bits(), no_abandon.to_bits(), "n={n}");
            if lane > 0.0 {
                let abandoned = lb_keogh_upto(&x, &u, &l, lane * 0.5);
                assert!(abandoned >= lane * 0.5, "n={n}");
                let kept = lb_keogh_upto(&x, &u, &l, lane * 1.5);
                assert_eq!(lane.to_bits(), kept.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn lb_kim_lower_bounds_dtw() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ws = Workspace::new();
        for _ in 0..50 {
            let x = random_series(&mut rng, 24);
            let y = random_series(&mut rng, 24);
            let lb = lb_kim(&x, &y);
            let d = dtw_banded_ws(&x, &y, 24, &mut ws);
            assert!(lb <= d + 1e-9, "LB_Kim {lb} > DTW {d}");
        }
    }

    #[test]
    fn lb_keogh_lower_bounds_banded_dtw() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut ws = Workspace::new();
        for band in [0usize, 2, 5, 23] {
            for _ in 0..30 {
                let x = random_series(&mut rng, 24);
                let y = random_series(&mut rng, 24);
                let lb = lb_keogh_full(&x, &y, band);
                let d = dtw_banded_ws(&x, &y, band, &mut ws);
                assert!(lb <= d + 1e-9, "LB_Keogh {lb} > DTW {d} (band {band})");
            }
        }
    }

    #[test]
    fn lb_keogh_zero_inside_envelope() {
        let y = [0.0, 1.0, 2.0, 1.0, 0.0];
        // x stays within y's radius-2 envelope.
        let x = [0.5, 1.5, 1.0, 0.5, 0.5];
        assert_eq!(lb_keogh_full(&x, &y, 2), 0.0);
    }

    #[test]
    fn lb_keogh_tightens_with_smaller_band() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = random_series(&mut rng, 32);
        let y = random_series(&mut rng, 32);
        let wide = lb_keogh_full(&x, &y, 16);
        let narrow = lb_keogh_full(&x, &y, 2);
        assert!(narrow >= wide);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(lb_kim(&[], &[]), 0.0);
    }
}
