//! Anti-diagonal wavefront layouts for the banded DP kernels.
//!
//! A row-major DTW sweep carries a loop dependency through `curr[j - 1]`:
//! every cell waits on its left neighbour, so the inner loop runs at the
//! latency of one `min`-chain + `add` per cell. Sweeping *anti-diagonals*
//! (`d = i + j`) removes that edge — every cell on a diagonal depends
//! only on the two *previous* diagonals — so the inner loop is a pure
//! element-wise map over contiguous scratch rows that the compiler can
//! vectorize and the CPU can overlap.
//!
//! ## Bit-compatibility with the row-major kernels
//!
//! Cell values are **bit-identical** to [`super::dtw::dtw_banded_ws`]:
//! the cost expression (`diff * diff`, or `w * diff * diff` for WDTW) and
//! the `min` operand order (`diag.min(top).min(left)`) are preserved
//! exactly, and `f64::min` over non-NaN operands is order-insensitive in
//! value (local costs are `>= 0`, so `-0.0` never appears). Only the
//! *schedule* changes, never the per-cell dataflow. The `ws_equivalence`
//! and `wavefront` test suites pin this down.
//!
//! ## Coordinates
//!
//! Diagonal `d` holds cells `(i, j = d - i)` of the `(m+1) x (n+1)` DP
//! matrix, stored indexed by `i` in rows of length `m + 1`. With the
//! Sakoe–Chiba band `|i - j| <= band` the in-band index range on diagonal
//! `d` is
//!
//! ```text
//! lo(d) = max(1, d - n, ceil((d - band) / 2))
//! hi(d) = min(m, d - 1, floor((d + band) / 2))
//! ```
//!
//! `lo` is non-decreasing in `d` and `hi` grows by at most one per step
//! (each clamp component does), so INF-filling the halo `[lo-1, hi+1]`
//! on every diagonal covers every read any later diagonal makes of this
//! one — including the one-cell gaps of empty band-0 diagonals. `y` is
//! copied once in reverse (`yr[k] = y[n-1-k]`) so both series are read
//! *forward* along a diagonal: `y[j-1] = yr[n - d + i]`.
//!
//! ## One sweep per schedule
//!
//! DTW and WDTW share one exact sweep, [`wavefront_ws`], and one pruned
//! sweep, [`wavefront_pruned`], each generic over the [`LocalCost`] of a
//! cell: [`Squared`] (`diff * diff`, DTW) or [`Weighted`]
//! (`w[|i - j|] * diff * diff`, WDTW; cell `i` of diagonal `d` has
//! `|i - j| = |2 i - d|`, gathered once per diagonal). Each cost is its
//! own type, so the sweeps are monomorphized: DTW's skips the gather and
//! its inner loop carries no weight load. WDTW runs at band
//! `m + n`, where [`band_range`] equals the unbanded range.
//!
//! ## Pruned variant
//!
//! [`wavefront_pruned`] keeps the EAPruned live-window idea in diagonal
//! space. A warping path advances `d` by 1 (step) or 2 (diagonal move),
//! so it can skip *one* diagonal but never two: abandoning is admissible
//! exactly when the live windows of **both** previous diagonals are
//! empty. Cells worth computing are those with a potentially-live
//! predecessor,
//! `[min(l1_lo, l2_lo + 1), max(l1_hi + 1, l2_hi + 1)]` intersected with
//! the band range; everything else on the diagonal has only dead
//! predecessors, hence a true value `>= cutoff`, for which the INF fill
//! is a sound overestimate (the standard EAPruned argument: a
//! substituted INF can only displace an operand that was itself
//! `>= cutoff`, so live cells still compute exact bits). Stale scratch
//! from three diagonals ago is neutralized by INF-filling a fixed ±2
//! margin around the union of this and the previous diagonal's computed
//! spans, which contains every future read of this row.

use crate::workspace::Workspace;

const INF: f64 = f64::INFINITY;

/// The local cost of one cell of the DTW-family sweeps.
pub(super) trait LocalCost {
    /// Whether cells carry a weight of `|i - j|`, gathered once per
    /// diagonal; unweighted sweeps skip the gather.
    const WEIGHTED: bool;

    /// The weight of cells with `|i - j| = k`.
    fn weight(&self, k: usize) -> f64;

    /// The local cost of a cell with weight `w` and sample difference
    /// `diff`.
    fn cost(w: f64, diff: f64) -> f64;
}

/// DTW's squared difference.
pub(super) struct Squared;

impl LocalCost for Squared {
    const WEIGHTED: bool = false;

    #[inline]
    fn weight(&self, _k: usize) -> f64 {
        1.0
    }

    #[inline]
    fn cost(_w: f64, diff: f64) -> f64 {
        diff * diff
    }
}

/// WDTW's squared difference scaled by the logistic weight of `|i - j|`
/// (`weights[k]` for `|i - j| = k`).
pub(super) struct Weighted<'w>(pub(super) &'w [f64]);

impl LocalCost for Weighted<'_> {
    const WEIGHTED: bool = true;

    #[inline]
    fn weight(&self, k: usize) -> f64 {
        self.0[k]
    }

    #[inline]
    fn cost(w: f64, diff: f64) -> f64 {
        w * diff * diff
    }
}

/// In-band index range `[lo, hi]` (1-based `i`) of diagonal `d`.
#[inline]
fn band_range(d: usize, m: usize, n: usize, band: usize) -> (usize, usize) {
    let lo = 1
        .max(d.saturating_sub(n))
        .max(d.saturating_sub(band).div_ceil(2));
    let hi = m.min(d - 1).min((d + band) / 2);
    (lo, hi)
}

/// Anti-diagonal banded DTW-family sweep: the vectorized engine behind
/// [`super::Dtw`] (`Squared`) and [`super::WeightedDtw`] (`Weighted`,
/// band `m + n`). Bit-identical to the row-major references
/// [`super::dtw::dtw_banded_ws`] and [`super::dtw::wdtw_row_major`] (same
/// per-cell dataflow, different schedule); `band` is the absolute
/// Sakoe–Chiba radius.
pub(super) fn wavefront_ws<C: LocalCost>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    ws: &mut Workspace,
) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { INF };
    }
    // A band narrower than the length difference strands the corner:
    // the row-major kernel returns INF through all-dead rows.
    if m + band < n || n + band < m {
        return INF;
    }
    let (mut p2, mut p1, mut cur, extra) = ws.diag_scratch(m + 1, n + m + 1);
    let (yr, wq) = extra.split_at_mut(n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    for d in 2..=(m + n) {
        let (lo, hi) = band_range(d, m, n, band);
        let fill_hi = (hi + 1).min(m);
        cur[lo - 1..=fill_hi].fill(INF);
        if lo <= hi {
            let len = hi - lo + 1;
            let yb = n + lo - d;
            let xs = &x[lo - 1..lo - 1 + len];
            let ys = &yr[yb..yb + len];
            let pd = &p2[lo - 1..lo - 1 + len];
            let pt = &p1[lo - 1..lo - 1 + len];
            let pl = &p1[lo..lo + len];
            let wk = &mut wq[..len];
            if C::WEIGHTED {
                for (k, w) in wk.iter_mut().enumerate() {
                    *w = cost.weight((2 * (lo + k)).abs_diff(d));
                }
            }
            let out = &mut cur[lo..lo + len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "all seven slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
                let diff = xs[k] - ys[k];
                let best = pd[k].min(pt[k]).min(pl[k]);
                out[k] = C::cost(wk[k], diff) + best;
            }
        }
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    p1[m]
}

/// Cutoff-pruned [`wavefront_ws`]: EAPruned live windows in diagonal
/// space (see the module doc). Returns `(distance, dp_cells_computed)`
/// and honours the [`crate::measure::Distance::distance_upto`] contract
/// against [`wavefront_ws`]: bit-identical when the true distance is
/// `< cutoff`, otherwise `f64::INFINITY`. `cutoff` must be finite;
/// non-positive cutoffs abandon immediately.
pub(super) fn wavefront_pruned<C: LocalCost>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    cutoff: f64,
    ws: &mut Workspace,
) -> (f64, u64) {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return (if m == n { 0.0 } else { INF }, 0);
    }
    if cutoff.is_nan() || cutoff <= 0.0 {
        return (INF, 0);
    }
    if m + band < n || n + band < m {
        return (INF, 0);
    }
    let (mut p2, mut p1, mut cur, extra) = ws.diag_scratch(m + 1, n + m + 1);
    let (yr, wq) = extra.split_at_mut(n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    // Live windows (first/last index with value < cutoff; lo == MAX means
    // empty) of diagonals d-1 / d-2, and the previous computed span.
    let (mut l1_lo, mut l1_hi) = (usize::MAX, 0usize);
    let (mut l2_lo, mut l2_hi) = (0usize, 0usize);
    let (mut pclo, mut pchi) = (0usize, 0usize);
    let mut cells = 0u64;

    for d in 2..=(m + n) {
        if l1_lo == usize::MAX && l2_lo == usize::MAX {
            // Two consecutive fully-dead diagonals: every warping path
            // crosses at least one of them, so the distance is >= cutoff.
            return (INF, cells);
        }
        let (blo, bhi) = band_range(d, m, n, band);
        // Indices with a potentially-live predecessor: the diagonal move
        // reaches i from l2 at i-1, the top/left moves from l1 at i-1 / i.
        let mut rlo = usize::MAX;
        let mut rhi = 0usize;
        if l1_lo != usize::MAX {
            rlo = l1_lo;
            rhi = l1_hi + 1;
        }
        if l2_lo != usize::MAX {
            rlo = rlo.min(l2_lo + 1);
            rhi = rhi.max(l2_hi + 1);
        }
        let clo = blo.max(rlo);
        let chi = bhi.min(rhi);
        let (eff_lo, eff_hi) = if clo <= chi { (clo, chi) } else { (pclo, pchi) };
        // Neutralize stale values from three diagonals ago everywhere a
        // future diagonal might read this row.
        let fs_lo = eff_lo.min(pclo).saturating_sub(2);
        let fs_hi = (eff_hi.max(pchi) + 2).min(m);
        cur[fs_lo..=fs_hi].fill(INF);

        let (mut nl_lo, mut nl_hi) = (usize::MAX, 0usize);
        if clo <= chi {
            let len = chi - clo + 1;
            let yb = n + clo - d;
            let xs = &x[clo - 1..clo - 1 + len];
            let ys = &yr[yb..yb + len];
            let pd = &p2[clo - 1..clo - 1 + len];
            let pt = &p1[clo - 1..clo - 1 + len];
            let pl = &p1[clo..clo + len];
            let wk = &mut wq[..len];
            if C::WEIGHTED {
                for (k, w) in wk.iter_mut().enumerate() {
                    *w = cost.weight((2 * (clo + k)).abs_diff(d));
                }
            }
            let out = &mut cur[clo..clo + len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "all seven slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
                let diff = xs[k] - ys[k];
                let best = pd[k].min(pt[k]).min(pl[k]);
                out[k] = C::cost(wk[k], diff) + best;
            }
            cells += len as u64;
            // Live-window scan as a separate pass keeps the DP loop
            // branch-free.
            if let Some(f) = out.iter().position(|&v| v < cutoff) {
                // `rposition` cannot miss once `position` hit, but fall
                // back to `f` rather than panic.
                let l = out.iter().rposition(|&v| v < cutoff).unwrap_or(f);
                nl_lo = clo + f;
                nl_hi = clo + l;
            }
        }
        l2_lo = l1_lo;
        l2_hi = l1_hi;
        l1_lo = nl_lo;
        l1_hi = nl_hi;
        pclo = eff_lo;
        pchi = eff_hi;
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    // The corner cell is exact iff it sits in the final live window.
    if l1_lo != usize::MAX && l1_lo <= m && m <= l1_hi && p1[m] < cutoff {
        (p1[m], cells)
    } else {
        (INF, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::dtw::{dtw_banded_ws, wdtw_row_major};

    /// SplitMix64 noise, the repo's deterministic test generator.
    fn noise(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn wavefront_matches_row_major_bit_for_bit() {
        let mut ws_a = crate::workspace::Workspace::new();
        let mut ws_b = crate::workspace::Workspace::new();
        for (seed, m, n) in [
            (1u64, 1usize, 1usize),
            (2, 2, 2),
            (3, 7, 7),
            (4, 8, 8),
            (5, 9, 9),
            (6, 19, 19),
            (7, 33, 47),
            (8, 47, 33),
            (9, 64, 64),
            (10, 128, 100),
            // Long series against short random ones, as RWS aligns them.
            (14, 97, 3),
            (15, 1, 25),
        ] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xDEAD, n);
            for band in [0usize, 1, 2, 3, 5, 7, 13, 26, 64, 200] {
                let a = dtw_banded_ws(&x, &y, band, &mut ws_a);
                let b = wavefront_ws(&x, &y, band, Squared, &mut ws_b);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "m={m} n={n} band={band}: row-major {a} vs wavefront {b}"
                );
            }
        }
    }

    #[test]
    fn pruned_wavefront_honours_the_upto_contract() {
        let mut ws = crate::workspace::Workspace::new();
        for (seed, m, n) in [(11u64, 19usize, 19usize), (12, 33, 41), (13, 64, 64)] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xBEEF, n);
            for band in [0usize, 3, 7, 26, 100] {
                let exact = wavefront_ws(&x, &y, band, Squared, &mut ws);
                if !exact.is_finite() {
                    continue;
                }
                for factor in [0.25, 0.5, 0.999, 1.001, 2.0, 10.0] {
                    let cutoff = exact * factor;
                    let (got, _) = wavefront_pruned(&x, &y, band, Squared, cutoff, &mut ws);
                    if exact < cutoff {
                        assert_eq!(
                            got.to_bits(),
                            exact.to_bits(),
                            "band={band} factor={factor}: below-cutoff result must be exact"
                        );
                    } else {
                        assert!(
                            got >= cutoff,
                            "band={band} factor={factor}: got {got} < cutoff {cutoff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_wavefront_computes_fewer_cells_under_a_tight_cutoff() {
        let mut ws = crate::workspace::Workspace::new();
        let x = noise(21, 128);
        let y = noise(22, 128);
        let band = 32;
        let exact = wavefront_ws(&x, &y, band, Squared, &mut ws);
        let (_, loose) = wavefront_pruned(&x, &y, band, Squared, exact * 4.0, &mut ws);
        let (got, tight) = wavefront_pruned(&x, &y, band, Squared, exact * 1.01, &mut ws);
        assert_eq!(got.to_bits(), exact.to_bits());
        assert!(
            tight <= loose,
            "tighter cutoff computed more cells: {tight} > {loose}"
        );
    }

    #[test]
    fn wdtw_wavefront_matches_row_major_bit_for_bit() {
        let mut ws = crate::workspace::Workspace::new();
        for (seed, m, n) in [
            (31u64, 1usize, 1usize),
            (32, 7, 9),
            (33, 19, 19),
            (34, 33, 47),
            (35, 64, 64),
        ] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xF00D, n);
            for g in [0.01, 0.05, 0.5] {
                let a = wdtw_row_major(&x, &y, g);
                let half = m.max(n) as f64 / 2.0;
                let weights: Vec<f64> = (0..m.max(n))
                    .map(|k| 1.0 / (1.0 + (-g * (k as f64 - half)).exp()))
                    .collect();
                let b = wavefront_ws(&x, &y, m + n, Weighted(&weights), &mut ws);
                assert_eq!(a.to_bits(), b.to_bits(), "g={g} m={m} n={n}");
                let exact = a;
                let (below, _) =
                    wavefront_pruned(&x, &y, m + n, Weighted(&weights), exact * 2.0, &mut ws);
                assert_eq!(below.to_bits(), exact.to_bits());
                if exact > 0.0 {
                    let (above, _) =
                        wavefront_pruned(&x, &y, m + n, Weighted(&weights), exact * 0.5, &mut ws);
                    assert!(above >= exact * 0.5);
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs_match_row_major() {
        let mut ws = crate::workspace::Workspace::new();
        assert_eq!(wavefront_ws(&[], &[], 5, Squared, &mut ws), 0.0);
        assert_eq!(wavefront_ws(&[1.0], &[], 5, Squared, &mut ws), INF);
        assert_eq!(wavefront_ws(&[], &[1.0], 5, Squared, &mut ws), INF);
        // Band narrower than the length difference: INF both ways.
        let x = noise(41, 10);
        let y = noise(42, 30);
        assert_eq!(
            wavefront_ws(&x, &y, 3, Squared, &mut ws).to_bits(),
            dtw_banded_ws(&x, &y, 3, &mut ws).to_bits()
        );
        assert_eq!(wavefront_pruned(&x, &y, 3, Squared, 1.0, &mut ws).0, INF);
    }
}
