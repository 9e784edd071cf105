//! The two row-major drivers behind MSM, TWE, ERP, EDR, Swale and
//! Itakura DTW: the exact sweep [`rows_ws`] and the early-abandon sweep
//! [`rows_upto`] (EAPruned, after Herrmann & Webb). Each measure writes
//! its DP once, as a shape, an origin and three closures. MSM, TWE, ERP
//! and Itakura hand them to [`rows_upto`] with their cutoff; with no
//! cutoff (+∞ or NaN) that runs the exact sweep, as the
//! `Distance::distance_upto` contract asks. EDR and Swale have no
//! early-abandon path and hand theirs to [`rows_ws`].
//!
//! The pruned sweep owns the whole pruning mechanism. Row 0 and column 0
//! are exact chains. Each later row computes only the cells reachable
//! from the previous row's live window `[p_lo, p_hi]` (cells
//! `< cutoff`), stops once it is past that window and its left neighbour
//! is dead, and the whole DP abandons when a row has no live cell.
//!
//! This is admissible because every cell expression adds non-negative
//! costs to its predecessors, so a cell with only dead predecessors is
//! itself `>= cutoff`. An INF left in such a cell can only displace an
//! operand that was already `>= cutoff`, so live cells see the same
//! operands in the same order and compute exact bits. Every warping or
//! edit path crosses every row, so a dead row means the distance is
//! `>= cutoff`.
//!
//! The exact sweep is a loop of its own, not the pruned one at
//! `cutoff = ∞`: `v < cutoff` counts NaN and +∞ cells as dead, so the
//! pruned loop would return ∞ where the exact DP returns NaN, and it pays
//! for the window bookkeeping on every cell. The pair mirrors
//! `wavefront_ws` / `wavefront_pruned`.
//!
//! Each measure marks its cell closure `#[inline(always)]`: the closure
//! has a call site in each sweep, so LLVM no longer inlines it as a
//! single-caller function, and for TWE that cost 1.2–1.3x on both paths.

use crate::workspace::Workspace;

const INF: f64 = f64::INFINITY;

/// Runs a row-major DP of `rows x cols` cells (origin included) and
/// returns its corner cell; the arguments are those of [`rows_upto`].
/// Every cell is computed, and the left neighbour is carried in a
/// register.
pub(super) fn rows_ws(
    (rows, cols): (usize, usize),
    origin: f64,
    ws: &mut Workspace,
    row0: impl Fn(usize, f64) -> f64,
    col0: impl Fn(usize, f64) -> f64,
    cell: impl Fn(usize, usize, f64, f64, f64) -> f64,
) -> f64 {
    let (mut prev, mut curr) = ws.dp_rows2(cols);
    let mut left = origin;
    prev[0] = origin;
    for (j, c) in (1..).zip(&mut prev[1..]) {
        left = row0(j, left);
        *c = left;
    }
    for i in 1..rows {
        left = col0(i, prev[0]);
        curr[0] = left;
        for (j, (c, (&diag, &up))) in
            (1..).zip(curr[1..].iter_mut().zip(prev.iter().zip(&prev[1..])))
        {
            left = cell(i, j, diag, up, left);
            *c = left;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[cols - 1]
}

/// Runs a row-major DP of `rows x cols` cells (origin included) under
/// `cutoff`. Returns the exact corner cell when the distance is
/// `< cutoff`, otherwise `f64::INFINITY`; non-positive cutoffs abandon at
/// once, and with no cutoff (+∞ or NaN) the DP runs exactly, through
/// [`rows_ws`].
///
/// Cell `(0, 0)` is `origin`; the closures give the rest:
/// * `row0(j, left)`: cell `(0, j)` from its left neighbour;
/// * `col0(i, up)`: cell `(i, 0)` from the cell above;
/// * `cell(i, j, diag, up, left)`: an interior cell from its three
///   predecessors.
///
/// Padded measures (TWE, ERP, Itakura, EDR, Swale) pass `(m + 1, n + 1)`;
/// MSM, which starts from the first samples, passes `(m, n)`.
pub(super) fn rows_upto(
    (rows, cols): (usize, usize),
    origin: f64,
    cutoff: f64,
    ws: &mut Workspace,
    row0: impl Fn(usize, f64) -> f64,
    col0: impl Fn(usize, f64) -> f64,
    cell: impl Fn(usize, usize, f64, f64, f64) -> f64,
) -> f64 {
    if cutoff.is_nan() || cutoff == INF {
        return rows_ws((rows, cols), origin, ws, row0, col0, cell);
    }
    if cutoff <= 0.0 {
        return INF;
    }
    let (mut prev, mut curr) = ws.dp_rows2(cols);

    // Row 0 is exact; non-negative increments keep it non-decreasing, so
    // the live window is the prefix `[0, p_hi]` (or the row is dead).
    prev[0] = origin;
    let mut p_hi = 0usize;
    let mut row0_live = origin < cutoff;
    for j in 1..cols {
        // tsdist-lint: allow(hot-path-bounds-check, reason = "pruned-window DP: the live window is data-dependent, so loop-variable indexing is inherent and bounded by the window clamps")
        prev[j] = row0(j, prev[j - 1]);
        if prev[j] < cutoff {
            p_hi = j;
            row0_live = true;
        }
    }
    if !row0_live {
        return INF;
    }
    let mut p_lo = 0usize;
    for i in 1..rows {
        curr.fill(INF);
        // Column 0 stays exact so liveness can re-enter from the left.
        curr[0] = col0(i, prev[0]);
        let mut live_lo = usize::MAX;
        let mut live_hi = 0usize;
        if curr[0] < cutoff {
            live_lo = 0;
        }
        let start = if live_lo == 0 { 1 } else { p_lo.max(1) };
        for j in start..cols {
            // tsdist-lint: allow(hot-path-bounds-check, reason = "pruned-window DP: the live window is data-dependent, so loop-variable indexing is inherent and bounded by the window clamps")
            if j > p_hi + 1 && curr[j - 1] >= cutoff {
                break;
            }
            let v = cell(i, j, prev[j - 1], prev[j], curr[j - 1]);
            curr[j] = v;
            if v < cutoff {
                if live_lo == usize::MAX {
                    live_lo = j;
                }
                live_hi = j;
            }
        }
        if live_lo == usize::MAX {
            return INF;
        }
        p_lo = live_lo;
        p_hi = live_hi;
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[cols - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain full-matrix DP that [`rows_ws`] must reproduce.
    fn full_matrix(
        (rows, cols): (usize, usize),
        origin: f64,
        row0: impl Fn(usize, f64) -> f64,
        col0: impl Fn(usize, f64) -> f64,
        cell: impl Fn(usize, usize, f64, f64, f64) -> f64,
    ) -> f64 {
        let mut d = vec![vec![0.0; cols]; rows];
        d[0][0] = origin;
        for j in 1..cols {
            d[0][j] = row0(j, d[0][j - 1]);
        }
        for i in 1..rows {
            d[i][0] = col0(i, d[i - 1][0]);
            for j in 1..cols {
                d[i][j] = cell(i, j, d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]);
            }
        }
        d[rows - 1][cols - 1]
    }

    #[test]
    fn exact_driver_matches_the_full_matrix_dp() {
        // Every operand and index gets its own weight, so a swapped
        // operand, a skipped boundary step or a shifted index moves the
        // corner.
        let row0 = |j: usize, left: f64| left * 1.25 + j as f64;
        let col0 = |i: usize, up: f64| up * 0.75 + (3 * i) as f64;
        let cell = |i: usize, j: usize, diag: f64, up: f64, left: f64| {
            diag * 0.5 + up * 0.3 + left * 0.2 + (7 * i + j) as f64
        };
        // One workspace across shapes, so stale cells would show.
        let mut ws = Workspace::new();
        for shape in [(1, 1), (1, 6), (6, 1), (2, 2), (4, 9), (9, 4)] {
            assert_eq!(
                rows_ws(shape, 0.5, &mut ws, row0, col0, cell).to_bits(),
                full_matrix(shape, 0.5, row0, col0, cell).to_bits(),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn no_cutoff_runs_the_exact_sweep_and_keeps_a_nan_corner() {
        // A padded min-plus DP of a series with a NaN sample against
        // itself: the sample's row and column are NaN from the boundary
        // on, so the exact corner is NaN, while the pruned sweep counts
        // the NaN row as dead and abandons.
        let s = [0.0, 1.0, f64::NAN, 2.0];
        let run = |cutoff: f64| {
            rows_upto(
                (5, 5),
                0.0,
                cutoff,
                &mut Workspace::new(),
                |j, left| left + s[j - 1].abs(),
                |i, up| up + s[i - 1].abs(),
                |i, j, diag, up, left| (s[i - 1] - s[j - 1]).abs() + diag.min(up).min(left),
            )
        };
        assert!(run(f64::INFINITY).is_nan());
        assert!(run(f64::NAN).is_nan());
        assert_eq!(run(1e9), f64::INFINITY);
    }
}
