//! The one row-major early-abandon driver behind the `distance_upto` of
//! MSM, TWE, ERP and Itakura DTW (EAPruned, after Herrmann & Webb).
//!
//! The driver owns the whole pruning mechanism; each measure supplies
//! only its cell expressions as three closures. Row 0 and column 0 are
//! exact chains. Each later row computes only the cells reachable from
//! the previous row's live window `[p_lo, p_hi]` (cells `< cutoff`),
//! stops once it is past that window and its left neighbour is dead, and
//! the whole DP abandons when a row has no live cell.
//!
//! This is admissible because every cell expression adds non-negative
//! costs to its predecessors, so a cell with only dead predecessors is
//! itself `>= cutoff`. An INF left in such a cell can only displace an
//! operand that was already `>= cutoff`, so live cells see the same
//! operands in the same order and compute exact bits. Every warping or
//! edit path crosses every row, so a dead row means the distance is
//! `>= cutoff`.

use crate::workspace::Workspace;

const INF: f64 = f64::INFINITY;

/// Runs a row-major DP of `rows x cols` cells (origin included) under
/// `cutoff`. Returns the exact corner cell when the distance is
/// `< cutoff`, otherwise `f64::INFINITY`; non-positive and NaN cutoffs
/// abandon at once.
///
/// Cell `(0, 0)` is `origin`; the closures give the rest:
/// * `row0(j, left)`: cell `(0, j)` from its left neighbour;
/// * `col0(i, up)`: cell `(i, 0)` from the cell above;
/// * `cell(i, j, diag, up, left)`: an interior cell from its three
///   predecessors.
///
/// Padded measures (TWE, ERP, Itakura) pass `(m + 1, n + 1)`; MSM, which
/// starts from the first samples, passes `(m, n)`.
pub(super) fn rows_upto(
    (rows, cols): (usize, usize),
    origin: f64,
    cutoff: f64,
    ws: &mut Workspace,
    row0: impl Fn(usize, f64) -> f64,
    col0: impl Fn(usize, f64) -> f64,
    cell: impl Fn(usize, usize, f64, f64, f64) -> f64,
) -> f64 {
    if cutoff.is_nan() || cutoff <= 0.0 {
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
