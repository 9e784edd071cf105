//! Batch-axis row kernels: MSM, TWE and banded DTW, and the row driver
//! the NCC family shares.
//!
//! MSM's split/merge cost and TWE's edit terms leave no parallelism
//! inside one pair: the row-major recurrence carries `curr[j - 1]` into
//! `curr[j]`, and MSM's data-dependent cost made its anti-diagonal
//! schedule a measured loss. DTW's anti-diagonal schedule does win, but
//! a narrow band leaves it diagonals of a handful of cells. A matrix
//! row, however, is one query `x` against many training columns, and
//! those pairs are independent. The kernels here run the scalar
//! row-major recurrence once for [`LANES`] equal-length columns at a
//! time, one column per SIMD lane:
//!
//! * **Layout.** The columns are copied into a column-major `[j][lane]`
//!   scratch ([`Workspace::lane_rows3`]), so cell `j` of all lanes is one
//!   `[f64; LANES]` vector, as are the two rolling DP rows.
//! * **Identical bits.** Every lane evaluates exactly the scalar
//!   kernel's cell expressions, with the same operand and `min` order;
//!   only *which* register slot holds the value changes. Rust never
//!   contracts or reassociates floating point, so each lane's result is
//!   the per-pair `distance_ws` value bit for bit (pinned by the
//!   `row_equivalence` suite).
//! * **Partial blocks.** A block with fewer than [`LANES`] columns fills
//!   the unused lanes with a repeat of its last real column; those lanes
//!   do redundant work and their results are discarded.
//! * **Length runs.** A block only ever holds columns of one length.
//!   The row is split into runs of equal-length columns; a run of one
//!   column, an empty column or an empty query falls back to the
//!   per-pair kernel.
//!
//! [`row_ws`] is the part that is not a DP: the sliding measures use it
//! too, with an FFT block (`CrossCorrelation`'s lane transform).

use std::array;

use crate::lanes::LANES;
use crate::workspace::Workspace;

/// One DP cell (or one sample) of all [`LANES`] columns of a block.
type Lanes = [f64; LANES];

/// An unreachable cell in every lane.
const INF: Lanes = [f64::INFINITY; LANES];

/// Fills `out[j]` with the distance from `x` to `cols[j]`: blocks of
/// equal-length columns go through `block`, everything else through
/// `pair` (the measure's `distance_ws`).
pub(crate) fn row_ws(
    x: &[f64],
    cols: &[Vec<f64>],
    out: &mut [f64],
    ws: &mut Workspace,
    pair: impl Fn(&[f64], &[f64], &mut Workspace) -> f64,
    block: impl Fn(&[f64], &[&[f64]; LANES], &mut Workspace) -> Lanes,
) {
    debug_assert_eq!(out.len(), cols.len(), "one output slot per column");
    let mut cols = cols;
    let mut out = out;
    while let Some(first) = cols.first() {
        let len = first.len();
        let run = cols
            .iter()
            .take(LANES)
            .take_while(|c| c.len() == len)
            .count();
        let (run_cols, rest_cols) = cols.split_at(run);
        let (run_out, rest_out) = std::mem::take(&mut out).split_at_mut(run);
        if run == 1 || len == 0 || x.is_empty() {
            for (slot, col) in run_out.iter_mut().zip(run_cols) {
                *slot = pair(x, col, ws);
            }
        } else {
            let lanes: [&[f64]; LANES] = array::from_fn(|l| run_cols[l.min(run - 1)].as_slice());
            let values = block(x, &lanes, ws);
            run_out.copy_from_slice(&values[..run]);
        }
        cols = rest_cols;
        out = rest_out;
    }
}

/// Transposes the block's columns into `rows[j][lane]`.
fn interleave(cols: &[&[f64]; LANES], rows: &mut [Lanes]) {
    for (lane, col) in cols.iter().enumerate() {
        for (row, &v) in rows.iter_mut().zip(col.iter()) {
            row[lane] = v;
        }
    }
}

/// MSM's split/merge cost `C(new, adjacent, opposite)`: `cost` when
/// `new` lies between its neighbours, otherwise `cost` plus the distance
/// to the nearer one. Non-short-circuit `&`/`|` and a final select keep
/// it branch-free, so the lane loop vectorizes; both arms are the
/// expressions of the scalar kernel, so the value is the same.
#[inline(always)]
pub(crate) fn msm_cost(cost: f64, new: f64, adjacent: f64, opposite: f64) -> f64 {
    let between = (adjacent <= new) & (new <= opposite) | (adjacent >= new) & (new >= opposite);
    let far = cost + (new - adjacent).abs().min((new - opposite).abs());
    if between {
        cost
    } else {
        far
    }
}

/// The MSM row-major recurrence over one block: `x` against
/// [`LANES`] non-empty columns of one length. Lane `l` of the result is
/// `Msm::distance_ws(x, cols[l])` bit for bit.
pub(crate) fn msm_block_ws(
    cost: f64,
    x: &[f64],
    cols: &[&[f64]; LANES],
    ws: &mut Workspace,
) -> Lanes {
    let Some(&x0) = x.first() else {
        return [f64::INFINITY; LANES];
    };
    let n = cols[0].len();
    let (ys, mut prev, mut curr) = ws.lane_rows3(n);
    interleave(cols, ys);

    // Row 0.
    let mut left: Lanes = array::from_fn(|l| (x0 - ys[0][l]).abs());
    prev[0] = left;
    for ((p, y), y_prev) in prev[1..].iter_mut().zip(&ys[1..]).zip(ys.iter()) {
        left = array::from_fn(|l| left[l] + msm_cost(cost, y[l], y_prev[l], x0));
        *p = left;
    }

    for (&xp, &xi) in x.iter().zip(&x[1..]) {
        left = array::from_fn(|l| prev[0][l] + msm_cost(cost, xi, xp, ys[0][l]));
        curr[0] = left;
        let diag_up = prev.iter().zip(&prev[1..]);
        let cells = curr[1..]
            .iter_mut()
            .zip(diag_up)
            .zip(ys[1..].iter().zip(ys.iter()));
        for ((c, (p_diag, p_up)), (y, y_prev)) in cells {
            // Three small lane passes, not one: a single pass holding both
            // cost functions is too large for LLVM to unroll, so it never
            // reaches the SLP vectorizer and stays scalar.
            let split_x: Lanes = array::from_fn(|l| p_up[l] + msm_cost(cost, xi, xp, y[l]));
            let merge_c: Lanes = array::from_fn(|l| msm_cost(cost, y[l], xi, y_prev[l]));
            left = array::from_fn(|l| {
                let move_cost = p_diag[l] + (xi - y[l]).abs();
                move_cost.min(split_x[l]).min(left[l] + merge_c[l])
            });
            *c = left;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n - 1]
}

/// The banded DTW row-major recurrence (squared local costs, Sakoe–Chiba
/// radius `band`) over one block: `x` against [`LANES`] non-empty
/// columns of one length. Lane `l` of the result is
/// `Dtw::distance_ws(x, cols[l])` bit for bit: the cell is
/// `d * d + prev[j - 1].min(prev[j]).min(curr[j - 1])`, the expression
/// and `min` order of `dtw_banded_ws` and of the wavefront kernel.
///
/// Only the cells a row reads outside its own band are reset to ∞: the
/// one left of the band (the first cell's left neighbour) and the one
/// right of it (the next row's `prev[hi + 1]`). The band moves by at
/// most one cell per row, so every other read lands in the previous
/// row's band or on one of those two cells.
///
/// `band` must be at least `|x.len() - n|` (as `Dtw::band` guarantees),
/// so every row's band is non-empty and the corner is reachable.
pub(crate) fn dtw_block_ws(
    band: usize,
    x: &[f64],
    cols: &[&[f64]; LANES],
    ws: &mut Workspace,
) -> Lanes {
    let n = cols[0].len();
    debug_assert!(band >= x.len().abs_diff(n), "band strands the corner");
    let (ys, mut prev, mut curr) = ws.lane_rows3(n + 1);
    interleave(cols, &mut ys[1..]);

    // Row 0: only the origin is reachable.
    prev[0] = [0.0; LANES];
    prev[1..].fill(INF);

    for (i, &xi) in (1usize..).zip(x) {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        let mut left = INF;
        curr[lo - 1] = left;
        let diag_up = prev[lo - 1..hi].iter().zip(&prev[lo..=hi]);
        let cells = curr[lo..=hi].iter_mut().zip(diag_up).zip(&ys[lo..=hi]);
        for ((c, (p_diag, p_up)), y) in cells {
            left = array::from_fn(|l| {
                let d = xi - y[l];
                d * d + p_diag[l].min(p_up[l]).min(left[l])
            });
            *c = left;
        }
        if let Some(edge) = curr.get_mut(hi + 1) {
            *edge = INF;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// The TWE row-major recurrence (Marteau's 1-based form with a zero 0th
/// sample) over one block: `x` against [`LANES`] non-empty columns of
/// one length. Lane `l` of the result is `Twe::distance_ws(x, cols[l])`
/// bit for bit.
pub(crate) fn twe_block_ws(
    lambda: f64,
    nu: f64,
    x: &[f64],
    cols: &[&[f64]; LANES],
    ws: &mut Workspace,
) -> Lanes {
    let n = cols[0].len();
    let (ys, mut prev, mut curr) = ws.lane_rows3(n + 1);
    ys[0] = [0.0; LANES];
    interleave(cols, &mut ys[1..]);

    // Row 0: delete all of y.
    let mut left: Lanes = [0.0; LANES];
    prev[0] = left;
    for ((p, y), y_prev) in prev[1..].iter_mut().zip(&ys[1..]).zip(ys.iter()) {
        left = array::from_fn(|l| left[l] + (y[l] - y_prev[l]).abs() + nu + lambda);
        *p = left;
    }

    let x_prevs = std::iter::once(0.0).chain(x.iter().copied());
    for (i, (xp, &xi)) in (1usize..).zip(x_prevs.zip(x)) {
        left = array::from_fn(|l| prev[0][l] + (xi - xp).abs() + nu + lambda);
        curr[0] = left;
        let diag_up = prev.iter().zip(&prev[1..]);
        let cells = curr[1..]
            .iter_mut()
            .zip(diag_up)
            .zip(ys[1..].iter().zip(ys.iter()));
        for (j, ((c, (p_diag, p_up)), (y, y_prev))) in (1usize..).zip(cells) {
            let stiffness = 2.0 * nu * (i as f64 - j as f64).abs();
            left = array::from_fn(|l| {
                let m_cost = p_diag[l] + (xi - y[l]).abs() + (xp - y_prev[l]).abs() + stiffness;
                let dx = p_up[l] + (xi - xp).abs() + nu + lambda;
                let dy = left[l] + (y[l] - y_prev[l]).abs() + nu + lambda;
                m_cost.min(dx).min(dy)
            });
            *c = left;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}
