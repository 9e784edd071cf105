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
//! row-major recurrence once for a block of `W` equal-length columns at
//! a time, one column per SIMD lane:
//!
//! * **Widths.** MSM, TWE and NCC run blocks of [`LANES`] columns. DTW
//!   runs blocks of [`MAX_ROW_BLOCK`](crate::lanes::MAX_ROW_BLOCK) =
//!   `2 * LANES`: its cell is short enough that one sweep of eight lanes
//!   waits on the `left` chain, and sixteen lanes give the vector unit
//!   two independent chains. A run of at most [`LANES`] columns takes
//!   the [`LANES`] instance of the same kernel. MSM's and TWE's longer
//!   cells keep the vector unit busy at eight lanes, and measured slower
//!   at sixteen.
//! * **Layout.** The columns are copied into a column-major `[j][lane]`
//!   scratch ([`Workspace::lane_rows`]), so cell `j` of all lanes is one
//!   `[f64; W]` vector, as are the two rolling DP rows and the
//!   per-column tables MSM and TWE keep.
//! * **Identical bits.** Each lane returns the per-pair `distance_ws`
//!   value bit for bit (pinned by the `row_equivalence` suite). The cells
//!   compute the per-pair values with the same or fewer operations: each
//!   IEEE operation of the scalar cell is kept or replaced by one with
//!   the same result (a table lookup, a compare-select `min` where no
//!   operand can be NaN or `-0.0`, MSM's cost from one difference, see
//!   [`msm_cost_signed`]); Rust never contracts or reassociates floating
//!   point. Those rewrites need finite inputs, so a block whose query or
//!   any column holds a NaN or ±∞ runs per pair instead.
//! * **Partial blocks.** A block with fewer than `W` columns fills the
//!   unused lanes with a repeat of its last real column; those lanes do
//!   redundant work and their results are discarded. A run of more than
//!   [`LANES`] columns fills one `W`-wide block, a shorter run one
//!   [`LANES`]-wide block.
//! * **Length runs.** A block only ever holds columns of one length.
//!   The row is split into runs of equal-length columns; a run of one
//!   column, an empty column or an empty query falls back to the
//!   per-pair kernel.
//!
//! [`row_ws`] is the part that is not a DP: the sliding measures use it
//! too, with an FFT block (`CrossCorrelation`'s lane transform).

use std::array;

use crate::lanes::LANES;
use crate::measure::Distance;
use crate::workspace::Workspace;

/// One DP cell (or one sample) of all `W` columns of a block.
type Lanes<const W: usize> = [f64; W];

/// A batch-axis block kernel of width `W`: the distances from `x` to the
/// `W` equal-length, non-empty columns of one block, lane `l` being
/// `distance_ws(x, cols[l])` bit for bit, or `None` to run the block per
/// pair.
pub(crate) trait LaneBlock<const W: usize> {
    fn block_ws(&self, x: &[f64], cols: &[&[f64]; W], ws: &mut Workspace) -> Option<Lanes<W>>;
}

/// Fills `out[j]` with `d.distance_ws(x, cols[j])`: runs of equal-length
/// columns go through `d`'s block kernel, a run of more than [`LANES`]
/// columns in blocks of `W` and a shorter one in a block of [`LANES`];
/// everything else, and every block the kernel declines, runs per pair.
pub(crate) fn row_ws<const W: usize, D>(
    d: &D,
    x: &[f64],
    cols: &[Vec<f64>],
    out: &mut [f64],
    ws: &mut Workspace,
) where
    D: Distance + LaneBlock<W> + LaneBlock<LANES>,
{
    debug_assert_eq!(out.len(), cols.len(), "one output slot per column");
    let mut cols = cols;
    let mut out = out;
    while let Some(first) = cols.first() {
        let len = first.len();
        let run = cols.iter().take(W).take_while(|c| c.len() == len).count();
        let (run_cols, rest_cols) = cols.split_at(run);
        let (run_out, rest_out) = std::mem::take(&mut out).split_at_mut(run);
        let done = run > 1
            && len > 0
            && !x.is_empty()
            && if run > LANES {
                block_run::<W>(d, x, run_cols, run_out, ws)
            } else {
                block_run::<LANES>(d, x, run_cols, run_out, ws)
            };
        if !done {
            for (slot, col) in run_out.iter_mut().zip(run_cols) {
                *slot = d.distance_ws(x, col, ws);
            }
        }
        cols = rest_cols;
        out = rest_out;
    }
}

/// Runs one block of `W` lanes over the (at most `W`) columns of a run,
/// padding with its last column, and writes the run's values; `false`
/// when the kernel declines the block.
fn block_run<const W: usize>(
    d: &impl LaneBlock<W>,
    x: &[f64],
    run_cols: &[Vec<f64>],
    run_out: &mut [f64],
    ws: &mut Workspace,
) -> bool {
    let last = run_cols.len() - 1;
    let lanes: [&[f64]; W] = array::from_fn(|l| run_cols[l.min(last)].as_slice());
    let Some(values) = d.block_ws(x, &lanes, ws) else {
        return false;
    };
    run_out.copy_from_slice(&values[..run_out.len()]);
    true
}

/// Transposes the block's columns into `rows[j][lane]`.
fn interleave<const W: usize>(cols: &[&[f64]; W], rows: &mut [Lanes<W>]) {
    for (lane, col) in cols.iter().enumerate() {
        for (row, &v) in rows.iter_mut().zip(col.iter()) {
            row[lane] = v;
        }
    }
}

/// Lane-wise `a.min(b)` for operands that are never NaN: one compare
/// and select, which lowers to a single `vminpd`. `f64::min` must also
/// return the non-NaN operand, which costs an unordered compare and a
/// blend on top.
#[inline(always)]
fn min_sel(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// MSM's split/merge cost `C(new, a, o)` for finite operands, in
/// interval form: `cost + d` when `new` lies outside the interval
/// spanned by `a` and `o`, `d` being its distance to the nearer end, and
/// `cost` otherwise. `d` comes from one difference: with `gap = |new -
/// a|` and `signed = sign(new - a) * (new - o)`, it is `min(gap,
/// signed)`, which is positive exactly when `new` is outside.
///
/// This is the per-pair `C` bit for bit. A rounded difference has the
/// sign of the exact one and is zero only for equal operands, so
/// `signed > 0` (with `gap > 0`) says exactly that `new` lies on the
/// same side of both neighbours. Then `signed` is `|new - o|` and
/// `min(gap, signed)` is the per-pair `min(|new - a|, |new - o|)`, since
/// `abs` and the sign flip are exact. Otherwise `new` lies between (or
/// on) its neighbours and the cost is `cost`, as per pair.
#[inline(always)]
fn msm_cost_signed(cost: f64, gap: f64, signed: f64) -> f64 {
    let d = min_sel(gap, signed);
    if d > 0.0 {
        cost + d
    } else {
        cost
    }
}

/// Whether `x` and every column of a block are free of NaN and ±∞: the
/// precondition of the block kernels' select-min cells.
fn all_finite<const W: usize>(x: &[f64], cols: &[&[f64]; W]) -> bool {
    // A non-short-circuit fold, so the pass vectorizes.
    let finite = |s: &[f64]| s.iter().fold(true, |ok, v| ok & v.is_finite());
    finite(x) && cols.iter().all(|c| finite(c))
}

/// Fills `steps[j]` with `|ys[j] - ys[j - 1]|` for `j >= 1`.
fn fill_steps(ys: &[Lanes<LANES>], steps: &mut [Lanes<LANES>]) {
    for ((s, y), y_prev) in steps[1..].iter_mut().zip(&ys[1..]).zip(ys) {
        *s = array::from_fn(|l| (y[l] - y_prev[l]).abs());
    }
}

/// The MSM row-major recurrence over one block: `x` against
/// [`LANES`] non-empty columns of one length. Lane `l` of the result is
/// `Msm::distance_ws(x, cols[l])` bit for bit; a block holding a NaN or
/// ±∞ is declined (`None`) and runs per pair.
///
/// Each cell takes its three costs from one difference `dx = x_i - y_j`
/// (see [`msm_cost_signed`]): the split's `|x_i - x_{i-1}|` and sign are
/// per row, the merge's `|y_j - y_{j-1}|` and sign per column of the
/// block. Every DP value is a sum of non-negative terms, so it is never
/// NaN or `-0.0`; on such values [`min_sel`] picks the same value as
/// the per-pair kernel's `f64::min`.
pub(crate) fn msm_block_ws(
    cost: f64,
    x: &[f64],
    cols: &[&[f64]; LANES],
    ws: &mut Workspace,
) -> Option<Lanes<LANES>> {
    let &x0 = x.first()?;
    if !all_finite(x, cols) {
        return None;
    }
    let n = cols[0].len();
    let [ys, steps, signs, mut prev, mut curr] = ws.lane_rows(n);
    interleave(cols, ys);
    fill_steps(ys, steps);
    for ((s, y), y_prev) in signs[1..].iter_mut().zip(&ys[1..]).zip(ys.iter()) {
        *s = array::from_fn(|l| (y_prev[l] - y[l]).signum());
    }
    // The merge cost C(y_j, y_{j-1}, x_i) from `dx = x_i - y_j`.
    let merge = |step: f64, sign: f64, dx: f64| msm_cost_signed(cost, step, sign * dx);

    // Row 0.
    let mut left: Lanes<LANES> = array::from_fn(|l| (x0 - ys[0][l]).abs());
    prev[0] = left;
    let cols_j = ys[1..].iter().zip(steps[1..].iter().zip(&signs[1..]));
    for (p, (y, (step, sign))) in prev[1..].iter_mut().zip(cols_j) {
        left = array::from_fn(|l| left[l] + merge(step[l], sign[l], x0 - y[l]));
        *p = left;
    }

    for (&xp, &xi) in x.iter().zip(&x[1..]) {
        // The split cost C(x_i, x_{i-1}, y_j) from `dx = x_i - y_j`.
        let (x_gap, x_sign) = ((xi - xp).abs(), (xi - xp).signum());
        let split = |dx: f64| msm_cost_signed(cost, x_gap, x_sign * dx);
        left = array::from_fn(|l| prev[0][l] + split(xi - ys[0][l]));
        curr[0] = left;
        let diag_up = prev.iter().zip(&prev[1..]);
        let cols_j = ys[1..].iter().zip(steps[1..].iter().zip(&signs[1..]));
        for ((c, (p_diag, p_up)), (y, (step, sign))) in
            curr[1..].iter_mut().zip(diag_up).zip(cols_j)
        {
            left = array::from_fn(|l| {
                let dx = xi - y[l];
                let move_cost = p_diag[l] + dx.abs();
                let split_x = p_up[l] + split(dx);
                let merge_y = left[l] + merge(step[l], sign[l], dx);
                min_sel(min_sel(move_cost, split_x), merge_y)
            });
            *c = left;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Some(prev[n - 1])
}

/// The banded DTW row-major recurrence (squared local costs, Sakoe–Chiba
/// radius `band`) over one block: `x` against `W` non-empty columns of
/// one length. Lane `l` of the result is `Dtw::distance_ws(x, cols[l])`
/// bit for bit; a block holding a NaN or ±∞ is declined (`None`) and
/// runs per pair.
///
/// The cell is `d * d + min(min(diag, up), left)`, the expression and
/// `min` order of `dtw_banded_ws` and of the wavefront kernel, with
/// [`min_sel`] for `f64::min`. On finite inputs every cell is `d * d`
/// plus a min of earlier cells (or of the row-0 origin's `0.0` and the
/// ∞ fill): `d * d` is `+0.0` or more, and `+∞` only on overflow, so no
/// DP value is NaN or `-0.0` and [`min_sel`] picks the per-pair value.
///
/// Only the cells a row reads outside its own band are reset to ∞: the
/// one left of the band (the first cell's left neighbour) and the one
/// right of it (the next row's `prev[hi + 1]`). The band moves by at
/// most one cell per row, so every other read lands in the previous
/// row's band or on one of those two cells.
///
/// `band` must be at least `|x.len() - n|` (as `Dtw::band` guarantees),
/// so every row's band is non-empty and the corner is reachable.
pub(crate) fn dtw_block_ws<const W: usize>(
    band: usize,
    x: &[f64],
    cols: &[&[f64]; W],
    ws: &mut Workspace,
) -> Option<Lanes<W>> {
    if !all_finite(x, cols) {
        return None;
    }
    let n = cols[0].len();
    debug_assert!(band >= x.len().abs_diff(n), "band strands the corner");
    let inf = [f64::INFINITY; W];
    let [ys, mut prev, mut curr] = ws.lane_rows(n + 1);
    interleave(cols, &mut ys[1..]);

    // Row 0: only the origin is reachable.
    prev[0] = [0.0; W];
    prev[1..].fill(inf);

    for (i, &xi) in (1usize..).zip(x) {
        let lo = i.saturating_sub(band).max(1);
        let hi = (i + band).min(n);
        let mut left = inf;
        curr[lo - 1] = left;
        let diag_up = prev[lo - 1..hi].iter().zip(&prev[lo..=hi]);
        let cells = curr[lo..=hi].iter_mut().zip(diag_up).zip(&ys[lo..=hi]);
        for ((c, (p_diag, p_up)), y) in cells {
            left = array::from_fn(|l| {
                let d = xi - y[l];
                d * d + min_sel(min_sel(p_diag[l], p_up[l]), left[l])
            });
            *c = left;
        }
        if let Some(edge) = curr.get_mut(hi + 1) {
            *edge = inf;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    Some(prev[n])
}

/// The TWE row-major recurrence (Marteau's 1-based form with a zero 0th
/// sample) over one block: `x` against [`LANES`] non-empty columns of
/// one length. Lane `l` of the result is `Twe::distance_ws(x, cols[l])`
/// bit for bit; a block holding a NaN or ±∞ is declined (`None`) and
/// runs per pair. The cells pick with [`min_sel`] for the reason given
/// at [`msm_block_ws`]. They compute the per-pair cell's IEEE
/// operations fewer times: `|y_j - y_{j-1}|` once per block,
/// `|x_i - x_{i-1}|` once per row, the stiffness `2 nu |i - j|` once per
/// block and diagonal, and the match term's `|x_{i-1} - y_{j-1}|` not at
/// all, since it is the row above's `|x_i - y_j|`, carried in `gaps`.
pub(crate) fn twe_block_ws(
    lambda: f64,
    nu: f64,
    x: &[f64],
    cols: &[&[f64]; LANES],
    ws: &mut Workspace,
) -> Option<Lanes<LANES>> {
    if !all_finite(x, cols) {
        return None;
    }
    let m = x.len();
    let n = cols[0].len();
    // stiffness[k] is the per-pair `2 nu |i - j|` for `i - j = m - 1 - k`.
    let mut stiffness = ws.take_aux();
    stiffness.extend((0..m + n - 1).map(|k| 2.0 * nu * ((m - 1) as f64 - k as f64).abs()));
    let [ys, steps, gaps, mut prev, mut curr] = ws.lane_rows(n + 1);
    ys[0] = [0.0; LANES];
    interleave(cols, &mut ys[1..]);
    fill_steps(ys, steps);
    // gaps[j] = |x_{i-1} - y_j| for the row above, first the zero sample's.
    for (g, y) in gaps.iter_mut().zip(ys.iter()) {
        *g = array::from_fn(|l| (0.0 - y[l]).abs());
    }

    // Row 0: delete all of y.
    let mut left: Lanes<LANES> = [0.0; LANES];
    prev[0] = left;
    for (p, step) in prev[1..].iter_mut().zip(&steps[1..]) {
        left = array::from_fn(|l| left[l] + step[l] + nu + lambda);
        *p = left;
    }

    let x_prevs = std::iter::once(0.0).chain(x.iter().copied());
    for (i, (xp, &xi)) in (1usize..).zip(x_prevs.zip(x)) {
        let x_step = (xi - xp).abs();
        left = array::from_fn(|l| prev[0][l] + x_step + nu + lambda);
        curr[0] = left;
        let mut gap_up = gaps[0];
        gaps[0] = array::from_fn(|l| (xi - ys[0][l]).abs());
        let diag_up = prev.iter().zip(&prev[1..]);
        let cells = curr[1..]
            .iter_mut()
            .zip(diag_up)
            .zip(ys[1..].iter().zip(&steps[1..]))
            .zip(gaps[1..].iter_mut().zip(&stiffness[m - i..]));
        for (((c, (p_diag, p_up)), (y, step)), (gap, &stiff)) in cells {
            let gap_here: Lanes<LANES> = array::from_fn(|l| (xi - y[l]).abs());
            left = array::from_fn(|l| {
                let m_cost = p_diag[l] + gap_here[l] + gap_up[l] + stiff;
                let dx = p_up[l] + x_step + nu + lambda;
                let dy = left[l] + step[l] + nu + lambda;
                min_sel(min_sel(m_cost, dx), dy)
            });
            gap_up = std::mem::replace(gap, gap_here);
            *c = left;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let result = prev[n];
    ws.put_aux(stiffness);
    Some(result)
}
