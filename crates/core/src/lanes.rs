//! Multi-lane accumulation kernels for the lock-step hot paths.
//!
//! Every lock-step measure reduces `f(x_i, y_i)` over the common prefix
//! of two series. A sequential fold serializes on the accumulator's
//! add latency (~4 cycles per element); splitting the reduction across
//! [`LANES`] independent accumulators fed by [`slice::chunks_exact`]
//! exposes the instruction-level and SIMD parallelism the backend can
//! actually use, with a scalar tail for the remainder.
//!
//! The price is *reassociation*: `(((t0+t1)+t2)+t3)+…` becomes a fixed
//! binary tree over per-lane partial sums, so results differ from the
//! sequential fold by a few ULPs (bounded by `n·eps` relative error for
//! non-negative terms; see DESIGN.md §9 for the per-family policy).
//! Max-reductions ([`lane_max`]) are exactly reassociable — `f64::max`
//! ignores NaN in any order and the terms are absolute values, so signed
//! zeros cannot appear — and therefore bit-match the sequential fold.
//!
//! Every public entry point is one call of the private `fold`, which
//! is generic over the three-slice term (two-slice callers pass `y`
//! twice), the lane operation (`+` or `f64::max`) and the abandon
//! predicate. The exact entry points pass `never`, so the exact and
//! early-abandoning paths are one loop, and a non-abandoned `upto` call
//! reproduces the exact value bit-for-bit by construction — the
//! [`crate::measure::Distance::distance_upto`] contract.
//!
//! Early abandoning checks the cutoff once per [`ABANDON_BLOCK`]
//! elements (not per element) and once on the final value. Admissibility:
//! each partial handed to the predicate is the combine tree over
//! per-lane prefixes. Both lane operations are monotone non-decreasing
//! in each operand for non-negative terms, so each partial is a lower
//! bound of the final value, and a partial that satisfies a monotone
//! predicate proves the final value would too. A NaN partial never
//! satisfies a `>=` predicate, so a NaN term never causes an abandon.

use std::ops::Add;

/// Number of independent accumulator lanes in the chunked reductions.
///
/// Eight independent accumulators make the reduction throughput-bound
/// instead of latency-bound. Eight `f64` would fit one AVX-512 register,
/// but that is not what the compiler emits: on an AVX-512 host the
/// release build keeps the eight accumulators in four xmm pairs (the
/// chunk's subtract and square run in one zmm operation), and the
/// batch-axis row kernels run their eight lanes on ymm pairs.
pub const LANES: usize = 8;

/// The widest block of columns a batch-axis row kernel
/// ([`crate::measure::Distance::distance_row_ws`]) runs at once: banded
/// DTW's blocks of `2 * LANES`; MSM, TWE and NCC run [`LANES`]. Callers
/// that hand a row kernel its columns in chunks size them by it, so each
/// chunk can fill one block.
pub const MAX_ROW_BLOCK: usize = 2 * LANES;

/// Elements between cutoff checks in the `upto` kernels: four chunks of
/// [`LANES`], so the (7-operation) combine tree amortizes to well under
/// one extra operation per element.
pub const ABANDON_BLOCK: usize = 4 * LANES;

/// The abandon predicate of the exact entry points, whose `fold` is
/// therefore never `None`.
fn never(_: f64) -> bool {
    false
}

/// `op`-reduces `term(x_i, u_i, l_i)` over the common prefix of three
/// slices: lane `k` of each [`LANES`]-wide chunk into accumulator `k`,
/// the sequential remainder into a tail, then the fixed combine tree
/// `op(op(op(a0,a1), op(a2,a3)), op(op(a4,a5), op(a6,a7)))` and the
/// tail on top. Returns `None` as soon as `abandon` holds for the
/// combined partial after a whole [`ABANDON_BLOCK`], or for the final
/// value.
#[inline(always)]
fn fold(
    (x, u, l): (&[f64], &[f64], &[f64]),
    op: impl Fn(f64, f64) -> f64,
    mut term: impl FnMut(f64, f64, f64) -> f64,
    mut abandon: impl FnMut(f64) -> bool,
) -> Option<f64> {
    let n = x.len().min(u.len()).min(l.len());
    let tree = |a: &[f64; LANES]| {
        op(
            op(op(a[0], a[1]), op(a[2], a[3])),
            op(op(a[4], a[5]), op(a[6], a[7])),
        )
    };
    let mut acc = [0.0f64; LANES];
    let mut xc = x[..n].chunks_exact(LANES);
    let mut uc = u[..n].chunks_exact(LANES);
    let mut lc = l[..n].chunks_exact(LANES);
    for (chunk, ((cx, cu), cl)) in (1..).zip((&mut xc).zip(&mut uc).zip(&mut lc)) {
        // `chunks_exact` guarantees `LANES` elements per chunk, so the
        // bounds checks vanish and the body is a straight-line SLP
        // candidate.
        for k in 0..LANES {
            acc[k] = op(acc[k], term(cx[k], cu[k], cl[k]));
        }
        if chunk % (ABANDON_BLOCK / LANES) == 0 && abandon(tree(&acc)) {
            return None;
        }
    }
    let tail = (xc.remainder().iter())
        .zip(uc.remainder())
        .zip(lc.remainder())
        .fold(0.0, |t, ((&a, &b), &c)| op(t, term(a, b, c)));
    let total = op(tree(&acc), tail);
    (!abandon(total)).then_some(total)
}

/// `sum f(x_i, y_i)` over the common prefix, reduced across [`LANES`]
/// accumulators with a scalar tail.
#[inline]
pub fn lane_sum(x: &[f64], y: &[f64], mut f: impl FnMut(f64, f64) -> f64) -> f64 {
    fold((x, y, y), f64::add, |a, b, _| f(a, b), never).unwrap_or(f64::INFINITY)
}

/// Early-abandoning [`lane_sum`] for **non-negative** term functions,
/// generic over the monotone abandon predicate (Euclidean confirms
/// through a `sqrt`, Minkowski through a `powf` root). Returns `None`
/// once `abandon(partial)` holds at a block boundary or on the final
/// sum, otherwise `Some(sum)` with `sum` bit-identical to [`lane_sum`].
#[inline]
pub fn lane_sum_upto_by(
    x: &[f64],
    y: &[f64],
    mut f: impl FnMut(f64, f64) -> f64,
    abandon: impl FnMut(f64) -> bool,
) -> Option<f64> {
    fold((x, y, y), f64::add, |a, b, _| f(a, b), abandon)
}

/// [`lane_sum_upto_by`] with the plain `partial >= cutoff` predicate,
/// returning [`f64::INFINITY`] on abandon (the `distance_upto` canon).
#[inline]
pub fn lane_sum_upto(x: &[f64], y: &[f64], cutoff: f64, f: impl FnMut(f64, f64) -> f64) -> f64 {
    lane_sum_upto_by(x, y, f, |partial| partial >= cutoff).unwrap_or(f64::INFINITY)
}

/// `sum f(x_i, u_i, l_i)` over the common prefix of three slices — the
/// three-slice [`lane_sum`], shaped for LB_Keogh's (query,
/// upper-envelope, lower-envelope) walk.
#[inline]
pub fn lane_sum3(x: &[f64], u: &[f64], l: &[f64], f: impl FnMut(f64, f64, f64) -> f64) -> f64 {
    fold((x, u, l), f64::add, f, never).unwrap_or(f64::INFINITY)
}

/// Early-abandoning [`lane_sum3`] for **non-negative** term functions:
/// [`f64::INFINITY`] once a block-boundary partial or the final sum
/// reaches `cutoff`, otherwise the exact [`lane_sum3`] value.
#[inline]
pub fn lane_sum3_upto(
    x: &[f64],
    u: &[f64],
    l: &[f64],
    cutoff: f64,
    f: impl FnMut(f64, f64, f64) -> f64,
) -> f64 {
    fold((x, u, l), f64::add, f, |partial| partial >= cutoff).unwrap_or(f64::INFINITY)
}

/// `max f(x_i, y_i)` over the common prefix, reduced across [`LANES`]
/// lanes. Bit-identical to the sequential `fold(0.0, f64::max)` for
/// terms that are never negative zero (absolute values).
#[inline]
pub fn lane_max(x: &[f64], y: &[f64], mut f: impl FnMut(f64, f64) -> f64) -> f64 {
    fold((x, y, y), f64::max, |a, b, _| f(a, b), never).unwrap_or(f64::INFINITY)
}

/// Early-abandoning [`lane_max`]: [`f64::INFINITY`] once a
/// block-boundary max or the final max reaches `cutoff`, otherwise the
/// exact [`lane_max`] value.
#[inline]
pub fn lane_max_upto(x: &[f64], y: &[f64], cutoff: f64, mut f: impl FnMut(f64, f64) -> f64) -> f64 {
    fold(
        (x, y, y),
        f64::max,
        |a, b, _| f(a, b),
        |partial| partial >= cutoff,
    )
    .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        // SplitMix64-ish deterministic noise.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                ((z ^ (z >> 31)) as f64 / u64::MAX as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn abs_diff(a: f64, b: f64) -> f64 {
        (a - b).abs()
    }

    /// The LB_Keogh-style three-slice term, with the lower envelope one
    /// below the upper.
    fn keogh(v: f64, u: f64) -> f64 {
        let d = (v - u).max(0.0) + (u - 1.0 - v).max(0.0);
        d * d
    }

    /// One reduction shape: its exact entry point, its `upto` entry
    /// point, the sequential fold it reassociates, and whether that
    /// fold must match to the bit (max) or within ULPs (sums).
    struct Shape {
        name: &'static str,
        exact: fn(&[f64], &[f64]) -> f64,
        upto: fn(&[f64], &[f64], f64) -> f64,
        seq: fn(&[f64], &[f64]) -> f64,
        bit_exact_seq: bool,
    }

    fn lower(u: &[f64]) -> Vec<f64> {
        u.iter().map(|v| v - 1.0).collect()
    }

    const SHAPES: [Shape; 4] = [
        Shape {
            name: "sum",
            exact: |x, y| lane_sum(x, y, abs_diff),
            upto: |x, y, c| lane_sum_upto(x, y, c, abs_diff),
            seq: |x, y| x.iter().zip(y).map(|(&a, &b)| abs_diff(a, b)).sum(),
            bit_exact_seq: false,
        },
        Shape {
            name: "sum_by",
            exact: |x, y| lane_sum(x, y, |a, b| (a - b) * (a - b)).sqrt(),
            upto: |x, y, c| {
                lane_sum_upto_by(x, y, |a, b| (a - b) * (a - b), |p| p.sqrt() >= c)
                    .map_or(f64::INFINITY, f64::sqrt)
            },
            seq: |x, y| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            },
            bit_exact_seq: false,
        },
        Shape {
            name: "sum3",
            exact: |x, u| lane_sum3(x, u, &lower(u), |v, u, _| keogh(v, u)),
            upto: |x, u, c| lane_sum3_upto(x, u, &lower(u), c, |v, u, _| keogh(v, u)),
            seq: |x, u| x.iter().zip(u).map(|(&v, &u)| keogh(v, u)).sum(),
            bit_exact_seq: false,
        },
        Shape {
            name: "max",
            exact: |x, y| lane_max(x, y, abs_diff),
            upto: |x, y, c| lane_max_upto(x, y, c, abs_diff),
            seq: |x, y| {
                x.iter()
                    .zip(y)
                    .map(|(&a, &b)| abs_diff(a, b))
                    .fold(0.0, f64::max)
            },
            bit_exact_seq: true,
        },
    ];

    #[test]
    fn every_shape_honours_the_exact_and_upto_contracts() {
        let max_len = 2 * ABANDON_BLOCK + LANES + 1;
        for shape in &SHAPES {
            for n in 0..=max_len {
                // Equal lengths, then a longer `y`, then a longer `x`:
                // the reductions run over the common prefix.
                for (nx, ny) in [(n, n), (n, n + 3), (n + 5, n)] {
                    let x = series(nx, 77 + n as u64);
                    let y = series(ny, 1000 + n as u64);
                    let what = format!("{} {nx}x{ny}", shape.name);
                    let exact = (shape.exact)(&x, &y);
                    let seq = (shape.seq)(&x[..n], &y[..n]);
                    if shape.bit_exact_seq {
                        assert_eq!(exact.to_bits(), seq.to_bits(), "{what}: vs sequential");
                    } else {
                        assert!(
                            (exact - seq).abs() <= 1e-12 * seq.abs().max(1.0),
                            "{what}: lanes {exact} vs sequential {seq}"
                        );
                    }
                    // No cutoff, or one above the value: the exact bits.
                    for c in [f64::INFINITY, exact * 1.01 + 1e-300] {
                        let got = (shape.upto)(&x, &y, c);
                        assert_eq!(exact.to_bits(), got.to_bits(), "{what}: upto({c})");
                    }
                    // A cutoff at or below the value: anything not below it.
                    for frac in [0.1, 0.5, 0.99, 1.0] {
                        let c = exact * frac;
                        assert!((shape.upto)(&x, &y, c) >= c, "{what}: upto({c})");
                    }
                    // A NaN term never abandons: with NaN first, every
                    // partial sum is NaN; an all-NaN series leaves the
                    // max at zero, below any positive cutoff.
                    let mut nan_x = x.clone();
                    if let Some(first) = nan_x.first_mut() {
                        *first = f64::NAN;
                    }
                    let all_nan = vec![f64::NAN; nx];
                    for bad in [&nan_x, &all_nan] {
                        let exact = (shape.exact)(bad, &y);
                        for c in [1e-300, 1.0, 1e300] {
                            let got = (shape.upto)(bad, &y, c);
                            if exact.is_nan() {
                                assert!(got.is_nan(), "{what}: NaN term abandoned at {c}");
                            } else if exact < c {
                                assert_eq!(exact.to_bits(), got.to_bits(), "{what}: NaN at {c}");
                            }
                        }
                    }
                }
            }
        }
    }
}
