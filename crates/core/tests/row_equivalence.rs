//! Registry-driven equivalence suite for the row entry point.
//!
//! The batch matrix engine in `tsdist-eval` fills every matrix row with
//! `Distance::distance_row_ws`. MSM and TWE override it with a
//! batch-axis kernel that runs one DP over eight equal-length columns
//! at a time, one per SIMD lane, banded DTW with the same kernel shape
//! over sixteen columns (eight for a run of at most eight), and the four
//! NCC variants with a lane FFT over eight columns; every other measure
//! keeps the per-pair default. Either way each entry must be the
//! per-pair `distance_ws` value bit for bit. This suite checks that for
//! every registry instance over the shapes that stress the lane blocking
//! — column counts around both lane widths, rows mixing lengths so
//! blocks split, empty series — and over adversarial values, and it
//! checks that the delegating wrappers reach an override instead of
//! silently falling back to the per-pair loop. MSM, TWE and DTW also get
//! tie-heavy series, whose cells rely on exact ties going the per-pair
//! way, and blocks with one non-finite lane, which must run per pair;
//! MSM and TWE get study-shaped series, and DTW a sweep over every
//! column count up to forty.

mod common;

use common::{assert_bits_eq, Gen};
use tsdist_core::elastic::{Dtw, Msm, Twe};
use tsdist_core::lanes::{LANES, MAX_ROW_BLOCK};
use tsdist_core::measure::Distance;
use tsdist_core::registry;
use tsdist_core::sliding::{CrossCorrelation, NccVariant};
use tsdist_core::Workspace;

/// Every distance instance the registry hands out (full Table 4 grids).
fn registry_distances() -> Vec<Box<dyn Distance>> {
    let mut all: Vec<Box<dyn Distance>> = Vec::new();
    all.extend(registry::lockstep_parameter_free());
    all.extend(registry::minkowski_family().grid);
    all.extend(registry::sliding_measures());
    for family in registry::elastic_families() {
        all.extend(family.grid);
    }
    all
}

/// The measures with a batch-axis override, over a spread of
/// parameters including the zero-cost and zero-band corners.
fn batch_measures() -> Vec<Box<dyn Distance>> {
    let mut all = select_min_measures();
    all.extend(ncc_measures());
    all
}

/// The measures whose lane blocks pick with a compare-select `min` on
/// finite blocks and send any other block per pair.
fn select_min_measures() -> Vec<Box<dyn Distance>> {
    let mut all = msm_twe_measures();
    all.extend(dtw_measures());
    all
}

/// MSM and TWE at the zero-cost corner and across their grids.
fn msm_twe_measures() -> Vec<Box<dyn Distance>> {
    let mut all: Vec<Box<dyn Distance>> =
        vec![Box::new(Msm::new(0.0)), Box::new(Twe::new(0.0, 0.0))];
    for c in [0.01, 0.5, 100.0] {
        all.push(Box::new(Msm::new(c)));
    }
    for (lambda, nu) in [(1.0, 1e-4), (0.25, 1.0), (0.0, 1e-5)] {
        all.push(Box::new(Twe::new(lambda, nu)));
    }
    all
}

/// Banded DTW at the zero, the study's and the unconstrained band.
fn dtw_measures() -> Vec<Box<dyn Distance>> {
    [0.0, 10.0, 100.0]
        .into_iter()
        .map(|w| Box::new(Dtw::with_window_pct(w)) as Box<dyn Distance>)
        .collect()
}

/// All four NCC variants.
fn ncc_measures() -> Vec<Box<dyn Distance>> {
    NccVariant::ALL
        .into_iter()
        .map(|v| Box::new(CrossCorrelation::new(v)) as Box<dyn Distance>)
        .collect()
}

/// Runs `distance_row_ws` into a sentinel-filled row and compares every
/// slot with the per-pair value.
fn check_row(d: &dyn Distance, x: &[f64], cols: &[Vec<f64>], ws: &mut Workspace, what: &str) {
    check_row_with(d, x, cols, ws, what, assert_bits_eq);
}

fn check_row_with(
    d: &dyn Distance,
    x: &[f64],
    cols: &[Vec<f64>],
    ws: &mut Workspace,
    what: &str,
    assert_same: fn(f64, f64, &str),
) {
    let sentinel = f64::from_bits(0x7FF0_DEAD_BEEF_0001);
    let mut out = vec![sentinel; cols.len()];
    d.distance_row_ws(x, cols, &mut out, ws);
    for (j, (col, &got)) in cols.iter().zip(&out).enumerate() {
        let want = d.distance_ws(x, col, ws);
        assert_same(got, want, &format!("{} {what} col {j}", d.name()));
    }
}

/// Bit equality, except that any two NaNs match. The optimizer does
/// not preserve a NaN's sign or payload, so the same per-pair code
/// inlined into the default row loop may return `-NaN` where a dynamic
/// call returns `+NaN` (seen for DISSIM in release builds).
fn assert_bits_eq_any_nan(a: f64, b: f64, what: &str) {
    if !(a.is_nan() && b.is_nan()) {
        assert_bits_eq(a, b, what);
    }
}

const COLUMN_COUNTS: [usize; 9] = [0, 1, 7, 8, 9, 16, 17, 25, 30];

#[test]
fn every_registry_instance_matches_per_pair_over_column_counts() {
    let mut g = Gen(0x5EED_0001);
    let len = 12;
    let x = g.series(len);
    let short_x = g.series(5);
    let pool: Vec<Vec<f64>> = (0..30).map(|_| g.series(len)).collect();
    // One long-lived workspace across every measure and shape, as a
    // matrix worker uses it.
    let mut ws = Workspace::default();
    for d in registry_distances() {
        for count in COLUMN_COUNTS {
            check_row(
                d.as_ref(),
                &x,
                &pool[..count],
                &mut ws,
                &format!("{count} cols"),
            );
        }
        // A query of another length than its (equal-length) columns.
        check_row(d.as_ref(), &short_x, &pool[..9], &mut ws, "short query");
    }
}

#[test]
fn batch_kernels_match_per_pair_over_column_counts_and_lengths() {
    let mut g = Gen(0x5EED_0002);
    let mut ws = Workspace::default();
    for d in batch_measures() {
        for (m, n) in [(1, 1), (1, 9), (9, 1), (2, 2), (8, 8), (17, 23), (33, 33)] {
            let x = g.series(m);
            let pool: Vec<Vec<f64>> = (0..30).map(|_| g.series(n)).collect();
            for count in COLUMN_COUNTS {
                check_row(
                    d.as_ref(),
                    &x,
                    &pool[..count],
                    &mut ws,
                    &format!("m={m} n={n} {count} cols"),
                );
            }
        }
    }
}

#[test]
fn dtw_rows_match_per_pair_when_query_and_columns_differ_in_length() {
    let mut g = Gen(0x5EED_0005);
    let mut ws = Workspace::default();
    // These shapes make the band radius the length difference (δ = 0),
    // a few cells wider than it (δ = 10) or the whole row (δ = 100), and
    // the first and last rows clip the band on one side.
    for d in dtw_measures() {
        for (m, n) in [
            (40, 50),
            (50, 40),
            (96, 96),
            (30, 31),
            (31, 40),
            (41, 30),
            (64, 3),
            (3, 64),
        ] {
            let x = g.series(m);
            let pool: Vec<Vec<f64>> = (0..19).map(|_| g.series(n)).collect();
            check_row(d.as_ref(), &x, &pool, &mut ws, &format!("m={m} n={n}"));
        }
    }
}

#[test]
fn dtw_rows_match_per_pair_at_every_column_count_up_to_forty() {
    let mut g = Gen(0x5EED_000A);
    let mut ws = Workspace::default();
    // Every count from 1 to 40 splits a row into sixteen-wide blocks, an
    // eight-wide or padded sixteen-wide remainder, or one per-pair
    // column, at the study's lengths and at unequal ones (the band
    // always covers the length difference).
    for (m, n) in [(96, 96), (128, 128), (128, 96), (96, 128)] {
        let x = g.series(m);
        let pool: Vec<Vec<f64>> = (0..40).map(|_| g.series(n)).collect();
        for d in dtw_measures() {
            for count in 1..=pool.len() {
                let what = format!("m={m} n={n} {count} cols");
                check_row(d.as_ref(), &x, &pool[..count], &mut ws, &what);
            }
        }
    }
}

#[test]
fn ncc_rows_with_all_zero_series_take_the_zero_norm_branch() {
    let mut g = Gen(0x5EED_0006);
    let mut ws = Workspace::default();
    let len = 16;
    // Zero columns among random ones, in every lane position of a
    // block, and an all-zero query: NCC_c's `||x|| ||y|| <= 0` branch.
    let mut cols: Vec<Vec<f64>> = (0..20).map(|_| g.series(len)).collect();
    for j in [0, 5, 7, 8, 19] {
        cols[j] = vec![0.0; len];
    }
    cols[12] = vec![-0.0; len];
    for d in ncc_measures() {
        for x in [g.series(len), vec![0.0; len], g.series(len - 3)] {
            check_row(d.as_ref(), &x, &cols, &mut ws, &format!("|x|={}", x.len()));
        }
        let zeros = vec![vec![0.0; len]; LANES + 1];
        check_row(d.as_ref(), &g.series(len), &zeros, &mut ws, "all-zero row");
    }
    let mut out = vec![0.0; cols.len()];
    CrossCorrelation::sbd().distance_row_ws(&vec![0.0; len], &cols, &mut out, &mut ws);
    assert!(
        out.iter().all(|&v| v == 1.0),
        "SBD of a zero query: {out:?}"
    );
}

#[test]
fn rows_mixing_lengths_split_blocks_and_stay_identical() {
    let mut g = Gen(0x5EED_0003);
    // Runs of 3, 1, 9, 2 (then empty), 8 and a ragged tail: blocks must
    // split at every length change and at the lane width.
    let lengths = [
        9, 9, 9, 4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 6, 6, 0, 11, 11, 11, 11, 11, 11, 11, 11, 0, 0, 3, 9,
        9,
    ];
    let cols: Vec<Vec<f64>> = lengths.iter().map(|&n| g.series(n)).collect();
    let mut ws = Workspace::default();
    let mut all = registry_distances();
    all.extend(batch_measures());
    for d in &all {
        for x in [g.series(9), g.series(4), Vec::new()] {
            check_row(
                d.as_ref(),
                &x,
                &cols,
                &mut ws,
                &format!("mixed, |x|={}", x.len()),
            );
        }
    }
}

#[test]
fn empty_series_rows_match_per_pair() {
    let mut ws = Workspace::default();
    let empties = vec![Vec::new(); 10];
    for d in batch_measures() {
        check_row(d.as_ref(), &[], &empties, &mut ws, "empty vs empty");
        check_row(d.as_ref(), &[1.0, 2.0], &empties, &mut ws, "query vs empty");
        check_row(
            d.as_ref(),
            &[],
            &vec![vec![1.0, 2.0]; 10],
            &mut ws,
            "empty query",
        );
    }
}

#[test]
fn adversarial_values_stay_bit_identical_in_every_lane() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e308,
        -1e308,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 3.0,
        1.0,
    ];
    let mut g = Gen(0x5EED_0004);
    let len = 10;
    let mut cols: Vec<Vec<f64>> = Vec::new();
    // Each special value planted at a few positions of a random series,
    // plus constant series made of it.
    for &s in &specials {
        for pos in [0, len / 2, len - 1] {
            let mut c = g.series(len);
            c[pos] = s;
            cols.push(c);
        }
        cols.push(vec![s; len]);
    }
    let mut queries: Vec<Vec<f64>> = vec![g.series(len), vec![0.0; len], vec![-0.0; len]];
    for &s in &specials {
        let mut q = g.series(len);
        q[len / 3] = s;
        queries.push(q);
    }
    let mut ws = Workspace::default();
    // The batch kernels keep even NaN bits: NCC lane for lane, MSM, TWE
    // and DTW by handing any block with a NaN or ±∞ to the per-pair
    // kernel.
    for d in batch_measures() {
        for x in &queries {
            check_row(d.as_ref(), x, &cols, &mut ws, "adversarial");
        }
    }
    for d in registry_distances() {
        for x in &queries {
            let what = "adversarial";
            check_row_with(d.as_ref(), x, &cols, &mut ws, what, assert_bits_eq_any_nan);
        }
    }
}

#[test]
fn lane_rows_stay_identical_when_values_tie() {
    let mut g = Gen(0x5EED_0007);
    let mut ws = Workspace::default();
    for (m, n) in [(2, 2), (12, 12), (17, 23), (23, 17), (33, 33)] {
        let x = g.tie_series(m);
        let mut cols: Vec<Vec<f64>> = (0..20).map(|_| g.tie_series(n)).collect();
        // A column repeated inside a block and across blocks, and
        // constant columns: equal DP candidates in many cells.
        cols[5] = cols[2].clone();
        cols[11] = cols[2].clone();
        cols[7] = vec![0.5; n];
        cols[8] = vec![0.0; n];
        if m == n {
            cols[3] = x.clone();
        }
        for d in select_min_measures() {
            check_row(d.as_ref(), &x, &cols, &mut ws, &format!("ties m={m} n={n}"));
            check_row(d.as_ref(), &vec![0.5; m], &cols, &mut ws, "constant query");
        }
    }
}

#[test]
fn msm_twe_rows_match_per_pair_on_study_shaped_series() {
    let mut g = Gen(0x5EED_0008);
    let mut ws = Workspace::default();
    let cols: Vec<Vec<f64>> = (0..30).map(|_| g.zscored_walk(96)).collect();
    let mut queries: Vec<Vec<f64>> = (0..3).map(|_| g.zscored_walk(96)).collect();
    queries.push(cols[9].clone());
    for d in msm_twe_measures() {
        for x in &queries {
            check_row(d.as_ref(), x, &cols, &mut ws, "z-scored walks");
        }
    }
}

#[test]
fn one_non_finite_lane_sends_its_block_per_pair() {
    let mut g = Gen(0x5EED_0009);
    let mut ws = Workspace::default();
    let len = 11;
    let x = g.series(len);
    // Two MSM/TWE blocks, one DTW block.
    let width = MAX_ROW_BLOCK;
    let clean: Vec<Vec<f64>> = (0..width).map(|_| g.series(len)).collect();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // The query clean and holding the same value, so ∞ - ∞ = NaN
        // arises inside the DP as well.
        let mut bad_x = x.clone();
        bad_x[3] = bad;
        for lane in 0..width {
            let mut one_sample = clean.clone();
            one_sample[lane][len / 2] = bad;
            let mut whole_column = clean.clone();
            whole_column[lane] = vec![bad; len];
            for cols in [&one_sample, &whole_column] {
                for q in [&x, &bad_x] {
                    for d in select_min_measures() {
                        let what = format!("{bad} in lane {lane}");
                        check_row(d.as_ref(), q, cols, &mut ws, &what);
                        // The lane's eight-wide block, as a short run.
                        let block = lane / LANES * LANES..(lane / LANES + 1) * LANES;
                        check_row(d.as_ref(), q, &cols[block], &mut ws, &what);
                    }
                }
            }
        }
        for d in select_min_measures() {
            check_row(d.as_ref(), &bad_x, &clean, &mut ws, &format!("{bad} query"));
        }
    }
}

/// A test-only measure whose row override writes a sentinel, so a
/// wrapper that fails to forward `distance_row_ws` is caught.
struct RowSentinel;

const SENTINEL: f64 = 4242.0;

impl Distance for RowSentinel {
    fn name(&self) -> String {
        "row-sentinel".into()
    }
    fn distance_ws(&self, _x: &[f64], _y: &[f64], _: &mut Workspace) -> f64 {
        0.0
    }
    fn distance_row_ws(
        &self,
        _x: &[f64],
        _cols: &[Vec<f64>],
        out: &mut [f64],
        _ws: &mut Workspace,
    ) {
        out.fill(SENTINEL);
    }
}

#[test]
fn boxed_and_borrowed_distances_forward_the_row_method() {
    let cols = vec![vec![1.0, 2.0]; LANES + 3];
    let mut ws = Workspace::default();

    let boxed: Box<dyn Distance> = Box::new(RowSentinel);
    let mut out = vec![0.0; cols.len()];
    Distance::distance_row_ws(&boxed, &[1.0], &cols, &mut out, &mut ws);
    assert!(
        out.iter().all(|&v| v == SENTINEL),
        "Box<dyn Distance>: {out:?}"
    );

    let borrowed = &RowSentinel;
    let mut out = vec![0.0; cols.len()];
    Distance::distance_row_ws(&borrowed, &[1.0], &cols, &mut out, &mut ws);
    assert!(out.iter().all(|&v| v == SENTINEL), "&D: {out:?}");
}
