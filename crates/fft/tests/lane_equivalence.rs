//! The lane cross-correlation against the per-pair one.
//!
//! `CcScratch::cross_correlation_lanes` correlates one query against
//! `LANES` equal-length columns at once, one column per SIMD lane. Each
//! lane must be a fresh scratch's per-pair `cross_correlation(x,
//! column)` bit for bit, for every shape the transform length depends on
//! and for values that turn a lane into NaN or ±∞ without touching its
//! neighbours.

use tsdist_fft::{CcScratch, LANES};

/// SplitMix64 values in `[-2, 2)`: deterministic, no external crates.
struct Gen(u64);

impl Gen {
    fn value(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }

    fn series(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }
}

/// The per-pair sequence through a fresh scratch.
fn cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    CcScratch::new().cross_correlation(x, y).to_vec()
}

/// Runs one block and compares every lane with the per-pair sequence.
fn check_block(scratch: &mut CcScratch, x: &[f64], cols: &[Vec<f64>; LANES], what: &str) {
    let refs: [&[f64]; LANES] = std::array::from_fn(|l| cols[l].as_slice());
    let rows = scratch.cross_correlation_lanes(x, &refs).to_vec();
    for (l, col) in cols.iter().enumerate() {
        let want = cross_correlation(x, col);
        assert_eq!(rows.len(), want.len(), "{what}: lane {l} length");
        for (k, (row, w)) in rows.iter().zip(&want).enumerate() {
            assert!(
                row[l].to_bits() == w.to_bits(),
                "{what}: lane {l} entry {k}: {:?} != {w:?}",
                row[l]
            );
        }
    }
}

#[test]
fn every_lane_matches_the_pair_over_shapes() {
    let mut g = Gen(0xFF7_0001);
    // (p, q): equal, p != q both ways, p + q - 1 exactly a power of two
    // (17 + 16 - 1 = 32, 1 + 2 - 1 = 2, 33 + 32 - 1 = 64), and lengths
    // 1 and 2.
    let shapes = [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (5, 12),
        (12, 5),
        (17, 16),
        (16, 17),
        (33, 32),
        (96, 96),
        (100, 3),
    ];
    // One scratch across all shapes, as a matrix worker keeps it.
    let mut scratch = CcScratch::new();
    for (p, q) in shapes {
        let x = g.series(p);
        let cols: [Vec<f64>; LANES] = std::array::from_fn(|_| g.series(q));
        check_block(&mut scratch, &x, &cols, &format!("p={p} q={q}"));
        // The same query again reuses its spectrum.
        let cols: [Vec<f64>; LANES] = std::array::from_fn(|_| g.series(q));
        check_block(&mut scratch, &x, &cols, &format!("p={p} q={q} again"));
    }
}

#[test]
fn lane_and_pair_calls_interleave_on_one_scratch() {
    let mut g = Gen(0xFF7_0002);
    let mut scratch = CcScratch::new();
    let x = g.series(24);
    let cols: [Vec<f64>; LANES] = std::array::from_fn(|_| g.series(24));
    let other = g.series(24);
    for round in 0..3 {
        check_block(&mut scratch, &x, &cols, &format!("round {round}"));
        let pair = scratch.cross_correlation(&other, &cols[0]).to_vec();
        let want = cross_correlation(&other, &cols[0]);
        assert!(pair
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}

#[test]
fn non_finite_lanes_stay_in_their_lane() {
    let mut g = Gen(0xFF7_0003);
    let mut scratch = CcScratch::new();
    let q = 20;
    let x = g.series(13);
    for special in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308] {
        for lane in [0, 3, LANES - 1] {
            let mut cols: [Vec<f64>; LANES] = std::array::from_fn(|_| g.series(q));
            cols[lane][q / 2] = special;
            check_block(
                &mut scratch,
                &x,
                &cols,
                &format!("{special:?} in lane {lane}"),
            );
            // The neighbours are finite: nothing leaked across lanes.
            let refs: [&[f64]; LANES] = std::array::from_fn(|l| cols[l].as_slice());
            let rows = scratch.cross_correlation_lanes(&x, &refs);
            for (l, _) in cols.iter().enumerate().filter(|&(l, _)| l != lane) {
                assert!(rows.iter().all(|r| r[l].is_finite()), "lane {l} polluted");
            }
        }
    }
    // A non-finite query poisons every lane, each exactly as its pair.
    let mut bad_x = g.series(13);
    bad_x[4] = f64::NAN;
    let cols: [Vec<f64>; LANES] = std::array::from_fn(|_| g.series(q));
    check_block(&mut scratch, &bad_x, &cols, "NaN query");
}

#[test]
fn empty_inputs_give_an_empty_block() {
    let mut scratch = CcScratch::new();
    let col = [1.0, 2.0];
    let refs: [&[f64]; LANES] = [&col; LANES];
    assert!(scratch.cross_correlation_lanes(&[], &refs).is_empty());
    let empty: [&[f64]; LANES] = [&[]; LANES];
    assert!(scratch.cross_correlation_lanes(&[1.0], &empty).is_empty());
}

#[test]
#[should_panic(expected = "share one length")]
fn ragged_columns_are_rejected() {
    let mut scratch = CcScratch::new();
    let (a, b) = ([1.0, 2.0], [1.0]);
    let mut refs: [&[f64]; LANES] = [&a; LANES];
    refs[5] = &b;
    let _ = scratch.cross_correlation_lanes(&[1.0], &refs);
}
