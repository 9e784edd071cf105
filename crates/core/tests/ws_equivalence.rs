//! Registry-driven equivalence suite for the workspace-reusing hot path.
//!
//! Every measure must satisfy two contracts the batch matrix engine in
//! `tsdist-eval` builds on:
//!
//! 1. `distance_ws` (and `log_kernel_ws` / `kernel_ws`) returns the same
//!    bits from a fresh workspace as from one reused across calls of
//!    different shapes and measures, so no value depends on what an
//!    earlier call left in the arenas;
//! 2. a measure reporting `is_symmetric()` really is bit-symmetric, so
//!    mirroring the upper triangle of a train×train matrix reproduces the
//!    full computation exactly.
//!
//! It also holds the anti-diagonal wavefront DPs (DTW, DDTW, WDTW, ERP)
//! to their row-major references bit for bit (DESIGN.md §9.2).

use tsdist_core::elastic::{
    dtw_banded_ws, erp_row_major, wdtw_row_major, Cid, DerivativeDtw, Dtw, Erp, ItakuraDtw,
    WeightedDtw,
};
use tsdist_core::kernel::{Gak, Kdtw, Rbf, Sink};
use tsdist_core::measure::{Distance, Kernel, KernelDistance};
use tsdist_core::registry;
use tsdist_core::{AdaptiveScaled, Workspace};

/// Tiny deterministic generator (SplitMix64) so the suite needs no
/// external crates and reruns identically.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-2, 2)` — spans positive and negative values so the
    /// density-style measures exercise their clamping branches.
    fn value(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    }

    fn series(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }
}

/// Random plus adversarial input pairs: equal lengths, unequal lengths,
/// constant series (zero variance / zero complexity), short series, and
/// non-finite or near-overflow samples.
fn input_pairs() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut g = Gen(0xC0FFEE);
    let mut pairs = vec![
        (g.series(64), g.series(64)),
        (g.series(31), g.series(31)),
        (g.series(7), g.series(7)),
        // Lane-boundary lengths for the 8-lane chunked kernels: below,
        // at, and just past one chunk, plus two chunks with a tail.
        (g.series(1), g.series(1)),
        (g.series(2), g.series(2)),
        (g.series(8), g.series(8)),
        (g.series(9), g.series(9)),
        (g.series(19), g.series(19)),
        (vec![0.5; 40], g.series(40)),
        (vec![1.0; 16], vec![1.0; 16]),
        (g.series(17), g.series(64)),
    ];
    // One bad sample at the first, middle and last position, then a
    // series made only of it. The tests run each pair in both argument
    // orders, so the bad series also lands on the `y` side.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308] {
        for at in [0, 8, 15] {
            let mut x = g.series(16);
            x[at] = bad;
            pairs.push((x, g.series(16)));
        }
        pairs.push((vec![bad; 16], g.series(16)));
    }
    pairs
}

/// Every registry distance (full Table 4 grids) plus the wrapper types
/// that live outside the registry.
fn all_distances() -> Vec<Box<dyn Distance>> {
    let mut all: Vec<Box<dyn Distance>> = Vec::new();
    all.extend(registry::lockstep_parameter_free());
    all.extend(registry::minkowski_family().grid);
    all.extend(registry::sliding_measures());
    for family in registry::elastic_families() {
        all.extend(family.grid);
    }
    // Wrappers and variants outside the registry grids.
    // Odd window percentages give Sakoe-Chiba radii that are not
    // multiples of the lane width, exercising the wavefront's ragged
    // diagonal ranges.
    all.push(Box::new(Dtw::with_window_pct(5.0)));
    all.push(Box::new(Dtw::with_window_pct(37.0)));
    all.push(Box::new(DerivativeDtw::with_window_pct(10.0)));
    all.push(Box::new(WeightedDtw::new(0.1)));
    all.push(Box::new(Cid::new(Dtw::with_window_pct(10.0))));
    all.push(Box::new(ItakuraDtw::new(2.0)));
    all.push(Box::new(AdaptiveScaled::new(Dtw::with_window_pct(10.0))));
    all.push(Box::new(KernelDistance(Gak::new(0.1))));
    all.push(Box::new(KernelDistance(Kdtw::new(0.125))));
    all.push(Box::new(KernelDistance(Sink::new(5.0))));
    all.push(Box::new(KernelDistance(Rbf::new(1.0))));
    all
}

fn all_kernels() -> Vec<Box<dyn Kernel>> {
    registry::kernel_families()
        .into_iter()
        .flat_map(|f| f.grid)
        .collect()
}

/// Both representations must agree bit-for-bit; NaN compares equal to
/// itself at the bit level, so this is stricter than `==`.
fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} ({:#x}) != {b:?} ({:#x})",
        a.to_bits(),
        b.to_bits()
    );
}

#[test]
fn distance_ws_gives_the_same_bits_from_a_fresh_and_a_dirty_workspace() {
    let pairs = input_pairs();
    // One long-lived workspace across all measures and shapes, exactly as
    // a matrix-builder worker uses it.
    let mut ws = Workspace::default();
    for d in all_distances() {
        for (x, y) in &pairs {
            let fresh = d.distance_ws(x, y, &mut Workspace::new());
            let dirty = d.distance_ws(x, y, &mut ws);
            assert_bits_eq(fresh, dirty, &format!("{} ws", d.name()));
            // And in the reversed argument order, which exercises the
            // unequal-length paths both ways.
            let fresh_r = d.distance_ws(y, x, &mut Workspace::new());
            let dirty_r = d.distance_ws(y, x, &mut ws);
            assert_bits_eq(fresh_r, dirty_r, &format!("{} ws (rev)", d.name()));
        }
    }
}

#[test]
fn kernel_ws_gives_the_same_bits_from_a_fresh_and_a_dirty_workspace() {
    let pairs = input_pairs();
    let mut ws = Workspace::default();
    for k in all_kernels() {
        for (x, y) in &pairs {
            assert_bits_eq(
                k.kernel_ws(x, y, &mut Workspace::new()),
                k.kernel_ws(x, y, &mut ws),
                &format!("{} kernel ws", k.name()),
            );
            assert_bits_eq(
                k.log_kernel_ws(x, y, &mut Workspace::new()),
                k.log_kernel_ws(x, y, &mut ws),
                &format!("{} log kernel ws", k.name()),
            );
        }
    }
}

#[test]
fn wavefront_kernels_match_their_row_major_references_bit_for_bit() {
    let mut ws = Workspace::default();
    for (x, y) in &input_pairs() {
        for (x, y) in [(x, y), (y, x)] {
            for pct in [0.0, 5.0, 10.0, 37.0, 100.0] {
                let dtw = Dtw::with_window_pct(pct);
                let band = dtw.band(x.len(), y.len());
                assert_bits_eq(
                    dtw.distance_ws(x, y, &mut ws),
                    dtw_banded_ws(x, y, band, &mut ws),
                    &format!("{} vs row-major", dtw.name()),
                );
                let ddtw = DerivativeDtw::with_window_pct(pct);
                let dx = DerivativeDtw::derivative(x);
                let dy = DerivativeDtw::derivative(y);
                assert_bits_eq(
                    ddtw.distance_ws(x, y, &mut ws),
                    dtw_banded_ws(&dx, &dy, band, &mut ws),
                    &format!("{} vs row-major", ddtw.name()),
                );
            }
            for g in [0.01, 0.05, 0.1] {
                let wdtw = WeightedDtw::new(g);
                assert_bits_eq(
                    wdtw.distance_ws(x, y, &mut ws),
                    wdtw_row_major(x, y, g),
                    &format!("{} vs row-major", wdtw.name()),
                );
            }
            assert_bits_eq(
                Erp::new().distance_ws(x, y, &mut ws),
                erp_row_major(x, y, 0.0),
                "ERP vs row-major",
            );
        }
    }
}

#[test]
fn symmetry_claims_hold_bit_exactly() {
    // The symmetry contract covers equal-length inputs only — the batch
    // engine mirrors exclusively within one rectangular dataset, and
    // measures normalizing by `x.len()` (e.g. Gower) diverge across
    // lengths.
    let pairs: Vec<_> = input_pairs()
        .into_iter()
        .filter(|(x, y)| x.len() == y.len())
        .collect();
    let mut ws = Workspace::default();
    for d in all_distances() {
        if !d.is_symmetric() {
            continue;
        }
        for (x, y) in &pairs {
            assert_bits_eq(
                d.distance_ws(x, y, &mut ws),
                d.distance_ws(y, x, &mut ws),
                &format!("{} symmetry", d.name()),
            );
        }
    }
    for k in all_kernels() {
        if !k.is_symmetric() {
            continue;
        }
        for (x, y) in &pairs {
            assert_bits_eq(
                k.log_kernel_ws(x, y, &mut ws),
                k.log_kernel_ws(y, x, &mut ws),
                &format!("{} kernel symmetry", k.name()),
            );
        }
    }
}

#[test]
fn known_asymmetric_measures_are_flagged() {
    use tsdist_core::lockstep::{
        AdaptiveScalingDistance, Euclidean, KDivergence, KullbackLeibler, NeymanChiSq, PearsonChiSq,
    };
    use tsdist_core::sliding::CrossCorrelation;
    assert!(!KullbackLeibler.is_symmetric());
    assert!(!KDivergence.is_symmetric());
    assert!(!PearsonChiSq.is_symmetric());
    assert!(!NeymanChiSq.is_symmetric());
    assert!(!AdaptiveScalingDistance.is_symmetric());
    assert!(!CrossCorrelation::sbd().is_symmetric());
    assert!(!AdaptiveScaled::new(Euclidean).is_symmetric());
    assert!(!Gak::new(0.1).is_symmetric());
    assert!(!Kdtw::new(0.125).is_symmetric());
    assert!(!Sink::new(5.0).is_symmetric());
    assert!(Rbf::new(1.0).is_symmetric());
    assert!(Euclidean.is_symmetric());
    assert!(Dtw::with_window_pct(10.0).is_symmetric());
}
