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
//! It also holds the anti-diagonal wavefront DPs (DTW, DDTW, WDTW) to
//! their row-major references bit for bit (DESIGN.md §9.2).

mod common;

use common::{all_distances, assert_bits_eq, input_pairs};
use tsdist_core::elastic::{dtw_banded_ws, wdtw_row_major, DerivativeDtw, Dtw, WeightedDtw};
use tsdist_core::kernel::{Gak, Kdtw, Rbf, Sink};
use tsdist_core::measure::{Distance, Kernel};
use tsdist_core::registry;
use tsdist_core::{AdaptiveScaled, Workspace};

fn all_kernels() -> Vec<Box<dyn Kernel>> {
    registry::kernel_families()
        .into_iter()
        .flat_map(|f| f.grid)
        .collect()
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
