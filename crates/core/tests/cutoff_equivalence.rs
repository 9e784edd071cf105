//! Registry-driven admissibility suite for the cutoff-threaded hot path.
//!
//! Every measure must satisfy the `Distance::distance_upto` contract the
//! pruned 1-NN engine in `tsdist-eval` builds on:
//!
//! 1. with a non-finite cutoff (`INFINITY`, `NaN`) the result is
//!    *bit-identical* to `distance_ws` — the engine's first scan of a row
//!    and every delegating default depend on it;
//! 2. with any finite cutoff `c`: if the true distance is `< c` the exact
//!    bits come back, otherwise the result is not below `c` — so a value
//!    that survives the comparison against a best-so-far is always the
//!    true distance, and an abandoned candidate can never steal a win.
//!    `upto` returns NaN only when the true distance is NaN.
//!
//! The inputs include NaN, ±∞ and ±1e308 samples, so the contract is
//! pinned on the non-finite paths too. Cutoffs are swept around the true
//! distance itself (fractions, the exact value, `next_up` — the engine's
//! tie rule — and multiples) plus fixed extremes, so both the abandon and
//! the must-be-exact branches are exercised for every measure of the
//! registry and the wrapper types.

use tsdist_core::elastic::{Cid, DerivativeDtw, Dtw, ItakuraDtw, WeightedDtw};
use tsdist_core::kernel::{Gak, Kdtw, Rbf, Sink};
use tsdist_core::measure::{Distance, KernelDistance};
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
    // series made only of it. `reversed_arguments_honour_the_contract_too`
    // runs each pair in both argument orders, so the bad series also
    // lands on the `y` side.
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
/// that live outside the registry — the same population as the workspace
/// equivalence suite, so a measure cannot gain a `distance_upto` override
/// without entering this suite.
fn all_distances() -> Vec<Box<dyn Distance>> {
    let mut all: Vec<Box<dyn Distance>> = Vec::new();
    all.extend(registry::lockstep_parameter_free());
    all.extend(registry::minkowski_family().grid);
    all.extend(registry::sliding_measures());
    for family in registry::elastic_families() {
        all.extend(family.grid);
    }
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

/// The contract for a finite cutoff `c`: below the cutoff the exact bits
/// come back; otherwise any value not below `c`. A NaN exact value is the
/// measure's own answer (the scan reads NaN as a real distance, never as
/// an abandon), so `upto` may return NaN only then, and a NaN exact
/// value may also be abandoned to anything `>= c`.
fn assert_upto_contract(exact: f64, c: f64, r: f64, what: &str) {
    if exact < c {
        assert_bits_eq(exact, r, what);
    } else if exact.is_nan() {
        assert!(r.is_nan() || r >= c, "{what}: exact NaN, got {r} < cutoff");
    } else {
        assert!(r >= c, "{what}: exact {exact}, got {r} < cutoff");
    }
}

fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} ({:#x}) != {b:?} ({:#x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// The cutoff sweep for one (measure, pair): values bracketing the exact
/// distance plus fixed extremes and deterministic pseudo-random draws.
fn cutoffs_around(exact: f64, g: &mut Gen) -> Vec<f64> {
    let mut cs = vec![0.0, -1.0, 1e-9, 1.0, 1e6, f64::MAX];
    if exact.is_finite() {
        cs.extend([
            exact * 0.25,
            exact * 0.5,
            exact * 0.99,
            exact,
            exact.next_up(),
            exact * 1.5 + 1e-12,
            exact * 4.0 + 1.0,
        ]);
    }
    cs.extend((0..4).map(|_| (g.value() + 2.0) * 50.0));
    cs
}

#[test]
fn non_finite_cutoffs_are_bit_identical_to_distance_ws() {
    let pairs = input_pairs();
    let mut ws = Workspace::default();
    for d in all_distances() {
        for (x, y) in &pairs {
            let exact = d.distance_ws(x, y, &mut ws);
            for c in [f64::INFINITY, f64::NAN] {
                let r = d.distance_upto(x, y, &mut ws, c);
                assert_bits_eq(exact, r, &format!("{} upto({c})", d.name()));
            }
        }
    }
}

#[test]
fn finite_cutoffs_are_admissible_for_every_registry_measure() {
    let pairs = input_pairs();
    let mut ws = Workspace::default();
    let mut g = Gen(0xBEEF);
    for d in all_distances() {
        for (x, y) in &pairs {
            let exact = d.distance_ws(x, y, &mut ws);
            for c in cutoffs_around(exact, &mut g) {
                let r = d.distance_upto(x, y, &mut ws, c);
                let what = format!("{} upto(cutoff {c}, exact {exact})", d.name());
                assert_upto_contract(exact, c, r, &what);
            }
        }
    }
}

#[test]
fn reversed_arguments_honour_the_contract_too() {
    // Unequal-length pairs take different internal paths per argument
    // order (band widening, gap handling); sweep both orders.
    let pairs = input_pairs();
    let mut ws = Workspace::default();
    let mut g = Gen(0xF00D);
    for d in all_distances() {
        for (x, y) in &pairs {
            let exact = d.distance_ws(y, x, &mut ws);
            for c in cutoffs_around(exact, &mut g) {
                let r = d.distance_upto(y, x, &mut ws, c);
                let what = format!("{} upto rev (cutoff {c}, exact {exact})", d.name());
                assert_upto_contract(exact, c, r, &what);
            }
        }
    }
}

#[test]
fn workspace_survives_abandoned_calls() {
    // An abandoned DP must leave the workspace reusable: interleave tight
    // and infinite cutoffs across measures with one long-lived workspace,
    // exactly as a search over a candidate row does.
    let pairs = input_pairs();
    let mut ws = Workspace::default();
    for d in all_distances() {
        for (x, y) in &pairs {
            let exact = d.distance_ws(x, y, &mut ws);
            let _ = d.distance_upto(x, y, &mut ws, 1e-9);
            let again = d.distance_upto(x, y, &mut ws, f64::INFINITY);
            assert_bits_eq(
                exact,
                again,
                &format!("{} ws reuse after abandon", d.name()),
            );
        }
    }
}
