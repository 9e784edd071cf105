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

mod common;

use common::{all_distances, assert_bits_eq, input_pairs, Gen};
use tsdist_core::Workspace;

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
