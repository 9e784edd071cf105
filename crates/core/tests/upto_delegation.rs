//! Non-abandoning measures delegate `distance_upto` to `distance_ws`
//! wholesale: every lock-step measure of the registry except the five
//! that abandon a running sum or max (ED, SquaredED, CityBlock,
//! Chebyshev, Lorentzian; Minkowski's grid abandons too), and CID and
//! KernelDistance, whose final values are not monotone accumulations, so
//! no admissible abandon exists. For these, `distance_upto` must be
//! *bit-identical* to `distance_ws` under **any** cutoff: zero, tiny,
//! negative, the median distance, far below the true distance (where an
//! abandoning measure would bail out), +∞ and NaN.

use tsdist_core::elastic::{Cid, Dtw};
use tsdist_core::kernel::{Gak, Rbf, Sink};
use tsdist_core::lockstep::{Canberra, Euclidean};
use tsdist_core::measure::{Distance, KernelDistance};
use tsdist_core::registry;
use tsdist_core::Workspace;

/// Deterministic value stream for series and cutoffs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn series(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.uniform(-2.0, 2.0)).collect()
    }

    /// Density-like data in `[0.1, 2.1)`, on which every lock-step term
    /// is non-negative (Canberra's denominators included).
    fn positive_series(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.uniform(0.1, 2.1)).collect()
    }
}

/// The parameter-free lock-step measures whose `distance_upto`
/// abandons (DESIGN.md, "Who truly abandons"), by name.
const ABANDONING: [&str; 5] = ["ED", "SquaredED", "Manhattan", "Chebyshev", "Lorentzian"];

fn delegating_measures() -> Vec<Box<dyn Distance>> {
    let mut all = registry::lockstep_parameter_free();
    all.retain(|m| !ABANDONING.contains(&m.name().as_str()));
    all.push(Box::new(Cid::new(Euclidean)));
    all.push(Box::new(KernelDistance(Rbf::new(0.25))));
    all.push(Box::new(KernelDistance(Gak::new(0.5))));
    all.push(Box::new(KernelDistance(Sink::new(5.0))));
    all
}

/// Signed and positive pairs around the lane kernels' chunk (8) and
/// abandon-block (32) boundaries.
fn pairs() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = SplitMix64(0xDE1E_6A7E);
    let mut pairs = Vec::new();
    for n in [1usize, 4, 7, 8, 9, 19, 32, 33, 64, 71, 128] {
        pairs.push((rng.series(n), rng.series(n)));
        pairs.push((rng.positive_series(n), rng.positive_series(n)));
    }
    pairs
}

#[test]
fn delegating_upto_is_bit_identical_under_every_cutoff() {
    let pairs = pairs();
    let mut rng = SplitMix64(0xC07_0FF);
    let mut ws = Workspace::new();
    let measures = delegating_measures();
    assert_eq!(
        measures.len(),
        51 - ABANDONING.len() + 4,
        "delegating lock-step measures and wrappers"
    );
    for m in &measures {
        let exact: Vec<f64> = (pairs.iter())
            .map(|(x, y)| m.distance_ws(x, y, &mut ws))
            .collect();
        // The median distance over the pairs: about half of them lie at
        // or above it, where an abandoning measure would stop.
        let mut sorted = exact.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        for ((x, y), &exact) in pairs.iter().zip(&exact) {
            let random = (0..4).map(|_| exact + rng.uniform(-2.0, 2.0) * exact.abs().max(1.0));
            let fixed = [
                0.0,
                f64::MIN_POSITIVE,
                1e-300,
                median,
                exact * 0.5,
                -1.0,
                -1e300,
                f64::INFINITY,
                f64::NAN,
            ];
            for cutoff in fixed.into_iter().chain(random) {
                let got = m.distance_upto(x, y, &mut ws, cutoff);
                assert_eq!(
                    got.to_bits(),
                    exact.to_bits(),
                    "{} at length {}: cutoff {cutoff:e}: {got:e} vs exact {exact:e}",
                    m.name(),
                    x.len()
                );
            }
        }
    }
}

/// Canberra on positive data under a zero cutoff: every term is
/// non-negative there, which is where a running-sum abandon could stop
/// at once. Canberra does not abandon, so it returns the full exact sum.
#[test]
fn canberra_on_positive_data_returns_exact_under_a_zero_cutoff() {
    let mut rng = SplitMix64(0xCA9B_E44A);
    let mut ws = Workspace::new();
    let x = rng.positive_series(64);
    let y = rng.positive_series(64);
    let exact = Canberra.distance_ws(&x, &y, &mut ws);
    assert!(exact > 0.0);
    let got = Canberra.distance_upto(&x, &y, &mut ws, 0.0);
    assert_eq!(got.to_bits(), exact.to_bits());
}

/// The delegation composes: a CID-wrapped measure that *does* abandon
/// internally (DTW) must still return exact bits through CID's
/// `distance_upto`, because the complexity correction is applied after
/// the fact and can scale the distance back *under* an already-passed
/// cutoff.
#[test]
fn cid_forwards_exact_even_when_inner_would_abandon() {
    let mut rng = SplitMix64(0xC1D0);
    let mut ws = Workspace::new();
    let dtw = Dtw::with_window_pct(10.0);
    let cid = Cid::new(dtw);
    for _ in 0..10 {
        let x = rng.series(32);
        let y = rng.series(32);
        let exact = cid.distance_ws(&x, &y, &mut ws);
        // A cutoff below the *inner* DTW distance: had CID threaded it
        // through, DTW would have abandoned.
        let tight = dtw.distance_ws(&x, &y, &mut ws) * 0.5;
        assert_eq!(dtw.distance_upto(&x, &y, &mut ws, tight), f64::INFINITY);
        let got = cid.distance_upto(&x, &y, &mut ws, tight);
        assert_eq!(got.to_bits(), exact.to_bits());
    }
}
