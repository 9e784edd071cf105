//! Fixtures shared by the equivalence suites: the deterministic
//! generator, the adversarial input battery, the measure population and
//! the bit-level assertion.

// Each suite is its own crate and uses only part of this module.
#![allow(dead_code)]

use tsdist_core::elastic::{Cid, DerivativeDtw, Dtw, ItakuraDtw, WeightedDtw};
use tsdist_core::kernel::{Gak, Kdtw, Rbf, Sink};
use tsdist_core::lanes::ABANDON_BLOCK;
use tsdist_core::measure::{Distance, KernelDistance};
use tsdist_core::registry;
use tsdist_core::AdaptiveScaled;

/// Tiny deterministic generator (SplitMix64) so the suites need no
/// external crates and rerun identically.
pub struct Gen(pub u64);

impl Gen {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-2, 2)` — spans positive and negative values so the
    /// density-style measures exercise their clamping branches.
    pub fn value(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
    }

    pub fn series(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.value()).collect()
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> usize {
        (self.next_u64() % bound) as usize
    }

    /// Values on a 0.5 grid in `[-2, 2]`, held for runs of 1–4 samples,
    /// so equal neighbours and equal values across series are common.
    pub fn tie_series(&mut self, len: usize) -> Vec<f64> {
        let mut s = Vec::with_capacity(len);
        while s.len() < len {
            let v = (self.value() * 2.0).round() / 2.0;
            let run = 1 + self.below(4);
            s.extend(std::iter::repeat_n(v, run.min(len - s.len())));
        }
        s
    }

    /// A z-scored random walk: the shape of a normalized study series.
    pub fn zscored_walk(&mut self, len: usize) -> Vec<f64> {
        let walk: Vec<f64> = (0..len)
            .scan(0.0, |pos, _| {
                *pos += self.value();
                Some(*pos)
            })
            .collect();
        let mean = walk.iter().sum::<f64>() / len as f64;
        let var = walk.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / len as f64;
        let sd = var.sqrt();
        walk.iter().map(|v| (v - mean) / sd).collect()
    }
}

/// Random plus adversarial input pairs: equal lengths, unequal lengths,
/// constant series (zero variance / zero complexity), short series, and
/// non-finite or near-overflow samples. The suites run each pair in
/// both argument orders.
pub fn input_pairs() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut g = Gen(0xC0FFEE);
    let block = ABANDON_BLOCK;
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
        // Abandon-block boundaries for the early-abandoning lane kernels:
        // exactly one block, one block and a one-sample tail, two blocks
        // and a partial-chunk tail, and an unequal pair whose common
        // prefix holds one block and a tail.
        (g.series(block), g.series(block)),
        (g.series(block + 1), g.series(block + 1)),
        (g.series(2 * block + 7), g.series(2 * block + 7)),
        (g.series(block + 1), g.series(2 * block + 7)),
    ];
    // One bad sample at the first, middle and last position, then a
    // series made only of it; the argument-order sweep puts the bad
    // series on the `y` side too.
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
/// that live outside the registry, so a measure cannot gain an override
/// without entering the suites.
pub fn all_distances() -> Vec<Box<dyn Distance>> {
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

/// Bit equality; NaN compares equal to itself at the bit level, so this
/// is stricter than `==`.
pub fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} ({:#x}) != {b:?} ({:#x})",
        a.to_bits(),
        b.to_bits()
    );
}
