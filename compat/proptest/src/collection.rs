//! Collection strategies; mirrors `proptest::collection::vec`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// An inclusive-lo, exclusive-hi length range for [`vec`](fn@vec). Built from a
/// bare `usize` (exact length) or a `Range<usize>`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length
/// falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.uniform_usize(self.size.lo, self.size.hi);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
