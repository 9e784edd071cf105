//! FFT-based cross-correlation.
//!
//! The cross-correlation sequence between `x` (length `p`) and `y`
//! (length `q`) contains the inner product of the two signals at every
//! shift `s` of `y` relative to `x`:
//!
//! ```text
//! cc[s] = sum_i x[i] * y[i - s],   s in [-(q-1), p-1]
//! ```
//!
//! so the output has `p + q - 1` entries, stored with `s = k - (q - 1)`
//! for output index `k`. For equal lengths `m` this is exactly the
//! `CC_w` sequence of Eq. (10) in the paper, with `w = k + 1 in {1, ..,
//! 2m-1}` and shift `s = w - m`.
//!
//! A direct O(p*q) implementation is provided for testing; the FFT path
//! costs O(L log L) with `L = next_pow2(p + q - 1)`.

use crate::complex::Complex;
use crate::fft::{next_power_of_two, LaneComplex, Lanes, Twiddles, LANES};

/// Reusable state for FFT cross-correlation: the twiddle tables of the
/// last transform length, the spectrum of the last query, and the work
/// and output buffers.
///
/// One scratch per thread amortizes all of them across the millions of
/// sliding-measure calls a matrix build performs. A scratch computes
/// `cc = ifft(fft(x) * conj(fft(y)))`; the spectrum of `x` is kept and
/// reused while the next call has the same `x` (compared bit for bit)
/// and transform length, which is the common case of one query against
/// many training series. Reuse never changes a result: the same
/// transform of the same input gives the same bits.
#[derive(Default)]
pub struct CcScratch {
    twiddles: Twiddles,
    /// The query whose spectrum `spectrum` holds, and that spectrum's
    /// transform length (0 = none).
    query: Vec<f64>,
    spectrum: Vec<Complex>,
    spectrum_len: usize,
    fy: Vec<Complex>,
    out: Vec<f64>,
    lanes: Vec<LaneComplex>,
    lane_out: Vec<Lanes>,
}

impl CcScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CcScratch::default()
    }

    /// Makes `twiddles` and `spectrum` hold length `l` and the padded
    /// spectrum of `x`.
    fn prepare_query(&mut self, x: &[f64], l: usize) {
        self.twiddles.prepare(l);
        let same_query = self.spectrum_len == l
            && self.query.len() == x.len()
            && self
                .query
                .iter()
                .zip(x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if same_query {
            return;
        }
        self.query.clear();
        self.query.extend_from_slice(x);
        load_reversed(&mut self.spectrum, x, &self.twiddles);
        self.twiddles.transform_reversed(&mut self.spectrum, false);
        self.spectrum_len = l;
    }

    /// Cross-correlation via FFT, writing into reused buffers. The
    /// output has `x.len() + y.len() - 1` entries; entry `k` is shift
    /// `s = k - (y.len() - 1)`. Returns an empty slice if either input is
    /// empty. The returned slice is valid until the next call on this
    /// scratch.
    pub fn cross_correlation(&mut self, x: &[f64], y: &[f64]) -> &[f64] {
        let p = x.len();
        let q = y.len();
        if p == 0 || q == 0 {
            return &[];
        }
        let l = next_power_of_two(p + q - 1);
        self.prepare_query(x, l);

        load_reversed(&mut self.fy, y, &self.twiddles);
        self.twiddles.transform_reversed(&mut self.fy, false);
        for (f, &s) in self.fy.iter_mut().zip(&self.spectrum) {
            *f = s * f.conj();
        }
        self.twiddles.transform(&mut self.fy, true);

        let scale = 1.0 / l as f64;
        let (neg, pos) = shift_halves(&self.fy, p, q);
        self.out.clear();
        self.out.extend(neg.iter().chain(pos).map(|z| z.re * scale));
        &self.out
    }

    /// [`CcScratch::cross_correlation`] of `x` against [`LANES`]
    /// columns of one length at once, one column per SIMD lane: row `k`
    /// of the result holds entry `k` of every column's sequence, and lane
    /// `l` of the rows is `cross_correlation(x, ys[l])` bit for bit. The
    /// spectrum of `x` is computed once and reused across calls, like
    /// the per-pair path's.
    ///
    /// Returns an empty slice if `x` or the columns are empty.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn cross_correlation_lanes(&mut self, x: &[f64], ys: &[&[f64]; LANES]) -> &[Lanes] {
        let p = x.len();
        let q = ys[0].len();
        assert!(
            ys.iter().all(|y| y.len() == q),
            "lane columns must share one length"
        );
        if p == 0 || q == 0 {
            return &[];
        }
        let l = next_power_of_two(p + q - 1);
        self.prepare_query(x, l);

        // The columns go straight to their bit-reversed slots.
        self.lanes.clear();
        self.lanes.resize(l, LaneComplex::ZERO);
        let reversal = self.twiddles.reversal();
        for (lane, y) in ys.iter().enumerate() {
            for (&slot, &v) in reversal.iter().zip(y.iter()) {
                self.lanes[slot].re[lane] = v;
            }
        }
        self.twiddles.transform_reversed(&mut self.lanes, false);
        // `s * conj(z)` per lane, with `Complex`'s operand order.
        for (z, s) in self.lanes.iter_mut().zip(&self.spectrum) {
            let conj_im: Lanes = std::array::from_fn(|l| -z.im[l]);
            let re: Lanes = std::array::from_fn(|l| s.re * z.re[l] - s.im * conj_im[l]);
            let im: Lanes = std::array::from_fn(|l| s.re * conj_im[l] + s.im * z.re[l]);
            *z = LaneComplex { re, im };
        }
        self.twiddles.transform(&mut self.lanes, true);

        let scale = 1.0 / l as f64;
        let (neg, pos) = shift_halves(&self.lanes, p, q);
        self.lane_out.clear();
        self.lane_out
            .extend(neg.iter().chain(pos).map(|z| z.re.map(|re| re * scale)));
        &self.lane_out
    }
}

/// Fills `buf` with the real samples `x`, zero-padded to the prepared
/// length, in bit-reversed order: the input of
/// [`Twiddles::transform_reversed`].
fn load_reversed(buf: &mut Vec<Complex>, x: &[f64], twiddles: &Twiddles) {
    let reversal = twiddles.reversal();
    buf.clear();
    buf.resize(reversal.len(), Complex::ZERO);
    for (&slot, &v) in reversal.iter().zip(x) {
        buf[slot] = Complex::from_real(v);
    }
}

/// Splits a length-`l` circular correlation into the output order: the
/// negative shifts `-(q-1)..-1` (the last `q - 1` entries) and then the
/// shifts `0..p-1` (the first `p`).
fn shift_halves<T>(buf: &[T], p: usize, q: usize) -> (&[T], &[T]) {
    (&buf[buf.len() + 1 - q..], &buf[..p])
}

/// Direct O(p*q) cross-correlation with the same output convention as
/// [`CcScratch::cross_correlation`]. Used as a test oracle and for tiny
/// inputs.
pub fn cross_correlation_naive(x: &[f64], y: &[f64]) -> Vec<f64> {
    let p = x.len() as isize;
    let q = y.len() as isize;
    if p == 0 || q == 0 {
        return Vec::new();
    }
    let mut out = vec![0.0; (p + q - 1) as usize];
    for (k, o) in out.iter_mut().enumerate() {
        let s = k as isize - (q - 1);
        let mut acc = 0.0;
        let lo = s.max(0);
        let hi = p.min(q + s);
        for i in lo..hi {
            acc += x[i as usize] * y[(i - s) as usize];
        }
        *o = acc;
    }
    out
}

/// The number of overlapping samples at output index `k` (used by the
/// unbiased NCC estimator): `m - |w - m|` in the paper's notation for
/// equal-length inputs.
pub fn overlap_at(p: usize, q: usize, k: usize) -> usize {
    let s = k as isize - (q as isize - 1);
    let lo = s.max(0);
    let hi = (p as isize).min(q as isize + s);
    (hi - lo).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The correlation through a fresh scratch.
    fn cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
        CcScratch::new().cross_correlation(x, y).to_vec()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "mismatch {x} vs {y}");
        }
    }

    #[test]
    fn fft_matches_naive_equal_lengths() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.5, -1.0, 2.0, 0.0, 1.0];
        assert_close(
            &cross_correlation(&x, &y),
            &cross_correlation_naive(&x, &y),
            1e-9,
        );
    }

    #[test]
    fn fft_matches_naive_unequal_lengths() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64 * 0.9).sin()).collect();
        let y: Vec<f64> = (0..7).map(|i| (i as f64 * 0.4).cos()).collect();
        assert_close(
            &cross_correlation(&x, &y),
            &cross_correlation_naive(&x, &y),
            1e-9,
        );
        assert_close(
            &cross_correlation(&y, &x),
            &cross_correlation_naive(&y, &x),
            1e-9,
        );
    }

    #[test]
    fn zero_shift_entry_is_inner_product() {
        let x = [1.0, -2.0, 3.0];
        let y = [4.0, 0.5, -1.0];
        let cc = cross_correlation(&x, &y);
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        // shift 0 lives at index q-1 = 2.
        assert!((cc[2] - dot).abs() < 1e-12);
    }

    #[test]
    fn self_correlation_peaks_at_zero_shift() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.31).sin()).collect();
        let cc = cross_correlation(&x, &x);
        let peak = x.len() - 1;
        let max_idx = cc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, peak);
    }

    #[test]
    fn shifted_signal_detected_at_the_right_lag() {
        // y is x delayed by 5 samples; the peak must be at shift s = 5.
        let n = 64;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.47).sin()).collect();
        let mut y = vec![0.0; n];
        y[5..n].copy_from_slice(&x[..n - 5]);
        // cc[s] = sum x[i] y[i-s]; y[i] = x[i-5] so best match at s = -5
        // when correlating x against y... verify both directions.
        let cc = cross_correlation(&y, &x);
        let max_k = cc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let s = max_k as isize - (n as isize - 1);
        assert_eq!(s, 5);
    }

    #[test]
    fn overlap_counts_are_triangular_for_equal_lengths() {
        let m = 6;
        let counts: Vec<usize> = (0..2 * m - 1).map(|k| overlap_at(m, m, k)).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(cross_correlation(&[], &[1.0]).is_empty());
        assert!(cross_correlation(&[1.0], &[]).is_empty());
    }

    /// The correlation composed from the public transforms, as the
    /// scratch computed it before it cached twiddles and spectra.
    fn composed(x: &[f64], y: &[f64]) -> Vec<f64> {
        let (p, q) = (x.len(), y.len());
        let l = crate::next_power_of_two(p + q - 1);
        let mut fx = vec![Complex::ZERO; l];
        let mut fy = vec![Complex::ZERO; l];
        for (z, &v) in fx.iter_mut().zip(x) {
            *z = Complex::from_real(v);
        }
        for (z, &v) in fy.iter_mut().zip(y) {
            *z = Complex::from_real(v);
        }
        crate::fft(&mut fx);
        crate::fft(&mut fy);
        for (a, b) in fx.iter_mut().zip(&fy) {
            *a *= b.conj();
        }
        crate::ifft(&mut fx);
        let mut out = vec![0.0; p + q - 1];
        for s in 0..p {
            out[s + q - 1] = fx[s].re;
        }
        for s in 1..q {
            out[q - 1 - s] = fx[l - s].re;
        }
        out
    }

    #[test]
    fn scratch_is_bit_identical_to_the_composed_transforms() {
        let mut scratch = CcScratch::new();
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..53).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut a_flipped = a.clone();
        a_flipped[36] = -a_flipped[36];
        // Interleave shapes and queries so buffer reuse (grow, shrink,
        // regrow) and the cached query spectrum (same query, same query
        // at another length, a query differing in one sample) are all
        // exercised; every output must match bit for bit.
        let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (a.clone(), b.clone()),
            (a.clone(), b[..20].to_vec()),
            (a.clone(), b.clone()),
            (a_flipped, b.clone()),
            (vec![1.0], vec![2.0]),
            (
                (0..128).map(|i| (i as f64).sqrt()).collect(),
                (0..128).map(|i| ((i * i) % 17) as f64).collect(),
            ),
            (
                (0..5).map(|i| i as f64 - 2.0).collect(),
                (0..90).map(|i| (i as f64 * 0.11).sin()).collect(),
            ),
            (a.clone(), b.clone()),
        ];
        for (x, y) in &cases {
            let expected = composed(x, y);
            let got = scratch.cross_correlation(x, y);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
            // A fresh scratch has no cached spectrum to reuse.
            let fresh = cross_correlation(x, y);
            assert!(fresh
                .iter()
                .zip(&expected)
                .all(|(g, e)| g.to_bits() == e.to_bits()));
        }
        assert!(scratch.cross_correlation(&[], &[1.0]).is_empty());
    }
}
