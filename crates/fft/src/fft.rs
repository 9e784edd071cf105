//! Fast Fourier Transform implementations.
//!
//! Two algorithms are provided:
//!
//! * an in-place iterative radix-2 Cooley–Tukey transform for power-of-two
//!   lengths, and
//! * Bluestein's chirp-z algorithm for arbitrary lengths, which reduces a
//!   length-`n` DFT to a circular convolution of power-of-two length.
//!
//! [`fft`] / [`ifft`] dispatch automatically. The inverse transform applies
//! the conventional `1/n` scaling so that `ifft(fft(x)) == x`.
//!
//! The radix-2 transform is one generic driver over a butterfly: it runs
//! on [`Complex`] values and on `LaneComplex` vectors ([`LANES`]
//! independent transforms at once, one per SIMD lane), both reading the
//! same cached `Twiddles` table, so a lane's result is the scalar
//! transform's bit for bit.

use std::array;

use crate::complex::Complex;

/// Returns `true` if `n` is a power of two (zero is not).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Smallest power of two `>= n`.
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}

/// The width of the lane transform: a lane vector holds this many
/// independent complex values, one per SIMD lane.
pub const LANES: usize = 8;

/// One real component of all [`LANES`] lanes.
pub type Lanes = [f64; LANES];

/// [`LANES`] independent complex numbers, stored as a real and an
/// imaginary vector so each butterfly step is one element-wise map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LaneComplex {
    pub(crate) re: Lanes,
    pub(crate) im: Lanes,
}

impl LaneComplex {
    pub(crate) const ZERO: LaneComplex = LaneComplex {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };
}

/// The radix-2 butterfly `(a, b) <- (a + b w, a - b w)`, for one complex
/// value and for a lane vector of them.
pub(crate) trait Butterfly: Copy {
    /// Whether the transform passes its twiddles through
    /// [`std::hint::black_box`] before use (see [`LaneComplex`]).
    const OPAQUE_TWIDDLES: bool = false;

    fn butterfly(a: &mut Self, b: &mut Self, w: Complex);
}

impl Butterfly for Complex {
    #[inline(always)]
    fn butterfly(a: &mut Self, b: &mut Self, w: Complex) {
        let u = *a;
        let v = *b * w;
        *a = u + v;
        *b = u - v;
    }
}

impl Butterfly for LaneComplex {
    /// The lanes already are the vector. Left visible, the twiddle loads
    /// let LLVM's loop vectorizer also widen the loop *over* butterflies,
    /// which it does with gathers and scatters (measured ~3.5x slower
    /// than the lane code); an opaque twiddle stops it. Values are
    /// untouched.
    const OPAQUE_TWIDDLES: bool = true;

    /// Each lane evaluates exactly [`Complex`]'s `*`, `+` and `-`, so
    /// every lane's result is the scalar butterfly's bit for bit.
    #[inline(always)]
    fn butterfly(a: &mut Self, b: &mut Self, w: Complex) {
        let v_re: Lanes = array::from_fn(|l| b.re[l] * w.re - b.im[l] * w.im);
        let v_im: Lanes = array::from_fn(|l| b.re[l] * w.im + b.im[l] * w.re);
        let (u_re, u_im) = (a.re, a.im);
        a.re = array::from_fn(|l| u_re[l] + v_re[l]);
        a.im = array::from_fn(|l| u_im[l] + v_im[l]);
        b.re = array::from_fn(|l| u_re[l] - v_re[l]);
        b.im = array::from_fn(|l| u_im[l] - v_im[l]);
    }
}

/// Everything the radix-2 transforms of one power-of-two length need
/// besides the data: the twiddle factors of both directions, stage after
/// stage, and the bit-reversal permutation.
///
/// Stage `len` (2, 4, .., n) holds `w_k` for `k < len / 2`, built by the
/// recurrence `w_0 = 1`, `w_{k+1} = w_k * e^{∓2πi/len}`, so a transform
/// reading the table sees exactly the factors the recurrence inlined in
/// the butterfly loop would produce. Built once per length and shared
/// by the scalar and the lane transform.
#[derive(Debug, Default, Clone)]
pub(crate) struct Twiddles {
    len: usize,
    forward: Vec<Complex>,
    inverse: Vec<Complex>,
    reversal: Vec<usize>,
}

impl Twiddles {
    /// The tables for length `n` (a power of two, or 0/1).
    pub(crate) fn new(n: usize) -> Self {
        let mut t = Twiddles::default();
        t.prepare(n);
        t
    }

    /// Rebuilds the tables for length `n` unless they already hold it.
    pub(crate) fn prepare(&mut self, n: usize) {
        if self.len == n && self.reversal.len() == n {
            return;
        }
        self.len = n;
        fill_stages(n, -1.0, &mut self.forward);
        fill_stages(n, 1.0, &mut self.inverse);
        fill_reversal(n, &mut self.reversal);
    }

    /// `reversal()[k]`: where sample `k` sits after the bit-reversal
    /// permutation (an involution).
    pub(crate) fn reversal(&self) -> &[usize] {
        &self.reversal
    }

    /// The in-place radix-2 Cooley–Tukey transform of `buf` (of the
    /// prepared length), forward or inverse. No scaling is applied;
    /// callers of the inverse transform scale by `1/n`.
    ///
    /// The one transform behind both [`fft`] and the lane transform of
    /// [`crate::CcScratch::cross_correlation_lanes`].
    pub(crate) fn transform<T: Butterfly>(&self, buf: &mut [T], inverse: bool) {
        for (i, &j) in self.reversal.iter().enumerate() {
            if i < j {
                buf.swap(i, j);
            }
        }
        self.transform_reversed(buf, inverse);
    }

    /// [`Twiddles::transform`] of a buffer whose samples already sit in
    /// bit-reversed order (placed through [`Twiddles::reversal`]).
    ///
    /// Two stages run per pass over the data (radix-2², the butterflies
    /// of stage `h` and `2h` on each quad `k, k+h, k+2h, k+3h` while it
    /// is in registers). Every butterfly still gets the operands and the
    /// twiddle it gets stage by stage, so the values are the same; only
    /// the memory traffic halves. An odd stage count ends with one
    /// single-stage pass.
    pub(crate) fn transform_reversed<T: Butterfly>(&self, buf: &mut [T], inverse: bool) {
        let n = buf.len();
        debug_assert_eq!(n, self.reversal.len(), "twiddles of another length");
        let mut stages = if inverse {
            &self.inverse[..]
        } else {
            &self.forward[..]
        };
        let mut half = 1;
        while 4 * half <= n {
            let (first, rest) = stages.split_at(half);
            let (second, rest) = rest.split_at(2 * half);
            let (second_lo, second_hi) = second.split_at(half);
            for block in buf.chunks_exact_mut(4 * half) {
                let (ab, cd) = block.split_at_mut(2 * half);
                let (a, b) = ab.split_at_mut(half);
                let (c, d) = cd.split_at_mut(half);
                let quads = a.iter_mut().zip(b).zip(c.iter_mut().zip(d));
                let factors = first.iter().zip(second_lo).zip(second_hi);
                for (((a, b), (c, d)), ((&w1, &w2), &w3)) in quads.zip(factors) {
                    let [w1, w2, w3] = opaque::<T, 3>([w1, w2, w3]);
                    let (mut va, mut vb, mut vc, mut vd) = (*a, *b, *c, *d);
                    T::butterfly(&mut va, &mut vb, w1);
                    T::butterfly(&mut vc, &mut vd, w1);
                    T::butterfly(&mut va, &mut vc, w2);
                    T::butterfly(&mut vb, &mut vd, w3);
                    (*a, *b, *c, *d) = (va, vb, vc, vd);
                }
            }
            stages = rest;
            half *= 4;
        }
        if half < n {
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(stages) {
                    let [w] = opaque::<T, 1>([w]);
                    T::butterfly(a, b, w);
                }
            }
        }
    }
}

/// `w`, hidden from the optimizer when `T` asks for it.
#[inline(always)]
fn opaque<T: Butterfly, const N: usize>(w: [Complex; N]) -> [Complex; N] {
    if T::OPAQUE_TWIDDLES {
        std::hint::black_box(w)
    } else {
        w
    }
}

fn fill_stages(n: usize, sign: f64, out: &mut Vec<Complex>) {
    out.clear();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            out.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
}

/// The bit-reversal permutation of `0..n` (`n` a power of two).
fn fill_reversal(n: usize, out: &mut Vec<usize>) {
    out.clear();
    let bits = n.trailing_zeros();
    out.extend((0..n).map(|k| {
        k.reverse_bits()
            .checked_shr(usize::BITS - bits)
            .unwrap_or(0)
    }));
}

/// In-place radix-2 FFT with freshly built twiddles.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
fn fft_radix2(buf: &mut [Complex], inverse: bool) {
    assert!(
        is_power_of_two(buf.len()),
        "radix-2 FFT requires power-of-two length"
    );
    Twiddles::new(buf.len()).transform(buf, inverse);
}

/// Bluestein's algorithm: arbitrary-length DFT via circular convolution.
fn fft_bluestein(input: &mut [Complex], inverse: bool) {
    let n = input.len();
    if n <= 1 {
        return;
    }
    let sign = if inverse { 1.0 } else { -1.0 };

    // Chirp: w[k] = exp(sign * i * pi * k^2 / n).
    // k^2 mod 2n avoids precision loss for large k.
    let mut chirp = Vec::with_capacity(n);
    let two_n = (2 * n) as u64;
    for k in 0..n as u64 {
        let k2 = (k * k) % two_n;
        let ang = sign * std::f64::consts::PI * k2 as f64 / n as f64;
        chirp.push(Complex::cis(ang));
    }

    let m = next_power_of_two(2 * n - 1);
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = input[k] * chirp[k];
    }
    b[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        b[k] = c;
        b[m - k] = c;
    }

    let twiddles = Twiddles::new(m);
    twiddles.transform(&mut a, false);
    twiddles.transform(&mut b, false);
    for i in 0..m {
        a[i] *= b[i];
    }
    twiddles.transform(&mut a, true);
    let scale = 1.0 / m as f64;
    for k in 0..n {
        input[k] = a[k].scale(scale) * chirp[k];
    }
}

/// Forward DFT of `buf`, in place. Works for any length.
pub fn fft(buf: &mut [Complex]) {
    if is_power_of_two(buf.len()) || buf.len() <= 1 {
        fft_radix2(buf, false);
    } else {
        fft_bluestein(buf, false);
    }
}

/// Inverse DFT of `buf`, in place, scaled by `1/n`. Works for any length.
pub fn ifft(buf: &mut [Complex]) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    if is_power_of_two(n) {
        fft_radix2(buf, true);
    } else {
        fft_bluestein(buf, true);
    }
    let scale = 1.0 / n as f64;
    for z in buf.iter_mut() {
        *z = z.scale(scale);
    }
}

/// Forward DFT of a real signal; returns the full complex spectrum.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    fft(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            assert_close(&y, &dft_naive(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for &n in &[3usize, 5, 6, 7, 12, 15, 31, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            assert_close(&y, &dft_naive(&x), 1e-8 * n as f64);
        }
    }

    /// The radix-2 transform with the twiddle recurrence inlined in the
    /// butterfly loop, as it was before the tables existed.
    fn radix2_recurrence(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                buf.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    #[test]
    fn twiddle_tables_reproduce_the_inline_recurrence_bit_for_bit() {
        for n in [1usize, 2, 4, 8, 64, 256, 1024] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() * 1e3, (i as f64).sqrt()))
                .collect();
            for inverse in [false, true] {
                let mut want = x.clone();
                radix2_recurrence(&mut want, inverse);
                let mut got = x.clone();
                Twiddles::new(n).transform(&mut got, inverse);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.re.to_bits(), w.re.to_bits(), "n={n} inverse={inverse}");
                    assert_eq!(g.im.to_bits(), w.im.to_bits(), "n={n} inverse={inverse}");
                }
            }
        }
    }

    #[test]
    fn lane_transform_matches_the_scalar_transform_in_every_lane() {
        let n = 32;
        let columns: Vec<Vec<Complex>> = (0..LANES)
            .map(|l| {
                (0..n)
                    .map(|i| Complex::new((i * (l + 1)) as f64 * 0.1, (l as f64 - i as f64).cos()))
                    .collect()
            })
            .collect();
        let twiddles = Twiddles::new(n);
        for inverse in [false, true] {
            let mut lanes: Vec<LaneComplex> = (0..n)
                .map(|i| LaneComplex {
                    re: array::from_fn(|l| columns[l][i].re),
                    im: array::from_fn(|l| columns[l][i].im),
                })
                .collect();
            twiddles.transform(&mut lanes, inverse);
            for (l, column) in columns.iter().enumerate() {
                let mut want = column.clone();
                twiddles.transform(&mut want, inverse);
                for (z, w) in lanes.iter().zip(&want) {
                    assert_eq!(z.re[l].to_bits(), w.re.to_bits());
                    assert_eq!(z.im[l].to_bits(), w.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn ifft_inverts_fft_all_lengths() {
        for n in 1..40usize {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64 * 0.1 - 1.0, (i * i % 7) as f64))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            assert_close(&y, &x, 1e-9 * (n.max(1)) as f64);
        }
    }

    #[test]
    fn fft_real_of_constant_is_impulse() {
        let y = fft_real(&[1.0; 8]);
        assert!((y[0].re - 8.0).abs() < 1e-12);
        for z in &y[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<f64> = (0..37).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft_real(&x);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }
}
