//! Property-based tests for the FFT substrate.

use proptest::prelude::*;
use tsdist_fft::{cross_correlation_naive, fft, ifft, CcScratch, Complex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ifft(fft(x)) == x for arbitrary lengths and values.
    #[test]
    fn fft_roundtrip(v in proptest::collection::vec(-1e3f64..1e3, 1..128)) {
        let x: Vec<Complex> = v.iter().map(|&r| Complex::from_real(r)).collect();
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a.re - b.re).abs() < 1e-6_f64.max(a.re.abs() * 1e-9));
            prop_assert!(b.im.abs() < 1e-6);
        }
    }

    /// FFT cross-correlation agrees with the direct O(pq) computation.
    #[test]
    fn crosscorr_matches_naive(
        x in proptest::collection::vec(-100f64..100.0, 1..64),
        y in proptest::collection::vec(-100f64..100.0, 1..64),
    ) {
        let fast = CcScratch::new().cross_correlation(&x, &y).to_vec();
        let slow = cross_correlation_naive(&x, &y);
        prop_assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-5, "{} vs {}", a, b);
        }
    }

    /// Linearity: FFT(a + b) == FFT(a) + FFT(b).
    #[test]
    fn fft_is_linear(v in proptest::collection::vec((-100f64..100.0, -100f64..100.0), 2..64)) {
        let a: Vec<Complex> = v.iter().map(|&(r, _)| Complex::from_real(r)).collect();
        let b: Vec<Complex> = v.iter().map(|&(_, s)| Complex::from_real(s)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let (mut fa, mut fb, mut fs) = (a, b, sum);
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fs);
        for i in 0..fa.len() {
            let lhs = fa[i] + fb[i];
            prop_assert!((lhs - fs[i]).abs() < 1e-6);
        }
    }
}
