//! # tsdist-fft
//!
//! A self-contained FFT substrate for the `tsdist` workspace.
//!
//! The sliding distance measures of the paper (the NCC family, Eq. 10-11)
//! and the SINK kernel require the cross-correlation sequence between two
//! time series at every shift. Computed directly this is O(m^2); with the
//! Fast Fourier Transform it drops to O(m log m), which is the entire point
//! of the paper's accuracy-to-runtime analysis placing NCC_c between the
//! lock-step O(m) and elastic O(m^2) measures.
//!
//! Provided here:
//! * [`Complex`] — a minimal complex-number type,
//! * [`fft`] / [`ifft`] — radix-2 Cooley–Tukey for power-of-two lengths and
//!   Bluestein's chirp-z for arbitrary lengths,
//! * [`CcScratch`] — the full shift-product sequence used by the NCC
//!   measures ([`CcScratch::cross_correlation`]), computed in reused
//!   buffers, which also correlates one query against [`LANES`] columns
//!   at once ([`CcScratch::cross_correlation_lanes`]).
//!
//! ```
//! use tsdist_fft::CcScratch;
//! let x = [0.0, 1.0, 2.0, 1.0, 0.0];
//! let mut scratch = CcScratch::new();
//! let cc = scratch.cross_correlation(&x, &x);
//! assert_eq!(cc.len(), 2 * x.len() - 1);
//! // a signal correlates best with itself at zero shift
//! let max = cc.iter().cloned().fold(f64::MIN, f64::max);
//! assert_eq!(cc[x.len() - 1], max);
//! ```

#![warn(missing_docs)]

mod complex;
mod crosscorr;
#[allow(clippy::module_inception)]
mod fft;

pub use complex::Complex;
pub use crosscorr::{cross_correlation_naive, overlap_at, CcScratch};
pub use fft::{fft, fft_real, ifft, is_power_of_two, next_power_of_two, Lanes, LANES};
