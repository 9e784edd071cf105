//! # tsdist-core
//!
//! The 71 time-series distance measures and 8 normalization methods of
//! *"Debunking Four Long-Standing Misconceptions of Time-Series Distance
//! Measures"* (Paparrizos, Liu, Elmore, Franklin — SIGMOD 2020),
//! implemented from scratch.
//!
//! | Category | Count | Module |
//! |----------|-------|--------|
//! | Lock-step | 52 | [`lockstep`] |
//! | Sliding | 4 | [`sliding`] |
//! | Elastic | 7 (+DDTW/WDTW variants, lower bounds) | [`elastic`] |
//! | Kernel | 4 | [`kernel`] |
//! | Embedding | 4 | [`embedding`] |
//!
//! Plus the [`normalization`] methods of Section 4, the Table 4 parameter
//! grids in [`params`], and a [`registry`] enumerating everything for the
//! evaluation platform.
//!
//! ## The workspace hot path
//!
//! Batch callers (dissimilarity-matrix construction, 1-NN search) compare
//! millions of pairs, so every measure's one body is an allocation-free
//! entry point: [`Distance::distance_ws`] / [`Kernel::kernel_ws`] take a
//! [`Workspace`] — a reusable scratch arena of DP rows, auxiliary
//! vectors, and FFT buffers — and return the same bits whatever an
//! earlier call left in it (enforced by the `ws_equivalence` test suite
//! over the whole registry). [`Distance::distance`] and
//! [`Kernel::kernel`] run that body with a fresh workspace. Measures for which `d(x, y)` and `d(y, x)` are
//! bit-identical on equal-length inputs advertise it via
//! [`Distance::is_symmetric`], which lets matrix builders compute only the
//! upper triangle of train-by-train matrices.
//!
//! ```
//! use tsdist_core::measure::Distance;
//! use tsdist_core::lockstep::{Euclidean, Lorentzian};
//! use tsdist_core::sliding::CrossCorrelation;
//! use tsdist_core::elastic::Msm;
//!
//! let x = [0.1, 0.9, -1.2, 0.4, 1.5, -0.7];
//! let y = [0.0, 1.0, -1.0, 0.5, 1.4, -0.9];
//! assert!(Euclidean.distance(&x, &y) > 0.0);
//! assert!(Lorentzian.distance(&x, &y) > 0.0);
//! assert!(CrossCorrelation::sbd().distance(&x, &y) >= 0.0);
//! assert!(Msm::new(0.5).distance(&x, &y) > 0.0);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod elastic;
pub mod embedding;
pub mod index;
pub mod kernel;
pub mod lanes;
pub mod lockstep;
pub mod measure;
pub mod normalization;
pub mod params;
pub mod registry;
pub mod sliding;
pub mod workspace;

pub use index::{IndexStats, QueryPlan, TrainIndex};
pub use measure::{Distance, IndexProfile, Kernel, KernelDistance, MetricRegime, EPS};
pub use normalization::{AdaptiveScaled, Normalization};
pub use workspace::Workspace;
