//! # tsdist
//!
//! A from-scratch Rust reproduction of *"Debunking Four Long-Standing
//! Misconceptions of Time-Series Distance Measures"* (Paparrizos, Liu,
//! Elmore, Franklin — SIGMOD 2020): **71 time-series distance measures**
//! across five categories, **8 normalization methods**, the paper's 1-NN
//! evaluation framework with supervised (LOOCCV) and unsupervised
//! settings, and the statistical machinery (Wilcoxon signed-rank,
//! Friedman + Nemenyi) behind its findings.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`measures`] | `tsdist-core` | lock-step, sliding, elastic, kernel, embedding measures; normalizations; Table 4 grids; registry |
//! | [`data`] | `tsdist-data` | datasets, UCR-format loader, preprocessing, synthetic archive |
//! | [`eval`] | `tsdist-eval` | dissimilarity matrices, 1-NN classifier, LOOCV tuning, comparisons |
//! | [`stats`] | `tsdist-stats` | Wilcoxon, Friedman, Nemenyi, distributions |
//! | [`fft`] | `tsdist-fft` | FFT + cross-correlation substrate |
//! | [`linalg`] | `tsdist-linalg` | dense matrices, Jacobi eigensolver, Nyström |
//!
//! ## Quickstart
//!
//! Evaluations are described by the [`Eval`](prelude::Eval) request
//! builder — one typed request shared by the library API, the CLI, and
//! the `tsdist serve` query service:
//!
//! ```
//! use tsdist::prelude::*;
//! use tsdist::measures::elastic::Msm;
//! use tsdist::measures::lockstep::Euclidean;
//! use tsdist::measures::sliding::CrossCorrelation;
//! use tsdist::data::synthetic::{generate_archive, ArchiveConfig};
//! use tsdist::eval::compare_to_baseline;
//!
//! // A small deterministic archive of labelled datasets.
//! let archive = generate_archive(&ArchiveConfig::quick(7, 42));
//!
//! // Per-dataset 1-NN accuracy of two measures...
//! let accuracy = |d: &dyn Distance, ds: &Dataset| {
//!     Eval::new(d)
//!         .on(ds)
//!         .normalized(Normalization::ZScore)
//!         .run()
//!         .unwrap()
//!         .accuracy
//!         .unwrap()
//! };
//! let sbd: Vec<f64> = archive
//!     .iter()
//!     .map(|ds| accuracy(&CrossCorrelation::sbd(), ds))
//!     .collect();
//! let ed: Vec<f64> = archive.iter().map(|ds| accuracy(&Euclidean, ds)).collect();
//!
//! // ...and the paper-style statistical comparison.
//! let row = compare_to_baseline("NCC_c", &sbd, &ed);
//! assert_eq!(row.better + row.equal + row.worse, archive.len());
//!
//! // Every measure is a plain `Distance`:
//! let d = Msm::new(0.5);
//! assert!(d.distance(&[0.0, 1.0, 2.0], &[0.0, 1.5, 2.0]) > 0.0);
//! ```

#![warn(missing_docs)]

/// The distance measures, normalizations, parameter grids, and registry
/// (re-export of `tsdist-core`).
pub mod measures {
    pub use tsdist_core::elastic;
    pub use tsdist_core::embedding;
    pub use tsdist_core::kernel;
    pub use tsdist_core::lockstep;
    pub use tsdist_core::params;
    pub use tsdist_core::registry;
    pub use tsdist_core::sliding;
    pub use tsdist_core::{AdaptiveScaled, Distance, Kernel, KernelDistance, Normalization, EPS};
}

/// The dataset substrate (re-export of `tsdist-data`).
pub mod data {
    pub use tsdist_data::preprocess;
    pub use tsdist_data::synthetic;
    pub use tsdist_data::ucr;
    pub use tsdist_data::{Dataset, DatasetError, Label};
}

/// The evaluation platform (re-export of `tsdist-eval`).
pub mod eval {
    pub use tsdist_eval::*;
}

/// The statistical tests (re-export of `tsdist-stats`).
pub mod stats {
    pub use tsdist_stats::*;
}

/// The FFT substrate (re-export of `tsdist-fft`).
pub mod fft {
    pub use tsdist_fft::*;
}

/// The linear-algebra substrate (re-export of `tsdist-linalg`).
pub mod linalg {
    pub use tsdist_linalg::*;
}

/// The post-redesign public surface in one import: the
/// [`Eval`](tsdist_eval::Eval) request builder and its result types, the
/// [`Distance`](tsdist_core::Distance) trait with its
/// [`Workspace`](tsdist_core::Workspace) scratch memory, normalizations, dataset types, and the
/// measure registry constructors.
///
/// ```
/// use tsdist::prelude::*;
///
/// let ds = tsdist::data::synthetic::generate_dataset(
///     &tsdist::data::synthetic::ArchiveConfig::quick(1, 7),
///     0,
/// );
/// let report = Eval::new(&tsdist::measures::lockstep::Euclidean)
///     .on(&ds)
///     .pruned(true)
///     .run()
///     .unwrap();
/// assert!(report.accuracy.unwrap() >= 0.0);
/// ```
pub mod prelude {
    pub use tsdist_core::registry::{
        elastic_families, elastic_unsupervised, kernel_families, kernel_unsupervised,
        lockstep_parameter_free, sliding_measures, DistanceFamily, KernelFamily,
    };
    pub use tsdist_core::{Distance, Kernel, Normalization, Workspace};
    pub use tsdist_data::{Dataset, Label};
    pub use tsdist_eval::{Answer, CancelFlag, Eval, EvalError, EvalReport};
}
