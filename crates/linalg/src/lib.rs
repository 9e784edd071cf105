//! # tsdist-linalg
//!
//! A minimal dense linear-algebra substrate for the `tsdist` workspace.
//!
//! The embedding measures of the paper (Section 9) — GRAIL, SPIRAL, RWS —
//! construct similarity-preserving representations from kernel matrices,
//! which requires a symmetric eigensolver and a Nyström feature map. This
//! crate implements exactly that, from scratch:
//!
//! * [`Matrix`] — a dense row-major matrix with the handful of operations
//!   the workspace needs,
//! * [`symmetric_eigen`] — cyclic Jacobi eigendecomposition,
//! * [`nystroem_features`] — the Nyström landmark feature map used by
//!   GRAIL and SPIRAL.

#![warn(missing_docs)]

mod eigen;
mod matrix;

pub use eigen::{nystroem_features, symmetric_eigen, SymmetricEigen};
pub use matrix::Matrix;
