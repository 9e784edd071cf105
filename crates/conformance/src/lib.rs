//! # tsdist-conformance
//!
//! The differential conformance oracle for the measure registry.
//!
//! The study's conclusions rest on 71 measures × several execution paths
//! (`distance`, `distance_ws`, `distance_upto`, batch matrices, pruned
//! 1-NN) producing *correct* numbers; a subtle divergence in any one of
//! them silently shifts 1-NN accuracy rankings. This crate holds the
//! production implementations to account three ways:
//!
//! 1. [`reference`](mod@reference) — deliberately naive, textbook restatements of every
//!    measure (full-matrix DPs, index loops, no pruning), never optimized.
//! 2. [`engine`] — the differential test engine: for every registry
//!    measure, compare every execution path against the reference within
//!    per-category tolerances on seeded input batteries ([`inputs`]).
//! 3. [`golden`] — bit-exact snapshot files under `results/conformance/`
//!    pinning the registry's outputs on a fixed seed, so any future
//!    optimization that changes even one bit is caught at review time via
//!    `tsdist conformance`.
//!
//! [`oracle`] pairs each registry measure with its reference function —
//! the single enumeration the engine, the snapshots, and the CLI share.

#![warn(missing_docs)]

pub mod engine;
pub mod golden;
pub mod inputs;
pub mod oracle;
pub mod reference;

pub use engine::{run_differential, ulp_diff, Discrepancy, EngineConfig, Report};
pub use golden::{diff as golden_diff, parse as golden_parse, render as golden_render, snapshot};
pub use inputs::{labeled_dataset, standard_battery, unequal_battery, InputPair};
pub use oracle::{oracle_registry, quick_registry, Category, OracleCase};
