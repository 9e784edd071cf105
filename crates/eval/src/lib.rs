//! # tsdist-eval
//!
//! The evaluation platform of the study (Section 3): dissimilarity
//! matrices, the 1-NN classifier of Algorithm 1, LOOCV parameter tuning,
//! and the statistical comparison machinery that produces the paper's
//! tables (pairwise Wilcoxon) and critical-difference figures (Friedman +
//! Nemenyi).
//!
//! Dissimilarity matrices are built by the batch engine in [`matrices`]:
//! row-parallel construction with one [`tsdist_core::Workspace`] per
//! worker thread (so elastic/kernel measures run allocation-free), a
//! symmetric fast path computing only the upper triangle of train-by-train
//! matrices, and `*_into` variants that reuse caller-owned buffers across
//! the supervised grid loop. Each evaluation job has one public function,
//! and every classifier entry point returns its shape errors as a typed
//! [`EvalError`] instead of panicking.
//!
//! ## Fault tolerance and resumable studies
//!
//! Long archive sweeps are orchestrated by the fault-tolerant cell
//! runner in [`runner`]: every (measure, normalization, dataset) cell
//! executes under `catch_unwind` isolation, optionally with a wall-clock
//! deadline (a [`cell::Watchdog`] raises a cooperative [`cell::CancelFlag`]
//! that guarded measure wrappers check before every pairwise call) and a
//! retry-with-backoff budget for failed cells. Outcomes are typed as
//! [`CellOutcome`] — `Ok` / `Failed(CellError)` / `TimedOut` / `Skipped` —
//! and journaled to a line-delimited file ([`journal`]); re-running a
//! killed study with the same journal replays completed cells
//! bit-identically and executes only the missing, failed, and timed-out
//! ones. An entrant runs over an archive as one
//! [`CellRunner::column`] (for a distance measure,
//! [`CellRunner::distance_column`], one [`Eval`] per cell), and
//! [`summarize_cells`] reduces a study's columns to the surviving subset:
//! the entrants with a completed cell, over the datasets all of them
//! completed. [`run_study_resumable`] is the two together, and every
//! experiment binary of `tsdist-bench` uses them. Knobs live on
//! [`RunnerConfig`]: `deadline`, `max_retries`, `retry_backoff`,
//! `max_cells` (stop-after-N, the hook the kill/resume smoke test uses).
//!
//! ## The `Eval` request builder
//!
//! Evaluations are described by one typed request ([`Eval`], in
//! [`request`]) shared verbatim by the CLI, the `tsdist serve` query
//! service, and the study runner.
//!
//! ## One nearest-neighbour scan
//!
//! Every 1-NN and k-NN search — the test-split accuracy, leave-one-out
//! tuning, served queries — runs through the one engine in [`scan`]:
//! four per-row plans (Exact, Cutoff, Cascade, Pivots) over two
//! incumbents (Algorithm 1's nearest neighbour and the top-k selection),
//! chosen by one rule from the supplied [`tsdist_core::TrainIndex`] and
//! whether the search is pruned. Every plan gives the same answers, bit
//! for bit; they differ only in the work done. Each row depends only on
//! its own query, and the rows are claimed one at a time from the worker
//! pool of the matrix builders ([`parallel`]). The matrix-consuming
//! classifiers of [`nn`] and [`knn`] are its reference.
//!
//! The typical flow for one experiment:
//!
//! ```
//! use tsdist_core::lockstep::{Euclidean, Lorentzian};
//! use tsdist_core::normalization::Normalization;
//! use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
//! use tsdist_eval::{compare_to_baseline, Eval};
//!
//! let archive = generate_archive(&ArchiveConfig::quick(7, 42));
//! let accuracy = |d: &dyn tsdist_core::measure::Distance, ds| {
//!     Eval::new(d)
//!         .on(ds)
//!         .normalized(Normalization::ZScore)
//!         .run()
//!         .unwrap()
//!         .accuracy
//!         .unwrap()
//! };
//! let lorentzian: Vec<f64> = archive.iter().map(|ds| accuracy(&Lorentzian, ds)).collect();
//! let ed: Vec<f64> = archive.iter().map(|ds| accuracy(&Euclidean, ds)).collect();
//! let row = compare_to_baseline("Lorentzian (z-score)", &lorentzian, &ed);
//! assert_eq!(row.better + row.equal + row.worse, 7);
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod comparison;
pub mod error;
pub mod evaluator;
pub mod journal;
pub mod knn;
pub mod matrices;
pub mod nn;
pub mod parallel;
pub mod request;
pub mod runner;
pub mod scan;
pub mod study;
pub mod wire;

pub use cell::{CancelFlag, CellError, CellOutcome, CellResult, Evaluation, Watchdog};
pub use comparison::{
    compare_to_baseline, holm_adjusted_p_values, rank_measures, render_table, PairwiseComparison,
    RankingAnalysis, NEMENYI_ALPHA, WILCOXON_ALPHA,
};
pub use error::EvalError;
pub use evaluator::{
    evaluate_distance_supervised, evaluate_embedding, evaluate_embedding_supervised, prepare,
};
pub use journal::{
    crc32, is_v2_journal, read_journal, recover_lines, rewrite_journal_in_order, DurableConfig,
    DurableJournal, DurableReplay, FsyncPolicy, Journal, JournalEntry, JournalReplay,
};
pub use knn::{knn_accuracy, ConfusionMatrix};
pub use matrices::{
    distance_matrix, embedding_matrices, symmetric_distance_matrix, symmetric_distance_matrix_into,
};
pub use nn::{loocv_accuracy, one_nn_accuracy};
pub use parallel::{parallel_fill_rows, parallel_map, parallel_map_with, worker_count};
pub use request::{Answer, Eval, EvalReport};
pub use runner::{
    cell_key, run_study_resumable, summarize_cells, CellRunner, RobustStudyReport, RunnerConfig,
};
pub use scan::{
    indexed_nn_search_stats, one_nn_vote_accuracy, pruned_nn_search, IndexedStats,
    NearestNeighbour, Rows, Scan, KEOGH_INFLATE,
};
pub use study::{Entrant, StudyReport};
