//! Typed errors for the evaluation platform.
//!
//! The shape checks of the classifiers and matrix builders, and the
//! misuse and fault conditions of an [`Eval`](crate::request::Eval)
//! request, are returned as an [`EvalError`]; no evaluation entry point
//! panics on them.

use std::fmt;

/// An invalid-input condition detected by an evaluation entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Two lengths that must agree (e.g. matrix rows vs. label count)
    /// don't.
    ShapeMismatch {
        /// What disagreed, e.g. `"row/label count"`.
        what: &'static str,
        /// The length implied by the first operand.
        expected: usize,
        /// The length actually found.
        got: usize,
    },
    /// A train-by-train matrix `W` was expected to be square.
    NotSquare {
        /// Row count found.
        rows: usize,
        /// Column count found.
        cols: usize,
    },
    /// The training split is empty, so no neighbour exists.
    EmptyTrainSet,
    /// `k = 0` was passed to a k-NN routine.
    ZeroK,
    /// `n_train` exceeds the number of embedded rows.
    TrainCountExceedsRows {
        /// Requested training row count.
        n_train: usize,
        /// Rows available in the embedding matrix.
        rows: usize,
    },
    /// An empty parameter grid was passed to a supervised evaluation.
    EmptyGrid,
    /// The request's wall-clock deadline elapsed (or its
    /// [`CancelFlag`](crate::cell::CancelFlag) was raised) before the
    /// evaluation finished.
    DeadlineExceeded,
    /// A computed distance came out NaN or ±Inf at `(i, j)` (row `i` of
    /// the query/test set, training index `j`).
    NonFiniteDistance {
        /// Row of the first offending entry.
        i: usize,
        /// Column (training index) of the first offending entry.
        j: usize,
    },
    /// The measure faulted (panicked) while evaluating; the message is
    /// the rendered panic payload.
    Faulted {
        /// The rendered panic message.
        message: String,
    },
    /// An [`Eval`](crate::request::Eval) request was run without a
    /// dataset (`.on(dataset)` was never called).
    NoDataset,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} mismatch: expected {expected}, got {got}"),
            EvalError::NotSquare { rows, cols } => {
                write!(f, "W must be square, got {rows}x{cols}")
            }
            EvalError::EmptyTrainSet => write!(f, "no training series"),
            EvalError::ZeroK => write!(f, "k must be at least 1"),
            EvalError::TrainCountExceedsRows { n_train, rows } => {
                write!(f, "n_train exceeds embedded row count: {n_train} > {rows}")
            }
            EvalError::EmptyGrid => write!(f, "empty parameter grid"),
            EvalError::DeadlineExceeded => write!(f, "deadline exceeded"),
            EvalError::NonFiniteDistance { i, j } => {
                write!(f, "non-finite distance at ({i}, {j})")
            }
            EvalError::Faulted { message } => write!(f, "measure faulted: {message}"),
            EvalError::NoDataset => {
                write!(
                    f,
                    "request has no dataset: call `.on(dataset)` before `.run()`"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_keep_the_historic_wording() {
        // Callers (the CLI's `error: ...` lines, cell fault summaries)
        // print these messages.
        let s = EvalError::ShapeMismatch {
            what: "row/label count",
            expected: 2,
            got: 1,
        }
        .to_string();
        assert!(s.contains("mismatch"));
        assert!(EvalError::ZeroK
            .to_string()
            .contains("k must be at least 1"));
        assert!(EvalError::NotSquare { rows: 2, cols: 3 }
            .to_string()
            .contains("square"));
        assert!(EvalError::TrainCountExceedsRows {
            n_train: 9,
            rows: 5
        }
        .to_string()
        .contains("exceeds embedded row count"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EvalError::EmptyTrainSet);
    }
}
