//! Per-cell fault isolation for the study runner.
//!
//! A *cell* is one (measure, normalization, dataset) evaluation. This
//! module provides the vocabulary the fault-tolerant runner is built on:
//!
//! * [`CellOutcome`] / [`CellError`] — the typed result of a supervised
//!   cell execution: success, a classified failure, a blown deadline, or
//!   a skipped cell. A bad cell no longer poisons the run.
//! * [`CancelFlag`] + [`Watchdog`] — cooperative wall-clock deadlines.
//!   The flag is a shared atomic that grid loops check between parameter
//!   points; the watchdog is a background thread that raises the flag
//!   when the deadline elapses, so even the matrix kernels (which never
//!   look at a clock) are interrupted at the next pairwise call.
//! * [`GuardedDistance`] — the transparent measure wrapper that consults
//!   the flag before every pairwise computation (for matrix rows: before
//!   every chunk of at most `MAX_ROW_BLOCK` columns, one DTW lane block)
//!   and unwinds with a cancellation payload once it is raised. It
//!   delegates `distance_ws` / `distance_row_ws` / `is_symmetric`, so
//!   guarded evaluation is bit-identical to unguarded evaluation for
//!   healthy cells. A kernel
//!   ([`Distance::as_kernel`]) is measured by a kernel cell instead,
//!   which checks the flag the same way and computes each series' log
//!   self-similarity once per cell rather than per pair.
//! * [`find_non_finite`] — the at-the-source NaN/±Inf guard: a
//!   dissimilarity matrix containing a non-finite cell is reported as
//!   [`CellError::NonFiniteDistance`] instead of silently sorting last
//!   in the 1-NN selection.

use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::EvalError;
use crate::parallel::parallel_map_with;
use tsdist_core::lanes::{LANES, MAX_ROW_BLOCK};
use tsdist_core::measure::{
    normalized_kernel_dissimilarity, Distance, IndexProfile, Kernel, MetricRegime,
};
use tsdist_core::normalization::{AdaptiveScaled, Normalization};
use tsdist_core::Workspace;
use tsdist_linalg::Matrix;

/// Panic payload used for cooperative cancellation; the runner maps it
/// (or any unwind with the flag raised) to [`CellOutcome::TimedOut`].
#[derive(Debug)]
pub struct CancelPanic;

/// A shared cancellation flag, cheap to clone and check (one relaxed
/// atomic load per pairwise distance call).
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every subsequent checkpoint fails.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Cooperative checkpoint for supervised grid loops: returns
    /// [`CellError::DeadlineExceeded`] once the flag is raised.
    pub fn checkpoint(&self) -> Result<(), CellError> {
        if self.is_cancelled() {
            Err(CellError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// Unwinds with [`CancelPanic`] once the flag is raised — the hook
    /// the guarded measure wrappers use to abort matrix kernels that
    /// have no error channel of their own.
    fn panic_if_cancelled(&self) {
        if self.is_cancelled() {
            panic_any(CancelPanic);
        }
    }
}

/// A background deadline: arms a thread that raises the [`CancelFlag`]
/// after `deadline` unless the watchdog is dropped (cell finished)
/// first. Dropping joins the thread.
pub struct Watchdog {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog that cancels `flag` once `deadline` elapses.
    pub fn arm(flag: &CancelFlag, deadline: Duration) -> Watchdog {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let thread_flag = flag.clone();
        let handle = std::thread::spawn(move || {
            let (done, cv) = &*thread_state;
            let mut finished = done.lock().unwrap_or_else(|e| e.into_inner());
            let mut remaining = deadline;
            loop {
                if *finished {
                    return;
                }
                let (guard, timeout) = match cv.wait_timeout(finished, remaining) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                finished = guard;
                if timeout.timed_out() {
                    thread_flag.cancel();
                    return;
                }
                // Spurious wakeup: wait again for the full remainder (a
                // slightly late deadline is harmless, an early one not).
                remaining = deadline;
            }
        });
        Watchdog {
            state,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (done, cv) = &*self.state;
        *done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The measure (or anything under it) panicked; the payload message
    /// is preserved when it was a string.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The dissimilarity matrix contains a NaN or ±Inf at `(i, j)`.
    NonFiniteDistance {
        /// Row of the first offending entry.
        i: usize,
        /// Column of the first offending entry.
        j: usize,
    },
    /// A typed evaluation error (shape mismatch, empty grid, ...).
    Eval(EvalError),
    /// The cell observed its cancellation flag raised (cooperative
    /// deadline); the runner reports this as [`CellOutcome::TimedOut`].
    DeadlineExceeded,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked { message } => write!(f, "panicked: {message}"),
            CellError::NonFiniteDistance { i, j } => {
                write!(f, "non-finite distance at matrix cell ({i}, {j})")
            }
            CellError::Eval(e) => write!(f, "evaluation error: {e}"),
            CellError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl std::error::Error for CellError {}

impl From<EvalError> for CellError {
    fn from(e: EvalError) -> Self {
        // The fault-shaped variants map onto their cell-level twins so a
        // deadline classified by the public `Eval` request is still
        // reported as `TimedOut` by the runner, not as a generic failure.
        match e {
            EvalError::DeadlineExceeded => CellError::DeadlineExceeded,
            EvalError::NonFiniteDistance { i, j } => CellError::NonFiniteDistance { i, j },
            EvalError::Faulted { message } => CellError::Panicked { message },
            other => CellError::Eval(other),
        }
    }
}

impl From<CellError> for EvalError {
    fn from(e: CellError) -> Self {
        match e {
            CellError::Eval(inner) => inner,
            CellError::DeadlineExceeded => EvalError::DeadlineExceeded,
            CellError::NonFiniteDistance { i, j } => EvalError::NonFiniteDistance { i, j },
            CellError::Panicked { message } => EvalError::Faulted { message },
        }
    }
}

/// The product of a successful cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Test accuracy of the cell.
    pub accuracy: f64,
    /// LOOCV training accuracy of the selected grid point (supervised
    /// cells only).
    pub train_accuracy: Option<f64>,
}

impl Evaluation {
    /// An unsupervised evaluation (no training accuracy).
    pub fn unsupervised(accuracy: f64) -> Self {
        Evaluation {
            accuracy,
            train_accuracy: None,
        }
    }
}

/// The typed outcome of one cell execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CellOutcome {
    /// The cell completed.
    Ok(Evaluation),
    /// The cell failed with a classified error.
    Failed(CellError),
    /// The cell blew its wall-clock deadline.
    TimedOut,
    /// The cell was not executed (run stopped early, e.g. `max_cells`).
    #[default]
    Skipped,
}

impl CellOutcome {
    /// The evaluation, when the cell completed.
    pub fn evaluation(&self) -> Option<&Evaluation> {
        match self {
            CellOutcome::Ok(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the cell completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// Stable lowercase label used by the journal and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Failed(_) => "failed",
            CellOutcome::TimedOut => "timeout",
            CellOutcome::Skipped => "skipped",
        }
    }
}

/// One executed (or skipped) cell: its key, outcome, and wall-clock cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellResult {
    /// The cell key (`"<measure>::<dataset>"` by convention).
    pub key: String,
    /// What happened.
    pub outcome: CellOutcome,
    /// Wall-clock seconds spent (journaled, so resumed runs report the
    /// original cost).
    pub seconds: f64,
}

/// A [`Distance`] wrapper that checks a [`CancelFlag`] before every
/// pairwise computation, and before every chunk of at most
/// [`MAX_ROW_BLOCK`] columns of a matrix row. Pure delegation otherwise —
/// including `distance_row_ws`, `is_symmetric` and `lanes_hint` — so
/// healthy guarded cells are bit-identical to unguarded ones.
pub struct GuardedDistance<'a> {
    inner: &'a dyn Distance,
    flag: &'a CancelFlag,
}

impl<'a> GuardedDistance<'a> {
    /// Guards `inner` with `flag`.
    pub fn new(inner: &'a dyn Distance, flag: &'a CancelFlag) -> Self {
        GuardedDistance { inner, flag }
    }
}

/// Runs `f` on `d` as a cell over the split `train` measures it: guarded
/// by `flag`, then, under a pairwise normalization, rescaled per pair
/// ([`AdaptiveScaled`]). Per-pair rescaling invalidates every
/// precomputed bound; the wrapper declares no index profile, so no scan
/// row gets an index structure. A kernel ([`Distance::as_kernel`]) under
/// any other normalization is measured by a [`KernelCell`] over `train`.
pub(crate) fn with_cell_measure<R>(
    d: &dyn Distance,
    norm: Normalization,
    flag: &CancelFlag,
    train: &[Vec<f64>],
    f: impl FnOnce(&dyn Distance) -> R,
) -> R {
    if norm.is_pairwise() {
        return f(&AdaptiveScaled::new(GuardedDistance::new(d, flag)));
    }
    match d.as_kernel() {
        Some(k) => f(&KernelCell::new(d, k, flag, train)),
        None => f(&GuardedDistance::new(d, flag)),
    }
}

impl Distance for GuardedDistance<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.flag.panic_if_cancelled();
        self.inner.distance_ws(x, y, ws)
    }
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        self.flag.panic_if_cancelled();
        self.inner.distance_upto(x, y, ws, cutoff)
    }
    // Forwarded so the inner measure's row kernel is reached; the flag
    // is checked once per chunk of at most `MAX_ROW_BLOCK` columns,
    // which keeps the cancellation latency at one SIMD block of work.
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        let chunks = cols.chunks(MAX_ROW_BLOCK);
        for (cols, out) in chunks.zip(out.chunks_mut(MAX_ROW_BLOCK)) {
            self.flag.panic_if_cancelled();
            self.inner.distance_row_ws(x, cols, out, ws);
        }
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn lanes_hint(&self) -> usize {
        self.inner.lanes_hint()
    }
    // The index planner consults these on the *guarded* wrapper; without
    // forwarding, every indexed evaluation would silently degrade to the
    // linear fallback plan.
    fn metric_regime(&self) -> MetricRegime {
        self.inner.metric_regime()
    }
    fn index_profile(&self) -> IndexProfile {
        self.inner.index_profile()
    }
}

/// A kernel's cell measure: `d`, whose [`Distance::as_kernel`] is `k`,
/// with the log self-similarity of every series of the split computed
/// once, in parallel and under `flag`, when the cell binds it. A matrix
/// or scan row computes its `log k(x, x)` once, or reads it when `x` is
/// a series of the split, and reads each column's `log k(y, y)` when the
/// columns are a sub-slice of the split; each entry is then
/// [`normalized_kernel_dissimilarity`] of the same three values in the
/// same order as `d` computes them, so the cell is bit-identical to `d`.
/// A lone pair runs `d` itself. The flag is checked before every pair
/// and every chunk of at most [`LANES`] columns, as [`GuardedDistance`]
/// checks it, but a row stays one call so its `log k(x, x)` is computed
/// once.
struct KernelCell<'a> {
    d: &'a dyn Distance,
    k: &'a dyn Kernel,
    flag: &'a CancelFlag,
    split: &'a [Vec<f64>],
    /// `log k(s, s)` of every series `s` of the split, by index.
    log_self: Vec<f64>,
}

impl<'a> KernelCell<'a> {
    fn new(
        d: &'a dyn Distance,
        k: &'a dyn Kernel,
        flag: &'a CancelFlag,
        split: &'a [Vec<f64>],
    ) -> Self {
        let log_self = parallel_map_with(split.len(), Workspace::default, |ws, i| {
            flag.panic_if_cancelled();
            k.log_kernel_ws(&split[i], &split[i], ws)
        });
        KernelCell {
            d,
            k,
            flag,
            split,
            log_self,
        }
    }

    /// The cached `log k(y, y)` of `cols`, when they are a sub-slice of
    /// the split.
    fn cached(&self, cols: &[Vec<f64>]) -> Option<&[f64]> {
        let size = std::mem::size_of::<Vec<f64>>();
        let offset = (cols.as_ptr() as usize).checked_sub(self.split.as_ptr() as usize)?;
        let start = offset / size;
        let end = start + cols.len();
        (offset % size == 0 && end <= self.split.len()).then(|| &self.log_self[start..end])
    }
}

impl Distance for KernelCell<'_> {
    fn name(&self) -> String {
        self.d.name()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.flag.panic_if_cancelled();
        self.d.distance_ws(x, y, ws)
    }
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        let own = self
            .split
            .iter()
            .position(|s| std::ptr::eq(s.as_slice(), x));
        let lxx = match own {
            Some(i) => self.log_self[i],
            None => {
                self.flag.panic_if_cancelled();
                self.k.log_kernel_ws(x, x, ws)
            }
        };
        let cached = self.cached(cols);
        for (c, (cols, out)) in cols.chunks(LANES).zip(out.chunks_mut(LANES)).enumerate() {
            self.flag.panic_if_cancelled();
            for (j, (slot, y)) in out.iter_mut().zip(cols).enumerate() {
                let lxy = self.k.log_kernel_ws(x, y, ws);
                let lyy = match cached {
                    Some(lyy) => lyy[c * LANES + j],
                    None => self.k.log_kernel_ws(y, y, ws),
                };
                *slot = normalized_kernel_dissimilarity(lxy, lxx, lyy);
            }
        }
    }
    fn is_symmetric(&self) -> bool {
        self.d.is_symmetric()
    }
    fn metric_regime(&self) -> MetricRegime {
        self.d.metric_regime()
    }
    fn index_profile(&self) -> IndexProfile {
        self.d.index_profile()
    }
}

/// First non-finite entry of a dissimilarity matrix, if any — the
/// at-the-source guard for NaN/±Inf-poisoned measures.
pub fn find_non_finite(m: &Matrix) -> Option<(usize, usize)> {
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if !m[(i, j)].is_finite() {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::lockstep::Euclidean;

    #[test]
    fn flag_checkpoint_reports_cancellation() {
        let flag = CancelFlag::new();
        assert!(flag.checkpoint().is_ok());
        flag.cancel();
        assert_eq!(flag.checkpoint(), Err(CellError::DeadlineExceeded));
        assert!(flag.is_cancelled());
    }

    #[test]
    fn watchdog_raises_the_flag_after_the_deadline() {
        let flag = CancelFlag::new();
        let _dog = Watchdog::arm(&flag, Duration::from_millis(10));
        let start = std::time::Instant::now();
        while !flag.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "watchdog never fired"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn dropped_watchdog_never_fires() {
        let flag = CancelFlag::new();
        {
            let _dog = Watchdog::arm(&flag, Duration::from_millis(30));
        }
        std::thread::sleep(Duration::from_millis(60));
        assert!(!flag.is_cancelled());
    }

    #[test]
    fn guarded_distance_is_transparent_until_cancelled() {
        let flag = CancelFlag::new();
        let guarded = GuardedDistance::new(&Euclidean, &flag);
        let x = [1.0, 2.0, 3.0];
        let y = [0.0, 2.0, 5.0];
        assert_eq!(guarded.distance(&x, &y), Euclidean.distance(&x, &y));
        assert_eq!(guarded.is_symmetric(), Euclidean.is_symmetric());
        assert_eq!(guarded.name(), Euclidean.name());
        // Euclidean runs on the lane kernels, so the default hint of 1
        // would show a dropped forward.
        assert_eq!(guarded.lanes_hint(), LANES);
        flag.cancel();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| guarded.distance(&x, &y)));
        let payload = caught.expect_err("cancelled guard must unwind");
        assert!(payload.downcast_ref::<CancelPanic>().is_some());
    }

    #[test]
    fn a_kernel_cell_is_its_kernel_distance_until_cancelled() {
        use tsdist_core::kernel::Kdtw;
        use tsdist_core::measure::KernelDistance;
        let split: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..10).map(|j| ((i * 10 + j) as f64 * 0.3).sin()).collect())
            .collect();
        let query = [0.5, -1.0, 2.0, 0.0, 1.0];
        let d = KernelDistance(Kdtw::new(0.125));
        let flag = CancelFlag::new();
        with_cell_measure(&d, Normalization::ZScore, &flag, &split, |cell| {
            let mut out = [0.0; 3];
            cell.distance_row_ws(&query, &split, &mut out, &mut Workspace::new());
            for (j, y) in split.iter().enumerate() {
                let expect = d.distance(&query, y).to_bits();
                assert_eq!(out[j].to_bits(), expect, "row column {j}");
                assert_eq!(cell.distance(&query, y).to_bits(), expect, "pair {j}");
                assert_eq!(
                    cell.distance(y, &query).to_bits(),
                    d.distance(y, &query).to_bits()
                );
            }
            assert_eq!(cell.name(), d.name());
            assert_eq!(cell.is_symmetric(), d.is_symmetric());
            flag.cancel();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cell.distance_row_ws(&split[0], &split, &mut out, &mut Workspace::new())
            }));
            let payload = caught.expect_err("a cancelled kernel cell must unwind");
            assert!(payload.downcast_ref::<CancelPanic>().is_some());
        });
        // Binding a split computes its self-similarities under the flag.
        let bound = std::panic::catch_unwind(|| {
            with_cell_measure(&d, Normalization::ZScore, &flag, &split, |_| ())
        });
        assert!(bound.is_err(), "binding under a raised flag must unwind");
    }

    #[test]
    fn find_non_finite_locates_first_bad_entry() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!(find_non_finite(&m), None);
        m[(1, 2)] = f64::NEG_INFINITY;
        m[(0, 1)] = f64::NAN;
        assert_eq!(find_non_finite(&m), Some((0, 1)));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(CellOutcome::Ok(Evaluation::unsupervised(0.5)).label(), "ok");
        assert_eq!(
            CellOutcome::Failed(CellError::DeadlineExceeded).label(),
            "failed"
        );
        assert_eq!(CellOutcome::TimedOut.label(), "timeout");
        assert_eq!(CellOutcome::Skipped.label(), "skipped");
    }

    #[test]
    fn cell_error_displays() {
        let e = CellError::NonFiniteDistance { i: 3, j: 7 };
        assert!(e.to_string().contains("(3, 7)"));
        assert!(CellError::Panicked {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        let e: CellError = EvalError::EmptyGrid.into();
        assert!(e.to_string().contains("empty parameter grid"));
    }
}
