//! The fault-tolerant, resumable cell runner.
//!
//! [`CellRunner::run_cell`] executes one (measure, normalization,
//! dataset) cell under `catch_unwind` isolation with an optional
//! wall-clock deadline and retry-with-backoff, and journals the outcome;
//! [`run_study_resumable`] drives a whole study grid through it and
//! reports over the surviving subset. A journaled runner replays
//! completed cells from disk, so a killed study restarted with the same
//! journal re-runs only missing, failed, and timed-out cells — and
//! reproduces the completed ones bit-identically.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::cell::{
    CancelFlag, CancelPanic, CellError, CellOutcome, CellResult, Evaluation, Watchdog,
};
use crate::comparison::{
    compare_to_baseline, holm_adjusted_p_values, rank_measures, PairwiseComparison,
};
use crate::journal::{read_journal, Journal, JournalEntry};
use crate::parallel::parallel_map;
use crate::request::Eval;
use crate::study::{Entrant, StudyReport};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::Dataset;

/// Knobs of a [`CellRunner`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Study identifier (journal lines are tagged with it; replay ignores
    /// lines from other studies sharing a journal file).
    pub study: String,
    /// Wall-clock deadline per cell attempt; `None` disables the
    /// watchdog.
    pub deadline: Option<Duration>,
    /// How many times a *failed* (not timed-out) cell is re-attempted.
    pub max_retries: usize,
    /// Sleep between retry attempts.
    pub retry_backoff: Duration,
    /// Stop executing new cells after this many have started (remaining
    /// cells report [`CellOutcome::Skipped`]). Used by the smoke test to
    /// simulate a kill mid-study; replayed cells don't count.
    pub max_cells: Option<usize>,
    /// Evaluate cells through the cutoff-threaded pruned 1-NN search
    /// (the pruned evaluation core behind the `Eval` builder) instead of
    /// the full-matrix path. Healthy cells produce byte-identical
    /// evaluations (and therefore byte-identical journals, modulo the
    /// timing field); only the work done per cell changes.
    pub pruned: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            study: "study".into(),
            deadline: None,
            max_retries: 0,
            retry_backoff: Duration::from_millis(50),
            max_cells: None,
            pruned: false,
        }
    }
}

impl RunnerConfig {
    /// A config named `study` with every knob at its default.
    pub fn named(study: impl Into<String>) -> Self {
        RunnerConfig {
            study: study.into(),
            ..RunnerConfig::default()
        }
    }

    /// Sets the per-attempt wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the failed-cell retry budget.
    pub fn with_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the sleep between retries.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Caps how many cells execute this run.
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Routes cells through the pruned (early-abandoning) 1-NN search.
    pub fn with_pruned(mut self) -> Self {
        self.pruned = true;
        self
    }
}

/// Executes cells with panic isolation, deadlines, retries, and an
/// optional journal for resume.
pub struct CellRunner {
    config: RunnerConfig,
    journal: Option<Journal>,
    /// Cells already completed (from journal replay or this run), keyed
    /// by cell key: `(evaluation, original seconds)`.
    completed: Mutex<BTreeMap<String, (Evaluation, f64)>>,
    /// Cells that have *started* executing this run (for `max_cells`).
    started: AtomicUsize,
    /// Unparseable journal lines tolerated during replay.
    corrupt_journal_lines: usize,
}

impl CellRunner {
    /// An in-memory runner (no journal, nothing to resume).
    pub fn new(config: RunnerConfig) -> CellRunner {
        CellRunner {
            config,
            journal: None,
            completed: Mutex::new(BTreeMap::new()),
            started: AtomicUsize::new(0),
            corrupt_journal_lines: 0,
        }
    }

    /// A journaled runner: replays `path` (missing file = fresh study),
    /// then appends every newly executed cell to it. Only `ok` entries
    /// are authoritative — failed and timed-out cells re-run on resume.
    pub fn journaled(config: RunnerConfig, path: impl AsRef<Path>) -> std::io::Result<CellRunner> {
        let replay = read_journal(path.as_ref())?;
        let mut completed = BTreeMap::new();
        for entry in replay.entries {
            if entry.study != config.study {
                continue;
            }
            // Last entry per cell wins.
            match entry.outcome {
                CellOutcome::Ok(e) => {
                    completed.insert(entry.cell, (e, entry.seconds));
                }
                _ => {
                    completed.remove(&entry.cell);
                }
            }
        }
        let journal = Journal::open(path.as_ref())?;
        Ok(CellRunner {
            config,
            journal: Some(journal),
            completed: Mutex::new(completed),
            started: AtomicUsize::new(0),
            corrupt_journal_lines: replay.corrupt_lines,
        })
    }

    /// The runner's configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// How many cells were replayed from the journal (before any
    /// `run_cell` call of this run).
    pub fn replayed_cells(&self) -> usize {
        self.completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Unparseable journal lines skipped during replay (e.g. a line
    /// truncated when the previous run was killed mid-append).
    pub fn corrupt_journal_lines(&self) -> usize {
        self.corrupt_journal_lines
    }

    /// Runs one cell: replays it if the journal already has it, skips it
    /// past `max_cells`, and otherwise executes `f` under panic
    /// isolation, the configured deadline, and the retry budget. The
    /// final outcome (never `Skipped`) is journaled.
    pub fn run_cell<F>(&self, key: &str, f: F) -> CellResult
    where
        F: Fn(&CancelFlag) -> Result<Evaluation, CellError>,
    {
        if let Some(&(evaluation, seconds)) = self
            .completed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
        {
            return CellResult {
                key: key.to_string(),
                outcome: CellOutcome::Ok(evaluation),
                seconds,
            };
        }

        if let Some(max) = self.config.max_cells {
            if self.started.fetch_add(1, Ordering::SeqCst) >= max {
                return CellResult {
                    key: key.to_string(),
                    outcome: CellOutcome::Skipped,
                    seconds: 0.0,
                };
            }
        }

        let mut attempt = 0;
        let (outcome, seconds) = loop {
            let (outcome, seconds) = self.execute_once(&f);
            match &outcome {
                CellOutcome::Failed(_) if attempt < self.config.max_retries => {
                    attempt += 1;
                    std::thread::sleep(self.config.retry_backoff);
                }
                _ => break (outcome, seconds),
            }
        };

        if let CellOutcome::Ok(evaluation) = &outcome {
            self.completed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key.to_string(), (*evaluation, seconds));
        }
        if let Some(journal) = &self.journal {
            let entry = JournalEntry {
                study: self.config.study.clone(),
                cell: key.to_string(),
                outcome: outcome.clone(),
                seconds,
            };
            if let Err(err) = journal.append(&entry) {
                eprintln!(
                    "warning: journal append failed for cell {key}: {err} \
                     (study continues; this cell will re-run on resume)"
                );
            }
        }
        CellResult {
            key: key.to_string(),
            outcome,
            seconds,
        }
    }

    /// One supervised attempt: arm the watchdog, run under
    /// `catch_unwind`, classify the result.
    fn execute_once<F>(&self, f: &F) -> (CellOutcome, f64)
    where
        F: Fn(&CancelFlag) -> Result<Evaluation, CellError>,
    {
        let flag = CancelFlag::new();
        let _watchdog = self
            .config
            .deadline
            .map(|deadline| Watchdog::arm(&flag, deadline));
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| f(&flag)));
        let seconds = start.elapsed().as_secs_f64();
        let outcome = match caught {
            Ok(Ok(evaluation)) => CellOutcome::Ok(evaluation),
            Ok(Err(CellError::DeadlineExceeded)) => CellOutcome::TimedOut,
            Ok(Err(err)) => CellOutcome::Failed(err),
            Err(payload) => {
                // An unwind with the flag raised is the watchdog firing
                // mid-kernel (the guarded wrappers unwind with
                // `CancelPanic`); anything else is a real failure.
                if flag.is_cancelled() || payload.downcast_ref::<CancelPanic>().is_some() {
                    CellOutcome::TimedOut
                } else {
                    CellOutcome::Failed(CellError::Panicked {
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        };
        (outcome, seconds)
    }

    /// One entrant's column: a [`run_cell`](CellRunner::run_cell) per
    /// dataset of `archive`, keyed [`cell_key`]`(entrant, dataset)`, the
    /// datasets in parallel. `f` evaluates one dataset and should forward
    /// the [`CancelFlag`] into the cancellable cores.
    pub fn column<F>(&self, archive: &[Dataset], entrant: &str, f: F) -> Vec<CellResult>
    where
        F: Fn(&Dataset, &CancelFlag) -> Result<Evaluation, CellError> + Sync,
    {
        parallel_map(archive.len(), |i| {
            let ds = &archive[i];
            self.run_cell(&cell_key(entrant, &ds.name), |flag| f(ds, flag))
        })
    }

    /// The column of an unsupervised distance measure: each cell is one
    /// dataset-mode [`Eval`] of `d` under `norm`, cancelled by the cell's
    /// flag and pruned as the config says. A measure panic is reported as
    /// [`CellError::Panicked`] with the panic's message, a deadline as
    /// [`CellOutcome::TimedOut`].
    pub fn distance_column(
        &self,
        archive: &[Dataset],
        entrant: &str,
        d: &dyn Distance,
        norm: Normalization,
    ) -> Vec<CellResult> {
        self.column(archive, entrant, |ds, flag| {
            let report = Eval::new(d)
                .on(ds)
                .normalized(norm)
                .pruned(self.config.pruned)
                .cancelled_by(flag)
                .run()?;
            // Dataset mode always reports an accuracy.
            Ok(Evaluation::unsupervised(
                report.accuracy.unwrap_or(f64::NAN),
            ))
        })
    }
}

/// Renders a panic payload: the `&str` / `String` message when there is
/// one (the overwhelmingly common case), a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A study run fault-tolerantly: every cell's typed outcome, plus the
/// statistical report computed over the surviving subset.
pub struct RobustStudyReport {
    /// Entrant names, baseline first (input order).
    pub names: Vec<String>,
    /// Dataset names (input order).
    pub dataset_names: Vec<String>,
    /// `cells[entrant][dataset]`.
    pub cells: Vec<Vec<CellResult>>,
    /// Indices (into `names`) of entrants with at least one completed
    /// cell.
    pub surviving_entrants: Vec<usize>,
    /// Indices (into `dataset_names`) of datasets every surviving entrant
    /// completed — the subset rankings are computed over.
    pub surviving_datasets: Vec<usize>,
    /// The statistical report over the surviving subset; `None` when the
    /// baseline (the first entrant) died, fewer than two entrants
    /// survived, or no dataset is complete.
    pub report: Option<StudyReport>,
}

impl RobustStudyReport {
    /// Counts of (ok, failed, timed-out, skipped) cells.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for cell in self.cells.iter().flatten() {
            match cell.outcome {
                CellOutcome::Ok(_) => counts.0 += 1,
                CellOutcome::Failed(_) => counts.1 += 1,
                CellOutcome::TimedOut => counts.2 += 1,
                CellOutcome::Skipped => counts.3 += 1,
            }
        }
        counts
    }

    /// The surviving entrants' accuracies over the surviving datasets,
    /// in entrant order.
    pub fn columns(&self) -> Vec<(String, Vec<f64>)> {
        self.surviving_entrants
            .iter()
            .map(|&e| {
                let accuracies = self
                    .surviving_datasets
                    .iter()
                    .map(|&d| {
                        self.cells[e][d]
                            .outcome
                            .evaluation()
                            .map_or(f64::NAN, |ev| ev.accuracy)
                    })
                    .collect();
                (self.names[e].clone(), accuracies)
            })
            .collect()
    }

    /// One line per cell that did not complete, in grid order.
    fn fault_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .flatten()
            .filter_map(|cell| match &cell.outcome {
                CellOutcome::Ok(_) => None,
                CellOutcome::Failed(err) => Some(format!("  FAILED   {}: {err}", cell.key)),
                CellOutcome::TimedOut => Some(format!("  TIMEOUT  {}", cell.key)),
                CellOutcome::Skipped => Some(format!("  SKIPPED  {}", cell.key)),
            })
            .collect()
    }

    /// The fault note an artifact appends: every cell that did not
    /// complete, the dropped entrants and how many datasets the rankings
    /// cover. Empty when every cell completed, so healthy runs write
    /// byte-identical artifacts.
    pub fn fault_note(&self) -> String {
        let lines = self.fault_lines();
        if lines.is_empty() {
            return String::new();
        }
        let mut note = format!(
            "\nfault summary: {} of {} cells did not complete\n",
            lines.len(),
            self.names.len() * self.dataset_names.len()
        );
        for line in &lines {
            note.push_str(line);
            note.push('\n');
        }
        let dead: Vec<&str> = (0..self.names.len())
            .filter(|e| !self.surviving_entrants.contains(e))
            .map(|e| self.names[e].as_str())
            .collect();
        if !dead.is_empty() {
            note.push_str(&format!(
                "dropped entrants (zero completed cells): {}\n",
                dead.join(", ")
            ));
        }
        note.push_str(&format!(
            "rankings cover {} of {} datasets\n",
            self.surviving_datasets.len(),
            self.dataset_names.len()
        ));
        note
    }

    /// Renders the fault summary plus (when available) the surviving-
    /// subset tables. Deterministic: contains no timing data, so an
    /// interrupted-and-resumed study renders byte-identically to an
    /// uninterrupted one.
    pub fn render(&self, title: &str) -> String {
        let (ok, failed, timed_out, skipped) = self.outcome_counts();
        let total = ok + failed + timed_out + skipped;
        let mut out = format!(
            "== {title} ==\ncells: {ok} ok, {failed} failed, {timed_out} timed out, \
             {skipped} skipped (of {total})\n"
        );
        for line in self.fault_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        match &self.report {
            Some(report) => {
                out.push_str(&format!(
                    "ranking over N = {} of {} datasets, {} of {} entrants\n\n",
                    self.surviving_datasets.len(),
                    self.dataset_names.len(),
                    self.surviving_entrants.len(),
                    self.names.len(),
                ));
                out.push_str(&report.render(title));
            }
            None => {
                out.push_str("no surviving subset to rank (insufficient completed cells)\n");
            }
        }
        out
    }
}

/// The journal/report key of one cell.
pub fn cell_key(entrant: &str, dataset: &str) -> String {
    format!("{entrant}::{dataset}")
}

/// Runs a study through `runner`: the
/// [`distance_column`](CellRunner::distance_column) of each entrant, then
/// [`summarize_cells`]. The first entrant is the baseline.
///
/// # Panics
/// Panics with fewer than two entrants or an empty archive (API misuse;
/// cell-level faults are *reported*, not panicked).
pub fn run_study_resumable(
    archive: &[Dataset],
    entrants: &[Entrant],
    runner: &CellRunner,
) -> RobustStudyReport {
    assert!(
        entrants.len() >= 2,
        "a study needs a baseline and at least one entrant"
    );
    assert!(!archive.is_empty(), "empty archive");

    let cells: Vec<Vec<CellResult>> = entrants
        .iter()
        .map(|e| runner.distance_column(archive, &e.name, e.measure.as_ref(), e.normalization))
        .collect();
    let names: Vec<String> = entrants.iter().map(|e| e.name.clone()).collect();
    let dataset_names: Vec<String> = archive.iter().map(|d| d.name.clone()).collect();
    summarize_cells(names, dataset_names, cells)
}

/// Builds the surviving-subset report from an executed cell grid
/// (`cells[entrant][dataset]`, baseline first): the entrants with at
/// least one completed cell survive, and the datasets every survivor
/// completed are kept. A dead baseline leaves the subset as it is and
/// only the statistical `report` empty.
pub fn summarize_cells(
    names: Vec<String>,
    dataset_names: Vec<String>,
    cells: Vec<Vec<CellResult>>,
) -> RobustStudyReport {
    let surviving_entrants: Vec<usize> = (0..names.len())
        .filter(|&e| cells[e].iter().any(|c| c.outcome.is_ok()))
        .collect();
    let surviving_datasets: Vec<usize> = (0..dataset_names.len())
        .filter(|&d| {
            surviving_entrants
                .iter()
                .all(|&e| cells[e][d].outcome.is_ok())
        })
        .collect();
    let mut robust = RobustStudyReport {
        names,
        dataset_names,
        cells,
        surviving_entrants,
        surviving_datasets,
        report: None,
    };
    let rankable = robust.surviving_entrants.first() == Some(&0)
        && robust.surviving_entrants.len() >= 2
        && !robust.surviving_datasets.is_empty();
    if rankable {
        let (names, accuracies): (Vec<String>, Vec<Vec<f64>>) =
            robust.columns().into_iter().unzip();
        let baseline = &accuracies[0];
        let rows: Vec<PairwiseComparison> = names
            .iter()
            .zip(&accuracies)
            .skip(1)
            .map(|(name, accs)| compare_to_baseline(name.clone(), accs, baseline))
            .collect();
        let holm_adjusted = holm_adjusted_p_values(&rows);
        let table: Vec<Vec<f64>> = (0..robust.surviving_datasets.len())
            .map(|d| accuracies.iter().map(|col| col[d]).collect())
            .collect();
        let ranking = rank_measures(&names, &table);
        robust.report = Some(StudyReport {
            names,
            accuracies,
            rows,
            holm_adjusted,
            ranking,
        });
    }
    robust
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_cell(key: &str, accuracy: f64) -> CellResult {
        CellResult {
            key: key.into(),
            outcome: CellOutcome::Ok(Evaluation::unsupervised(accuracy)),
            seconds: 0.1,
        }
    }

    fn failed_cell(key: &str) -> CellResult {
        CellResult {
            key: key.into(),
            outcome: CellOutcome::Failed(CellError::Panicked {
                message: "boom".into(),
            }),
            seconds: 0.1,
        }
    }

    #[test]
    fn run_cell_isolates_panics() {
        let runner = CellRunner::new(RunnerConfig::default());
        let result = runner.run_cell("p::d", |_| panic!("kaboom"));
        match result.outcome {
            CellOutcome::Failed(CellError::Panicked { message }) => {
                assert!(message.contains("kaboom"));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn run_cell_times_out_cooperatively() {
        let config = RunnerConfig::default().with_deadline(Duration::from_millis(20));
        let runner = CellRunner::new(config);
        let result = runner.run_cell("slow::d", |flag| loop {
            flag.checkpoint()?;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(result.outcome, CellOutcome::TimedOut);
    }

    #[test]
    fn run_cell_retries_failed_cells() {
        let config = RunnerConfig::default()
            .with_retries(2)
            .with_backoff(Duration::from_millis(1));
        let runner = CellRunner::new(config);
        let attempts = AtomicUsize::new(0);
        let result = runner.run_cell("flaky::d", |_| {
            if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt fails");
            }
            Ok(Evaluation::unsupervised(0.5))
        });
        assert!(result.outcome.is_ok());
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn timeouts_are_not_retried() {
        let config = RunnerConfig::default().with_retries(3);
        let runner = CellRunner::new(config);
        let attempts = AtomicUsize::new(0);
        let result = runner.run_cell("slow::d", |_| {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err(CellError::DeadlineExceeded)
        });
        assert_eq!(result.outcome, CellOutcome::TimedOut);
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn max_cells_skips_without_journaling() {
        let config = RunnerConfig::default().with_max_cells(1);
        let runner = CellRunner::new(config);
        let first = runner.run_cell("a::d", |_| Ok(Evaluation::unsupervised(1.0)));
        let second = runner.run_cell("b::d", |_| Ok(Evaluation::unsupervised(1.0)));
        assert!(first.outcome.is_ok());
        assert_eq!(second.outcome, CellOutcome::Skipped);
    }

    #[test]
    fn completed_cells_replay_within_a_run() {
        let runner = CellRunner::new(RunnerConfig::default());
        let calls = AtomicUsize::new(0);
        for _ in 0..3 {
            let r = runner.run_cell("same::cell", |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(Evaluation::unsupervised(0.25))
            });
            assert!(r.outcome.is_ok());
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn surviving_subset_drops_dead_entrants_then_incomplete_datasets() {
        let names = vec!["base".to_string(), "dead".to_string(), "half".to_string()];
        let datasets = vec!["d0".to_string(), "d1".to_string()];
        let cells = vec![
            vec![ok_cell("base::d0", 0.9), ok_cell("base::d1", 0.8)],
            vec![failed_cell("dead::d0"), failed_cell("dead::d1")],
            vec![ok_cell("half::d0", 0.7), failed_cell("half::d1")],
        ];
        let report = summarize_cells(names, datasets, cells);
        // "dead" has zero completed cells and is dropped from the
        // ranking; "half" survives, restricting the datasets to d0.
        assert_eq!(report.surviving_entrants, vec![0, 2]);
        assert_eq!(report.surviving_datasets, vec![0]);
        let inner = report.report.as_ref().expect("subset is rankable");
        assert_eq!(inner.names, vec!["base".to_string(), "half".to_string()]);
        let text = report.render("Robust");
        assert!(text.contains("N = 1 of 2 datasets"));
        assert!(text.contains("FAILED   dead::d0"));
    }

    #[test]
    fn dead_baseline_yields_no_report() {
        let names = vec!["base".to_string(), "other".to_string()];
        let datasets = vec!["d0".to_string()];
        let cells = vec![
            vec![failed_cell("base::d0")],
            vec![ok_cell("other::d0", 0.9)],
        ];
        let report = summarize_cells(names, datasets, cells);
        assert!(report.report.is_none());
        assert!(report.render("Robust").contains("no surviving subset"));
    }

    fn quick_archive() -> Vec<Dataset> {
        tsdist_data::synthetic::generate_archive(&tsdist_data::synthetic::ArchiveConfig::quick(
            3, 20,
        ))
    }

    fn summarize(archive: &[Dataset], columns: Vec<(&str, Vec<CellResult>)>) -> RobustStudyReport {
        let (names, cells) = columns
            .into_iter()
            .map(|(name, cells)| (name.to_string(), cells))
            .unzip();
        summarize_cells(
            names,
            archive.iter().map(|d| d.name.clone()).collect(),
            cells,
        )
    }

    #[test]
    fn robust_columns_reduce_to_surviving_subset() {
        use tsdist_core::chaos::{ChaosDistance, Fault, Schedule};
        use tsdist_core::lockstep::Euclidean;

        let archive = quick_archive();
        let runner = CellRunner::new(RunnerConfig::named("column-test"));
        let norm = Normalization::ZScore;
        let chaos = ChaosDistance::new(Euclidean, Fault::Panic, Schedule::Always);
        let healthy = runner.column(&archive, "ED", |ds, flag| {
            let report = Eval::new(&Euclidean)
                .on(ds)
                .normalized(norm)
                .cancelled_by(flag)
                .run()?;
            Ok(Evaluation::unsupervised(
                report.accuracy.unwrap_or(f64::NAN),
            ))
        });
        let dead = runner.distance_column(&archive, "Chaos", &chaos, norm);
        let study = summarize(&archive, vec![("ED", healthy.clone()), ("Chaos", dead)]);
        // The dead entrant is dropped; the healthy one keeps every dataset.
        let columns = study.columns();
        assert_eq!(columns.len(), 1);
        assert_eq!(study.surviving_datasets, vec![0, 1, 2]);
        let note = study.fault_note();
        assert!(note.contains("3 of 6 cells did not complete"));
        assert!(note.contains("dropped entrants"));
        let direct: Vec<f64> = archive
            .iter()
            .map(|ds| {
                Eval::new(&Euclidean)
                    .on(ds)
                    .run()
                    .unwrap()
                    .accuracy
                    .unwrap()
            })
            .collect();
        assert_eq!(columns[0], ("ED".to_string(), direct));

        // A fully healthy study renders no note at all.
        let clean = summarize(&archive, vec![("ED", healthy)]);
        assert!(clean.fault_note().is_empty());
        assert_eq!(clean.columns().len(), 1);
    }

    #[test]
    fn dead_first_entrant_keeps_the_subset() {
        // figure3's layout: the ranked entrants come first, the reference
        // last, and the first one may die without emptying the subset.
        let names = vec!["dead".to_string(), "a".to_string(), "b".to_string()];
        let datasets = vec!["d0".to_string(), "d1".to_string()];
        let cells = vec![
            vec![failed_cell("dead::d0"), failed_cell("dead::d1")],
            vec![ok_cell("a::d0", 0.9), ok_cell("a::d1", 0.8)],
            vec![ok_cell("b::d0", 0.7), failed_cell("b::d1")],
        ];
        let study = summarize_cells(names, datasets, cells);
        assert_eq!(study.surviving_entrants, vec![1, 2]);
        assert_eq!(study.surviving_datasets, vec![0]);
        assert!(study.report.is_none());
        assert_eq!(
            study.columns(),
            vec![("a".to_string(), vec![0.9]), ("b".to_string(), vec![0.7])]
        );
        let note = study.fault_note();
        assert!(note.contains("3 of 6 cells did not complete"));
        assert!(note.contains("dropped entrants (zero completed cells): dead\n"));
        assert!(note.ends_with("rankings cover 1 of 2 datasets\n"));
    }

    #[test]
    fn distance_column_cells_equal_eval_and_keep_their_fault_outcomes() {
        use crate::evaluator::{distance_cell, prepare};
        use tsdist_core::elastic::Msm;
        use tsdist_core::lockstep::Euclidean;
        use tsdist_core::Workspace;

        struct Slow;
        impl Distance for Slow {
            fn name(&self) -> String {
                "slow".into()
            }
            fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
                std::thread::sleep(Duration::from_millis(2));
                Euclidean.distance(x, y)
            }
        }
        struct Boom;
        impl Distance for Boom {
            fn name(&self) -> String {
                "boom".into()
            }
            fn distance_ws(&self, _: &[f64], _: &[f64], _: &mut Workspace) -> f64 {
                panic!("injected fault")
            }
        }

        let archive = quick_archive();
        let msm = Msm::new(0.5);
        for pruned in [false, true] {
            for norm in [Normalization::ZScore, Normalization::MinMax] {
                let mut config = RunnerConfig::named("eval-bits");
                if pruned {
                    config = config.with_pruned();
                }
                for d in [&msm as &dyn Distance, &Boom] {
                    let column =
                        CellRunner::new(config.clone()).distance_column(&archive, "m", d, norm);
                    // The direct cell the runner's study loop ran before
                    // it went through `Eval`.
                    let direct = CellRunner::new(config.clone());
                    for (ds, cell) in archive.iter().zip(&column) {
                        let want = direct.run_cell(&cell.key, |flag| {
                            distance_cell(d, &prepare(ds, norm), norm, flag, None, pruned)
                        });
                        assert_eq!(cell.outcome, want.outcome, "{}", cell.key);
                        match &cell.outcome {
                            CellOutcome::Ok(e) => {
                                let eval = Eval::new(d).on(ds).normalized(norm).pruned(pruned);
                                let accuracy = eval.run().unwrap().accuracy.unwrap();
                                assert_eq!(e.accuracy.to_bits(), accuracy.to_bits());
                            }
                            CellOutcome::Failed(CellError::Panicked { message }) => {
                                assert_eq!(message, "injected fault");
                            }
                            other => panic!("unexpected outcome {other:?}"),
                        }
                    }
                }
            }
        }

        let runner =
            CellRunner::new(RunnerConfig::default().with_deadline(Duration::from_millis(20)));
        let slow = runner.distance_column(&archive[..1], "slow", &Slow, Normalization::ZScore);
        assert_eq!(slow[0].outcome, CellOutcome::TimedOut);
    }

    #[test]
    fn journaled_runner_replays_ok_cells_only() {
        let dir = std::env::temp_dir().join("tsdist_runner_replay");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("j.ndjson");
        let config = RunnerConfig::named("replay-test");

        let first = CellRunner::journaled(config.clone(), &path).expect("journal opens");
        let ok = first.run_cell("good::d", |_| Ok(Evaluation::unsupervised(0.75)));
        let bad = first.run_cell("bad::d", |_| panic!("boom"));
        assert!(ok.outcome.is_ok());
        assert!(matches!(bad.outcome, CellOutcome::Failed(_)));
        drop(first);

        let second = CellRunner::journaled(config, &path).expect("journal reopens");
        assert_eq!(second.replayed_cells(), 1);
        let calls = AtomicUsize::new(0);
        let replayed = second.run_cell("good::d", |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(Evaluation::unsupervised(0.0))
        });
        // The journaled accuracy is authoritative; the closure never runs.
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(
            replayed.outcome,
            CellOutcome::Ok(Evaluation::unsupervised(0.75))
        );
        // The failed cell re-runs.
        let rerun = second.run_cell("bad::d", |_| Ok(Evaluation::unsupervised(0.5)));
        assert!(rerun.outcome.is_ok());
    }
}
