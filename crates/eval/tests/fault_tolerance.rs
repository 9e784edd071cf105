//! Fault-injection suite for the resumable cell runner: chaos measures
//! (panics, NaN, delays), deadline enforcement, retry recovery, journal
//! kill/resume equivalence, the lenient archive loader feeding a study
//! over the surviving datasets, and the cancellation granularity of
//! guarded matrix rows and of the indexed scan's lane blocks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use tsdist_core::chaos::{ChaosDistance, Fault, Schedule};
use tsdist_core::elastic::{Dtw, Msm};
use tsdist_core::lanes::LANES;
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::{IndexProfile, TrainIndex, Workspace};
use tsdist_data::synthetic::{generate_archive, generate_dataset, ArchiveConfig};
use tsdist_data::ucr::write_ucr_dataset;
use tsdist_data::{load_ucr_archive_lenient, Dataset};
use tsdist_eval::cell::{CancelPanic, GuardedDistance};
use tsdist_eval::{
    cell_key, distance_matrix, prepare, run_study_resumable, worker_count, CancelFlag, CellError,
    CellOutcome, CellRunner, Entrant, Eval, EvalError, Evaluation, RunnerConfig,
};

/// One z-scored 1-NN cell on `ds` through the `Eval` builder, cancelled
/// by the runner's flag: what a cell closure of a study runs.
fn eval_cell(d: &dyn Distance, ds: &Dataset, flag: &CancelFlag) -> Result<Evaluation, CellError> {
    let report = Eval::new(d)
        .on(ds)
        .normalized(Normalization::ZScore)
        .cancelled_by(flag)
        .run()?;
    Ok(Evaluation::unsupervised(
        report.accuracy.unwrap_or(f64::NAN),
    ))
}

fn quick_archive(n: usize) -> Vec<Dataset> {
    generate_archive(&ArchiveConfig::quick(n, 42))
}

fn healthy_entrants() -> Vec<Entrant> {
    vec![
        Entrant::new(Box::new(Euclidean)),
        Entrant::new(Box::new(Lorentzian)),
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tsdist_fault_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn chaos_panic_cells_fail_while_healthy_cells_are_bit_identical() {
    let archive = quick_archive(3);

    let mut entrants = healthy_entrants();
    entrants.push(Entrant::new(Box::new(ChaosDistance::new(
        Euclidean,
        Fault::Panic,
        Schedule::Always,
    ))));

    let runner = CellRunner::new(RunnerConfig::named("chaos-panic"));
    let robust = run_study_resumable(&archive, &entrants, &runner);

    // Every chaos cell failed with the injected panic message...
    for cell in &robust.cells[2] {
        match &cell.outcome {
            CellOutcome::Failed(CellError::Panicked { message }) => {
                assert!(message.contains("chaos: injected panic"), "{message}");
            }
            other => panic!("chaos cell should fail, got {other:?}"),
        }
    }
    // ...the chaos entrant is excluded, every dataset survives...
    assert_eq!(robust.surviving_entrants, vec![0, 1]);
    assert_eq!(robust.surviving_datasets, vec![0, 1, 2]);

    // ...and the healthy entrants are bit-identical to a chaos-free run.
    let clean_runner = CellRunner::new(RunnerConfig::default());
    let clean = run_study_resumable(&archive, &healthy_entrants(), &clean_runner);
    let clean = clean.report.expect("a chaos-free study is rankable");
    let report = robust.report.as_ref().expect("healthy subset is rankable");
    for (robust_col, clean_col) in report.accuracies.iter().zip(&clean.accuracies) {
        for (a, b) in robust_col.iter().zip(clean_col) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    let text = robust.render("Chaos study");
    assert!(text.contains("3 failed"));
    assert!(text.contains("N = 3 of 3 datasets, 2 of 3 entrants"));
}

#[test]
fn nan_cells_are_classified_as_non_finite_distance() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 7), 0);
    let chaos = ChaosDistance::new(Euclidean, Fault::Value(f64::NAN), Schedule::Always);
    let runner = CellRunner::new(RunnerConfig::named("chaos-nan"));
    let result = runner.run_cell(&cell_key("Chaos(ED)", &ds.name), |flag| {
        eval_cell(&chaos, &ds, flag)
    });
    assert!(
        matches!(
            result.outcome,
            CellOutcome::Failed(CellError::NonFiniteDistance { .. })
        ),
        "got {:?}",
        result.outcome
    );
}

#[test]
fn delayed_cells_blow_the_deadline_and_report_timeout() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 9), 0);
    // Each pairwise call sleeps 5ms; a quick dataset has hundreds of
    // pairs, so the 15ms deadline fires long before the matrix is done.
    let chaos = ChaosDistance::new(
        Euclidean,
        Fault::Delay(Duration::from_millis(5)),
        Schedule::Always,
    );
    let config = RunnerConfig::named("chaos-slow").with_deadline(Duration::from_millis(15));
    let runner = CellRunner::new(config);
    let result = runner.run_cell(&cell_key("Slow(ED)", &ds.name), |flag| {
        eval_cell(&chaos, &ds, flag)
    });
    assert_eq!(result.outcome, CellOutcome::TimedOut);
}

#[test]
fn retry_recovers_a_transiently_failing_cell() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 11), 0);
    // Only the very first distance call panics: the first attempt dies,
    // the retry runs entirely clean (the call counter is shared).
    let chaos = ChaosDistance::new(Euclidean, Fault::Panic, Schedule::FirstN(1));
    let config = RunnerConfig::named("chaos-flaky")
        .with_retries(1)
        .with_backoff(Duration::from_millis(1));
    let runner = CellRunner::new(config);
    let result = runner.run_cell(&cell_key("Flaky(ED)", &ds.name), |flag| {
        eval_cell(&chaos, &ds, flag)
    });

    let flag = CancelFlag::new();
    let clean = eval_cell(&Euclidean, &ds, &flag).expect("clean evaluation");
    match result.outcome {
        CellOutcome::Ok(Evaluation { accuracy, .. }) => {
            assert_eq!(accuracy.to_bits(), clean.accuracy.to_bits());
        }
        other => panic!("retried cell should recover, got {other:?}"),
    }
}

#[test]
fn killed_study_resumes_to_a_byte_identical_report_without_recomputing() {
    let archive = quick_archive(2);
    let entrants = healthy_entrants;
    let dir = temp_dir("resume");
    let journal = dir.join("journal.ndjson");

    // "Kill" the first run after one cell via max_cells.
    let killed = CellRunner::journaled(RunnerConfig::named("smoke").with_max_cells(1), &journal)
        .expect("journal opens");
    let partial = run_study_resumable(&archive, &entrants(), &killed);
    let (ok, _, _, skipped) = partial.outcome_counts();
    assert_eq!(ok, 1, "max_cells executes exactly one cell");
    assert_eq!(skipped, 3);
    assert!(partial.render("Smoke").contains("SKIPPED"));
    drop(killed);
    let lines_after_kill = std::fs::read_to_string(&journal)
        .expect("journal exists")
        .lines()
        .count();
    assert_eq!(lines_after_kill, 1, "only the executed cell is journaled");

    // Resume: the journaled cell replays, the other three run.
    let resumed =
        CellRunner::journaled(RunnerConfig::named("smoke"), &journal).expect("journal reopens");
    assert_eq!(resumed.replayed_cells(), 1);
    let resumed_report = run_study_resumable(&archive, &entrants(), &resumed);
    drop(resumed);

    // A fresh, uninterrupted run for comparison.
    let fresh_journal = dir.join("fresh.ndjson");
    let fresh = CellRunner::journaled(RunnerConfig::named("smoke"), &fresh_journal)
        .expect("fresh journal opens");
    let fresh_report = run_study_resumable(&archive, &entrants(), &fresh);

    assert_eq!(
        resumed_report.render("Smoke"),
        fresh_report.render("Smoke"),
        "kill-and-resume must render byte-identically to an uninterrupted run"
    );

    // 1 line from the killed run + 3 from the resume: the replayed cell
    // was not recomputed (a recompute would have appended a 5th line).
    let total_lines = std::fs::read_to_string(&journal)
        .expect("journal exists")
        .lines()
        .count();
    assert_eq!(total_lines, 4);
}

#[test]
fn truncated_journal_line_is_tolerated_on_resume() {
    let archive = quick_archive(2);
    let dir = temp_dir("truncated");
    let journal = dir.join("journal.ndjson");

    let first = CellRunner::journaled(RunnerConfig::named("trunc").with_max_cells(1), &journal)
        .expect("journal opens");
    let _ = run_study_resumable(&archive, &healthy_entrants(), &first);
    drop(first);

    // Simulate a kill mid-append: a partial line with no newline at EOF.
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("journal exists");
    write!(file, "{{\"study\":\"trunc\",\"cel").expect("append partial line");
    drop(file);

    let resumed = CellRunner::journaled(RunnerConfig::named("trunc"), &journal)
        .expect("corrupt journal still opens");
    assert_eq!(resumed.corrupt_journal_lines(), 1);
    assert_eq!(resumed.replayed_cells(), 1);
    let report = run_study_resumable(&archive, &healthy_entrants(), &resumed);
    let (ok, failed, timed_out, skipped) = report.outcome_counts();
    assert_eq!((ok, failed, timed_out, skipped), (4, 0, 0, 0));
    assert!(report.report.is_some());
}

#[test]
fn lenient_loader_feeds_a_study_over_the_surviving_datasets() {
    let dir = temp_dir("lenient");

    // Two healthy datasets in UCR layout...
    for (i, seed) in [(0usize, 3u64), (1, 5)] {
        let ds = generate_dataset(&ArchiveConfig::quick(1, seed), i % 7);
        let stem = ds.name.rsplit('/').next().unwrap_or(&ds.name).to_string();
        write_ucr_dataset(&ds, dir.join(&stem)).expect("write dataset");
    }
    // ...plus one with an unparseable train split.
    let bad = dir.join("Broken");
    std::fs::create_dir_all(&bad).expect("bad dir");
    std::fs::write(bad.join("Broken_TRAIN.tsv"), "1\t0.5\t<oops>\n").expect("bad train");
    std::fs::write(bad.join("Broken_TEST.tsv"), "1\t0.5\t0.6\n").expect("bad test");

    let lenient = load_ucr_archive_lenient(&dir).expect("lenient load");
    assert_eq!(lenient.datasets.len(), 2);
    assert_eq!(lenient.failures.len(), 1);
    assert_eq!(lenient.failures[0].name, "Broken");
    assert!(lenient.render_report().contains("FAILED Broken"));

    let runner = CellRunner::new(RunnerConfig::named("lenient"));
    let robust = run_study_resumable(&lenient.datasets, &healthy_entrants(), &runner);
    let (ok, failed, timed_out, skipped) = robust.outcome_counts();
    assert_eq!((ok, failed, timed_out, skipped), (4, 0, 0, 0));
    let report = robust.report.as_ref().expect("survivors are rankable");
    assert_eq!(report.accuracies[0].len(), 2);
}

#[test]
fn deadline_applies_per_cell_not_per_study() {
    // Two healthy cells, each well under the deadline individually; the
    // study must complete even though the *total* exceeds nothing.
    let archive = quick_archive(2);
    let config = RunnerConfig::named("deadline").with_deadline(Duration::from_secs(30));
    let runner = CellRunner::new(config);
    let calls = AtomicUsize::new(0);
    for ds in &archive {
        let result = runner.run_cell(&cell_key("ED", &ds.name), |flag| {
            calls.fetch_add(1, Ordering::SeqCst);
            eval_cell(&Euclidean, ds, flag)
        });
        assert!(result.outcome.is_ok());
    }
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

/// A per-pair measure (it keeps the default `distance_row_ws`) that
/// counts its calls and, once armed with a cancel flag, raises it on
/// call number `at`, the way a watchdog fires in the middle of a
/// matrix row.
struct CancelAt {
    flag: Mutex<Option<CancelFlag>>,
    at: usize,
    calls: AtomicUsize,
}

impl CancelAt {
    fn new(at: usize) -> Self {
        CancelAt {
            flag: Mutex::new(None),
            at,
            calls: AtomicUsize::new(0),
        }
    }

    fn arm(&self, flag: &CancelFlag) {
        *self.flag.lock().expect("flag lock") = Some(flag.clone());
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl Distance for CancelAt {
    fn name(&self) -> String {
        "CancelAt".into()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            if let Some(flag) = &*self.flag.lock().expect("flag lock") {
                flag.cancel();
            }
        }
        Euclidean.distance(x, y)
    }
}

#[test]
fn cancel_raised_mid_row_stops_the_guarded_row_within_one_chunk() {
    let flag = CancelFlag::new();
    // Raised on the 11th pair, inside the first chunk of the row.
    let measure = CancelAt::new(11);
    measure.arm(&flag);
    let guarded = GuardedDistance::new(&measure, &flag);
    let cols = vec![vec![0.5, 1.5, -1.0]; 5 * LANES];
    let mut out = vec![0.0; cols.len()];
    let mut ws = Workspace::new();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        guarded.distance_row_ws(&[0.0, 1.0, 2.0], &cols, &mut out, &mut ws);
    }))
    .expect_err("a raised flag must unwind the row");
    assert!(unwound.downcast_ref::<CancelPanic>().is_some());
    // The first chunk (`MAX_ROW_BLOCK` = 2 * LANES pairs) finishes, the
    // check before the second stops it.
    assert_eq!(measure.calls(), 2 * LANES);
}

#[test]
fn cancel_raised_mid_row_ends_the_cell_timed_out() {
    let ds = generate_dataset(&ArchiveConfig::quick(1, 13), 0);
    let pairs = ds.test.len() * ds.train.len();
    let runner = CellRunner::new(RunnerConfig::named("cancel-mid-row"));
    // Raised a few pairs into the second row of `E`.
    let measure = CancelAt::new(ds.train.len() + 3);
    let result = runner.run_cell(&cell_key("CancelAt(ED)", &ds.name), |flag| {
        measure.arm(flag);
        eval_cell(&measure, &ds, flag)
    });
    assert_eq!(result.outcome, CellOutcome::TimedOut);
    let calls = measure.calls();
    // Each matrix worker finishes at most its current chunk.
    let bound = ds.train.len() + 3 + LANES * tsdist_eval::worker_count();
    assert!(calls > 0 && calls <= bound, "{calls} calls, bound {bound}");
    assert!(calls < pairs, "the matrix must not run to completion");
}

#[test]
fn chaos_schedules_count_pairs_even_around_a_row_kernel() {
    // `ChaosDistance` keeps the per-pair row default, so wrapping MSM (a
    // measure with a batch-axis row kernel) still sees one call per
    // matrix cell, and the untouched cells are MSM's own bits.
    let mut g = 0.37f64;
    let mut series = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                g = (g * 3.7 + 0.11).fract();
                g * 4.0 - 2.0
            })
            .collect()
    };
    let rows: Vec<Vec<f64>> = (0..4).map(|_| series(16)).collect();
    let cols: Vec<Vec<f64>> = (0..19).map(|_| series(16)).collect();
    let msm = Msm::new(0.5);
    let flag = CancelFlag::new();
    let mut ws = Workspace::new();
    for (schedule, faults) in [
        (Schedule::FirstN(3), 3),
        (Schedule::EveryNth(5), 4 * 19 / 5),
    ] {
        let chaos = ChaosDistance::new(msm, Fault::Value(-7.0), schedule);
        let guarded = GuardedDistance::new(&chaos, &flag);
        let m = distance_matrix(&guarded, &rows, &cols);
        assert_eq!(chaos.calls(), rows.len() * cols.len(), "{schedule:?}");
        let injected = m.as_slice().iter().filter(|&&v| v == -7.0).count();
        assert_eq!(injected, faults, "{schedule:?}");
        for (i, x) in rows.iter().enumerate() {
            for (j, y) in cols.iter().enumerate() {
                let v = m[(i, j)];
                if v != -7.0 {
                    assert_eq!(v.to_bits(), msm.distance_ws(x, y, &mut ws).to_bits());
                }
            }
        }
    }
}

/// Banded DTW (index profile included, so indexed scans take the
/// Cascade) that counts its row-kernel calls and, once armed, raises the
/// cancel flag inside each: a deadline firing in a lane block.
struct CancelInBlock {
    dtw: Dtw,
    flag: Mutex<Option<CancelFlag>>,
    blocks: AtomicUsize,
}

impl Distance for CancelInBlock {
    fn name(&self) -> String {
        "CancelInBlock".into()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        self.dtw.distance_ws(x, y, ws)
    }
    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        self.dtw.distance_upto(x, y, ws, cutoff)
    }
    fn distance_row_ws(&self, x: &[f64], cols: &[Vec<f64>], out: &mut [f64], ws: &mut Workspace) {
        self.blocks.fetch_add(1, Ordering::SeqCst);
        if let Some(flag) = &*self.flag.lock().expect("flag lock") {
            flag.cancel();
        }
        self.dtw.distance_row_ws(x, cols, out, ws);
    }
    fn index_profile(&self) -> IndexProfile {
        self.dtw.index_profile()
    }
}

#[test]
fn cancel_raised_in_a_lane_block_ends_an_indexed_dtw_eval() {
    let raw = generate_dataset(&ArchiveConfig::quick(1, 13), 0);
    let ds = prepare(&raw, Normalization::ZScore);
    let measure = CancelInBlock {
        dtw: Dtw::with_window_pct(10.0),
        flag: Mutex::new(None),
        blocks: AtomicUsize::new(0),
    };
    let mut ix = TrainIndex::build(&ds.train);
    ix.prepare_measure(&measure, &ds.train);
    let flag = CancelFlag::new();
    let eval = Eval::new(&measure)
        .on(&ds)
        .assume_prepared(true)
        .indexed(&ix)
        .cancelled_by(&flag);
    // Unarmed, the Cascade runs its survivors in lane blocks.
    let healthy = eval.run().expect("an unarmed scan completes");
    assert!(healthy.accuracy.is_some());
    assert!(
        measure.blocks.swap(0, Ordering::SeqCst) > 0,
        "no lane block ran"
    );

    *measure.flag.lock().expect("flag lock") = Some(flag.clone());
    assert_eq!(eval.run(), Err(EvalError::DeadlineExceeded));
    // Each scan worker finishes at most the block it was in; the guarded
    // check before the next block (or lone survivor) unwinds.
    let blocks = measure.blocks.load(Ordering::SeqCst);
    assert!(
        (1..=worker_count()).contains(&blocks),
        "{blocks} blocks after the flag was raised"
    );
}

/// A test-only measure whose row override writes a sentinel, so a
/// wrapper that fails to forward `distance_row_ws` is caught.
struct RowSentinel;

impl Distance for RowSentinel {
    fn name(&self) -> String {
        "RowSentinel".into()
    }
    fn distance_ws(&self, _x: &[f64], _y: &[f64], _: &mut Workspace) -> f64 {
        0.0
    }
    fn distance_row_ws(
        &self,
        _x: &[f64],
        _cols: &[Vec<f64>],
        out: &mut [f64],
        _ws: &mut Workspace,
    ) {
        out.fill(4242.0);
    }
}

#[test]
fn guarded_distance_forwards_the_row_method_in_every_chunk() {
    let flag = CancelFlag::new();
    let guarded = GuardedDistance::new(&RowSentinel, &flag);
    let cols = vec![vec![1.0]; 2 * LANES + 3];
    let mut out = vec![0.0; cols.len()];
    guarded.distance_row_ws(&[1.0], &cols, &mut out, &mut Workspace::new());
    assert!(out.iter().all(|&v| v == 4242.0), "{out:?}");
}
