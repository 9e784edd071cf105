//! # tsdist-bench
//!
//! The reproduction harness: shared infrastructure for the per-table and
//! per-figure experiment binaries in `src/bin/` (see `DESIGN.md` for the
//! experiment index), plus two ledgers with bit-identity gates:
//! `bench_kernels` (`BENCH_kernels.json`, each vectorized kernel against
//! its scalar twin) and `bench_scan` (`BENCH_scan.json`, every
//! nearest-neighbour plan of `tsdist_eval::Scan` on the same data). The
//! end-to-end benchmark of record is the standalone `perfbench/` package.
//!
//! Every experiment binary accepts:
//!
//! * `--datasets N` — archive size (default 42, the paper uses 128),
//! * `--seed S` — archive seed (default 20),
//! * `--quick` — small datasets for smoke runs,
//! * `--out DIR` — results directory (default `results/`; the two
//!   ledgers default to the repository root, where they are committed).

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{
    cell_key, parallel_map, CancelFlag, CellError, CellOutcome, CellResult, CellRunner, Eval,
    Evaluation, RunnerConfig,
};

/// Configuration shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of synthetic datasets in the archive.
    pub n_datasets: usize,
    /// Archive seed.
    pub seed: u64,
    /// Use the small (CI-scale) dataset sizes.
    pub quick: bool,
    /// Directory for result files.
    pub out_dir: PathBuf,
    /// Journal per-cell outcomes to `<out>/<study>.journal.ndjson` so an
    /// interrupted binary resumes instead of recomputing.
    pub journal: bool,
    /// Optional per-cell wall-clock deadline in seconds.
    pub deadline_secs: Option<f64>,
    /// Retry budget for failed cells.
    pub retries: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            n_datasets: 42,
            seed: 20,
            quick: false,
            out_dir: PathBuf::from("results"),
            journal: false,
            deadline_secs: None,
            retries: 0,
        }
    }
}

impl ExperimentConfig {
    /// Parses `--datasets`, `--seed`, `--quick`, `--out`, `--journal`,
    /// `--deadline-secs`, `--retries` from the process arguments; unknown
    /// arguments abort with a usage message.
    pub fn from_args() -> Self {
        Self::parse_args(ExperimentConfig::default())
    }

    /// [`ExperimentConfig::from_args`] for the ledger binaries
    /// (`bench_scan`, `bench_kernels`): `--out` defaults to the
    /// repository root, where their `BENCH_*.json` files are committed,
    /// whatever the working directory.
    pub fn ledger_from_args() -> Self {
        Self::parse_args(ExperimentConfig {
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
            ..ExperimentConfig::default()
        })
    }

    fn parse_args(mut cfg: ExperimentConfig) -> Self {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--datasets" => {
                    cfg.n_datasets = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--datasets needs a positive integer"));
                }
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--quick" => cfg.quick = true,
                "--out" => {
                    cfg.out_dir = args
                        .next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory"));
                }
                "--journal" => cfg.journal = true,
                "--deadline-secs" => {
                    let secs: f64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--deadline-secs needs a number"));
                    if secs.is_nan() || secs <= 0.0 {
                        usage("--deadline-secs must be positive");
                    }
                    cfg.deadline_secs = Some(secs);
                }
                "--retries" => {
                    cfg.retries = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--retries needs a non-negative integer"));
                }
                other => usage(&format!("unknown argument {other:?}")),
            }
        }
        cfg
    }

    /// Builds the fault-tolerant cell runner for one experiment. With
    /// `--journal` the runner appends to `<out>/<study>.journal.ndjson` and
    /// replays any completed cells from a previous (possibly killed) run.
    pub fn runner(&self, study: &str) -> CellRunner {
        let mut config = RunnerConfig::named(study).with_retries(self.retries);
        if let Some(secs) = self.deadline_secs {
            config = config.with_deadline(Duration::from_secs_f64(secs));
        }
        if self.journal {
            let path = self.out_dir.join(format!("{study}.journal.ndjson"));
            match CellRunner::journaled(config.clone(), &path) {
                Ok(runner) => {
                    if runner.replayed_cells() > 0 {
                        eprintln!(
                            "[{study}] replayed {} completed cell(s) from {}",
                            runner.replayed_cells(),
                            path.display()
                        );
                    }
                    if runner.corrupt_journal_lines() > 0 {
                        eprintln!(
                            "[{study}] ignored {} corrupt journal line(s)",
                            runner.corrupt_journal_lines()
                        );
                    }
                    return runner;
                }
                Err(e) => eprintln!(
                    "warning: cannot open journal {}: {e}; running without one",
                    path.display()
                ),
            }
        }
        CellRunner::new(config)
    }

    /// Generates the experiment archive for this configuration.
    pub fn archive(&self) -> Vec<Dataset> {
        let archive_cfg = if self.quick {
            ArchiveConfig::quick(self.n_datasets, self.seed)
        } else {
            ArchiveConfig::standard(self.n_datasets, self.seed)
        };
        generate_archive(&archive_cfg)
    }

    /// Writes a result artifact to `<out>/<name>` and echoes it to stdout.
    pub fn save(&self, name: &str, content: &str) {
        std::fs::create_dir_all(&self.out_dir).expect("create results directory");
        let path = self.out_dir.join(name);
        std::fs::write(&path, content).expect("write result file");
        println!("{content}");
        eprintln!("[saved {}]", path.display());
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: <bin> [--datasets N] [--seed S] [--quick] [--out DIR] \
         [--journal] [--deadline-secs S] [--retries N]"
    );
    std::process::exit(2)
}

/// Per-dataset accuracies of a distance measure across an archive,
/// parallelized over datasets.
pub fn archive_accuracies(archive: &[Dataset], d: &dyn Distance, norm: Normalization) -> Vec<f64> {
    parallel_map(archive.len(), |i| {
        Eval::new(d)
            .on(&archive[i])
            .normalized(norm)
            .run()
            .expect("archive evaluation")
            .accuracy
            .expect("dataset mode reports accuracy")
    })
}

/// One experiment column: an entrant label plus its per-dataset cell
/// results (aligned with the archive order).
pub type RobustColumn = (String, Vec<CellResult>);

/// Runs one entrant over every dataset of the archive through the
/// fault-tolerant cell runner, parallelized over datasets. The closure
/// evaluates a single cell and should forward the [`CancelFlag`] into the
/// cancellable `evaluate_*` cores.
pub fn robust_column<F>(
    runner: &CellRunner,
    archive: &[Dataset],
    entrant: &str,
    eval: F,
) -> RobustColumn
where
    F: Fn(&Dataset, &CancelFlag) -> Result<Evaluation, CellError> + Sync,
{
    let cells = parallel_map(archive.len(), |i| {
        let ds = &archive[i];
        runner.run_cell(&cell_key(entrant, &ds.name), |flag| eval(ds, flag))
    });
    (entrant.to_string(), cells)
}

/// Robust per-dataset column for an unsupervised distance measure.
pub fn robust_distance_column(
    runner: &CellRunner,
    archive: &[Dataset],
    entrant: &str,
    d: &dyn Distance,
    norm: Normalization,
) -> RobustColumn {
    robust_column(runner, archive, entrant, |ds, flag| {
        Eval::new(d)
            .on(ds)
            .normalized(norm)
            .cancelled_by(flag)
            .run()
            .map(|report| {
                Evaluation::unsupervised(report.accuracy.expect("dataset mode reports accuracy"))
            })
            .map_err(CellError::from)
    })
}

/// Accuracy columns restricted to the surviving subset of a robust study:
/// entrants with at least one completed cell, over the datasets every
/// surviving entrant completed.
pub struct ReducedColumns {
    /// Archive indices of the datasets every surviving entrant completed.
    pub kept_datasets: Vec<usize>,
    /// Surviving entrants with their accuracies over `kept_datasets`.
    pub columns: Vec<(String, Vec<f64>)>,
    /// Human-readable fault summary; empty when every cell completed, so
    /// healthy runs produce byte-identical artifacts.
    pub note: String,
}

impl ReducedColumns {
    /// Accuracies of a surviving entrant by label.
    pub fn get(&self, entrant: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(name, _)| name == entrant)
            .map(|(_, accs)| accs.as_slice())
    }
}

/// Reduces robust columns to the surviving subset and renders the fault
/// note. Dead entrants (zero completed cells) are dropped first; then any
/// dataset a surviving entrant did not complete is excluded so rankings
/// stay paired.
pub fn reduce_columns(archive: &[Dataset], columns: &[RobustColumn]) -> ReducedColumns {
    let n_datasets = archive.len();
    let alive: Vec<bool> = columns
        .iter()
        .map(|(_, cells)| cells.iter().any(|c| c.outcome.is_ok()))
        .collect();
    let kept_datasets: Vec<usize> = (0..n_datasets)
        .filter(|&i| {
            columns
                .iter()
                .zip(&alive)
                .all(|((_, cells), &a)| !a || cells[i].outcome.is_ok())
        })
        .collect();

    let mut incomplete = Vec::new();
    for (_, cells) in columns {
        for cell in cells {
            match &cell.outcome {
                CellOutcome::Ok(_) => {}
                CellOutcome::Failed(err) => {
                    incomplete.push(format!("  FAILED   {}: {err}", cell.key));
                }
                CellOutcome::TimedOut => incomplete.push(format!("  TIMEOUT  {}", cell.key)),
                CellOutcome::Skipped => incomplete.push(format!("  SKIPPED  {}", cell.key)),
            }
        }
    }

    let mut note = String::new();
    if !incomplete.is_empty() {
        let total = columns.len() * n_datasets;
        note.push_str(&format!(
            "\nfault summary: {} of {total} cells did not complete\n",
            incomplete.len()
        ));
        for line in &incomplete {
            note.push_str(line);
            note.push('\n');
        }
        let dead: Vec<&str> = columns
            .iter()
            .zip(&alive)
            .filter(|(_, &a)| !a)
            .map(|((name, _), _)| name.as_str())
            .collect();
        if !dead.is_empty() {
            note.push_str(&format!(
                "dropped entrants (zero completed cells): {}\n",
                dead.join(", ")
            ));
        }
        note.push_str(&format!(
            "rankings cover {} of {n_datasets} datasets\n",
            kept_datasets.len()
        ));
    }

    let reduced: Vec<(String, Vec<f64>)> = columns
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|((name, cells), _)| {
            let accs = kept_datasets
                .iter()
                .map(|&i| match cells[i].outcome.evaluation() {
                    Some(e) => e.accuracy,
                    None => unreachable!("kept datasets are complete for surviving entrants"),
                })
                .collect();
            (name.clone(), accs)
        })
        .collect();

    ReducedColumns {
        kept_datasets,
        columns: reduced,
        note,
    }
}

/// Transposes entrant-major accuracy columns into the dataset-major matrix
/// shape expected by `rank_measures`.
pub fn ranking_matrix(columns: &[(String, Vec<f64>)]) -> (Vec<String>, Vec<Vec<f64>>) {
    let names: Vec<String> = columns.iter().map(|(name, _)| name.clone()).collect();
    let n_rows = columns.first().map_or(0, |(_, accs)| accs.len());
    let rows = (0..n_rows)
        .map(|i| columns.iter().map(|(_, accs)| accs[i]).collect())
        .collect();
    (names, rows)
}

/// Renders a critical-difference ranking over surviving accuracy columns,
/// falling back to a placeholder (plus the fault note) when too few cells
/// completed to rank anything — so a figure binary degrades instead of
/// panicking when a whole study faults out.
pub fn render_ranking(title: &str, columns: &[(String, Vec<f64>)], note: &str) -> String {
    let rankable = columns.len() >= 2 && columns.iter().all(|(_, accs)| !accs.is_empty());
    let mut out = if rankable {
        let (names, matrix) = ranking_matrix(columns);
        tsdist_eval::rank_measures(&names, &matrix).render(title)
    } else {
        format!("## {title}\nno surviving subset to rank (insufficient completed cells)\n")
    };
    out.push_str(note);
    out
}

/// Formats labelled value rows as a simple CSV block — used by the figure
/// binaries to emit plottable data.
pub fn csv_block(header: &str, rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for (label, values) in rows {
        out.push_str(label);
        for v in values {
            out.push_str(&format!(",{v:.6}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::lockstep::Euclidean;

    #[test]
    fn default_config_is_sane() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.n_datasets, 42);
        assert!(!cfg.quick);
    }

    #[test]
    fn quick_archive_generates_and_evaluates() {
        let cfg = ExperimentConfig {
            n_datasets: 3,
            quick: true,
            ..Default::default()
        };
        let archive = cfg.archive();
        assert_eq!(archive.len(), 3);
        let accs = archive_accuracies(&archive, &Euclidean, Normalization::ZScore);
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn csv_block_formats_rows() {
        let block = csv_block("name,a,b", &[("x".into(), vec![1.0, 2.0])]);
        assert!(block.starts_with("name,a,b\n"));
        assert!(block.contains("x,1.000000,2.000000"));
    }

    #[test]
    fn robust_columns_reduce_to_surviving_subset() {
        use tsdist_core::chaos::{ChaosDistance, Fault, Schedule};

        let cfg = ExperimentConfig {
            n_datasets: 3,
            quick: true,
            ..Default::default()
        };
        let archive = cfg.archive();
        let runner = cfg.runner("bench-lib-test");
        let norm = Normalization::ZScore;
        let chaos = ChaosDistance::new(Euclidean, Fault::Panic, Schedule::Always);
        let columns = vec![
            robust_distance_column(&runner, &archive, "ED", &Euclidean, norm),
            robust_distance_column(&runner, &archive, "Chaos", &chaos, norm),
        ];
        let reduced = reduce_columns(&archive, &columns);
        // The dead entrant is dropped; the healthy one keeps every dataset.
        assert_eq!(reduced.columns.len(), 1);
        assert_eq!(reduced.kept_datasets, vec![0, 1, 2]);
        assert!(reduced.note.contains("3 of 6 cells did not complete"));
        assert!(reduced.note.contains("dropped entrants"));
        let healthy = reduced.get("ED").expect("ED survives");
        let direct = archive_accuracies(&archive, &Euclidean, norm);
        assert_eq!(healthy, direct.as_slice());

        // A fully healthy study renders no note at all.
        let clean = reduce_columns(&archive, &columns[..1]);
        assert!(clean.note.is_empty());
        assert_eq!(clean.columns.len(), 1);
    }

    #[test]
    fn ranking_matrix_transposes_columns() {
        let cols = vec![("a".into(), vec![1.0, 2.0]), ("b".into(), vec![3.0, 4.0])];
        let (names, rows) = ranking_matrix(&cols);
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(rows, vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }
}
