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
//!   ledgers default to the repository root, where they are committed),
//! * `--journal`, `--deadline-secs S`, `--retries N` — the cell runner's
//!   knobs: journal each cell to `<out>/<binary>.journal.ndjson` and
//!   resume from it, bound each cell attempt's wall clock, retry failed
//!   cells.
//!
//! Every binary that evaluates cells runs them through the runner's one
//! column ([`CellRunner::column`]) and reports over the surviving subset
//! ([`summarize`]), so a faulty cell is excluded and listed in the
//! artifact's fault note instead of aborting the run. `table1`, `table4`,
//! `figure1` and `archive_summary` evaluate no cells, and `ablation_lb`
//! and the two ledgers time scans outside the runner: the runner flags
//! are accepted and inert there. `run_all` forwards every flag to the
//! binaries it launches.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Duration;

use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{summarize_cells, CellResult, CellRunner, RobustStudyReport, RunnerConfig};

/// Configuration shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq)]
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
        Self::parse_args(ExperimentConfig::default(), std::env::args().skip(1))
    }

    /// [`ExperimentConfig::from_args`] for the ledger binaries
    /// (`bench_scan`, `bench_kernels`): `--out` defaults to the
    /// repository root, where their `BENCH_*.json` files are committed,
    /// whatever the working directory.
    pub fn ledger_from_args() -> Self {
        Self::parse_args(
            ExperimentConfig {
                out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
                ..ExperimentConfig::default()
            },
            std::env::args().skip(1),
        )
    }

    fn parse_args(mut cfg: ExperimentConfig, args: impl IntoIterator<Item = String>) -> Self {
        let mut args = args.into_iter();
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

    /// The arguments that make a binary parse exactly this config:
    /// `run_all` launches each experiment with them.
    pub fn args(&self) -> Vec<String> {
        let mut args = vec![
            "--datasets".to_string(),
            self.n_datasets.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--out".to_string(),
            self.out_dir.display().to_string(),
        ];
        if self.quick {
            args.push("--quick".into());
        }
        if self.journal {
            args.push("--journal".into());
        }
        if let Some(secs) = self.deadline_secs {
            args.extend(["--deadline-secs".into(), secs.to_string()]);
        }
        if self.retries > 0 {
            args.extend(["--retries".into(), self.retries.to_string()]);
        }
        args
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
         [--journal] [--deadline-secs S] [--retries N]\n\
         (the last three are inert in table1, table4, figure1, archive_summary, \
         ablation_lb, bench_scan and bench_kernels, which evaluate no runner cells)"
    );
    std::process::exit(2)
}

/// The surviving-subset report of an experiment's columns (entrant
/// label, [`CellRunner::column`] cells), in entrant order over `archive`.
pub fn summarize(
    archive: &[Dataset],
    columns: Vec<(String, Vec<CellResult>)>,
) -> RobustStudyReport {
    let (names, cells) = columns.into_iter().unzip();
    summarize_cells(
        names,
        archive.iter().map(|d| d.name.clone()).collect(),
        cells,
    )
}

/// The accuracies of the surviving column `entrant`, if it survived.
pub fn column<'a>(columns: &'a [(String, Vec<f64>)], entrant: &str) -> Option<&'a [f64]> {
    columns
        .iter()
        .find(|(name, _)| name == entrant)
        .map(|(_, accs)| accs.as_slice())
}

/// Renders a critical-difference ranking over surviving accuracy columns,
/// falling back to a placeholder (plus the fault note) when too few cells
/// completed to rank anything — so a figure binary degrades instead of
/// panicking when a whole study faults out.
pub fn render_ranking(title: &str, columns: &[(String, Vec<f64>)], note: &str) -> String {
    let n_datasets = columns.first().map_or(0, |(_, accs)| accs.len());
    let mut out = if columns.len() >= 2 && n_datasets > 0 {
        let names: Vec<String> = columns.iter().map(|(name, _)| name.clone()).collect();
        let rows: Vec<Vec<f64>> = (0..n_datasets)
            .map(|d| columns.iter().map(|(_, accs)| accs[d]).collect())
            .collect();
        tsdist_eval::rank_measures(&names, &rows).render(title)
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
    use tsdist_core::normalization::Normalization;

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
        let cells = cfg.runner("bench-lib-test").distance_column(
            &archive,
            "ED",
            &Euclidean,
            Normalization::ZScore,
        );
        let study = summarize(&archive, vec![("ED".into(), cells)]);
        let accs = column(&study.columns(), "ED")
            .expect("ED survives")
            .to_vec();
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
    fn render_ranking_ranks_entrant_major_columns() {
        let cols = vec![
            ("a".into(), vec![1.0, 2.0, 0.5]),
            ("b".into(), vec![3.0, 4.0, 0.2]),
        ];
        let names = vec!["a".to_string(), "b".to_string()];
        let rows = vec![vec![1.0, 3.0], vec![2.0, 4.0], vec![0.5, 0.2]];
        let want = tsdist_eval::rank_measures(&names, &rows).render("T") + "note\n";
        assert_eq!(render_ranking("T", &cols, "note\n"), want);
        // One surviving column has nothing to rank against.
        assert_eq!(
            render_ranking("T", &cols[..1], "note\n"),
            "## T\nno surviving subset to rank (insufficient completed cells)\nnote\n"
        );
    }

    #[test]
    fn child_args_parse_back_to_the_same_config() {
        let configs = [
            ExperimentConfig::default(),
            ExperimentConfig {
                n_datasets: 7,
                seed: 3,
                quick: true,
                out_dir: PathBuf::from("some dir/out"),
                journal: true,
                deadline_secs: Some(0.1 + 0.2),
                retries: 2,
            },
        ];
        for cfg in configs {
            // Parsing starts from another default so every field must
            // come from the arguments.
            let start = ExperimentConfig {
                n_datasets: 1,
                seed: 1,
                out_dir: PathBuf::from("elsewhere"),
                ..ExperimentConfig::default()
            };
            assert_eq!(ExperimentConfig::parse_args(start, cfg.args()), cfg);
        }
    }
}
