//! `tsdist` — the command-line interface of the workspace.
//!
//! ```text
//! tsdist measures                               list every measure name
//! tsdist distance <measure> <a> <b> [--norm N]  distance between two series files
//! tsdist evaluate <dataset-dir> [--measures L]  1-NN accuracy on a UCR dataset
//! tsdist evaluate-archive <root> [--measures L] full study over an archive
//! tsdist generate <out-dir> [--datasets N]      write a synthetic archive as UCR files
//! tsdist summary <dataset-dir>                  dataset statistics
//! ```
//!
//! Series files contain whitespace- or comma-separated numbers; dataset
//! directories follow the UCR `<Name>_TRAIN.tsv` / `<Name>_TEST.tsv`
//! layout.

mod conformance;
mod measures;
mod serve_cmd;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::time::Duration;

use tsdist_core::normalization::Normalization;
use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
use tsdist_data::ucr::{load_ucr_archive, load_ucr_dataset, write_ucr_dataset};
use tsdist_data::{load_ucr_archive_lenient, ArchiveSummary, Dataset, DatasetSummary};
use tsdist_eval::{
    compare_to_baseline, render_table, rewrite_journal_in_order, run_study_resumable, CellRunner,
    Entrant, Eval, RunnerConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("measures") => cmd_measures(),
        Some("distance") => cmd_distance(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..]),
        Some("evaluate-archive") => cmd_evaluate_archive(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("summary") => cmd_summary(&args[1..]),
        Some("conformance") => conformance::cmd_conformance(&args[1..]),
        Some("serve") => serve_cmd::cmd_serve(&args[1..]),
        Some("serve-requests") => serve_cmd::cmd_serve_requests(&args[1..]),
        Some("serve-client") => serve_cmd::cmd_serve_client(&args[1..]),
        Some("serve-replay") => serve_cmd::cmd_serve_replay(&args[1..]),
        Some("serve-fuzz") => serve_cmd::cmd_serve_fuzz(&args[1..]),
        Some("lint") => tsdist_lint::run_cli(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
tsdist — time-series distance measures (SIGMOD 2020 reproduction)

USAGE:
  tsdist measures
  tsdist distance <measure> <series-a> <series-b> [--norm <method>]
  tsdist evaluate <dataset-dir> [--measures <m1,m2,...>] [--norm <method>]
  tsdist evaluate-archive <archive-root> [--measures <m1,m2,...>]
                          [--journal <file>] [--study <name>] [--lenient]
                          [--deadline-secs <S>] [--retries <R>] [--max-cells <N>]
                          [--pruned]
  tsdist generate <out-dir> [--datasets <N>] [--seed <S>] [--quick]
  tsdist summary <dataset-dir>
  tsdist conformance [--update] [--quick] [--ulps] [--golden <file>]
  tsdist lint [--json] [--deny-warnings] [--root <dir>] [--out <file>]
              [--baseline <file>] [--write-baseline <file>]
              [--graph-stats] [--severity <lint>=<level>]
  tsdist serve <archive-root> [--addr <A>] [--shards <N>] [--queue <Q>]
               [--batch <B>] [--cache <C>] [--journal <file>]
               [--fsync never|rotate|every-<n>] [--segment-bytes <N>]
               [--quarantine <N>] [--max-line-bytes <N>] [--max-series-len <N>]
               [--max-k <N>] [--max-inflight <N>] [--chaos <spec>]
               [--port-file <file>] [--lenient]
  tsdist serve-requests <archive-root> [--count <N>] [--measures <m1,m2,...>]
                        [--out <file>]
  tsdist serve-client <addr> [request-file] [--shutdown] [--no-retry]
  tsdist serve-replay <archive-root> <journal-file>
  tsdist serve-fuzz <addr> <request-file> [--seed <N>] [--iterations <N>]
                    [--deadline-ms <N>]

Measures use `name[:params]` syntax (e.g. dtw:10, msm:0.5, twe:1,0.0001).
Normalization methods: z-score (default), minmax, meannorm, mediannorm,
unitlength, adaptive, logistic, tanh.

evaluate-archive runs fault-tolerantly: failing or timed-out cells are
reported and excluded, and rankings cover the surviving subset. With
--journal, completed cells are checkpointed to the file and a re-run
resumes where the last one stopped (--max-cells N stops after N cells,
--lenient skips unreadable datasets instead of aborting). --pruned runs
the 1-NN scans through the early-abandoning cutoff-threaded engine:
identical accuracies, less work per cell.

conformance checks every registry measure against its naive reference
implementation and the committed golden snapshot
(results/conformance/registry_v1.tsv), exiting non-zero on any
divergence. --update re-pins the golden after a reviewed numeric change;
--quick runs the representative subset for fast gates; --ulps prints the
worst observed production-vs-reference drift per category in units of
last place, alongside the vectorized-kernel coverage counts.

lint runs the workspace invariant checker: per-file passes
(determinism, panic-safety, hot-path allocation rules) plus flow-aware
passes over the workspace call graph (panic reachability from public
entry points, lock ordering and blocking-under-guard discipline,
early-abandon contract shape, wire-error leg coverage). Findings need
fixing or an inline reasoned suppression; --deny-warnings fails on
warnings too, --out writes the machine-readable JSON report,
--baseline compares against pinned fingerprints so only new findings
fail, --write-baseline pins the current findings, --graph-stats prints
call-graph edge accounting, --severity overrides a lint's level.

serve answers 1-NN/k-NN queries over TCP (newline-delimited JSON) with
shard-affine dataset ownership, request batching, an LRU answer cache,
bounded queues with typed queue_full backpressure, and per-request
deadlines. Answers are byte-identical to the offline evaluator; with
--journal every accepted query is written to a checksummed, segmented
journal (fsync cadence via --fsync) replayable via serve-replay, which
skips corrupt records and replays the intact ones. Shard workers run
under a supervisor that restarts them after a panic (in-flight requests
get typed shard_restarted errors) and quarantines a measure after
--quarantine repeated faults; the `health` op reports per-shard
liveness, queue depth, restarts, and quarantine counts. Ingress is
bounded: --max-line-bytes / --max-series-len / --max-k / --max-inflight
violations get typed limit_exceeded rejections. --chaos injects faults
(panic[:n], nan[:n], delay-<ms>[:n] per-distance-call, or
kill-shard[:n] aborting each shard's first worker after n jobs).
serve-requests generates a deterministic mixed workload from an
archive's test splits; serve-client pipelines a request file with
retry-on-queue_full/shard_restarted and transparent reconnect
(--no-retry disables) and prints responses sorted by id (diffable
against serve-replay output). serve-fuzz fires seeded structural
mutations of a request file at a running server and fails on any hang,
non-protocol response, or worker restart caused by ingress.
";

fn cmd_measures() -> Result<(), String> {
    println!("available measures ({} lock-step + parameterized):", 51);
    for name in measures::available() {
        println!("  {name}");
    }
    Ok(())
}

fn parse_norm(name: &str) -> Result<Normalization, String> {
    match name.to_ascii_lowercase().as_str() {
        "z-score" | "zscore" => Ok(Normalization::ZScore),
        "minmax" => Ok(Normalization::MinMax),
        "meannorm" => Ok(Normalization::MeanNorm),
        "mediannorm" => Ok(Normalization::MedianNorm),
        "unitlength" => Ok(Normalization::UnitLength),
        "adaptive" => Ok(Normalization::AdaptiveScaling),
        "logistic" => Ok(Normalization::Logistic),
        "tanh" => Ok(Normalization::Tanh),
        other => Err(format!("unknown normalization {other:?}")),
    }
}

fn read_series_file(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let values: Result<Vec<f64>, String> = text
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|tok| !tok.is_empty())
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| format!("bad number {tok:?} in {}", path.display()))
        })
        .collect();
    let values = values?;
    if values.is_empty() {
        return Err(format!("{} contains no values", path.display()));
    }
    Ok(values)
}

/// Extracts `--flag value` from an argument list, returning the remaining
/// positional arguments.
fn take_flag(args: &[String], flag: &str) -> Result<(Option<String>, Vec<String>), String> {
    let mut positional = Vec::new();
    let mut value = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            value = Some(
                iter.next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone(),
            );
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((value, positional))
}

fn take_bool_flag(args: &[String], flag: &str) -> (bool, Vec<String>) {
    let mut present = false;
    let rest = args
        .iter()
        .filter(|a| {
            if *a == flag {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (present, rest)
}

fn cmd_distance(args: &[String]) -> Result<(), String> {
    let (norm, rest) = take_flag(args, "--norm")?;
    let norm = parse_norm(norm.as_deref().unwrap_or("z-score"))?;
    let [measure_spec, a_path, b_path] = rest.as_slice() else {
        return Err("usage: tsdist distance <measure> <series-a> <series-b> [--norm N]".into());
    };
    let measure = measures::resolve(measure_spec)?;
    let a = norm.apply(&read_series_file(Path::new(a_path))?);
    let b = norm.apply(&read_series_file(Path::new(b_path))?);
    let d = if norm.is_pairwise() {
        use tsdist_core::normalization::AdaptiveScaled;
        use tsdist_core::Distance as _;
        AdaptiveScaled::new(&measure).distance(&a, &b)
    } else {
        measure.distance(&a, &b)
    };
    println!("{} [{}] = {d:.6}", measure.name(), norm.name());
    Ok(())
}

fn load_dataset_dir(dir: &Path) -> Result<Dataset, String> {
    let name = dir
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .ok_or_else(|| format!("bad dataset directory {}", dir.display()))?;
    for ext in ["tsv", "txt", "csv"] {
        let train = dir.join(format!("{name}_TRAIN.{ext}"));
        let test = dir.join(format!("{name}_TEST.{ext}"));
        if train.exists() && test.exists() {
            return load_ucr_dataset(&name, &train, &test)
                .map_err(|e| format!("loading {name}: {e}"));
        }
    }
    Err(format!(
        "no {name}_TRAIN/{name}_TEST pair found in {}",
        dir.display()
    ))
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let (norm, rest) = take_flag(args, "--norm")?;
    let (measure_list, rest) = take_flag(&rest, "--measures")?;
    let norm = parse_norm(norm.as_deref().unwrap_or("z-score"))?;
    let [dir] = rest.as_slice() else {
        return Err("usage: tsdist evaluate <dataset-dir> [--measures m1,m2] [--norm N]".into());
    };
    let ds = load_dataset_dir(Path::new(dir))?;
    println!(
        "{}: {} classes, {} train / {} test, length {}",
        ds.name,
        ds.n_classes(),
        ds.n_train(),
        ds.n_test(),
        ds.series_len()
    );

    let list = measure_list.unwrap_or_else(|| "ed,lorentzian,sbd,dtw:10,msm".into());
    let mut names = Vec::new();
    let mut accs = Vec::new();
    for spec in list.split(',').filter(|s| !s.is_empty()) {
        let m = measures::resolve(spec.trim())?;
        let acc = Eval::new(m.as_ref())
            .on(&ds)
            .normalized(norm)
            .run()
            .map_err(|e| e.to_string())?
            .accuracy
            .ok_or("dataset evaluation produced no accuracy")?;
        names.push(m.name());
        accs.push(acc);
    }
    if accs.is_empty() {
        return Err("no measures given; run `tsdist measures` for the list".into());
    }
    // Report against the first measure as the baseline, paper style.
    let baseline = vec![accs[0]];
    let rows: Vec<_> = names
        .iter()
        .zip(&accs)
        .skip(1)
        .map(|(n, &a)| compare_to_baseline(n.clone(), &[a], &baseline))
        .collect();
    println!("{:<24} accuracy", "measure");
    for (n, a) in names.iter().zip(&accs) {
        println!("{n:<24} {a:.4}");
    }
    if rows.len() > 1 {
        println!(
            "\n{}",
            render_table("comparison vs first measure", &rows, &names[0], &baseline)
        );
    }
    Ok(())
}

/// `tsdist evaluate-archive <root>`: the paper's workflow as one command —
/// evaluate a measure list over every dataset under `root` through the
/// fault-tolerant cell runner, report the paper-style table (first
/// measure = baseline) and the Friedman+Nemenyi ranking over the
/// surviving subset. `--journal` makes the study resumable.
fn cmd_evaluate_archive(args: &[String]) -> Result<(), String> {
    let (measure_list, rest) = take_flag(args, "--measures")?;
    let (journal, rest) = take_flag(&rest, "--journal")?;
    let (study, rest) = take_flag(&rest, "--study")?;
    let (deadline, rest) = take_flag(&rest, "--deadline-secs")?;
    let (retries, rest) = take_flag(&rest, "--retries")?;
    let (max_cells, rest) = take_flag(&rest, "--max-cells")?;
    let (lenient, rest) = take_bool_flag(&rest, "--lenient");
    let (pruned, rest) = take_bool_flag(&rest, "--pruned");
    let [root] = rest.as_slice() else {
        return Err(
            "usage: tsdist evaluate-archive <archive-root> [--measures m1,m2,...] \
             [--journal FILE] [--study NAME] [--deadline-secs S] [--retries R] \
             [--max-cells N] [--lenient] [--pruned]"
                .into(),
        );
    };

    let archive = if lenient {
        let loaded = load_ucr_archive_lenient(Path::new(root))
            .map_err(|e| format!("loading archive: {e}"))?;
        if !loaded.failures.is_empty() {
            eprint!("{}", loaded.render_report());
        }
        loaded.datasets
    } else {
        load_ucr_archive(Path::new(root)).map_err(|e| format!("loading archive: {e}"))?
    };
    if archive.len() < 2 {
        return Err(format!(
            "archive at {root} has {} dataset(s); need at least 2 for statistics",
            archive.len()
        ));
    }
    println!("loaded {} datasets from {root}", archive.len());

    let list = measure_list.unwrap_or_else(|| "ed,lorentzian,sbd,dtw:10,msm".into());
    let mut entrants = Vec::new();
    for spec in list.split(',').filter(|s| !s.is_empty()) {
        entrants.push(Entrant::new(measures::resolve(spec.trim())?));
    }
    if entrants.len() < 2 {
        return Err("need at least two measures (first is the baseline)".into());
    }

    let mut config = RunnerConfig::named(study.unwrap_or_else(|| "archive-study".into()));
    if let Some(secs) = deadline {
        let secs: f64 = secs
            .parse()
            .map_err(|_| format!("bad --deadline-secs value {secs:?}"))?;
        if secs.is_nan() || secs <= 0.0 {
            return Err("--deadline-secs must be positive".into());
        }
        config = config.with_deadline(Duration::from_secs_f64(secs));
    }
    if let Some(r) = retries {
        config = config.with_retries(
            r.parse()
                .map_err(|_| format!("bad --retries value {r:?}"))?,
        );
    }
    if let Some(m) = max_cells {
        config = config.with_max_cells(
            m.parse()
                .map_err(|_| format!("bad --max-cells value {m:?}"))?,
        );
    }
    if pruned {
        config = config.with_pruned();
    }
    let runner = match &journal {
        Some(path) => CellRunner::journaled(config, path)
            .map_err(|e| format!("opening journal {path}: {e}"))?,
        None => CellRunner::new(config),
    };
    // Resume diagnostics go to stderr so stdout stays byte-identical
    // between a resumed and an uninterrupted run.
    if runner.replayed_cells() > 0 || runner.corrupt_journal_lines() > 0 {
        eprintln!(
            "journal: replayed {} completed cell(s), skipped {} corrupt line(s)",
            runner.replayed_cells(),
            runner.corrupt_journal_lines()
        );
    }
    let robust = run_study_resumable(&archive, &entrants, &runner);
    if let Some(path) = &journal {
        // Cells were appended as they finished; leave them in grid order
        // so two runs of one study journal identically.
        let grid: Vec<String> = robust
            .cells
            .iter()
            .flatten()
            .map(|c| c.key.clone())
            .collect();
        let study = &runner.config().study;
        rewrite_journal_in_order(Path::new(path), study, &grid)
            .map_err(|e| format!("reordering journal {path}: {e}"))?;
    }
    println!("{}", robust.render(&format!("study over {root}")));
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (datasets, rest) = take_flag(args, "--datasets")?;
    let (seed, rest) = take_flag(&rest, "--seed")?;
    let (quick, rest) = take_bool_flag(&rest, "--quick");
    let [out_dir] = rest.as_slice() else {
        return Err("usage: tsdist generate <out-dir> [--datasets N] [--seed S] [--quick]".into());
    };
    let n: usize = datasets
        .as_deref()
        .unwrap_or("14")
        .parse()
        .map_err(|_| "bad --datasets")?;
    let seed: u64 = seed
        .as_deref()
        .unwrap_or("20")
        .parse()
        .map_err(|_| "bad --seed")?;
    let cfg = if quick {
        ArchiveConfig::quick(n, seed)
    } else {
        ArchiveConfig::standard(n, seed)
    };
    let out = PathBuf::from(out_dir);
    for ds in generate_archive(&cfg) {
        let stem = ds.name.rsplit('/').next().unwrap_or(&ds.name).to_string();
        let dir = out.join(&stem);
        write_ucr_dataset(&ds, &dir).map_err(|e| format!("writing {stem}: {e}"))?;
        println!("wrote {}", dir.display());
    }
    Ok(())
}

fn cmd_summary(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("usage: tsdist summary <dataset-dir>".into());
    };
    let ds = load_dataset_dir(Path::new(dir))?;
    let s = DatasetSummary::of(&ds);
    print!("{}", ArchiveSummary::of(std::slice::from_ref(&ds)).render());
    println!(
        "majority-class fraction: {:.3} (chance accuracy {:.3})",
        s.majority_fraction,
        1.0 / s.n_classes as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_parsing() {
        assert_eq!(parse_norm("z-score").unwrap(), Normalization::ZScore);
        assert_eq!(parse_norm("MINMAX").unwrap(), Normalization::MinMax);
        assert!(parse_norm("bogus").is_err());
    }

    #[test]
    fn flag_extraction() {
        let args: Vec<String> = ["a", "--norm", "minmax", "b"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (v, rest) = take_flag(&args, "--norm").unwrap();
        assert_eq!(v.as_deref(), Some("minmax"));
        assert_eq!(rest, vec!["a".to_string(), "b".into()]);
        let (missing, rest2) = take_flag(&rest, "--x").unwrap();
        assert!(missing.is_none());
        assert_eq!(rest2.len(), 2);
    }

    #[test]
    fn bool_flag_extraction() {
        let args: Vec<String> = ["--quick", "dir"].iter().map(|s| s.to_string()).collect();
        let (q, rest) = take_bool_flag(&args, "--quick");
        assert!(q);
        assert_eq!(rest, vec!["dir".to_string()]);
    }

    #[test]
    fn series_file_reading() {
        let p = std::env::temp_dir().join("tsdist_cli_series.txt");
        std::fs::write(&p, "1.0, 2.5\n-3\t4e-1").unwrap();
        assert_eq!(read_series_file(&p).unwrap(), vec![1.0, 2.5, -3.0, 0.4]);
        std::fs::write(&p, "1.0 oops").unwrap();
        assert!(read_series_file(&p).is_err());
    }

    #[test]
    fn generate_then_evaluate_roundtrip() {
        let out = std::env::temp_dir().join("tsdist_cli_gen");
        let _ = std::fs::remove_dir_all(&out);
        cmd_generate(&[
            out.to_string_lossy().into_owned(),
            "--datasets".into(),
            "1".into(),
            "--quick".into(),
            "--seed".into(),
            "5".into(),
        ])
        .unwrap();
        // One dataset directory was written; load and evaluate it.
        let sub = std::fs::read_dir(&out)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let ds = load_dataset_dir(&sub).unwrap();
        assert!(ds.validate().is_ok());
        cmd_evaluate(&[sub.to_string_lossy().into_owned()]).unwrap();
        cmd_summary(&[sub.to_string_lossy().into_owned()]).unwrap();
    }

    #[test]
    fn evaluate_archive_runs_a_study_over_generated_datasets() {
        let out = std::env::temp_dir().join("tsdist_cli_gen_archive");
        let _ = std::fs::remove_dir_all(&out);
        cmd_generate(&[
            out.to_string_lossy().into_owned(),
            "--datasets".into(),
            "3".into(),
            "--quick".into(),
            "--seed".into(),
            "8".into(),
        ])
        .unwrap();
        cmd_evaluate_archive(&[
            out.to_string_lossy().into_owned(),
            "--measures".into(),
            "ed,sbd".into(),
        ])
        .unwrap();
        // Fewer than two measures is rejected.
        assert!(cmd_evaluate_archive(&[
            out.to_string_lossy().into_owned(),
            "--measures".into(),
            "ed".into(),
        ])
        .is_err());
    }

    #[test]
    fn evaluate_archive_journal_kill_and_resume() {
        let out = std::env::temp_dir().join("tsdist_cli_resume_archive");
        let _ = std::fs::remove_dir_all(&out);
        cmd_generate(&[
            out.to_string_lossy().into_owned(),
            "--datasets".into(),
            "2".into(),
            "--quick".into(),
            "--seed".into(),
            "7".into(),
        ])
        .unwrap();
        let journal = out.join("journal.ndjson");
        let base = vec![
            out.to_string_lossy().into_owned(),
            "--measures".into(),
            "ed,sbd".into(),
            "--journal".into(),
            journal.to_string_lossy().into_owned(),
        ];

        // "Kill" after one cell, then resume to completion.
        let mut killed = base.clone();
        killed.extend(["--max-cells".into(), "1".into()]);
        cmd_evaluate_archive(&killed).unwrap();
        let after_kill = std::fs::read_to_string(&journal).unwrap().lines().count();
        assert_eq!(after_kill, 1);
        cmd_evaluate_archive(&base).unwrap();
        let after_resume = std::fs::read_to_string(&journal).unwrap().lines().count();
        assert_eq!(after_resume, 4, "resume runs only the 3 missing cells");

        // Bad knob values are rejected up front.
        let mut bad = base.clone();
        bad.extend(["--deadline-secs".into(), "-1".into()]);
        assert!(cmd_evaluate_archive(&bad).is_err());
        let mut bad = base;
        bad.extend(["--retries".into(), "many".into()]);
        assert!(cmd_evaluate_archive(&bad).is_err());
    }

    #[test]
    fn evaluate_archive_lenient_skips_corrupt_datasets() {
        let out = std::env::temp_dir().join("tsdist_cli_lenient_archive");
        let _ = std::fs::remove_dir_all(&out);
        cmd_generate(&[
            out.to_string_lossy().into_owned(),
            "--datasets".into(),
            "2".into(),
            "--quick".into(),
            "--seed".into(),
            "9".into(),
        ])
        .unwrap();
        let bad = out.join("Broken");
        std::fs::create_dir_all(&bad).unwrap();
        std::fs::write(bad.join("Broken_TRAIN.tsv"), "1\t0.5\t<oops>\n").unwrap();
        std::fs::write(bad.join("Broken_TEST.tsv"), "1\t0.5\t0.6\n").unwrap();

        let args = vec![
            out.to_string_lossy().into_owned(),
            "--measures".into(),
            "ed,sbd".into(),
        ];
        // Strict loading aborts on the corrupt dataset...
        assert!(cmd_evaluate_archive(&args).is_err());
        // ...lenient loading reports it and runs over the survivors.
        let mut lenient = args;
        lenient.push("--lenient".into());
        cmd_evaluate_archive(&lenient).unwrap();
    }
}
