//! `study`: the paper's Figure 9 workflow as a closed batch. Whole
//! passes of `run_study_resumable` over the standard synthetic archive
//! (z-score, the default exact scan, a fresh journal per pass) with six
//! measures: ED, Lorentzian, NCC_c, DTW(δ=10), MSM(c=0.5) and TWE. GAK
//! and KDTW are left out: they would dominate the run time.
//!
//! Stresses the kernel layer (scalar MSM/TWE carry most of the time),
//! the matrix engine and the cell runner; bypasses the index, the pruned
//! scan and the wire.

use std::collections::BTreeMap;
use std::time::Instant;

use tsdist_core::elastic::{Dtw, Msm, Twe};
use tsdist_core::lockstep::{Euclidean, Lorentzian};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::params::unsupervised as u;
use tsdist_core::sliding::CrossCorrelation;
use tsdist_data::synthetic::{generate_archive, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{
    prepare, run_study_resumable, summarize_cells, CellOutcome, CellRunner, Entrant, Eval,
    RunnerConfig,
};

use crate::schedule::splitmix64;
use crate::stats::{median, summarize};
use crate::trace::{self, CellCount, KernelHandle};
use crate::{host, peak_rss_mb, Ctx, Outcome};

/// Datasets in the archive: one per distortion archetype.
const DATASETS: usize = 7;

/// The standard synthetic archive with its size ranges pinned inside
/// the standard ranges (length 96, 30 train, 50 test series, no
/// irregular datasets), so every seed offers the same amount of work
/// and only the series themselves change with the seed.
pub fn archive_config(datasets: usize, seed: u64) -> ArchiveConfig {
    ArchiveConfig {
        length: (96, 96),
        train_size: (30, 30),
        test_size: (50, 50),
        irregular_fraction: 0.0,
        ..ArchiveConfig::standard(datasets, seed)
    }
}

/// Timed set-ups per run; the median is reported.
const SETUP_REPS: usize = 25;
/// Cells re-computed independently after the run.
const VERIFY_CELLS: usize = 6;
/// Passes a measured phase completes at least.
const MIN_PASSES: usize = 15;
/// The tail percentile: [`MIN_PASSES`] passes give at least 105
/// dataset rows, which leaves ten beyond p90.
const TAIL_P: f64 = 90.0;

// The derive compares a fieldless enum's discriminants; the workspace
// ban targets NaN-unaware float comparison.
#[allow(clippy::disallowed_methods)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Category {
    Lockstep,
    Sliding,
    Dtw,
    Msm,
    Twe,
}

impl Category {
    fn layer(self) -> &'static str {
        match self {
            Category::Lockstep => "core.lockstep",
            Category::Sliding => "core.sliding",
            _ => "core.elastic",
        }
    }

    fn share(self) -> &'static str {
        match self {
            Category::Lockstep => "study.share.lockstep",
            Category::Sliding => "study.share.sliding",
            _ => "study.share.elastic",
        }
    }
}

fn measures() -> Vec<(Category, CellCount, Box<dyn Distance>)> {
    vec![
        (Category::Lockstep, trace::no_cells, Box::new(Euclidean)),
        (Category::Lockstep, trace::no_cells, Box::new(Lorentzian)),
        (
            Category::Sliding,
            trace::no_cells,
            Box::new(CrossCorrelation::sbd()),
        ),
        (
            Category::Dtw,
            trace::dtw10_band,
            Box::new(Dtw::with_window_pct(10.0)),
        ),
        (
            Category::Msm,
            trace::full_table,
            Box::new(Msm::new(u::MSM_COST)),
        ),
        (
            Category::Twe,
            trace::full_table,
            Box::new(Twe::new(u::TWE_LAMBDA, u::TWE_NU)),
        ),
    ]
}

/// The study's entrants, timed when `traced`.
fn entrants(traced: bool) -> (Vec<Entrant>, Vec<(Category, Option<KernelHandle>)>) {
    let mut out = Vec::new();
    let mut handles = Vec::new();
    for (cat, cells, m) in measures() {
        let (m, h) = trace::maybe_timed(m, cells, traced);
        out.push(Entrant::new(m));
        handles.push((cat, h));
    }
    (out, handles)
}

/// Totals of one phase of passes.
#[derive(Default)]
struct Phase {
    passes: usize,
    wall_s: f64,
    /// Process CPU seconds of the passes.
    cpu_s: f64,
    /// Cells run.
    cells: u64,
    /// Per dataset and pass, the summed time of its cells (one per
    /// measure) in CPU-equivalent milliseconds: wall time scaled by one
    /// minus the pass's steal share of demanded CPU time, which takes
    /// out time the host stole. Idle cores do not scale it, so worse
    /// load balance cannot shorten it.
    row_ms: Vec<f64>,
    cell_s_by_cat: BTreeMap<Category, f64>,
    failed_cells: u64,
    journal_bytes: Vec<f64>,
    rank_s: Vec<f64>,
    runner_rest_s: f64,
}

/// Accuracy bits of every cell, `[entrant][dataset]`.
type Grid = Vec<Vec<Option<u64>>>;

struct Study<'a> {
    ctx: &'a Ctx,
    archive: Vec<Dataset>,
    grid: Option<Grid>,
    out: Outcome,
    pass_no: usize,
}

impl Study<'_> {
    /// Runs passes until `budget_s` is spent and at least `min_passes`
    /// are done.
    fn phase(&mut self, traced: bool, budget_s: f64, min_passes: usize) -> Phase {
        let tracer = &self.ctx.tracer;
        let (entrants, handles) = entrants(traced);
        let outer = self.ctx.cores.min(self.archive.len()).max(1) as f64;
        let mut phase = Phase::default();
        let started = Instant::now();
        while phase.passes < min_passes || started.elapsed().as_secs_f64() < budget_s {
            self.pass_no += 1;
            let journal = self
                .ctx
                .scratch
                .join(format!("study-{}.journal", self.pass_no));
            let runner = CellRunner::journaled(RunnerConfig::named("perfbench"), &journal)
                .expect("open the study journal");
            let before: Vec<_> = handles.iter().map(|(_, h)| h.map(|h| h.totals())).collect();
            let layer = if traced { "eval.runner" } else { "bench" };
            let open = tracer.open(0, "eval::run_study_resumable", layer);
            let cpu0 = host::cpu_seconds();
            let jiffies0 = host::jiffies();
            let report = run_study_resumable(&self.archive, &entrants, &runner);
            let unstolen = 1.0 - host::steal_share_of_demand(jiffies0, host::jiffies());
            let cpu = host::cpu_seconds() - cpu0;
            let (span, wall) = tracer.close(open, format!("pass:{}", self.pass_no));
            drop(runner);
            phase.passes += 1;
            phase.wall_s += wall;
            phase.cpu_s += cpu;
            phase
                .journal_bytes
                .push(std::fs::metadata(&journal).map_or(0.0, |m| m.len() as f64));
            let _ = std::fs::remove_file(&journal);
            self.out.speed.sample();

            let mut grid: Grid = Vec::new();
            let mut pass_cell_s = 0.0;
            let mut rows = vec![0.0; self.archive.len()];
            for (row, (cat, _)) in report.cells.iter().zip(&handles) {
                let mut bits = Vec::new();
                for (d, cell) in row.iter().enumerate() {
                    rows[d] += cell.seconds * unstolen * 1e3;
                    phase.cells += 1;
                    pass_cell_s += cell.seconds;
                    *phase.cell_s_by_cat.entry(*cat).or_default() += cell.seconds;
                    match &cell.outcome {
                        CellOutcome::Ok(e) => bits.push(Some(e.accuracy.to_bits())),
                        other => {
                            phase.failed_cells += 1;
                            self.out
                                .problem(format!("cell {} ended {}", cell.key, other.label()));
                            bits.push(None);
                        }
                    }
                }
                grid.push(bits);
            }
            phase.row_ms.extend(rows);
            match &self.grid {
                None => self.grid = Some(grid),
                Some(first) if *first != grid => self.out.problem(format!(
                    "pass {} accuracies differ from pass 1",
                    self.pass_no
                )),
                Some(_) => {}
            }

            let mut rank_s = 0.0;
            if traced {
                // The ranking ran inside the pass; time the same call on
                // the same cells to size the stats layer.
                let (_, secs) = tracer.time(0, "eval::summarize_cells", "stats", "pass", || {
                    summarize_cells(
                        report.names.clone(),
                        report.dataset_names.clone(),
                        report.cells.clone(),
                    )
                });
                rank_s = secs;
                phase.rank_s.push(secs);
                for ((cat, h), b) in handles.iter().zip(&before) {
                    if let (Some(h), Some(b)) = (h, b) {
                        tracer.busy(span, cat.layer(), h.totals().seconds() - b.seconds());
                    }
                }
                tracer.busy(span, "stats", rank_s * self.ctx.cores as f64);
            }
            phase.runner_rest_s += (wall - pass_cell_s / outer - rank_s).max(0.0);
        }
        if traced {
            self.kernel_metrics(&handles);
        }
        phase
    }

    fn kernel_metrics(&mut self, handles: &[(Category, Option<KernelHandle>)]) {
        let mut by_cat: BTreeMap<Category, trace::KernelTotals> = BTreeMap::new();
        for (cat, h) in handles {
            if let Some(h) = h {
                let t = h.totals();
                let e = by_cat.entry(*cat).or_default();
                e.full_calls += t.full_calls;
                e.full_ns += t.full_ns;
                e.full_cells += t.full_cells;
                e.upto_calls += t.upto_calls;
                e.upto_ns += t.upto_ns;
            }
        }
        for (cat, t) in by_cat {
            let (name, v) = match cat {
                Category::Lockstep => (
                    "core.lockstep.ns_per_pair",
                    (t.full_ns + t.upto_ns) as f64 / t.calls() as f64,
                ),
                Category::Sliding => (
                    "core.sliding.ns_per_pair",
                    (t.full_ns + t.upto_ns) as f64 / t.calls() as f64,
                ),
                Category::Dtw => (
                    "core.elastic.dtw.cells_per_s",
                    t.full_cells as f64 / (t.full_ns as f64 / 1e9),
                ),
                Category::Msm => (
                    "core.elastic.msm.cells_per_s",
                    t.full_cells as f64 / (t.full_ns as f64 / 1e9),
                ),
                Category::Twe => (
                    "core.elastic.twe.cells_per_s",
                    t.full_cells as f64 / (t.full_ns as f64 / 1e9),
                ),
            };
            if t.calls() > 0 {
                self.out.layer(name, v);
            }
        }
    }

    /// Re-computes a seeded sample of cells through `Eval`, independently
    /// of the runner, and compares accuracy bits.
    fn verify(&mut self) {
        let Some(grid) = self.grid.clone() else {
            return;
        };
        let measures = measures();
        let mut state = self.ctx.seed ^ 0x5EED_CE11;
        for _ in 0..VERIFY_CELLS {
            let e = (splitmix64(&mut state) % measures.len() as u64) as usize;
            let d = (splitmix64(&mut state) % self.archive.len() as u64) as usize;
            let got = Eval::new(measures[e].2.as_ref())
                .on(&self.archive[d])
                .normalized(Normalization::ZScore)
                .run()
                .ok()
                .and_then(|r| r.accuracy)
                .map(f64::to_bits);
            if got != grid[e][d] {
                self.out.failed += 1;
                self.out.problem(format!(
                    "cell {}::{} accuracy bits {:?} != independent Eval {:?}",
                    measures[e].2.name(),
                    self.archive[d].name,
                    grid[e][d],
                    got
                ));
            }
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut prep_s = Vec::new();
    let mut archive = Vec::new();
    let mut speed = host::Speed::default();
    for rep in 0..SETUP_REPS {
        speed.sample();
        let open = tracer.open(0, "setup", "bench");
        let parent = open.id();
        let cpu0 = host::cpu_seconds();
        let (a, g) = tracer.time(
            parent,
            "data::generate_archive",
            "data",
            rep.to_string(),
            || generate_archive(&archive_config(DATASETS, ctx.seed)),
        );
        let (prepared, p) = tracer.time(
            parent,
            "eval::prepare",
            "eval.evaluator",
            rep.to_string(),
            || {
                a.iter()
                    .map(|d| prepare(d, Normalization::ZScore))
                    .collect::<Vec<_>>()
            },
        );
        std::hint::black_box(&prepared);
        setup_s.push(host::cpu_seconds() - cpu0);
        tracer.close(open, rep.to_string());
        gen_s.push(g);
        prep_s.push(p);
        archive = a;
    }

    let mut study = Study {
        ctx,
        archive,
        grid: None,
        out: Outcome {
            speed,
            ..Outcome::default()
        },
        pass_no: 0,
    };
    // Warm-up pass: page faults and allocator growth are not the study's
    // steady state.
    study.phase(false, 0.0, 1);

    let (measured, baseline) = if ctx.traced {
        let base = study.phase(false, ctx.seconds / 2.0, MIN_PASSES / 2);
        (
            study.phase(true, ctx.seconds / 2.0, MIN_PASSES / 2),
            Some(base),
        )
    } else {
        (study.phase(false, ctx.seconds, MIN_PASSES), None)
    };
    let rss = peak_rss_mb();
    let (_, _) = tracer.time(0, "verify", "bench", "sample", || study.verify());

    let mut out = std::mem::take(&mut study.out);
    let cells = measured.cells;
    out.attempted += cells;
    out.failed += measured.failed_cells;
    let throughput = cells as f64 / measured.cpu_s;
    println!(
        "# study: {} passes, {cells} cells, {:.3} cells per wall second",
        measured.passes,
        cells as f64 / measured.wall_s
    );
    out.e2e(
        "setup_s",
        median(&setup_s),
        SETUP_REPS as u64,
        "CPU s of archive generation + z-score prepare, median of set-ups",
    );
    out.e2e(
        "work_per_cpu_s",
        throughput,
        cells,
        format!("study cells per CPU second over {} passes", measured.passes),
    );
    match summarize(&measured.row_ms, TAIL_P) {
        Some(s) => {
            let note = "time of one dataset's six cells, CPU-equivalent";
            out.e2e(
                "latency_p50_ms",
                s.p50,
                s.n as u64,
                format!("median {note}"),
            );
            out.e2e(
                "latency_tail_ms",
                s.tail,
                s.n as u64,
                format!("p{} {note}", s.tail_p),
            );
        }
        None if ctx.traced => {}
        None => out.problem("too few dataset rows for the tail percentile"),
    }
    out.e2e("peak_rss_mb", rss, 1, "VmHWM after the measured passes");

    if let Some(base) = baseline {
        let total: f64 = measured.cell_s_by_cat.values().sum();
        for cat in [Category::Lockstep, Category::Sliding, Category::Dtw] {
            let share: f64 = measured
                .cell_s_by_cat
                .iter()
                .filter(|(c, _)| c.share() == cat.share())
                .map(|(_, s)| s)
                .sum();
            out.layer(cat.share(), share / total);
        }
        let outer = ctx.cores.min(DATASETS) as f64;
        out.layer(
            "eval.parallel.idle_frac",
            (1.0 - total / (measured.wall_s * outer)).max(0.0),
        );
        out.layer("eval.runner.unattributed_s", measured.runner_rest_s);
        out.layer("eval.journal.bytes", median(&measured.journal_bytes));
        out.layer("stats.rank_s", median(&measured.rank_s));
        out.layer("data.generate_s", median(&gen_s));
        out.layer("eval.prepare_s", median(&prep_s));
        let base_rate = base.cells as f64 / base.cpu_s;
        out.layer("trace.overhead_pct", (base_rate / throughput - 1.0) * 100.0);
    }
    out
}
