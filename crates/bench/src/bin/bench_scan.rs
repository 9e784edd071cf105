//! `BENCH_scan.json`: every plan of the nearest-neighbour scan engine,
//! timed and cross-checked on the same data.
//!
//! For each (dataset, measure, normalization) the binary runs
//! [`Scan`] once per plan: `Exact`, `Cutoff`, and `Cascade` or `Pivots`
//! when the split's [`TrainIndex`] has a structure for the measure, then
//! `Auto` (pruned, indexed, [`Scan::auto`]: each row's bounded plan or
//! Exact, by measured cost). It writes one row per plan: the median and
//! the first of the wall seconds of `reps` whole scans of the test split,
//! the candidates considered and examined, the rows run under each plan
//! (last repetition), the 1-NN accuracy, and whether the plan's answers
//! (index and distance bits) equal the Exact plan's. Auto's repetitions
//! share one index and so one plan memory, like the queries of a served
//! split: its first repetition pays the sampling rows, its median is the
//! settled plan. The `auto` section lists every Auto row below
//! [`AUTO_EXACT_BAR`] of Exact's speed or more than [`AUTO_BEST_BAR`]
//! behind the fastest fixed plan, with its first repetition's time
//! against that plan's median (the sampling cost). Every plan, Exact
//! included, runs through the one scan driver, whose workers claim rows
//! one at a time; rows are independent, so the fixed plans' counters do
//! not depend on which worker answers which row. Each repetition runs
//! every plan once, in an order rotated by one plan per repetition, so a
//! slow spell of the host falls on every plan alike.
//!
//! Three kinds of dataset:
//!
//! * `bench`: the timed workload, one UCR-shaped dataset (64 train / 64
//!   test series of length 256, the `mixed` archetype, whose
//!   nearest-neighbour contrast, and hence abandoning, is representative)
//!   under eight measures;
//! * three small synthetic-archive datasets under eleven measures whose
//!   `distance_upto` abandons: five lock-step (ED, CityBlock, Chebyshev,
//!   Minkowski, Lorentzian) and six elastic;
//! * a clustered dataset (64 / 64, length 256, see [`clustered_dataset`])
//!   under ten measure×normalization workloads with an index structure:
//!   the DTW band cascade, the declared-metric lock-steps under z-score,
//!   and the positive-orthant metrics under the logistic map.
//!
//! The run exits non-zero when
//!
//! * any plan's answers differ from the Exact plan's;
//! * the median examined fraction of the clustered dataset's indexed rows
//!   exceeds [`EXAMINED_BAR`] (the index has to prune, not merely agree);
//! * on a full run, DTW, DDTW or WDTW exact on `bench` is less than
//!   [`SPEEDUP_BARS`] times faster than its pre-vectorization median;
//! * on a `--quick` run with the default seed, a golden does not match:
//!   the Exact accuracies of `bench` and the archive datasets, bit for
//!   bit, against `results/conformance/bench_prune_quick.tsv`, and the
//!   clustered dataset's indexed `(candidates, examined)` against
//!   `results/conformance/bench_index_quick.tsv`. Self-consistency alone
//!   cannot catch a change that breaks every plan the same way, or one
//!   that turns the cascade into a linear scan. After a reviewed change,
//!   re-pin both with `BENCH_SCAN_UPDATE_GOLDEN=1 bench_scan --quick`.
//!
//! `--quick` shrinks every dataset (16 or 48 series of length 64, 3
//! repetitions) for the `scripts/check.sh` smoke. The ledger goes to the
//! repository root unless `--out` names another directory.

use std::collections::BTreeMap;
use std::time::Instant;

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::{DerivativeDtw, Dtw, Erp, Msm, Twe, WeightedDtw};
use tsdist_core::index::TrainIndex;
use tsdist_core::lockstep::{
    Canberra, Chebyshev, CityBlock, Euclidean, Gower, Lorentzian, Minkowski, Soergel,
};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::{one_nn_vote_accuracy, prepare, IndexedStats, NearestNeighbour, Rows, Scan};

/// Maximum median candidates-examined fraction over the clustered
/// dataset's indexed rows: the index must answer the median workload
/// while computing distances for at most 35% of candidates.
const EXAMINED_BAR: f64 = 0.35;

/// Pre-vectorization medians (seconds, `(name, exact, pruned)`) of the
/// full `bench` workload (64x64, length 256, seed 20, median of 5),
/// measured before the multi-lane lock-step and wavefront DP kernels
/// landed: the before/after record behind the DESIGN.md §9 speedup
/// claims, emitted into the ledger's provenance. CityBlock and Minkowski
/// were not yet timed in that baseline.
const BASELINE_MEDIANS: &[(&str, f64, f64)] = &[
    ("ED", 0.000776, 0.000758),
    ("DTW(δ=10)", 0.293782, 0.126726),
    ("DDTW(δ=10)", 0.287090, 0.216285),
    ("WDTW(g=0.05)", 1.169127, 0.141659),
    ("MSM(c=0.5)", 1.345167, 0.936023),
    ("TWE", 1.689527, 0.936201),
];

/// Required exact-median speedup over [`BASELINE_MEDIANS`] on full runs.
/// ED at this size is dominated by fixed per-query cost rather than the
/// 8-lane kernel, so it is reported but not gated; `bench_kernels` gates
/// the ED kernel in isolation.
const SPEEDUP_BARS: &[(&str, f64)] = &[
    ("DTW(δ=10)", 2.0),
    ("DDTW(δ=10)", 2.0),
    ("WDTW(g=0.05)", 2.0),
];

/// Auto rows slower than this fraction of Exact's speed are listed in
/// the ledger.
const AUTO_EXACT_BAR: f64 = 0.95;
/// Auto rows more than this factor behind the fastest fixed plan are
/// listed in the ledger, with the rows they ran under each plan.
const AUTO_BEST_BAR: f64 = 1.10;

/// Label of the timed dataset, also its key in the accuracy golden.
const BENCH: &str = "bench";

/// One measure×normalization workload.
struct Workload {
    name: &'static str,
    norm: Normalization,
    d: Box<dyn Distance>,
}

fn zscored(name: &'static str, d: Box<dyn Distance>) -> Workload {
    Workload {
        name,
        norm: Normalization::ZScore,
        d,
    }
}

/// The timed measures of the `bench` dataset.
fn timed() -> Vec<Workload> {
    vec![
        zscored("ED", Box::new(Euclidean)),
        zscored("CityBlock", Box::new(CityBlock)),
        zscored("Minkowski(p=3)", Box::new(Minkowski::new(3.0))),
        zscored("DTW(δ=10)", Box::new(Dtw::with_window_pct(10.0))),
        zscored("DDTW(δ=10)", Box::new(DerivativeDtw::with_window_pct(10.0))),
        zscored("WDTW(g=0.05)", Box::new(WeightedDtw::new(0.05))),
        zscored("MSM(c=0.5)", Box::new(Msm::new(0.5))),
        zscored("TWE", Box::new(Twe::new(1.0, 1e-4))),
    ]
}

/// The archive datasets' measures: lock-step and elastic families whose
/// `distance_upto` abandons.
fn registry() -> Vec<Workload> {
    vec![
        zscored("ED", Box::new(Euclidean)),
        zscored("CityBlock", Box::new(CityBlock)),
        zscored("Chebyshev", Box::new(Chebyshev)),
        zscored("Minkowski(p=3)", Box::new(Minkowski::new(3.0))),
        zscored("Lorentzian", Box::new(Lorentzian)),
        zscored("DTW(δ=10)", Box::new(Dtw::with_window_pct(10.0))),
        zscored("DDTW(δ=10)", Box::new(DerivativeDtw::with_window_pct(10.0))),
        zscored("WDTW(g=0.05)", Box::new(WeightedDtw::new(0.05))),
        zscored("ERP", Box::new(Erp::new())),
        zscored("MSM(c=0.5)", Box::new(Msm::new(0.5))),
        zscored("TWE", Box::new(Twe::new(1.0, 1e-4))),
    ]
}

/// The clustered dataset's workloads, each with an index structure.
fn indexed() -> Vec<Workload> {
    let logistic = |name, d| Workload {
        name,
        norm: Normalization::Logistic,
        d,
    };
    vec![
        zscored("DTW(δ=10)", Box::new(Dtw::with_window_pct(10.0))),
        zscored("DTW(δ=5)", Box::new(Dtw::with_window_pct(5.0))),
        zscored("ED", Box::new(Euclidean)),
        zscored("CityBlock", Box::new(CityBlock)),
        zscored("Chebyshev", Box::new(Chebyshev)),
        zscored("Minkowski(p=3)", Box::new(Minkowski::new(3.0))),
        zscored("Lorentzian", Box::new(Lorentzian)),
        zscored("Gower", Box::new(Gower)),
        logistic("Canberra", Box::new(Canberra)),
        logistic("Soergel", Box::new(Soergel)),
    ]
}

fn norm_label(norm: Normalization) -> &'static str {
    match norm {
        Normalization::ZScore => "zscore",
        Normalization::Logistic => "logistic",
        _ => "other",
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the splitmix64 stream.
fn unit(x: &mut u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// `CLUSTERS` piecewise-constant cluster shapes (random plateau levels per
/// cluster); instances are shape + small uniform jitter, classes assigned
/// round-robin.
///
/// Index pruning power is a property of the data's neighbourhood
/// contrast, not of the index alone: on contrast-free data (e.g. the
/// noise-dominated archive archetypes after z-scoring, where pairwise
/// distances concentrate) no admissible lower bound separates candidates,
/// and the cascade degenerates into the scan, still byte-identical but not
/// sublinear. So the examined-fraction bar is measured on clustered data,
/// the workload an index is for. Plateau shapes survive both z-scoring
/// (affine per series) and the logistic map (monotone), and keep Keogh
/// envelopes tight away from plateau transitions.
fn clustered_dataset(n_train: usize, n_test: usize, length: usize, seed: u64) -> Dataset {
    const CLUSTERS: usize = 8;
    const PLATEAUS: usize = 4;
    const JITTER: f64 = 0.05;
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let levels: Vec<Vec<f64>> = (0..CLUSTERS)
        .map(|_| {
            (0..PLATEAUS)
                .map(|_| unit(&mut state) * 3.0 - 1.5)
                .collect()
        })
        .collect();
    let mut split = |n: usize| -> (Vec<Vec<f64>>, Vec<usize>) {
        (0..n)
            .map(|i| {
                let c = i % CLUSTERS;
                let series = (0..length)
                    .map(|t| {
                        let p = (t * PLATEAUS / length).min(PLATEAUS - 1);
                        levels[c][p] + (unit(&mut state) * 2.0 - 1.0) * JITTER
                    })
                    .collect();
                (series, c)
            })
            .unzip()
    };
    let (train, train_labels) = split(n_train);
    let (test, test_labels) = split(n_test);
    Dataset {
        name: format!("bench/clustered-{CLUSTERS}x{PLATEAUS}"),
        train,
        train_labels,
        test,
        test_labels,
    }
}

/// What a dataset's rows are pinned against on a quick run.
#[derive(Clone, Copy, PartialEq)]
enum Pin {
    /// The Exact rows' accuracy bits (`bench_prune_quick.tsv`).
    Accuracy,
    /// The indexed rows' counters (`bench_index_quick.tsv`).
    Counters,
}

/// One dataset of the ledger with its workloads.
struct Suite {
    label: String,
    ds: Dataset,
    workloads: Vec<Workload>,
    pin: Pin,
}

/// One (dataset, measure, normalization, plan) row.
struct Row {
    dataset: String,
    measure: &'static str,
    norm: &'static str,
    plan: &'static str,
    pin: Pin,
    seconds: f64,
    /// The first repetition's seconds (Auto's includes its sampling).
    first_seconds: f64,
    stats: IndexedStats,
    accuracy: f64,
    identical: bool,
}

impl Row {
    fn indexed(&self) -> bool {
        matches!(self.plan, "Cascade" | "Pivots")
    }
}

fn same_answers(a: &[NearestNeighbour], b: &[NearestNeighbour]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.distance.to_bits() == y.distance.to_bits())
}

/// The rows of one workload on one dataset: every plan the split
/// supports, each timed over `reps` whole scans, then Auto.
fn plan_rows(suite: &Suite, w: &Workload, reps: usize) -> Vec<Row> {
    let prepared = prepare(&suite.ds, w.norm);
    let (d, train) = (w.d.as_ref(), &prepared.train);
    let mut ix = TrainIndex::build(train);
    ix.prepare_measure(d, train);
    let structure = ix.stats();
    let mut plans = vec!["Exact", "Cutoff"];
    if structure.dtw_bands > 0 {
        plans.push("Cascade");
    } else if structure.pivot_tables > 0 {
        plans.push("Pivots");
    }
    plans.push("Auto");
    let base = Scan::new(d, train);
    // Auto's repetitions share the index, and with it the plan memory,
    // as a served split's queries do: the first pays the sampling rows.
    let scans: Vec<Scan<'_>> = plans
        .iter()
        .map(|&plan| match plan {
            "Exact" => base,
            "Cutoff" => base.pruned(true),
            "Auto" => base.pruned(true).indexed(&ix).auto(true),
            _ => base.pruned(true).indexed(&ix),
        })
        .collect();
    // Repetitions interleave the plans, each starting one plan later
    // than the last, so a slow spell of the host, or the state one plan
    // leaves behind, falls on every plan alike.
    let mut times = vec![Vec::with_capacity(reps); plans.len()];
    let mut answers = vec![(Vec::new(), IndexedStats::default()); plans.len()];
    for rep in 0..reps {
        for p in (0..plans.len()).map(|p| (p + rep) % plans.len()) {
            let start = Instant::now();
            answers[p] = scans[p].nearest(Rows::Queries(&prepared.test));
            times[p].push(start.elapsed().as_secs_f64());
        }
    }
    let exact = answers[0].0.clone();
    plans
        .into_iter()
        .zip(times)
        .zip(answers)
        .map(|((plan, mut times), (nns, stats))| {
            let first_seconds = times[0];
            times.sort_by(f64::total_cmp);
            Row {
                dataset: suite.label.clone(),
                measure: w.name,
                norm: norm_label(w.norm),
                plan,
                pin: suite.pin,
                seconds: times[times.len() / 2],
                first_seconds,
                stats,
                accuracy: one_nn_vote_accuracy(&nns, &prepared.test_labels, &prepared.train_labels)
                    .expect("a generated split has a train label per series"),
                identical: same_answers(&nns, &exact),
            }
        })
        .collect()
}

/// How Auto did on each (dataset, measure, normalization): its median
/// time against Exact's and the fastest fixed plan's, with the rows it
/// ran under each plan (its sampling and probe rows included).
struct AutoReport<'a> {
    auto: &'a Row,
    exact: f64,
    best: &'a Row,
}

impl AutoReport<'_> {
    /// Auto's speed relative to Exact (above 1 is faster).
    fn vs_exact(&self) -> f64 {
        self.exact / self.auto.seconds
    }

    /// Auto's time relative to the fastest fixed plan (above 1 is
    /// slower).
    fn behind_best(&self) -> f64 {
        self.auto.seconds / self.best.seconds
    }
}

fn auto_reports(rows: &[Row]) -> Vec<AutoReport<'_>> {
    let same =
        |a: &Row, b: &Row| (&a.dataset, a.measure, a.norm) == (&b.dataset, b.measure, b.norm);
    rows.iter()
        .filter(|r| r.plan == "Auto")
        .filter_map(|auto| {
            let fixed = || rows.iter().filter(|r| r.plan != "Auto" && same(r, auto));
            let exact = fixed().find(|r| r.plan == "Exact")?.seconds;
            let best = fixed().min_by(|a, b| a.seconds.total_cmp(&b.seconds))?;
            Some(AutoReport { auto, exact, best })
        })
        .collect()
}

/// The rows a scan ran under each plan, as a JSON object.
fn rows_by_plan(s: &IndexedStats) -> String {
    format!(
        "{{\"Exact\": {}, \"Cutoff\": {}, \"Cascade\": {}, \"Pivots\": {}}}",
        s.exact_rows, s.cutoff_rows, s.cascade_rows, s.pivot_rows
    )
}

/// A committed golden: tab-separated lines whose first two fields are the
/// key and whose next `compared` fields are pinned; any later field is a
/// note for the reader.
struct Golden {
    path: &'static str,
    title: &'static str,
    columns: &'static str,
    compared: usize,
}

const ACCURACY_GOLDEN: Golden = Golden {
    path: concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/conformance/bench_prune_quick.tsv"
    ),
    title: "golden Exact-plan 1-NN accuracies",
    columns: "measure\tinput\tbits\tvalue",
    compared: 1,
};

const COUNTER_GOLDEN: Golden = Golden {
    path: concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/conformance/bench_index_quick.tsv"
    ),
    title: "golden indexed-plan pruning counters",
    columns: "measure\tnorm\tcandidates\texamined",
    compared: 2,
};

impl Golden {
    /// Re-pins the file from `entries` when `update`, otherwise compares
    /// them with it; returns one line per discrepancy.
    fn enforce(&self, entries: &[Vec<String>], seed: u64, update: bool) -> Vec<String> {
        if update {
            let mut text = format!(
                "# bench_scan --quick {} (seed {seed})\n\
                 # {} — re-pin with BENCH_SCAN_UPDATE_GOLDEN=1\n",
                self.title, self.columns
            );
            for fields in entries {
                text.push_str(&fields.join("\t"));
                text.push('\n');
            }
            std::fs::write(self.path, text).expect("write golden file");
            eprintln!(
                "[bench_scan] pinned {} entries to {}",
                entries.len(),
                self.path
            );
            return Vec::new();
        }
        let text = match std::fs::read_to_string(self.path) {
            Ok(text) => text,
            Err(e) => return vec![format!("reading golden {}: {e}", self.path)],
        };
        let pinned = |fields: &[String]| -> Option<((String, String), Vec<String>)> {
            let key = (fields.first()?.clone(), fields.get(1)?.clone());
            Some((key, fields.get(2..2 + self.compared)?.to_vec()))
        };
        let mut committed: BTreeMap<(String, String), Vec<String>> = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| pinned(&line.split('\t').map(String::from).collect::<Vec<_>>()))
            .collect();
        let mut problems = Vec::new();
        for ((a, b), got) in entries.iter().filter_map(|fields| pinned(fields)) {
            match committed.remove(&(a.clone(), b.clone())) {
                Some(want) if want == got => {}
                Some(want) => problems.push(format!(
                    "golden mismatch: {a} ({b}): committed {}, computed {}",
                    want.join(" "),
                    got.join(" ")
                )),
                None => problems.push(format!("golden missing entry: {a} ({b})")),
            }
        }
        for (a, b) in committed.keys() {
            problems.push(format!("golden has stale entry: {a} ({b})"));
        }
        if problems.is_empty() {
            eprintln!(
                "[bench_scan] {} entries identical to golden {}",
                entries.len(),
                self.path
            );
        }
        problems
    }
}

fn ledger_json(
    cfg: &ExperimentConfig,
    reps: usize,
    suites: &[Suite],
    rows: &[Row],
    median_fraction: Option<f64>,
) -> String {
    let mut json = format!(
        "{{\n  \"config\": {{\"seed\": {}, \"quick\": {}, \"repetitions\": {reps}}},\n  \
         \"datasets\": [\n",
        cfg.seed, cfg.quick
    );
    let items: Vec<String> = suites
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"train\": {}, \"test\": {}, \"length\": {}}}",
                s.label,
                s.ds.train.len(),
                s.ds.test.len(),
                s.ds.train.first().map_or(0, Vec::len)
            )
        })
        .collect();
    json.push_str(&items.join(",\n"));
    json.push_str("\n  ],\n  \"rows\": [\n");
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"dataset\": \"{}\", \"measure\": \"{}\", \"norm\": \"{}\", \
                 \"plan\": \"{}\", \"median_seconds\": {:.6e}, \"first_seconds\": {:.6e}, \
                 \"candidates\": {}, \"examined\": {}, \"rows_by_plan\": {}, \"accuracy\": {}, \
                 \"identical\": {}}}",
                r.dataset,
                r.measure,
                r.norm,
                r.plan,
                r.seconds,
                r.first_seconds,
                r.stats.candidates,
                r.stats.examined,
                rows_by_plan(&r.stats),
                r.accuracy,
                r.identical
            )
        })
        .collect();
    json.push_str(&items.join(",\n"));
    let failures = rows.iter().filter(|r| !r.identical).count();
    let reports = auto_reports(rows);
    let listed = |keep: &dyn Fn(&AutoReport<'_>) -> bool| -> String {
        let items: Vec<String> = reports
            .iter()
            .filter(|a| keep(a))
            .map(|a| {
                format!(
                    "      {{\"dataset\": \"{}\", \"measure\": \"{}\", \"norm\": \"{}\", \
                     \"vs_exact\": {:.3}, \"behind_best\": {:.3}, \"best_plan\": \"{}\", \
                     \"first_behind_best\": {:.3}, \"rows_by_plan\": {}}}",
                    a.auto.dataset,
                    a.auto.measure,
                    a.auto.norm,
                    a.vs_exact(),
                    a.behind_best(),
                    a.best.plan,
                    a.auto.first_seconds / a.best.seconds,
                    rows_by_plan(&a.auto.stats)
                )
            })
            .collect();
        if items.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n    ]", items.join(",\n"))
        }
    };
    let min_vs_exact = reports
        .iter()
        .map(AutoReport::vs_exact)
        .min_by(f64::total_cmp)
        .map_or("null".to_string(), |v| format!("{v:.3}"));
    json.push_str(&format!(
        "\n  ],\n  \"auto\": {{\n    \"min_vs_exact\": {min_vs_exact},\n    \
         \"below_0.95_of_exact\": {},\n    \"over_10pct_behind_best\": {}\n  }},",
        listed(&|a| a.vs_exact() < AUTO_EXACT_BAR),
        listed(&|a| a.behind_best() > AUTO_BEST_BAR)
    ));
    json.push_str(&format!(
        "\n  \"failures\": {failures},\n  \"median_examined_fraction\": {},\n  \
         \"examined_bar\": {EXAMINED_BAR},\n  \
         \"provenance\": {{\"baseline\": \"pre-vectorization kernels (scalar zip folds, \
         row-major DP), Exact and Cutoff on bench\", \"baseline_medians_seconds\": {{\n",
        median_fraction.map_or("null".to_string(), |f| format!("{f:.6}"))
    ));
    let items: Vec<String> = BASELINE_MEDIANS
        .iter()
        .map(|(name, exact, pruned)| format!("    \"{name}\": [{exact}, {pruned}]"))
        .collect();
    json.push_str(&items.join(",\n"));
    json.push_str("}}\n}\n");
    json
}

fn main() {
    let cfg = ExperimentConfig::ledger_from_args();
    let (bench_series, clustered_series, length, reps) = if cfg.quick {
        (16, 48, 64, 3)
    } else {
        (64, 64, 256, 15)
    };

    // Index 6 of a 7-dataset archive is the `mixed` archetype.
    let bench_cfg = ArchiveConfig {
        n_datasets: 7,
        seed: cfg.seed,
        length: (length, length),
        classes: (2, 4),
        train_size: (bench_series, bench_series),
        test_size: (bench_series, bench_series),
        irregular_fraction: 0.0,
    };
    let mut suites = vec![Suite {
        label: BENCH.to_string(),
        ds: generate_dataset(&bench_cfg, 6),
        workloads: timed(),
        pin: Pin::Accuracy,
    }];
    let archive = ArchiveConfig::quick(3, cfg.seed.wrapping_add(1));
    for index in 0..archive.n_datasets {
        let ds = generate_dataset(&archive, index);
        suites.push(Suite {
            label: ds.name.clone(),
            ds,
            workloads: registry(),
            pin: Pin::Accuracy,
        });
    }
    let clustered = clustered_dataset(clustered_series, clustered_series, length, cfg.seed);
    suites.push(Suite {
        label: clustered.name.clone(),
        ds: clustered,
        workloads: indexed(),
        pin: Pin::Counters,
    });

    let mut rows: Vec<Row> = Vec::new();
    for suite in &suites {
        eprintln!(
            "[bench_scan] {}: {} train / {} test, {reps} reps per plan",
            suite.label,
            suite.ds.train.len(),
            suite.ds.test.len()
        );
        for w in &suite.workloads {
            for row in plan_rows(suite, w, reps) {
                eprintln!(
                    "[bench_scan] {:14} ({:8}) {:7} {:10.4e}s  examined {:6}/{:6}  \
                     identical {}",
                    row.measure,
                    row.norm,
                    row.plan,
                    row.seconds,
                    row.stats.examined,
                    row.stats.candidates,
                    row.identical
                );
                rows.push(row);
            }
        }
    }

    let mut fractions: Vec<f64> = rows
        .iter()
        .filter(|r| r.pin == Pin::Counters && r.indexed())
        .map(|r| r.stats.examined_fraction())
        .collect();
    fractions.sort_by(f64::total_cmp);
    let median_fraction = fractions.get(fractions.len() / 2).copied();
    let ledger = ledger_json(&cfg, reps, &suites, &rows, median_fraction);
    cfg.save("BENCH_scan.json", &ledger);
    for a in auto_reports(&rows) {
        eprintln!(
            "[bench_scan] Auto {:14} ({:8}) on {}: {:.2}x Exact's speed, {:.2}x the time of \
             {} (rows by plan {})",
            a.auto.measure,
            a.auto.norm,
            a.auto.dataset,
            a.vs_exact(),
            a.behind_best(),
            a.best.plan,
            rows_by_plan(&a.auto.stats)
        );
    }

    let mut failed = false;
    for r in rows.iter().filter(|r| !r.identical) {
        eprintln!(
            "FAIL: {} ({}) on {}: {} answers differ from the Exact plan",
            r.measure, r.norm, r.dataset, r.plan
        );
        failed = true;
    }
    match median_fraction {
        Some(f) if f <= EXAMINED_BAR => eprintln!(
            "[bench_scan] median indexed examined fraction {:.1}% (bar {:.0}%)",
            f * 100.0,
            EXAMINED_BAR * 100.0
        ),
        other => {
            eprintln!("FAIL: median indexed examined fraction {other:?} exceeds {EXAMINED_BAR}");
            failed = true;
        }
    }

    // The goldens are only meaningful on the canonical quick workload;
    // custom seeds produce other datasets.
    if cfg.quick && cfg.seed == ExperimentConfig::default().seed {
        let update = std::env::var_os("BENCH_SCAN_UPDATE_GOLDEN").is_some();
        let accuracies: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.pin == Pin::Accuracy && r.plan == "Exact")
            .map(|r| {
                vec![
                    r.measure.to_string(),
                    r.dataset.clone(),
                    format!("{:#018x}", r.accuracy.to_bits()),
                    format!("{:e}", r.accuracy),
                ]
            })
            .collect();
        let counters: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.pin == Pin::Counters && r.indexed())
            .map(|r| {
                vec![
                    r.measure.to_string(),
                    r.norm.to_string(),
                    r.stats.candidates.to_string(),
                    r.stats.examined.to_string(),
                ]
            })
            .collect();
        for (golden, entries) in [(&ACCURACY_GOLDEN, accuracies), (&COUNTER_GOLDEN, counters)] {
            let problems = golden.enforce(&entries, cfg.seed, update);
            for p in &problems {
                eprintln!("FAIL: {p}");
                failed = true;
            }
            if !problems.is_empty() {
                eprintln!(
                    "re-pin deliberately with: BENCH_SCAN_UPDATE_GOLDEN=1 bench_scan --quick"
                );
            }
        }
    }

    // Kernel-regression gate: the exact path must hold the vectorization
    // win against the recorded pre-vectorization medians.
    if !cfg.quick {
        for (name, bar) in SPEEDUP_BARS {
            let row = rows
                .iter()
                .find(|r| r.dataset == BENCH && r.plan == "Exact" && r.measure == *name);
            let base = BASELINE_MEDIANS.iter().find(|(n, _, _)| n == name);
            if let (Some(row), Some((_, base_exact, _))) = (row, base) {
                let speedup = base_exact / row.seconds;
                if speedup < *bar {
                    eprintln!(
                        "FAIL: {name} exact median {:.6}s is only {speedup:.2}x over the \
                         pre-vectorization baseline {base_exact:.6}s (bar: {bar}x)",
                        row.seconds
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "[bench_scan] {name} exact {speedup:.2}x over pre-vectorization \
                         baseline (bar {bar}x)"
                    );
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
