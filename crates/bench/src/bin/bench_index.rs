//! `BENCH_index.json`: sublinear index tier vs exact 1-NN scan.
//!
//! Runs the PAA lower-bound cascade / pivot-pruning index
//! (`indexed_nn_search_stats`) against the early-abandoning exact scan
//! (`pruned_nn_search`) on a fixed-seed clustered dataset — 64 train /
//! 64 test series of length 256, eight piecewise-constant cluster
//! shapes (see [`clustered_dataset`] for why clustered) — across ten
//! measure×normalization workloads: the band cascade (DTW δ=10 and
//! δ=5), the declared-metric lock-steps under z-score, and the
//! positive-orthant metrics (Canberra, Soergel) under the logistic map.
//! For every workload the run hard-asserts `answers_identical`
//! (bitwise, row by row), reports the candidates-examined fraction, and
//! times per-query p50/p95 latency of both paths. The median examined
//! fraction across workloads must stay at or below [`EXAMINED_BAR`] —
//! the index has to actually prune, not merely agree.
//!
//! `--quick` shrinks the workload (48 series, length 64) for the
//! `scripts/check.sh` smoke; the acceptance run uses defaults.
//!
//! In quick mode with the default seed the run additionally pins every
//! workload's `(candidates, examined)` counters *exactly* against the
//! committed golden file `results/conformance/bench_index_quick.tsv` —
//! byte-identity alone cannot catch a regression that silently turns
//! the cascade into a linear scan. Counts are chunking-invariant
//! because `warm_start=false` makes every row independent. After a
//! reviewed bound change, re-pin with
//! `BENCH_INDEX_UPDATE_GOLDEN=1 bench_index --quick`; override the
//! location with `BENCH_INDEX_GOLDEN=<path>`.

use std::time::Instant;

use tsdist_bench::ExperimentConfig;
use tsdist_core::elastic::Dtw;
use tsdist_core::index::TrainIndex;
use tsdist_core::lockstep::{
    Canberra, Chebyshev, CityBlock, Euclidean, Gower, Lorentzian, Minkowski, Soergel,
};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_data::Dataset;
use tsdist_eval::{indexed_nn_search_stats, prepare, pruned_nn_search};

/// Maximum median candidates-examined fraction across workloads. The
/// acceptance criterion: the indexed tier must answer the median
/// workload while computing distances for at most 35% of candidates.
const EXAMINED_BAR: f64 = 0.35;

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

/// The benchmark dataset: `CLUSTERS` piecewise-constant cluster shapes
/// (random plateau levels per cluster), instances = shape + small
/// uniform jitter, classes assigned round-robin.
///
/// Index pruning power is a property of the data's neighborhood
/// contrast, not of the index alone: on contrast-free data (e.g. the
/// noise-dominated synthetic-archive archetypes after z-scoring, where
/// pairwise distances concentrate) *no* admissible lower bound can
/// separate candidates, and the cascade degenerates gracefully into the
/// exact scan — still byte-identical, just not sublinear. The bench
/// therefore measures on clustered data where 1-NN structure exists,
/// which is the workload an index tier is for. Plateau shapes in
/// particular survive both z-scoring (affine per series) and the
/// logistic map (monotone), and keep Keogh envelopes tight away from
/// plateau transitions.
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
    let instance = |cluster: usize, state: &mut u64| -> Vec<f64> {
        (0..length)
            .map(|t| {
                let p = (t * PLATEAUS / length).min(PLATEAUS - 1);
                levels[cluster][p] + (unit(state) * 2.0 - 1.0) * JITTER
            })
            .collect()
    };
    let mut train = Vec::with_capacity(n_train);
    let mut train_labels = Vec::with_capacity(n_train);
    for i in 0..n_train {
        let c = i % CLUSTERS;
        train.push(instance(c, &mut state));
        train_labels.push(c);
    }
    let mut test = Vec::with_capacity(n_test);
    let mut test_labels = Vec::with_capacity(n_test);
    for i in 0..n_test {
        let c = i % CLUSTERS;
        test.push(instance(c, &mut state));
        test_labels.push(c);
    }
    Dataset {
        name: format!("bench/clustered-{CLUSTERS}x{PLATEAUS}"),
        train,
        train_labels,
        test,
        test_labels,
    }
}

/// One measure×normalization workload.
struct Workload {
    name: &'static str,
    norm: Normalization,
    d: Box<dyn Distance>,
}

fn workloads() -> Vec<Workload> {
    use Normalization::{Logistic, ZScore};
    vec![
        Workload {
            name: "DTW(δ=10)",
            norm: ZScore,
            d: Box::new(Dtw::with_window_pct(10.0)),
        },
        Workload {
            name: "DTW(δ=5)",
            norm: ZScore,
            d: Box::new(Dtw::with_window_pct(5.0)),
        },
        Workload {
            name: "ED",
            norm: ZScore,
            d: Box::new(Euclidean),
        },
        Workload {
            name: "CityBlock",
            norm: ZScore,
            d: Box::new(CityBlock),
        },
        Workload {
            name: "Chebyshev",
            norm: ZScore,
            d: Box::new(Chebyshev),
        },
        Workload {
            name: "Minkowski(p=3)",
            norm: ZScore,
            d: Box::new(Minkowski::new(3.0)),
        },
        Workload {
            name: "Lorentzian",
            norm: ZScore,
            d: Box::new(Lorentzian),
        },
        Workload {
            name: "Gower",
            norm: ZScore,
            d: Box::new(Gower),
        },
        Workload {
            name: "Canberra",
            norm: Logistic,
            d: Box::new(Canberra),
        },
        Workload {
            name: "Soergel",
            norm: Logistic,
            d: Box::new(Soergel),
        },
    ]
}

/// Results of one workload: pruning counters, identity verdict, and
/// per-query latency quantiles of both paths.
struct BenchRow {
    name: &'static str,
    norm: &'static str,
    candidates: u64,
    examined: u64,
    fallback_rows: u64,
    identical: bool,
    indexed_p50: f64,
    indexed_p95: f64,
    exact_p50: f64,
    exact_p95: f64,
}

impl BenchRow {
    fn examined_fraction(&self) -> f64 {
        self.examined as f64 / self.candidates.max(1) as f64
    }
}

fn norm_label(norm: Normalization) -> &'static str {
    match norm {
        Normalization::ZScore => "zscore",
        Normalization::Logistic => "logistic",
        _ => "other",
    }
}

/// Per-query latencies (seconds), sorted ascending.
fn per_query_seconds(mut run: impl FnMut(usize), rows: usize) -> Vec<f64> {
    let mut times = Vec::with_capacity(rows);
    for i in 0..rows {
        let start = Instant::now();
        run(i);
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[pos]
}

/// Default location of the committed golden counters, resolved from the
/// crate manifest so the gate works regardless of the invocation cwd.
const GOLDEN_DEFAULT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/conformance/bench_index_quick.tsv"
);

fn golden_render(rows: &[BenchRow]) -> String {
    let mut out = String::from(
        "# bench_index --quick golden pruning counters (seed 20)\n\
         # measure\tnorm\tcandidates\texamined — re-pin with BENCH_INDEX_UPDATE_GOLDEN=1\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            r.name, r.norm, r.candidates, r.examined
        ));
    }
    out
}

/// Compares computed counters against the committed golden, returning
/// one human-readable line per discrepancy.
fn golden_check(text: &str, rows: &[BenchRow]) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut committed: BTreeMap<(String, String), (String, String)> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() >= 4 {
            committed.insert(
                (fields[0].to_string(), fields[1].to_string()),
                (fields[2].to_string(), fields[3].to_string()),
            );
        }
    }
    let mut problems = Vec::new();
    for r in rows {
        let want = committed.remove(&(r.name.to_string(), r.norm.to_string()));
        let got = (r.candidates.to_string(), r.examined.to_string());
        match want {
            Some(w) if w == got => {}
            Some((wc, we)) => problems.push(format!(
                "golden mismatch: {} ({}): committed candidates={wc} examined={we}, \
                 computed candidates={} examined={}",
                r.name, r.norm, got.0, got.1
            )),
            None => problems.push(format!("golden missing entry: {} ({})", r.name, r.norm)),
        }
    }
    for (measure, norm) in committed.keys() {
        problems.push(format!("golden has stale entry: {measure} ({norm})"));
    }
    problems
}

fn main() {
    let cfg = ExperimentConfig::from_args();
    let (n_series, length) = if cfg.quick { (48, 64) } else { (64, 256) };
    let ds = clustered_dataset(n_series, n_series, length, cfg.seed);
    eprintln!(
        "[bench_index] {} train / {} test, length {length}",
        ds.train.len(),
        ds.test.len()
    );

    let mut rows: Vec<BenchRow> = Vec::new();
    for w in workloads() {
        let prepared = prepare(&ds, w.norm);
        let d = w.d.as_ref();
        let mut ix = TrainIndex::build(&prepared.train);
        ix.prepare_measure(d, &prepared.train);

        // Byte-identity + pruning counters in one batched pass.
        // `warm_start=false` keeps rows independent, so the counters are
        // invariant to parallel chunking and safe to pin in the golden.
        let exact = pruned_nn_search(d, &prepared.test, &prepared.train, false);
        let (indexed, stats) =
            indexed_nn_search_stats(d, &prepared.test, &prepared.train, &ix, false);
        let identical = indexed.len() == exact.len()
            && indexed
                .iter()
                .zip(&exact)
                .all(|(a, b)| a.index == b.index && a.distance.to_bits() == b.distance.to_bits());

        // Per-query latency: one timed single-row call per test series,
        // through each path.
        let indexed_times = per_query_seconds(
            |i| {
                indexed_nn_search_stats(
                    d,
                    std::slice::from_ref(&prepared.test[i]),
                    &prepared.train,
                    &ix,
                    false,
                );
            },
            prepared.test.len(),
        );
        let exact_times = per_query_seconds(
            |i| {
                pruned_nn_search(
                    d,
                    std::slice::from_ref(&prepared.test[i]),
                    &prepared.train,
                    false,
                );
            },
            prepared.test.len(),
        );

        let row = BenchRow {
            name: w.name,
            norm: norm_label(w.norm),
            candidates: stats.candidates,
            examined: stats.examined,
            fallback_rows: stats.fallback_rows,
            identical,
            indexed_p50: quantile(&indexed_times, 0.50),
            indexed_p95: quantile(&indexed_times, 0.95),
            exact_p50: quantile(&exact_times, 0.50),
            exact_p95: quantile(&exact_times, 0.95),
        };
        eprintln!(
            "[bench_index] {:14} ({:8}) examined {:6}/{:6} = {:5.1}%  \
             p50 {:.2e}s vs {:.2e}s  identical {}",
            row.name,
            row.norm,
            row.examined,
            row.candidates,
            row.examined_fraction() * 100.0,
            row.indexed_p50,
            row.exact_p50,
            row.identical
        );
        rows.push(row);
    }

    let mut fractions: Vec<f64> = rows.iter().map(BenchRow::examined_fraction).collect();
    fractions.sort_by(f64::total_cmp);
    let median_fraction = fractions[fractions.len() / 2];
    let answers_identical = rows.iter().all(|r| r.identical);
    eprintln!(
        "[bench_index] median examined fraction {:.1}% (bar {:.0}%), answers identical {}",
        median_fraction * 100.0,
        EXAMINED_BAR * 100.0,
        answers_identical
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"train\": {}, \"test\": {}, \"length\": {length}, \
         \"seed\": {}, \"quick\": {}}},\n",
        ds.train.len(),
        ds.test.len(),
        cfg.seed,
        cfg.quick
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"norm\": \"{}\", \"candidates\": {}, \
             \"examined\": {}, \"examined_fraction\": {:.6}, \"fallback_rows\": {}, \
             \"indexed_p50_seconds\": {:.3e}, \"indexed_p95_seconds\": {:.3e}, \
             \"exact_p50_seconds\": {:.3e}, \"exact_p95_seconds\": {:.3e}, \
             \"identical\": {}}}{}\n",
            r.name,
            r.norm,
            r.candidates,
            r.examined,
            r.examined_fraction(),
            r.fallback_rows,
            r.indexed_p50,
            r.indexed_p95,
            r.exact_p50,
            r.exact_p95,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"median_examined_fraction\": {median_fraction:.6},\n"
    ));
    json.push_str(&format!("  \"examined_bar\": {EXAMINED_BAR},\n"));
    json.push_str(&format!(
        "  \"answers_identical\": {answers_identical}\n}}\n"
    ));
    cfg.save("BENCH_index.json", &json);

    let mut failed = false;
    for r in &rows {
        if !r.identical {
            eprintln!(
                "FAIL: {} ({}) indexed answers differ from the exact scan",
                r.name, r.norm
            );
            failed = true;
        }
    }
    if median_fraction > EXAMINED_BAR {
        eprintln!(
            "FAIL: median examined fraction {median_fraction:.3} exceeds the bar {EXAMINED_BAR}"
        );
        failed = true;
    }

    // Golden counter gate: only meaningful on the canonical quick
    // workload (default seed); custom seeds produce different datasets.
    if cfg.quick && cfg.seed == ExperimentConfig::default().seed {
        let golden_path =
            std::env::var("BENCH_INDEX_GOLDEN").unwrap_or_else(|_| GOLDEN_DEFAULT.to_string());
        if std::env::var("BENCH_INDEX_UPDATE_GOLDEN").is_ok() {
            if let Some(parent) = std::path::Path::new(&golden_path).parent() {
                std::fs::create_dir_all(parent).expect("create golden directory");
            }
            std::fs::write(&golden_path, golden_render(&rows)).expect("write golden file");
            eprintln!(
                "[bench_index] pinned {} golden counter rows to {golden_path}",
                rows.len()
            );
        } else {
            match std::fs::read_to_string(&golden_path) {
                Ok(text) => {
                    let problems = golden_check(&text, &rows);
                    for p in &problems {
                        eprintln!("FAIL: {p}");
                        failed = true;
                    }
                    if problems.is_empty() {
                        eprintln!(
                            "[bench_index] {} counter rows identical to golden {golden_path}",
                            rows.len()
                        );
                    } else {
                        eprintln!(
                            "re-pin deliberately with: BENCH_INDEX_UPDATE_GOLDEN=1 \
                             bench_index --quick"
                        );
                    }
                }
                Err(e) => {
                    eprintln!(
                        "FAIL: reading golden {golden_path}: {e}\n\
                         (create it with BENCH_INDEX_UPDATE_GOLDEN=1 bench_index --quick)"
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
