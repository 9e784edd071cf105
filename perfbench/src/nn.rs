//! `nn-indexed`: batches of 1-NN queries through `Eval::indexed` against
//! a clustered train split of thousands of series, for DTW(δ=10) (the
//! PAA → LB_Keogh → `distance_upto` cascade plan) and two declared
//! metrics, ED and CityBlock (the pivot plan).
//!
//! The train split is large enough that scanning candidates, not per-row
//! overhead, dominates — the regime the index tier exists for. Clustered
//! data is used because on contrast-free data no admissible lower bound
//! separates candidates. Stresses the index planner, lower bounds and
//! early-abandoning kernels; bypasses the study runner, the matrix
//! engine and the wire.

use std::collections::BTreeMap;
use std::time::Instant;

use tsdist_core::elastic::{lb_keogh, Dtw};
use tsdist_core::index::QueryPlan;
use tsdist_core::lockstep::{CityBlock, Euclidean};
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::Dataset;
use tsdist_eval::{indexed_nn_search_stats, prepare, pruned_nn_search, Eval, IndexedStats};

use crate::schedule::{splitmix64, unit};
use crate::stats::{median, summarize};
use crate::trace::{self, KernelHandle};
use crate::{host, peak_rss_mb, Ctx, Outcome};

/// Train series.
const TRAIN: usize = 3000;
/// Query pool (the dataset's test split).
const QUERIES: usize = 240;
/// Series length.
const LEN: usize = 128;
/// Cluster shapes.
const CLUSTERS: usize = 24;
/// Queries per `Eval` call.
const BATCH: usize = 16;
/// Timed set-ups per run; the median is reported.
const SETUP_REPS: usize = 15;
/// Tail percentile of the per-call latency: a run makes well over 100
/// calls, leaving more than ten beyond p90.
const TAIL_P: f64 = 90.0;

/// The measures, whether each is served by the cascade plan, and its
/// kernel layer.
fn measures() -> Vec<(Box<dyn Distance>, bool, &'static str)> {
    vec![
        (Box::new(Dtw::with_window_pct(10.0)), true, "core.elastic"),
        (Box::new(Euclidean), false, "core.lockstep"),
        (Box::new(CityBlock), false, "core.lockstep"),
    ]
}

/// A clustered dataset. The cluster prototypes are fixed — cluster `c`
/// sums sinusoids at frequencies `1 + c % 4`, `2 + c / 4 % 6` and `3 +
/// c % 5` with phases set by `c` — so every seed offers data of the same
/// neighbourhood structure, and with it the same pruning power. The
/// seed draws each instance's cluster, time shift (±2%), gain (±10%)
/// and white noise. Classes are the clusters.
fn clustered(seed: u64) -> Dataset {
    use std::f64::consts::TAU;
    let shape = |c: usize, x: f64| -> f64 {
        let fs = [1 + c % 4, 2 + c / 4 % 6, 3 + c % 5];
        fs.iter()
            .enumerate()
            .map(|(k, &f)| {
                let phase = (c * 7 + k * 3) as f64 * 0.37;
                (TAU * f as f64 * x + phase).sin() / (k + 1) as f64
            })
            .sum()
    };
    let mut state = seed ^ 0xC1A5_7E8D_0000_0001;
    let mut split = |n: usize| -> (Vec<Vec<f64>>, Vec<usize>) {
        (0..n)
            .map(|_| {
                let c = (splitmix64(&mut state) % CLUSTERS as u64) as usize;
                let shift = (unit(&mut state) - 0.5) * 0.04;
                let gain = 1.0 + (unit(&mut state) - 0.5) * 0.2;
                let series = (0..LEN)
                    .map(|t| {
                        let x = t as f64 / LEN as f64 + shift;
                        gain * shape(c, x) + (unit(&mut state) - 0.5) * 0.2
                    })
                    .collect();
                (series, c)
            })
            .unzip()
    };
    let (train, train_labels) = split(TRAIN);
    let (test, test_labels) = split(QUERIES);
    Dataset {
        name: format!("perfbench/clustered-{seed}"),
        train,
        train_labels,
        test,
        test_labels,
    }
}

struct Setup {
    /// Prepared train split with the raw test split as the query pool:
    /// what `Eval` searches with `assume_prepared`.
    served: Dataset,
    /// The z-scored test split, for the reference scans.
    prepared_queries: Vec<Vec<f64>>,
    index: TrainIndex,
}

fn setup(ctx: &Ctx, rep: usize) -> (Setup, f64, [f64; 3]) {
    let tracer = &ctx.tracer;
    let open = tracer.open(0, "setup", "bench");
    let parent = open.id();
    let cpu0 = host::cpu_seconds();
    let (raw, gen_s) = tracer.time(
        parent,
        "data::Dataset::validate",
        "data",
        rep.to_string(),
        || {
            let ds = clustered(ctx.seed);
            ds.validate().expect("generated dataset is valid");
            ds
        },
    );
    let (prepared, prep_s) = tracer.time(
        parent,
        "eval::prepare",
        "eval.evaluator",
        rep.to_string(),
        || prepare(&raw, Normalization::ZScore),
    );
    let (index, index_s) = tracer.time(
        parent,
        "core::TrainIndex::build",
        "core.index",
        rep.to_string(),
        || {
            let mut ix = TrainIndex::build(&prepared.train);
            for (m, _, _) in measures() {
                ix.prepare_measure(m.as_ref(), &prepared.train);
            }
            ix
        },
    );
    let setup_s = host::cpu_seconds() - cpu0;
    tracer.close(open, rep.to_string());
    let served = Dataset {
        name: raw.name.clone(),
        train: prepared.train.clone(),
        train_labels: prepared.train_labels.clone(),
        test: raw.test.clone(),
        test_labels: raw.test_labels.clone(),
    };
    (
        Setup {
            served,
            prepared_queries: prepared.test,
            index,
        },
        setup_s,
        [gen_s, prep_s, index_s],
    )
}

/// One measured phase: calls round-robin over the measures.
#[derive(Default)]
struct Phase {
    /// Process CPU milliseconds of each call.
    calls_ms: Vec<f64>,
    queries: u64,
    cpu_s: f64,
    /// Thread-nanoseconds per kernel layer (traced phases).
    kernel: BTreeMap<&'static str, trace::KernelTotals>,
}

/// Every answer seen: `(measure, query) -> (index, distance bits)`.
type Seen = BTreeMap<(usize, usize), (Option<usize>, u64)>;

fn phase(
    ctx: &Ctx,
    s: &Setup,
    traced: bool,
    budget_s: f64,
    seen: &mut Seen,
    out: &mut Outcome,
) -> Phase {
    let tracer = &ctx.tracer;
    let ms: Vec<(Box<dyn Distance>, Option<KernelHandle>, &'static str)> = measures()
        .into_iter()
        .map(|(m, _, layer)| {
            let (m, h) = trace::maybe_timed(m, trace::no_cells, traced);
            (m, h, layer)
        })
        .collect();
    let mut p = Phase::default();
    let started = Instant::now();
    let mut call = 0usize;
    while call < 3 * ms.len() || started.elapsed().as_secs_f64() < budget_s {
        let mi = call % ms.len();
        let first = (call / ms.len() * BATCH) % QUERIES;
        let batch: Vec<Vec<f64>> = (first..first + BATCH)
            .map(|q| s.served.test[q % QUERIES].clone())
            .collect();
        let (m, h, layer) = &ms[mi];
        let before = h.map(|h| h.totals());
        let span_layer = if traced { "eval.index" } else { "bench" };
        let open = tracer.open(0, "eval::Eval::run(indexed)", span_layer);
        let cpu0 = host::cpu_seconds();
        let report = Eval::new(m.as_ref())
            .on(&s.served)
            .queries(&batch)
            .assume_prepared(true)
            .indexed(&s.index)
            .run();
        let cpu = host::cpu_seconds() - cpu0;
        let (span, _) = tracer.close(open, format!("batch:{call}:{}", m.name()));
        p.calls_ms.push(cpu * 1e3);
        p.cpu_s += cpu;
        if let (Some(h), Some(b)) = (h, before) {
            let now = h.totals();
            let k = p.kernel.entry(layer).or_default();
            k.full_calls += now.full_calls - b.full_calls;
            k.full_ns += now.full_ns - b.full_ns;
            k.upto_calls += now.upto_calls - b.upto_calls;
            k.upto_ns += now.upto_ns - b.upto_ns;
            tracer.busy(span, layer, now.seconds() - b.seconds());
        }
        match report {
            Ok(r) if r.answers.len() == BATCH => {
                p.queries += BATCH as u64;
                for (k, a) in r.answers.iter().enumerate() {
                    let key = (mi, (first + k) % QUERIES);
                    let got = (a.index, a.distance.to_bits());
                    match seen.get(&key) {
                        Some(prev) if *prev != got => {
                            out.failed += 1;
                            out.problem(format!(
                                "query {key:?} answered {got:?}, earlier {prev:?}"
                            ));
                        }
                        Some(_) => {}
                        None => {
                            seen.insert(key, got);
                        }
                    }
                }
            }
            other => {
                out.failed += BATCH as u64;
                out.problem(format!("Eval call {call} failed: {other:?}"));
            }
        }
        call += 1;
        if call.is_multiple_of(16) {
            out.speed.sample();
        }
    }
    p
}

/// Nanoseconds per call of `f` over `reps` calls.
fn ns_per_call(reps: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..reps {
        acc += f(i);
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut parts: Vec<[f64; 3]> = Vec::new();
    let mut s = None;
    for rep in 0..SETUP_REPS {
        out.speed.sample();
        let (st, secs, p) = setup(ctx, rep);
        setup_s.push(secs);
        parts.push(p);
        s = Some(st);
    }
    let s = s.expect("at least one set-up");
    let mut seen = Seen::new();

    let (measured, baseline) = if ctx.traced {
        let base = phase(ctx, &s, false, ctx.seconds / 2.0, &mut seen, &mut out);
        let traced = phase(ctx, &s, true, ctx.seconds / 2.0, &mut seen, &mut out);
        (traced, Some(base))
    } else {
        (
            phase(ctx, &s, false, ctx.seconds, &mut seen, &mut out),
            None,
        )
    };
    let rss = peak_rss_mb();

    // Reference: the early-abandoning exact scan of every query.
    let mut reference = Vec::new();
    let mut pruned_s = 0.0;
    for (m, _, _) in measures() {
        let (nns, secs) = tracer.time(0, "eval::pruned_nn_search", "eval.pruned", m.name(), || {
            pruned_nn_search(m.as_ref(), &s.prepared_queries, &s.served.train, false)
        });
        pruned_s += secs;
        reference.push(nns);
    }
    let (_, _) = tracer.time(0, "verify", "bench", "answers", || {
        for (&(mi, q), &(index, bits)) in &seen {
            let r = &reference[mi][q];
            if r.index != index || r.distance.to_bits() != bits {
                out.failed += 1;
                out.problem(format!(
                    "measure {mi} query {q}: indexed {index:?}/{bits:#x} != pruned {:?}/{:#x}",
                    r.index,
                    r.distance.to_bits()
                ));
            }
        }
    });
    out.attempted += measured.queries + baseline.as_ref().map_or(0, |b| b.queries);

    out.e2e(
        "setup_s",
        median(&setup_s),
        SETUP_REPS as u64,
        "CPU s of generate + z-score prepare + index build, median of set-ups",
    );
    let qps = measured.queries as f64 / measured.cpu_s;
    out.e2e(
        "work_per_cpu_s",
        qps,
        measured.queries,
        format!("indexed 1-NN queries per CPU second, {TRAIN} train series of length {LEN}"),
    );
    match summarize(&measured.calls_ms, TAIL_P) {
        Some(sm) => {
            let note = format!("CPU ms per Eval call of {BATCH} queries");
            out.e2e("latency_p50_ms", sm.p50, sm.n as u64, note.clone());
            out.e2e(
                "latency_tail_ms",
                sm.tail,
                sm.n as u64,
                format!("p{} {note}", sm.tail_p),
            );
        }
        None => out.problem("too few calls for the tail percentile"),
    }
    out.e2e("peak_rss_mb", rss, 1, "VmHWM after the measured calls");

    if let Some(base) = baseline {
        layer_metrics(ctx, &s, &measured, &reference, &mut out);
        let col = |i: usize| parts.iter().map(|p| p[i]).collect::<Vec<_>>();
        out.layer("data.generate_s", median(&col(0)));
        out.layer("eval.prepare_s", median(&col(1)));
        out.layer("core.index.build_s", median(&col(2)));
        out.layer("eval.pruned.scan_s", pruned_s);
        let base_qps = base.queries as f64 / base.cpu_s;
        out.layer("trace.overhead_pct", (base_qps / qps - 1.0) * 100.0);
    }
    out
}

/// The traced run's index counters, scan times and lower-bound costs.
fn layer_metrics(
    ctx: &Ctx,
    s: &Setup,
    measured: &Phase,
    reference: &[Vec<tsdist_eval::NearestNeighbour>],
    out: &mut Outcome,
) {
    let tracer = &ctx.tracer;
    if let Some(k) = measured.kernel.get("core.lockstep") {
        if k.calls() > 0 {
            out.layer(
                "core.lockstep.ns_per_pair",
                (k.full_ns + k.upto_ns) as f64 / k.calls() as f64,
            );
        }
    }

    // Index counters and scan times: every query once per measure, rows
    // independent (no warm start) so the counts repeat exactly.
    let mut total = IndexedStats::default();
    let (mut cascade_s, mut pivots_s) = (0.0, 0.0);
    let (mut upto_ns, mut examined) = (0u64, 0u64);
    for (mi, (m, cascade, layer)) in measures().into_iter().enumerate() {
        let timed = trace::Timed::new(m, trace::no_cells);
        let h = timed.handle();
        let open = tracer.open(0, "eval::indexed_nn_search_stats", "eval.index");
        let (nns, st) = indexed_nn_search_stats(
            &timed,
            &s.prepared_queries,
            &s.served.train,
            &s.index,
            false,
        );
        let (span, secs) = tracer.close(open, timed.name());
        let k = h.totals();
        tracer.busy(span, layer, k.seconds());
        upto_ns += k.full_ns + k.upto_ns;
        examined += st.examined;
        if cascade {
            cascade_s += secs;
        } else {
            pivots_s += secs;
        }
        for (q, (a, r)) in nns.iter().zip(&reference[mi]).enumerate() {
            if a.index != r.index || a.distance.to_bits() != r.distance.to_bits() {
                out.failed += 1;
                out.problem(format!(
                    "stats scan, measure {mi} query {q}: differs from pruned"
                ));
            }
        }
        total.rows += st.rows;
        total.candidates += st.candidates;
        total.examined += st.examined;
        total.paa_skipped += st.paa_skipped;
        total.keogh_skipped += st.keogh_skipped;
        total.pivot_skipped += st.pivot_skipped;
        total.fallback_rows += st.fallback_rows;
    }
    out.layer("eval.index.candidates", total.candidates as f64);
    out.layer("eval.index.examined", total.examined as f64);
    out.layer("eval.index.examined_frac", total.examined_fraction());
    out.layer("eval.index.paa_skipped", total.paa_skipped as f64);
    out.layer("eval.index.keogh_skipped", total.keogh_skipped as f64);
    out.layer("eval.index.pivot_skipped", total.pivot_skipped as f64);
    out.layer("eval.index.fallback_rows", total.fallback_rows as f64);
    out.layer("eval.index.scan_s.cascade", cascade_s);
    out.layer("eval.index.scan_s.pivots", pivots_s);
    if examined > 0 {
        out.layer(
            "core.upto.ns_per_examined",
            upto_ns as f64 / examined as f64,
        );
    }

    // Lower bounds, timed directly on the DTW band structure.
    let dtw = Dtw::with_window_pct(10.0);
    let (_, _) = tracer.time(
        0,
        "core::lower_bounds",
        "core.lower_bounds",
        "probe",
        || {
            let q = &s.prepared_queries[0];
            if let QueryPlan::Cascade(band) = s.index.plan(&dtw, q) {
                let mut qm = Vec::new();
                s.index.query_means(q, &mut qm);
                let n = s.served.train.len();
                let reps = 20 * n;
                let paa = ns_per_call(reps, |i| {
                    band.lb_paa(std::hint::black_box(&qm), s.index.bounds(), i % n)
                });
                let keogh = ns_per_call(reps, |i| {
                    let (u, l) = band.envelope(i % n);
                    lb_keogh(std::hint::black_box(q), u, l)
                });
                out.layer("core.lower_bounds.lb_paa_ns", paa);
                out.layer("core.lower_bounds.lb_keogh_ns", keogh);
            }
        },
    );
}
