//! The benchmark's contract: every metric's name and unit, the layer it
//! measures, the end-to-end metric it should move, and the workloads it
//! applies to. `BENCHMARK.json` lists the same names (a test checks),
//! and the layer-coverage check fails a traced run that leaves an
//! applicable metric unmeasured — so a refactor that stops calling a
//! timed public function shows up instead of silently reading zero.

use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = [STUDY, NN, SERVE];
/// The study workload.
pub const STUDY: &str = "study";
/// The indexed 1-NN workload.
pub const NN: &str = "nn-indexed";
/// The open-loop serve workload.
pub const SERVE: &str = "serve-open";

const ALL: &[&str] = &[STUDY, NN, SERVE];
const S: &[&str] = &[STUDY];
const N: &[&str] = &[NN];
const V: &[&str] = &[SERVE];
const SN: &[&str] = &[STUDY, NN];
const NV: &[&str] = &[NN, SERVE];

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The layer (module) it measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// Workloads on which it is measured; elsewhere it reads 0.
    pub workloads: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        layer,
        moves,
        workloads,
    }
}

/// End-to-end metrics (untraced runs). Each workload reads them in its
/// own unit of work: a study cell, a batched `Eval` query call, a served
/// request. Set-up and throughput count process CPU seconds, not wall
/// seconds (see [`crate::host`]).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "all", "-", ALL),
    m("work_per_cpu_s", "1/cpu-s", "all", "-", ALL),
    m("latency_p50_ms", "ms", "all", "-", ALL),
    m("latency_tail_ms", "ms", "all", "-", ALL),
    m("peak_rss_mb", "MiB", "all", "-", ALL),
];

/// Layers whose self time the traced run reports as `self_s.<layer>`,
/// with the workloads that exercise them.
pub const SELF_LAYERS: &[(&str, &[&str])] = &[
    ("data", ALL),
    ("eval.evaluator", ALL),
    ("core.index", NV),
    ("core.lockstep", SN),
    ("core.sliding", S),
    ("core.elastic", SN),
    ("core.lower_bounds", N),
    ("eval.runner", S),
    ("stats", S),
    ("eval.index", N),
    ("eval.pruned", N),
    ("serve.protocol", V),
    ("serve.engine", V),
    ("serve.server", V),
    ("idle", V),
    ("bench", ALL),
];

/// Per-layer metrics (traced runs), self times excluded.
pub const PER_LAYER: &[MetricDef] = &[
    m("data.generate_s", "s", "data", "setup_s", ALL),
    m("eval.prepare_s", "s", "eval.evaluator", "setup_s", ALL),
    m("core.index.build_s", "s", "core.index", "setup_s", NV),
    m(
        "core.lockstep.ns_per_pair",
        "ns",
        "core.lockstep",
        "work_per_cpu_s",
        SN,
    ),
    m(
        "core.sliding.ns_per_pair",
        "ns",
        "core.sliding",
        "work_per_cpu_s",
        S,
    ),
    m(
        "core.elastic.dtw.cells_per_s",
        "1/s",
        "core.elastic",
        "work_per_cpu_s",
        S,
    ),
    m(
        "core.elastic.msm.cells_per_s",
        "1/s",
        "core.elastic",
        "work_per_cpu_s",
        S,
    ),
    m(
        "core.elastic.twe.cells_per_s",
        "1/s",
        "core.elastic",
        "work_per_cpu_s",
        S,
    ),
    m(
        "study.share.lockstep",
        "ratio",
        "eval.runner",
        "work_per_cpu_s",
        S,
    ),
    m(
        "study.share.sliding",
        "ratio",
        "eval.runner",
        "work_per_cpu_s",
        S,
    ),
    m(
        "study.share.elastic",
        "ratio",
        "eval.runner",
        "work_per_cpu_s",
        S,
    ),
    m(
        "eval.parallel.idle_frac",
        "ratio",
        "eval.parallel",
        "work_per_cpu_s",
        S,
    ),
    m(
        "eval.runner.unattributed_s",
        "s",
        "eval.runner",
        "work_per_cpu_s",
        S,
    ),
    m(
        "eval.journal.bytes",
        "bytes",
        "eval.journal",
        "work_per_cpu_s",
        S,
    ),
    m("stats.rank_s", "s", "stats", "work_per_cpu_s", S),
    m(
        "eval.index.candidates",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.examined",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.examined_frac",
        "ratio",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.paa_skipped",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.keogh_skipped",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.pivot_skipped",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.fallback_rows",
        "count",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.scan_s.cascade",
        "s",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.index.scan_s.pivots",
        "s",
        "eval.index",
        "work_per_cpu_s",
        N,
    ),
    m(
        "eval.pruned.scan_s",
        "s",
        "eval.pruned",
        "work_per_cpu_s",
        N,
    ),
    m(
        "core.lower_bounds.lb_paa_ns",
        "ns",
        "core.lower_bounds",
        "work_per_cpu_s",
        N,
    ),
    m(
        "core.lower_bounds.lb_keogh_ns",
        "ns",
        "core.lower_bounds",
        "work_per_cpu_s",
        N,
    ),
    m(
        "core.upto.ns_per_examined",
        "ns",
        "core.elastic",
        "work_per_cpu_s",
        N,
    ),
    m(
        "serve.protocol.encode_us",
        "us",
        "serve.protocol",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.protocol.decode_us",
        "us",
        "serve.protocol",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.protocol.bytes_per_req",
        "bytes",
        "serve.protocol",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.engine.us_per_req",
        "us",
        "serve.engine",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.cache.hit_frac",
        "ratio",
        "serve.cache",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.outside_engine_ms.p50",
        "ms",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.outside_engine_ms.p99",
        "ms",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.queue_depth.mean",
        "count",
        "serve.server",
        "work_per_cpu_s",
        V,
    ),
    m(
        "serve.queue_depth.max",
        "count",
        "serve.server",
        "work_per_cpu_s",
        V,
    ),
    m(
        "serve.journal.bytes_per_req",
        "bytes",
        "serve.server",
        "work_per_cpu_s",
        V,
    ),
    m(
        "serve.sustained_qps",
        "1/s",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.light.p50_ms",
        "ms",
        "serve.server",
        "latency_p50_ms",
        V,
    ),
    m(
        "serve.light.p99_ms",
        "ms",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.heavy.p50_ms",
        "ms",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.heavy.p99_ms",
        "ms",
        "serve.server",
        "latency_tail_ms",
        V,
    ),
    m(
        "serve.refused.queue_full",
        "count",
        "serve.server",
        "work_per_cpu_s",
        V,
    ),
    m(
        "serve.refused.limit_exceeded",
        "count",
        "serve.server",
        "work_per_cpu_s",
        V,
    ),
    m(
        "serve.supervisor.restarts",
        "count",
        "serve.supervisor",
        "setup_s",
        V,
    ),
    m("serve.index.series", "count", "core.index", "setup_s", V),
    m("serve.index.bands", "count", "core.index", "setup_s", V),
    m("serve.index.pivots", "count", "core.index", "setup_s", V),
    m(
        "serve.generator.lag_ms.p99",
        "ms",
        "bench",
        "latency_tail_ms",
        V,
    ),
    m("trace.overhead_pct", "%", "bench", "-", ALL),
    m("trace.wall_s", "s", "bench", "-", ALL),
    m("trace.unattributed_s", "s", "bench", "-", ALL),
];

/// Metrics that may legitimately read 0 where they apply (counts of
/// events that a healthy run does not have, and ratios that can be 0).
const MAY_BE_ZERO: &[&str] = &[
    "eval.index.fallback_rows",
    "eval.index.pivot_skipped",
    "eval.index.paa_skipped",
    "eval.index.keogh_skipped",
    "eval.parallel.idle_frac",
    "eval.runner.unattributed_s",
    "serve.refused.queue_full",
    "serve.refused.limit_exceeded",
    "serve.supervisor.restarts",
    "serve.index.pivots",
    "serve.generator.lag_ms.p99",
    "serve.queue_depth.mean",
    "serve.queue_depth.max",
    "trace.overhead_pct",
    "trace.unattributed_s",
    "self_s.bench",
    "self_s.eval.runner",
];

/// The per-layer names in print order: [`PER_LAYER`], then one
/// `self_s.<layer>` per [`SELF_LAYERS`] entry.
pub fn per_layer_defs() -> Vec<(String, &'static str, &'static [&'static str])> {
    let mut out: Vec<(String, &'static str, &'static [&'static str])> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit, d.workloads))
        .collect();
    for (layer, workloads) in SELF_LAYERS {
        out.push((format!("self_s.{layer}"), "s", workloads));
    }
    out
}

/// The layer-coverage check: every per-layer metric that applies to
/// `workload` must have been measured (and be non-zero unless listed in
/// [`MAY_BE_ZERO`]), and no unknown name may appear. Returns one line
/// per problem.
pub fn coverage_problems(workload: &str, measured: &BTreeMap<String, f64>) -> Vec<String> {
    let defs = per_layer_defs();
    let mut problems = Vec::new();
    for (name, _, workloads) in &defs {
        if !workloads.contains(&workload) {
            continue;
        }
        match measured.get(name) {
            None => problems.push(format!("{name}: not measured on {workload}")),
            Some(v) if !v.is_finite() => problems.push(format!("{name}: non-finite ({v})")),
            Some(v) if *v == 0.0 && !MAY_BE_ZERO.contains(&name.as_str()) => {
                problems.push(format!("{name}: reads 0 on {workload}, where it applies"))
            }
            Some(_) => {}
        }
    }
    for name in measured.keys() {
        if !defs.iter().any(|(n, _, _)| n == name) {
            problems.push(format!("{name}: not in the metric contract"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_contract() {
        let e2e: Vec<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names_in_benchmark_json("end_to_end"), e2e);
        let per: Vec<String> = per_layer_defs().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names_in_benchmark_json("per_layer"), per);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_in_benchmark_json("workloads"), workloads);
    }

    #[test]
    fn names_fit_the_contract_alphabet() {
        let defs = per_layer_defs();
        for (name, unit, workloads) in &defs {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(!workloads.is_empty());
        }
        let mut sorted: Vec<&String> = defs.iter().map(|(n, _, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), defs.len(), "metric names are unique");
    }

    #[test]
    fn coverage_flags_a_missing_applicable_metric_only() {
        let mut measured: BTreeMap<String, f64> = per_layer_defs()
            .into_iter()
            .filter(|(_, _, w)| w.contains(&NN))
            .map(|(n, _, _)| (n, 1.0))
            .collect();
        assert!(coverage_problems(NN, &measured).is_empty());
        measured.remove("eval.index.examined");
        measured.insert("core.lower_bounds.lb_paa_ns".into(), 0.0);
        let problems = coverage_problems(NN, &measured);
        assert_eq!(problems.len(), 2, "{problems:?}");
        // A study-only metric is not required on nn-indexed.
        assert!(!problems.iter().any(|p| p.contains("stats.rank_s")));
        measured.insert("made.up".into(), 1.0);
        assert_eq!(coverage_problems(NN, &measured).len(), 3);
    }
}
