//! `perfbench`: the tsdist end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study|nn-indexed|serve-open> --seed <n> --seconds <s> --trace <0|1>
//!     [--repeat <runs>]
//! ```
//!
//! One run builds its inputs from `--seed`, sets up (timed, several
//! times), measures for `--seconds`, checks every answer it got against
//! an independent computation, and prints one line per metric (value,
//! unit, sample count) followed, as the last line, by one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs half the time untraced and
//! half traced and reports the per-layer metrics, the layer self times
//! and the tracing overhead, and writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.tsv`. Any wrong answer, or an
//! applicable per-layer metric left unmeasured, makes the run exit 1.
//!
//! `--repeat <runs>` runs the workload that many times in child
//! processes, seeds `seed, seed+1, …`, and prints each metric's median,
//! quartiles and spread (interquartile range over median).
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod host;
mod layers;
mod nn;
mod schedule;
mod serve;
mod stats;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// Everything a workload needs to run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The span store (a no-op store when untraced).
    pub tracer: Tracer,
    /// Scratch directory for journals; removed when the run ends.
    pub scratch: PathBuf,
    /// Cores available to the process.
    pub cores: usize,
}

/// One end-to-end reading.
#[derive(Debug, Clone)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// How many samples it summarizes.
    pub samples: u64,
    /// What the value is on this workload.
    pub note: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, queries, requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Wrong answers and contract failures; any makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end readings by metric name.
    pub e2e: BTreeMap<&'static str, Reading>,
    /// Per-layer readings by metric name (traced runs).
    pub per_layer: BTreeMap<String, f64>,
    /// Host speed samples; CPU-time end-to-end readings are scaled by
    /// them (see [`host::Speed`]).
    pub speed: host::Speed,
}

impl Outcome {
    /// Records an end-to-end reading.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: u64, note: impl Into<String>) {
        self.e2e.insert(
            name,
            Reading {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// Records a per-layer reading.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }

    /// Records a wrong answer or broken contract.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .ok_or("--repeat needs a count of at least 2")?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !layers::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            layers::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

/// The commit the benchmark was built from: `.git/HEAD` of the
/// repository holding this package, following a `ref:` line to its
/// loose ref file or to `packed-refs`. `None` outside a git checkout.
fn git_sha() -> Option<String> {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, r) = l.split_once(' ')?;
        (r == name).then(|| sha.to_string())
    })
}

/// Renders a metric value for JSON: every digit as measured.
fn num(v: f64) -> String {
    format!("{v}")
}

fn run_once(args: &Args) -> ExitCode {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        scratch: scratch.clone(),
        cores: tsdist_eval::worker_count(),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host nproc={} rustflags=\"-C target-cpu=native\" (.cargo/config.toml) git={}",
        ctx.cores,
        git_sha().unwrap_or_else(|| "unknown".into())
    );
    let steal_before = host::jiffies();
    let mut outcome = match args.workload.as_str() {
        layers::STUDY => study::run(&ctx),
        layers::NN => nn::run(&ctx),
        _ => serve::run(&ctx),
    };
    println!(
        "# host steal={:.1}% of all CPU time during the run",
        100.0 * host::steal_share(steal_before, host::jiffies())
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let selfs = ctx.tracer.finish(ctx.cores);
        for (layer, _) in layers::SELF_LAYERS {
            let v = selfs.by_layer.get(layer).copied().unwrap_or(0.0);
            outcome.layer(&format!("self_s.{layer}"), v);
        }
        let unattributed = selfs
            .by_layer
            .get(trace::UNATTRIBUTED)
            .copied()
            .unwrap_or(0.0);
        outcome.layer("trace.wall_s", selfs.wall_s);
        outcome.layer("trace.unattributed_s", unattributed);
        if (selfs.covered_s() - selfs.wall_s).abs() > 1e-6 * selfs.wall_s.max(1.0) {
            outcome.problem(format!(
                "self times {} s do not cover the traced wall {} s",
                selfs.covered_s(),
                selfs.wall_s
            ));
        }
        if !selfs.overlapping.is_empty() {
            outcome.problem(format!(
                "spans outlasted by their children: {:?}",
                selfs.overlapping
            ));
        }
        // Layers that do not apply to this workload read 0.
        let defs = layers::per_layer_defs();
        let measured: BTreeMap<String, f64> = outcome
            .per_layer
            .iter()
            .filter(|(n, _)| {
                defs.iter()
                    .any(|(d, _, w)| d == *n && w.contains(&args.workload.as_str()))
                    || !defs.iter().any(|(d, _, _)| d == *n)
            })
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        for p in layers::coverage_problems(&args.workload, &measured) {
            outcome.problem(format!("layer coverage: {p}"));
        }
        let trace_path = out_dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match ctx.tracer.write(&trace_path) {
            Ok(()) => println!("# spans written to {}", trace_path.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        for (name, unit, workloads) in defs {
            let applies = workloads.contains(&args.workload.as_str());
            let v = if applies {
                measured.get(&name).copied().unwrap_or(f64::NAN)
            } else {
                0.0
            };
            // The metric map: the layer measured and the end-to-end
            // metric it should move.
            let map = layers::PER_LAYER
                .iter()
                .find(|d| d.name == name)
                .map_or(String::new(), |d| format!("  {} -> {}", d.layer, d.moves));
            println!(
                "layer {name:<36} {:>18} {unit:<6}{map}{}",
                num(v),
                if applies { "" } else { " (not exercised)" }
            );
            metrics.push((name, v, unit));
        }
    } else {
        let slowdown = outcome.speed.slowdown();
        println!(
            "# host slowdown {slowdown:.4} against the reference speed ({} samples); \
             CPU-time metrics below are scaled to the reference speed",
            outcome.speed.len()
        );
        for def in layers::END_TO_END {
            match outcome.e2e.get(def.name) {
                Some(r) => {
                    let value = match def.name {
                        "work_per_cpu_s" => r.value * slowdown,
                        "peak_rss_mb" => r.value,
                        _ => r.value / slowdown,
                    };
                    println!(
                        "metric {:<18} {:>18} {:<4} n={} ({})",
                        def.name,
                        num(value),
                        def.unit,
                        r.samples,
                        r.note
                    );
                    metrics.push((def.name.to_string(), value, def.unit));
                }
                None => outcome.problem(format!("end-to-end metric {} not measured", def.name)),
            }
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            outcome.problem(format!("{name} is not finite ({v})"));
        }
    }
    println!(
        "summary attempted={} failed={} error_rate={} problems={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.problems.len()
    );
    for p in &outcome.problems {
        println!("PROBLEM {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                num(*v)
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Pulls `(name, value)` pairs and the `correct` flag out of a result
/// line this program printed.
fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = Vec::new();
    for chunk in metrics.split("}, ") {
        let Some(name_end) = chunk.find("\": {\"value\": ") else {
            continue;
        };
        let name = chunk[..name_end]
            .trim_start_matches(['{', '"', ' '])
            .to_string();
        let rest = &chunk[name_end + 13..];
        let value: f64 = rest[..rest.find(',')?].parse().ok()?;
        out.push((name, value));
    }
    Some((correct, out))
}

fn repeat(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut ok = true;
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: run {i} did not start: {e}");
                return ExitCode::from(2);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(parse_result);
        match parsed {
            Some((correct, metrics)) if out.status.success() => {
                ok &= correct;
                for (name, v) in metrics {
                    if !series.contains_key(&name) {
                        order.push(name.clone());
                    }
                    series.entry(name).or_default().push(v);
                }
                println!("# run {} seed {seed}: ok", i + 1);
            }
            _ => {
                ok = false;
                println!("# run {} seed {seed}: FAILED ({})", i + 1, out.status);
                print!("{stdout}");
            }
        }
    }
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for name in &order {
        let v = &series[name];
        if v.len() < 2 {
            continue;
        }
        let [q1, med, q3] = stats::quartiles(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let all: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!(
            "{name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}  [{}]",
            all.join(" ")
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        Some(runs) => repeat(&args, runs),
        None => run_once(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip_through_the_repeat_parser() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
                    \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}";
        let (correct, m) = parse_result(line).expect("parses");
        assert!(correct);
        assert_eq!(
            m,
            vec![
                ("setup_s".to_string(), 0.5),
                ("latency_p50_ms".to_string(), 1.25)
            ]
        );
    }
}
