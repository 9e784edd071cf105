//! `serve-open`: an open loop against an in-process `Server` — two
//! shards, the index tier, the answer cache and the durable request
//! journal all on. One sender thread and one receiver thread share one
//! connection. Requests mix ED and DTW(δ=10), k ∈ {1, 3}, z-score and
//! min-max, pruned and exact, with about 9% exact repeats, over
//! standard-archive datasets.
//!
//! The offered load follows a seeded Poisson schedule at fixed rates:
//! [`LIGHT_QPS`], [`HEAVY_QPS`], then a ladder climbing from the heavy
//! rate to find the highest rate whose p99 stays under [`LIMIT_MS`]
//! with no refusal and no growing backlog. Latency is timed from each
//! request's due time. The light and heavy streams are then replayed
//! through a shard's request path on one thread — decode the request
//! line, answer it through one `Engine`, encode the response, append the
//! request to a durable journal — each request timed in thread CPU
//! time. On a shared virtual machine the wire round trip is dominated
//! by how fast the hypervisor wakes a halted vCPU, and the live
//! server's CPU per request by how often its threads sleep and wake, so
//! the end-to-end metrics come from the replayed path and the open-loop
//! latencies are per-layer metrics.
//!
//! Stresses the wire codec, routing and queues, batching, the answer
//! cache and journal writes beside cheap queries; bypasses the study
//! runner and the scalar elastic kernels.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsdist_core::elastic::Dtw;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::TrainIndex;
use tsdist_data::synthetic::generate_archive;
use tsdist_data::Dataset;
use tsdist_eval::journal::{v2_segments, DurableConfig, DurableJournal};
use tsdist_eval::{prepare, Answer, Eval};
use tsdist_serve::protocol::{norm_tag, parse_request_limited};
use tsdist_serve::{
    render_query, Client, Engine, ErrorCode, Limits, MeasureResolver, QueryRequest, Response,
    Server, ServerConfig, ServerHandle,
};

use crate::schedule::{judge, poisson_schedule, splitmix64, unit, RequestRecord};
use crate::stats::{median, summarize, tail_percentile};
use crate::trace::Span;
use crate::{host, peak_rss_mb, Ctx, Outcome};

/// Served datasets.
const DATASETS: usize = 4;
/// Archive seed of the served datasets. The served data is the
/// server's fixed state, like a deployment's; `--seed` drives the
/// traffic (which series are asked for, their perturbation, the arrival
/// schedule). With seeded datasets the per-request cost moved 26%
/// between seeds through the index's pruning power alone.
const SERVED_ARCHIVE_SEED: u64 = 20;
/// Timed set-ups per run; the median is reported.
const SETUP_REPS: usize = 15;
/// Shard workers.
const SHARDS: usize = 2;
/// Answer-cache entries per shard.
const CACHE_CAP: usize = 256;
/// The light offered rate (requests/s), frozen: well under capacity.
pub const LIGHT_QPS: f64 = 400.0;
/// The heavy offered rate (requests/s), frozen: loaded but sustained.
pub const HEAVY_QPS: f64 = 1000.0;
/// The p99 latency limit a sustained rate must meet (ms). Above the
/// wake-up stalls of the host (up to ~20 ms), so that it trips on
/// queueing, not on the hypervisor.
pub const LIMIT_MS: f64 = 50.0;
/// Ladder step above the heavy rate.
const LADDER_STEP: f64 = 1.5;
/// Ladder probes: climbing steps plus bisection steps.
const LADDER_PROBES: usize = 10;
/// Share of the run's seconds for each phase: light, heavy, then the
/// ladder (traced runs) or the replay (untraced runs).
const SPLIT: [f64; 3] = [0.4, 0.2, 0.4];
/// Replays of the request path a run makes at least. An untraced run
/// replays until its replay share of the run is spent: on the reference
/// host the speed of the request path switches between two levels 1.5x
/// apart every second or so, and the reference loop does not see it, so
/// the replay has to span several seconds to average over it.
const REPLAY_PASSES: usize = 3;
/// How long a rung may take to drain after its last due time.
const DRAIN: Duration = Duration::from_secs(5);
/// The tail percentile of the fixed rungs and the replay: the light
/// rung alone offers over 1000 requests in any run of 8 s or more,
/// leaving ten beyond p99.
const TAIL_P: f64 = 99.0;

fn resolver() -> MeasureResolver {
    Arc::new(|spec: &str| match spec {
        "ed" => Ok(Box::new(Euclidean) as Box<dyn Distance>),
        "dtw:10" => Ok(Box::new(Dtw::with_window_pct(10.0)) as Box<dyn Distance>),
        other => Err(format!("unknown measure {other:?}")),
    })
}

const MEASURES: [&str; 2] = ["ed", "dtw:10"];
const NORMS: [Normalization; 2] = [Normalization::ZScore, Normalization::MinMax];

/// Every 11th request (9.1%) repeats a recent one exactly.
const REPEAT_EVERY: usize = 11;

/// The seeded request stream of one rung: ids from `first_id`.
///
/// The mix is stratified: each block of `3 × datasets × 3 × 4 × 2`
/// fresh requests holds every combination of measure (one third ED, two
/// thirds DTW), dataset, normalization (two thirds z-score), k (a
/// quarter k = 3) and pruned once, in seeded order, and every
/// [`REPEAT_EVERY`]th request repeats one of the last 64. Per-request
/// cost differs by up to 4x between classes, so with independent draws
/// the class shares moved with the seed by a few percent, enough to move
/// the median request cost by about 15% on its own; stratified, the seed
/// changes the series, their order and the arrival times, but not the
/// shares.
fn requests(datasets: &[Dataset], n: usize, seed: u64, first_id: u64) -> Vec<QueryRequest> {
    let mut state = seed ^ 0x5E4E_0000_0000_0001;
    let classes = 3 * datasets.len() * 3 * 4 * 2;
    let mut block: Vec<usize> = Vec::new();
    let mut out: Vec<QueryRequest> = Vec::with_capacity(n);
    for i in 0..n {
        let id = first_id + i as u64;
        if i > 0 && i % REPEAT_EVERY == 0 {
            // An exact repeat of a recent request: the cache-hit path.
            let back = 1 + (splitmix64(&mut state) % (i.min(64) as u64)) as usize;
            let mut q = out[i - back].clone();
            q.id = id;
            out.push(q);
            continue;
        }
        if block.is_empty() {
            block = (0..classes).collect();
            for j in (1..classes).rev() {
                block.swap(j, (splitmix64(&mut state) % (j as u64 + 1)) as usize);
            }
        }
        let c = block.pop().expect("a refilled block");
        // One third ED, two thirds DTW: the median request then sits
        // inside the DTW cost group, not on the edge between groups.
        let measure = MEASURES[usize::from(!c.is_multiple_of(3))];
        let ds = &datasets[c / 3 % datasets.len()];
        let rest = c / 3 / datasets.len();
        let base = &ds.test[(splitmix64(&mut state) % ds.test.len() as u64) as usize];
        let series = base
            .iter()
            .map(|v| v + (unit(&mut state) - 0.5) * 1e-3)
            .collect();
        out.push(QueryRequest {
            id,
            dataset: ds.name.clone(),
            measure: measure.to_string(),
            norm: NORMS[usize::from(rest % 3 == 2)],
            k: if (rest / 3).is_multiple_of(4) { 3 } else { 1 },
            pruned: (rest / 12).is_multiple_of(2),
            series,
            deadline_ms: None,
        });
    }
    out
}

/// One warm-up request per (dataset, measure, normalization): builds
/// every lazily prepared split and index before timing.
fn warmup_requests(datasets: &[Dataset]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for ds in datasets {
        for m in MEASURES {
            for norm in NORMS {
                out.push(QueryRequest {
                    id: u64::MAX - 1 - out.len() as u64,
                    dataset: ds.name.clone(),
                    measure: m.to_string(),
                    norm,
                    k: 1,
                    pruned: false,
                    series: ds.test[0].clone(),
                    deadline_ms: None,
                });
            }
        }
    }
    out
}

/// A rung's outcome: records in schedule order plus what came back.
struct Rung {
    name: String,
    rate: f64,
    requests: Vec<QueryRequest>,
    records: Vec<RequestRecord>,
    /// Response lines by request index (`None` when lost).
    lines: Vec<Option<String>>,
    /// Refusals by wire code.
    refused: BTreeMap<&'static str, u64>,
    /// Summed shard queue depth at each poll (traced runs).
    depth: Vec<f64>,
    /// The rung's span.
    span: usize,
    /// Process CPU seconds (client and server) over the rung.
    cpu_s: f64,
    /// Whether the server may refuse requests at this rate (queue full,
    /// limit exceeded): only above the light rate.
    may_refuse: bool,
}

impl Rung {
    /// Requests refused or never answered.
    fn missed(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.latency_ms().is_infinite())
            .count() as u64
    }

    /// Answered requests per process CPU second.
    fn work_per_cpu_s(&self) -> f64 {
        (self.records.len() as u64 - self.missed()) as f64 / self.cpu_s
    }
}

struct Live {
    handle: ServerHandle,
    stream: TcpStream,
    journal: std::path::PathBuf,
}

/// Offers `rate` for `secs` seconds.
fn rung(
    ctx: &Ctx,
    live: &Live,
    datasets: &[Dataset],
    name: &str,
    rate: f64,
    secs: f64,
    no: u64,
) -> Rung {
    let tracer = &ctx.tracer;
    let seed = ctx.seed ^ no.wrapping_mul(0x9E37_79B9);
    let schedule = poisson_schedule(rate, secs, seed);
    let requests = requests(datasets, schedule.len(), seed, no << 32);
    let lines: Vec<String> = requests
        .iter()
        .map(|q| {
            let mut l = render_query(q);
            l.push('\n');
            l
        })
        .collect();
    let n = requests.len();
    let index_of: BTreeMap<u64, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, q)| (q.id, i))
        .collect();
    let open = tracer.open(0, "serve::open_loop", "idle");
    let span_id = open.id();
    let t0 = tracer.now_ns() + 2_000_000;
    let mut writer = live.stream.try_clone().expect("clone the connection");
    let reader = live.stream.try_clone().expect("clone the connection");
    let mut depth = Vec::new();
    let cpu0 = host::cpu_seconds();
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = vec![0u64; n];
            for (i, line) in lines.iter().enumerate() {
                let due = t0 + schedule[i];
                let now = tracer.now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                sent[i] = tracer.now_ns();
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            sent
        });
        let receiver = scope.spawn(|| {
            let mut got: Vec<Option<(u64, String)>> = vec![None; n];
            let mut reader = BufReader::new(reader);
            let deadline = t0 + schedule.last().copied().unwrap_or(0) + DRAIN.as_nanos() as u64;
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(200)));
            let mut left = n;
            let mut line = String::new();
            while left > 0 && tracer.now_ns() < deadline {
                // On a read timeout `line` keeps the bytes read so far and
                // the next read completes it, so it is cleared only after
                // a whole line has been handled.
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if !line.ends_with('\n') => continue,
                    Ok(_) => {
                        let at = tracer.now_ns();
                        let id = Response::parse(line.trim_end()).map(|r| r.id());
                        if let Some(&i) = id.ok().and_then(|id| index_of.get(&id)) {
                            if got[i].is_none() {
                                got[i] = Some((at, line.trim_end().to_string()));
                                left -= 1;
                            }
                        }
                        line.clear();
                    }
                    Err(_) => continue,
                }
            }
            got
        });
        if ctx.traced {
            while !receiver.is_finished() {
                let h = live.handle.health();
                depth.push(h.shards.iter().map(|s| s.queue_depth as f64).sum());
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let cpu_s = host::cpu_seconds() - cpu0;
    tracer.close(open, format!("rung:{name}@{rate}"));
    let mut refused = BTreeMap::new();
    let mut records = Vec::with_capacity(n);
    let mut out_lines = Vec::with_capacity(n);
    for i in 0..n {
        let (received, line) = match &received[i] {
            Some((at, l)) => (Some(*at - t0), Some(l.clone())),
            None => (None, None),
        };
        let is_refusal = match line.as_deref().map(Response::parse) {
            Some(Ok(Response::Error { code, .. })) => {
                if matches!(code, ErrorCode::QueueFull | ErrorCode::LimitExceeded) {
                    *refused.entry(code.label()).or_insert(0) += 1;
                }
                true
            }
            _ => false,
        };
        records.push(RequestRecord {
            due: schedule[i],
            sent: sent[i].saturating_sub(t0),
            received,
            refused: is_refusal,
        });
        if ctx.traced {
            tracer.record(Span {
                id: 0,
                parent: span_id,
                name: "request",
                layer: "serve.server",
                subject: format!("req:{}", requests[i].id),
                start_ns: t0 + schedule[i],
                end_ns: received.map_or(t0 + schedule[i], |r| t0 + r),
                concurrent: true,
            });
        }
        out_lines.push(line);
    }
    Rung {
        name: name.to_string(),
        rate,
        requests,
        records,
        lines: out_lines,
        refused,
        depth,
        span: span_id,
        cpu_s,
        may_refuse: rate > LIGHT_QPS,
    }
}

/// Starts a server over the seed's datasets and warms it; returns the
/// datasets, the server, and the set-up and generation times.
fn start(ctx: &Ctx, rep: usize) -> (Vec<Dataset>, Live, f64, f64) {
    let tracer = &ctx.tracer;
    let open = tracer.open(0, "setup", "bench");
    let parent = open.id();
    let cpu0 = host::cpu_seconds();
    let (datasets, gen_s) = tracer.time(
        parent,
        "data::generate_archive",
        "data",
        rep.to_string(),
        || generate_archive(&crate::study::archive_config(DATASETS, SERVED_ARCHIVE_SEED)),
    );
    let journal = ctx.scratch.join(format!("serve-{rep}.journal"));
    let (handle, _) = tracer.time(
        parent,
        "serve::Server::start",
        "serve.server",
        rep.to_string(),
        || {
            Server::start(
                datasets.clone(),
                resolver(),
                &ServerConfig {
                    shards: SHARDS,
                    cache_cap: CACHE_CAP,
                    index: true,
                    journal_path: Some(journal.clone()),
                    ..ServerConfig::default()
                },
            )
            .expect("start the server")
        },
    );
    let (stream, _) = tracer.time(
        parent,
        "serve::warm_up",
        "serve.server",
        rep.to_string(),
        || {
            let mut client = Client::connect(handle.addr()).expect("warm-up connect");
            for q in warmup_requests(&datasets) {
                match client.query(&q) {
                    Ok(Response::Answer { .. }) => {}
                    other => panic!("warm-up request failed: {other:?}"),
                }
            }
            let stream = TcpStream::connect(handle.addr()).expect("connect");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            stream
        },
    );
    let secs = host::cpu_seconds() - cpu0;
    tracer.close(open, rep.to_string());
    (
        datasets,
        Live {
            handle,
            stream,
            journal,
        },
        secs,
        gen_s,
    )
}

/// Finds the highest sustained rate: climb from the heavy rate by
/// [`LADDER_STEP`] until a probe fails, then bisect (in log space)
/// between the last pass and the first failure.
fn ladder(ctx: &Ctx, live: &Live, datasets: &[Dataset], secs: f64, rungs: &mut Vec<Rung>) -> f64 {
    let per = secs / LADDER_PROBES as f64;
    let mut no = 100u64;
    let mut probe = |rate: f64, rungs: &mut Vec<Rung>| -> bool {
        no += 1;
        let r = rung(ctx, live, datasets, "ladder", rate, per, no);
        let tail_p = tail_percentile(r.records.len()).unwrap_or(50.0);
        let ok = judge(&r.records, tail_p).is_some_and(|v| v.sustained(LIMIT_MS));
        rungs.push(r);
        ok
    };
    let (mut lo, mut hi) = (HEAVY_QPS, f64::NAN);
    let mut used = 0;
    while used < LADDER_PROBES && hi.is_nan() {
        let rate = lo * LADDER_STEP;
        used += 1;
        if probe(rate, rungs) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    while used < LADDER_PROBES && !hi.is_nan() {
        let rate = (lo * hi).sqrt();
        used += 1;
        if probe(rate, rungs) {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    lo
}

/// Checks every response, live and replayed, against offline ground
/// truth, one `Eval` per (dataset, measure, normalization, k, pruned)
/// group; returns the number of wrong answers.
///
/// Every request is well formed, so anything but an answer is a
/// problem, except a `queue_full` or `limit_exceeded` refusal at a rate
/// above the light one. A lost request or an error response is already
/// counted as failed by [`Rung::missed`] (at the fixed rates), so it is
/// not counted again here. The replay of the fixed rungs must answer
/// every request and equal the offline answer bit for bit — so it equals
/// each live answer as well.
fn verify(datasets: &[Dataset], rungs: &[Rung], replay: &Replay, out: &mut Outcome) -> u64 {
    type Key = (String, String, &'static str, usize, bool);
    let mut answered: Vec<(Answer, &QueryRequest)> = Vec::new();
    let mut wrong = 0;
    for r in rungs {
        for (q, line) in r.requests.iter().zip(&r.lines) {
            match line.as_deref().map(Response::parse) {
                Some(Ok(Response::Answer { id, answer })) if id == q.id => {
                    answered.push((answer, q))
                }
                Some(Ok(Response::Error { code, .. }))
                    if r.may_refuse
                        && matches!(code, ErrorCode::QueueFull | ErrorCode::LimitExceeded) => {}
                None => out.problem(format!("request {} at {}: no response", q.id, r.name)),
                other => out.problem(format!(
                    "request {} at {}: unexpected response {other:?}",
                    q.id, r.name
                )),
            }
        }
    }
    let fixed: Vec<&QueryRequest> = rungs[..2].iter().flat_map(|r| &r.requests).collect();
    if replay.responses.len() != fixed.len() {
        out.problem(format!(
            "replay gave {} responses to {} requests",
            replay.responses.len(),
            fixed.len()
        ));
    }
    for (q, resp) in fixed.iter().zip(&replay.responses) {
        match resp {
            Response::Answer { id, answer } if *id == q.id => answered.push((answer.clone(), q)),
            other => {
                wrong += 1;
                out.problem(format!("replayed request {}: {other:?}", q.id));
            }
        }
    }
    let mut groups: BTreeMap<Key, Vec<(Answer, &QueryRequest)>> = BTreeMap::new();
    for (answer, q) in answered {
        let key = (
            q.dataset.clone(),
            q.measure.clone(),
            norm_tag(q.norm),
            q.k,
            q.pruned,
        );
        groups.entry(key).or_default().push((answer, q));
    }
    let resolve = resolver();
    for (key, items) in groups {
        let ds = datasets
            .iter()
            .find(|d| d.name == key.0)
            .expect("served dataset");
        let m = resolve(&key.1).expect("known measure");
        let qs: Vec<Vec<f64>> = items.iter().map(|(_, q)| q.series.clone()).collect();
        let expect = Eval::new(m.as_ref())
            .on(ds)
            .queries(&qs)
            .normalized(items[0].1.norm)
            .k(key.3)
            .pruned(key.4)
            .run()
            .expect("offline evaluation");
        for ((got, q), want) in items.iter().zip(&expect.answers) {
            if got != want || got.distance.to_bits() != want.distance.to_bits() {
                wrong += 1;
                out.problem(format!(
                    "request {}: served {got:?} != offline {want:?}",
                    q.id
                ));
            }
        }
    }
    wrong
}

/// The light and heavy streams answered again by one engine.
struct Replay {
    /// CPU milliseconds of the whole request path per request, in
    /// stream order.
    path_ms: Vec<f64>,
    /// Of which the engine's.
    engine_ms: Vec<f64>,
    /// The engine's responses, in stream order.
    responses: Vec<Response>,
    /// Answer-cache hits and misses over the replay.
    hits: u64,
    misses: u64,
}

/// Replays pooled, at least [`REPLAY_PASSES`] and until `budget_s` is
/// spent: every pass's per-request times; responses and cache counts of
/// the first pass. Each pass starts from a fresh engine, so every later
/// pass must give the same responses.
fn pooled_replay(
    ctx: &Ctx,
    datasets: &[Dataset],
    fixed: &[Rung],
    budget_s: f64,
    out: &mut Outcome,
) -> Replay {
    let started = Instant::now();
    let mut pooled = replay(ctx, datasets, fixed, 0, &mut out.speed);
    let mut pass = 1;
    while pass < REPLAY_PASSES || started.elapsed().as_secs_f64() < budget_s {
        let r = replay(ctx, datasets, fixed, pass, &mut out.speed);
        if r.responses != pooled.responses {
            out.problem(format!(
                "replay pass {pass} answered differently from pass 0"
            ));
        }
        pooled.path_ms.extend(r.path_ms);
        pooled.engine_ms.extend(r.engine_ms);
        pass += 1;
    }
    pooled
}

/// Replays `fixed`'s request lines through a shard's request path, one
/// request at a time: `parse_request_limited`, one
/// `Engine::answer_batch` call (a fresh engine holding every dataset,
/// with both shards' cache capacity), `Response::render`, and a durable
/// journal append — each request timed in thread CPU time, the engine
/// call also on its own.
fn replay(
    ctx: &Ctx,
    datasets: &[Dataset],
    fixed: &[Rung],
    pass: usize,
    speed: &mut host::Speed,
) -> Replay {
    let tracer = &ctx.tracer;
    let lines: Vec<String> = fixed
        .iter()
        .flat_map(|r| r.requests.iter())
        .map(render_query)
        .collect();
    let journal_path = ctx.scratch.join(format!("replay-{pass}.journal"));
    let journal = DurableJournal::open(&journal_path, DurableConfig::default())
        .expect("open the replay journal");
    let limits = Limits::default();
    let open = tracer.open(0, "serve::Engine::answer_batch", "serve.engine");
    let mut engine =
        Engine::new(datasets.to_vec(), resolver(), CACHE_CAP * SHARDS).with_index(true);
    engine.answer_batch(&warmup_requests(datasets));
    let (h0, m0) = engine.cache_stats();
    let mut path_ms = Vec::with_capacity(lines.len());
    let mut engine_ms = Vec::with_capacity(lines.len());
    let mut responses = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if i % 512 == 0 {
            speed.sample();
        }
        let t0 = host::thread_cpu_seconds();
        let Ok(tsdist_serve::Request::Query(q)) = parse_request_limited(line, &limits) else {
            panic!("a rendered request line must parse back: {line}");
        };
        let t1 = host::thread_cpu_seconds();
        let r = engine.answer_batch(std::slice::from_ref(&q));
        let t2 = host::thread_cpu_seconds();
        for resp in &r {
            std::hint::black_box(resp.render());
        }
        journal
            .append_line(line)
            .expect("append to the replay journal");
        let t3 = host::thread_cpu_seconds();
        path_ms.push((t3 - t0) * 1e3);
        engine_ms.push((t2 - t1) * 1e3);
        responses.extend(r);
    }
    let (h1, m1) = engine.cache_stats();
    tracer.close(open, format!("replay:{pass}"));
    // A pass writes ~15 MB of journal; keep the scratch directory small.
    drop(journal);
    for segment in v2_segments(&journal_path) {
        let _ = std::fs::remove_file(segment);
    }
    Replay {
        path_ms,
        engine_ms,
        responses,
        hits: h1 - h0,
        misses: m1 - m0,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut live = None;
    let mut datasets = Vec::new();
    for rep in 0..SETUP_REPS {
        // Shut the previous instance down before timing the next one.
        drop(live.take());
        out.speed.sample();
        let (d, l, secs, g) = start(ctx, rep);
        setup_s.push(secs);
        gen_s.push(g);
        datasets = d;
        live = Some(l);
    }
    let live = live.expect("a started server");
    let health = live.handle.health();

    let budget = ctx.seconds;
    let mut rungs = Vec::new();
    let baseline = ctx.traced.then(|| {
        rung(
            ctx,
            &live,
            &datasets,
            "light-untraced",
            LIGHT_QPS,
            budget * SPLIT[0] / 2.0,
            1,
        )
    });
    let light_s = if ctx.traced {
        budget * SPLIT[0] / 2.0
    } else {
        budget * SPLIT[0]
    };
    rungs.push(rung(ctx, &live, &datasets, "light", LIGHT_QPS, light_s, 2));
    rungs.push(rung(
        ctx,
        &live,
        &datasets,
        "heavy",
        HEAVY_QPS,
        budget * SPLIT[1],
        3,
    ));
    // Before the ladder: its overload probes buffer requests in flight.
    let rss = peak_rss_mb();
    // The sustained rate is a per-layer metric: the ladder runs traced.
    let sustained = if ctx.traced {
        ladder(ctx, &live, &datasets, budget * SPLIT[2], &mut rungs)
    } else {
        f64::NAN
    };
    let restarts = live.handle.health().total_restarts();
    let Live {
        mut handle,
        stream,
        journal,
    } = live;
    drop(stream);
    handle.shutdown();
    drop(handle);
    let journal_bytes: u64 = v2_segments(&journal)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();

    let fixed = &rungs[..2];
    let replay_s = if ctx.traced { 0.0 } else { budget * SPLIT[2] };
    let replay = pooled_replay(ctx, &datasets, fixed, replay_s, &mut out);
    let (wrong, _) = tracer.time(0, "verify", "bench", "answers", || {
        verify(&datasets, &rungs, &replay, &mut out)
    });
    let (light, heavy) = (&fixed[0], &fixed[1]);
    out.attempted = (light.records.len() + heavy.records.len()) as u64;
    let missed = light.missed() + heavy.missed();
    out.failed = missed + wrong;
    let answered = out.attempted - missed;

    out.e2e(
        "setup_s",
        median(&setup_s),
        SETUP_REPS as u64,
        "CPU s of generate + server start + warm-up of every split and index, median of set-ups",
    );
    println!(
        "# serve: live {:.1} answered requests per process-CPU second (client and server)",
        answered as f64 / (light.cpu_s + heavy.cpu_s)
    );
    let path_s: f64 = replay.path_ms.iter().sum::<f64>() / 1e3;
    out.e2e(
        "work_per_cpu_s",
        replay.path_ms.len() as f64 / path_s,
        replay.path_ms.len() as u64,
        "requests per CPU second of the replayed request path (decode, engine, encode, journal)",
    );
    match summarize(&replay.path_ms, TAIL_P) {
        Some(s) => {
            let note = "CPU ms of the replayed request path per request";
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
        None => out.problem(format!(
            "stream too short for p{TAIL_P}: {}",
            replay.path_ms.len()
        )),
    }
    out.e2e(
        "peak_rss_mb",
        rss,
        1,
        "VmHWM of client and server after the heavy rung",
    );
    if ctx.traced {
        println!(
            "# serve: sustained {sustained:.1} req/s (highest offered rate with p99 <= \
             {LIMIT_MS} ms, no refusal, no growing backlog)"
        );
    }
    for r in &rungs {
        println!(
            "rung {:<16} offered {:>8.1}/s  n={:<6} {}",
            r.name,
            r.rate,
            r.records.len(),
            judge(&r.records, tail_percentile(r.records.len()).unwrap_or(50.0)).map_or(
                "too short to judge".to_string(),
                |v| format!(
                    "p50 {:.3} ms  tail {:.3} ms  lag {:.3} ms  missed {}  backlog {}",
                    v.p50_ms, v.tail_ms, v.lag_tail_ms, v.missed, v.backlog_growing
                )
            )
        );
    }

    if let Some(base) = baseline {
        layer_metrics(ctx, &datasets, fixed, &replay, &mut out);
        let depth: Vec<f64> = rungs.iter().flat_map(|r| r.depth.iter().copied()).collect();
        if !depth.is_empty() {
            out.layer(
                "serve.queue_depth.mean",
                depth.iter().sum::<f64>() / depth.len() as f64,
            );
            out.layer(
                "serve.queue_depth.max",
                depth.iter().copied().fold(0.0, f64::max),
            );
        }
        let accepted: u64 = rungs
            .iter()
            .map(|r| r.records.iter().filter(|x| !x.refused).count() as u64)
            .sum::<u64>()
            + warmup_requests(&datasets).len() as u64;
        out.layer(
            "serve.journal.bytes_per_req",
            journal_bytes as f64 / accepted as f64,
        );
        for (code, name) in [
            ("queue_full", "serve.refused.queue_full"),
            ("limit_exceeded", "serve.refused.limit_exceeded"),
        ] {
            let n: u64 = rungs
                .iter()
                .map(|r| r.refused.get(code).copied().unwrap_or(0))
                .sum();
            out.layer(name, n as f64);
        }
        out.layer("serve.supervisor.restarts", restarts as f64);
        out.layer("serve.index.series", health.total_indexed_series() as f64);
        out.layer(
            "serve.index.bands",
            health.shards.iter().map(|s| s.index_bands as f64).sum(),
        );
        out.layer(
            "serve.index.pivots",
            health.shards.iter().map(|s| s.index_pivots as f64).sum(),
        );
        for (r, p50, p99) in [
            (light, "serve.light.p50_ms", "serve.light.p99_ms"),
            (heavy, "serve.heavy.p50_ms", "serve.heavy.p99_ms"),
        ] {
            let lat: Vec<f64> = r.records.iter().map(RequestRecord::latency_ms).collect();
            if let Some(s) = summarize(&lat, TAIL_P) {
                out.layer(p50, s.p50);
                out.layer(p99, s.tail);
            }
        }
        let lags: Vec<f64> = fixed
            .iter()
            .flat_map(|r| r.records.iter().map(RequestRecord::lag_ms))
            .collect();
        if let Some(s) = summarize(&lags, TAIL_P) {
            out.layer("serve.generator.lag_ms.p99", s.tail);
        }
        out.layer("data.generate_s", median(&gen_s));
        out.layer("serve.sustained_qps", sustained);
        out.layer(
            "trace.overhead_pct",
            (base.work_per_cpu_s() / light.work_per_cpu_s() - 1.0) * 100.0,
        );
    }
    out
}

/// The traced run's codec, engine, cache, prepare and index numbers.
fn layer_metrics(
    ctx: &Ctx,
    datasets: &[Dataset],
    fixed: &[Rung],
    replay: &Replay,
    out: &mut Outcome,
) {
    let tracer = &ctx.tracer;
    let engine_ms = &replay.engine_ms;
    out.layer(
        "serve.engine.us_per_req",
        engine_ms.iter().sum::<f64>() * 1e3 / engine_ms.len() as f64,
    );
    out.layer(
        "serve.cache.hit_frac",
        replay.hits as f64 / (replay.hits + replay.misses).max(1) as f64,
    );

    // Round trip minus engine time, request by request.
    let records = fixed.iter().flat_map(|r| r.records.iter());
    let outside: Vec<f64> = records
        .zip(engine_ms)
        .filter_map(|(rec, e)| {
            rec.received
                .map(|r| r.saturating_sub(rec.sent) as f64 / 1e6 - e)
        })
        .collect();
    if let Some(s) = summarize(&outside, TAIL_P) {
        out.layer("serve.outside_engine_ms.p50", s.p50);
        out.layer("serve.outside_engine_ms.p99", s.tail);
    }

    // The wire codec, both directions of a round trip.
    let reqs: Vec<&QueryRequest> = fixed.iter().flat_map(|r| r.requests.iter()).collect();
    let (codec_us, _) = tracer.time(0, "serve::protocol", "serve.protocol", "probe", || {
        let lines: Vec<String> = reqs.iter().map(|q| render_query(q)).collect();
        let resp_lines: Vec<String> = replay.responses.iter().map(Response::render).collect();
        let limits = Limits::default();
        let n = reqs.len() as f64;
        let t = Instant::now();
        for q in &reqs {
            std::hint::black_box(render_query(q));
        }
        for r in &replay.responses {
            std::hint::black_box(r.render());
        }
        let encode_us = t.elapsed().as_secs_f64() * 1e6 / n;
        let t = Instant::now();
        for l in &lines {
            std::hint::black_box(parse_request_limited(l, &limits).is_ok());
        }
        for l in &resp_lines {
            std::hint::black_box(Response::parse(l).is_ok());
        }
        let decode_us = t.elapsed().as_secs_f64() * 1e6 / n;
        let bytes: usize = lines.iter().chain(&resp_lines).map(|l| l.len() + 1).sum();
        out.layer("serve.protocol.encode_us", encode_us);
        out.layer("serve.protocol.decode_us", decode_us);
        out.layer("serve.protocol.bytes_per_req", bytes as f64 / n);
        encode_us + decode_us
    });

    // What the shards' lazy set-up does, timed from outside.
    let mut prep_s = 0.0;
    let mut index_s = 0.0;
    for ds in datasets {
        for norm in NORMS {
            let (prepared, p) = tracer.time(
                0,
                "eval::prepare",
                "eval.evaluator",
                ds.name.clone(),
                || prepare(ds, norm),
            );
            prep_s += p;
            let (_, i) = tracer.time(
                0,
                "core::TrainIndex::build",
                "core.index",
                ds.name.clone(),
                || {
                    let mut ix = TrainIndex::build(&prepared.train);
                    for m in MEASURES {
                        ix.prepare_measure(resolver()(m).expect("known").as_ref(), &prepared.train);
                    }
                    ix
                },
            );
            index_s += i;
        }
    }
    out.layer("eval.prepare_s", prep_s);
    out.layer("core.index.build_s", index_s);

    // The engine and codec share of each fixed rung's wall time.
    let mut at = 0;
    for r in fixed {
        let n = r.requests.len();
        let engine_s: f64 = engine_ms[at..at + n].iter().sum::<f64>() / 1e3;
        tracer.busy(r.span, "serve.engine", engine_s);
        tracer.busy(r.span, "serve.protocol", n as f64 * codec_us / 1e6);
        at += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_of_the_request_mix_holds_each_class_once() {
        let datasets = generate_archive(&crate::study::archive_config(DATASETS, 1));
        let classes = 3 * DATASETS * 3 * 4 * 2;
        // Enough requests for two whole blocks of fresh requests.
        let n = 2 * classes * REPEAT_EVERY / (REPEAT_EVERY - 1) + 1;
        let a = requests(&datasets, n, 7, 0);
        assert_eq!(a, requests(&datasets, n, 7, 0));
        assert_ne!(a, requests(&datasets, n, 8, 0));
        let fresh: Vec<&QueryRequest> = a
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || i % REPEAT_EVERY != 0)
            .map(|(_, q)| q)
            .collect();
        for block in fresh.chunks(classes).take(2) {
            let mut seen: Vec<_> = block
                .iter()
                .map(|q| {
                    (
                        q.measure.clone(),
                        q.dataset.clone(),
                        norm_tag(q.norm),
                        q.k,
                        q.pruned,
                    )
                })
                .collect();
            seen.sort();
            seen.dedup();
            // Every combination of measure, dataset, normalization, k and
            // pruned occurs.
            assert_eq!(seen.len(), 2 * DATASETS * 2 * 2 * 2);
            let count = |f: &dyn Fn(&&&QueryRequest) -> bool| block.iter().filter(f).count();
            assert_eq!(count(&|q| q.measure == "ed") * 3, classes);
            assert_eq!(count(&|q| q.norm == Normalization::ZScore) * 3, classes * 2);
            assert_eq!(count(&|q| q.k == 3) * 4, classes);
            assert_eq!(count(&|q| q.pruned) * 2, classes);
        }
        // Repeats copy a recent request under a new id.
        let r = &a[REPEAT_EVERY];
        assert!(a[..REPEAT_EVERY]
            .iter()
            .any(|q| q.series == r.series && q.measure == r.measure && q.id != r.id));
    }
}
