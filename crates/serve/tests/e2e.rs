//! End-to-end tests of `tsdist serve`: a real server on an ephemeral
//! port, a real TCP client, and the contracts the protocol promises —
//! byte-identical answers vs the offline evaluator, typed backpressure
//! and deadline errors, drain-on-shutdown with journal-replay
//! equivalence, a journal that keeps the received lines themselves, and
//! graceful degradation under injected faults.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use tsdist_core::chaos::{ChaosDistance, Fault, Schedule};
use tsdist_core::elastic::Dtw;
use tsdist_core::lockstep::Euclidean;
use tsdist_core::measure::Distance;
use tsdist_core::normalization::Normalization;
use tsdist_core::Workspace;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_data::Dataset;
use tsdist_eval::journal::recover_lines;
use tsdist_eval::Eval;
use tsdist_serve::protocol::parse_request;
use tsdist_serve::supervisor::KillSpec;
use tsdist_serve::{
    fuzz_server, render_query, replay_journal, Client, ErrorCode, FuzzConfig, Limits,
    MeasureResolver, QueryRequest, Request, Response, RetryPolicy, Server, ServerConfig,
};

/// A measure that sleeps per pairwise call — deadline and backpressure
/// fodder.
struct Slow(Duration);

impl Distance for Slow {
    fn name(&self) -> String {
        "slow".into()
    }
    fn distance_ws(&self, x: &[f64], y: &[f64], _: &mut Workspace) -> f64 {
        std::thread::sleep(self.0);
        Euclidean.distance(x, y)
    }
}

fn resolver() -> MeasureResolver {
    Arc::new(|spec: &str| match spec {
        "ed" => Ok(Box::new(Euclidean) as Box<dyn Distance>),
        "dtw:10" => Ok(Box::new(Dtw::with_window_pct(10.0)) as Box<dyn Distance>),
        "slow" => Ok(Box::new(Slow(Duration::from_millis(2))) as Box<dyn Distance>),
        "chaos" => Ok(Box::new(ChaosDistance::new(
            Euclidean,
            Fault::Panic,
            Schedule::EveryNth(2),
        )) as Box<dyn Distance>),
        other => Err(format!("unknown measure {other:?}")),
    })
}

fn archive() -> Vec<Dataset> {
    let cfg = ArchiveConfig::quick(2, 42);
    vec![generate_dataset(&cfg, 0), generate_dataset(&cfg, 1)]
}

/// 100 mixed queries over both datasets: two measures, k ∈ {1, 3},
/// pruned and exact, two normalizations.
fn mixed_queries(datasets: &[Dataset]) -> Vec<QueryRequest> {
    let mut queries = Vec::new();
    let mut id = 0u64;
    while queries.len() < 100 {
        for ds in datasets {
            for (qi, series) in ds.test.iter().enumerate().take(7) {
                id += 1;
                queries.push(QueryRequest {
                    id,
                    dataset: ds.name.clone(),
                    measure: if qi % 2 == 0 { "ed" } else { "dtw:10" }.into(),
                    norm: if qi % 3 == 0 {
                        Normalization::MinMax
                    } else {
                        Normalization::ZScore
                    },
                    k: if qi % 4 == 0 { 3 } else { 1 },
                    pruned: qi % 2 == 0,
                    series: series.clone(),
                    deadline_ms: None,
                });
            }
        }
    }
    queries.truncate(100);
    queries
}

/// Answers a query offline through the same public `Eval` path a
/// first-principles caller would use (independent of serve's engine).
fn offline_answer(datasets: &[Dataset], q: &QueryRequest) -> tsdist_eval::Answer {
    let ds = datasets
        .iter()
        .find(|d| d.name == q.dataset)
        .expect("dataset");
    let measure = (resolver())(&q.measure).expect("measure");
    let queries = vec![q.series.clone()];
    let report = Eval::new(measure.as_ref())
        .on(ds)
        .queries(&queries)
        .normalized(q.norm)
        .k(q.k)
        .pruned(q.pruned)
        .run()
        .expect("offline evaluation");
    report.answers.into_iter().next().expect("one answer")
}

/// Answers a query offline through the exact linear scan — no pruning,
/// no index — the strongest possible ground truth for the index tier.
fn offline_exact_answer(datasets: &[Dataset], q: &QueryRequest) -> tsdist_eval::Answer {
    let ds = datasets
        .iter()
        .find(|d| d.name == q.dataset)
        .expect("dataset");
    let measure = (resolver())(&q.measure).expect("measure");
    let queries = vec![q.series.clone()];
    let report = Eval::new(measure.as_ref())
        .on(ds)
        .queries(&queries)
        .normalized(q.norm)
        .k(q.k)
        .pruned(false)
        .run()
        .expect("offline exact evaluation");
    report.answers.into_iter().next().expect("one answer")
}

#[test]
fn indexed_serving_is_byte_identical_to_the_exact_scan_and_health_reports_the_index() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            queue_cap: 256,
            batch_max: 8,
            // `index: true` is the default — this test pins that the
            // default-on index tier never changes a single answer bit.
            ..ServerConfig::default()
        },
    )
    .expect("server start");

    let queries = mixed_queries(&datasets);
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let responses = client.roundtrip(&lines).expect("roundtrip");
    assert_eq!(responses.len(), queries.len());

    let mut by_id: BTreeMap<u64, Response> = BTreeMap::new();
    for line in &responses {
        let r = Response::parse(line).expect("parse response");
        by_id.insert(r.id(), r);
    }
    let mut matched = 0usize;
    for q in &queries {
        let expect = offline_exact_answer(&datasets, q);
        match by_id.get(&q.id) {
            Some(Response::Answer { answer, .. }) => {
                assert_eq!(answer, &expect, "query id {}", q.id);
                assert_eq!(
                    answer.distance.to_bits(),
                    expect.distance.to_bits(),
                    "query id {}",
                    q.id
                );
                matched += 1;
            }
            other => panic!("query id {}: unexpected {other:?}", q.id),
        }
    }
    assert_eq!(matched, 100, "all 100 mixed queries answered indexed");

    // The index tier is visible in health: shards that served queries
    // report the summary structures they built at prepare time.
    let health = client.health(9_100).expect("health");
    assert!(
        health.total_indexed_series() > 0,
        "serving shards must report indexed train series"
    );
    assert!(
        health.total_index_structures() > 0,
        "dtw:10 queries prepare a band index and ed (a declared metric) a pivot table"
    );
    let bands: u64 = health.shards.iter().map(|s| s.index_bands).sum();
    let pivots: u64 = health.shards.iter().map(|s| s.index_pivots).sum();
    assert!(bands > 0, "dtw:10 traffic must have built a band index");
    assert!(pivots > 0, "ed traffic must have built a pivot table");
    handle.shutdown();
}

#[test]
fn restarted_shard_rebuilds_its_index_and_retry_delivers_identical_answers() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            queue_cap: 256,
            batch_max: 8,
            kill: Some(KillSpec { after_jobs: 3 }),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // The kill chaos murders each shard's first incarnation mid-batch;
    // the retrying client must still end with 100/100 answers that are
    // byte-identical to the exact scan — the restarted incarnations
    // rebuild their indexes from scratch and serve through them.
    let queries = mixed_queries(&datasets);
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let responses = client
        .pipeline_with_retry(&lines, &RetryPolicy::default())
        .expect("retrying pipeline");
    assert_eq!(responses.len(), queries.len());
    let mut matched = 0usize;
    for line in &responses {
        match Response::parse(line).expect("parse") {
            Response::Answer { id, answer } => {
                let q = queries.iter().find(|q| q.id == id).expect("query for id");
                let expect = offline_exact_answer(&datasets, q);
                assert_eq!(answer, expect, "id {id}");
                assert_eq!(
                    answer.distance.to_bits(),
                    expect.distance.to_bits(),
                    "id {id}"
                );
                matched += 1;
            }
            other => panic!("retry must convert restarts into answers, got {other:?}"),
        }
    }
    assert_eq!(matched, 100, "every query answered despite the kills");

    // Health proves the rebuild: the stats cell is zeroed when a fresh
    // incarnation attaches, so a shard that restarted and reports a
    // nonzero indexed-series count has demonstrably re-prepared its
    // index after the crash.
    let health = client.health(9_101).expect("health");
    assert!(health.all_alive());
    assert!(health.total_restarts() >= 1, "the kill chaos must fire");
    let mut rebuilt = 0usize;
    for (i, shard) in health.shards.iter().enumerate() {
        if shard.restarts > 0 {
            assert!(
                shard.index_series > 0,
                "restarted shard {i} must rebuild its index"
            );
            rebuilt += 1;
        }
    }
    assert!(
        rebuilt > 0,
        "at least one restarted shard rebuilt its index"
    );
    assert!(health.total_index_structures() > 0);
    handle.shutdown();
}

#[test]
fn served_answers_are_byte_identical_to_the_offline_evaluator() {
    let datasets = archive();
    let queries = mixed_queries(&datasets);
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    // The same 100 queries pipelined on one connection, then spread over
    // four concurrent connections whose requests batch together, each
    // against a fresh server so no answer comes from the cache.
    for clients in [1, 4] {
        let mut handle = Server::start(
            datasets.clone(),
            resolver(),
            &ServerConfig {
                shards: 2,
                batch_max: 8,
                // Deep enough that a 100-query pipelined burst never sheds
                // load (backpressure has its own test).
                queue_cap: 256,
                ..ServerConfig::default()
            },
        )
        .expect("server start");
        let addr = handle.addr();
        let responses: Vec<String> = std::thread::scope(|s| {
            let threads: Vec<_> = lines
                .chunks(lines.len().div_ceil(clients))
                .map(|part| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        client.roundtrip(part).expect("roundtrip")
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        });
        assert_eq!(responses.len(), queries.len(), "{clients} client(s)");

        let mut by_id: BTreeMap<u64, Response> = BTreeMap::new();
        for line in &responses {
            let r = Response::parse(line).expect("parse response");
            by_id.insert(r.id(), r);
        }
        for q in &queries {
            let expect = offline_answer(&datasets, q);
            match by_id.get(&q.id) {
                Some(Response::Answer { answer, .. }) => {
                    assert_eq!(answer, &expect, "query id {}, {clients} client(s)", q.id);
                    assert_eq!(
                        answer.distance.to_bits(),
                        expect.distance.to_bits(),
                        "query id {}, {clients} client(s)",
                        q.id
                    );
                }
                other => panic!(
                    "query id {}, {clients} client(s): unexpected {other:?}",
                    q.id
                ),
            }
        }
        handle.shutdown();
    }
}

#[test]
fn deadlines_surface_as_typed_errors() {
    let datasets = archive();
    let mut handle =
        Server::start(datasets.clone(), resolver(), &ServerConfig::default()).expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let response = client
        .query(&QueryRequest {
            id: 1,
            dataset: datasets[0].name.clone(),
            measure: "slow".into(),
            norm: Normalization::ZScore,
            k: 1,
            pruned: true,
            series: datasets[0].test[0].clone(),
            deadline_ms: Some(1),
        })
        .expect("query");
    match response {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 1);
            assert_eq!(code, ErrorCode::DeadlineExceeded);
        }
        other => panic!("unexpected {other:?}"),
    }
    // The worker survives a blown deadline.
    assert!(client.ping(2).expect("ping"));
    handle.shutdown();
}

#[test]
fn unknown_dataset_and_unknown_measure_are_typed_rejections() {
    let datasets = archive();
    let mut handle =
        Server::start(datasets.clone(), resolver(), &ServerConfig::default()).expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut req = QueryRequest {
        id: 10,
        dataset: "no-such-archive".into(),
        measure: "ed".into(),
        norm: Normalization::ZScore,
        k: 1,
        pruned: true,
        series: datasets[0].test[0].clone(),
        deadline_ms: None,
    };
    match client.query(&req).expect("query") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 10);
            assert_eq!(code, ErrorCode::UnknownDataset);
            assert_eq!(code.label(), "unknown_dataset");
            assert!(!code.is_retryable(), "a bad name never self-heals");
        }
        other => panic!("unexpected {other:?}"),
    }

    req.id = 11;
    req.dataset = datasets[0].name.clone();
    req.measure = "no-such-measure".into();
    match client.query(&req).expect("query") {
        Response::Error { id, code, .. } => {
            assert_eq!(id, 11);
            assert_eq!(code, ErrorCode::UnknownMeasure);
            assert_eq!(code.label(), "unknown_measure");
            assert!(!code.is_retryable());
        }
        other => panic!("unexpected {other:?}"),
    }

    // Both rejections leave the connection and the shard healthy: the
    // same socket immediately serves a real answer.
    req.id = 12;
    req.measure = "ed".into();
    match client.query(&req).expect("query") {
        Response::Answer { id, .. } => assert_eq!(id, 12),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn overload_is_a_typed_queue_full_response() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 1,
            queue_cap: 1,
            batch_max: 1,
            cache_cap: 0,
            ..ServerConfig::default()
        },
    )
    .expect("server");

    // Flood a single shard with slow queries; the bounded queue must
    // reject the excess with `queue_full`, never a panic or a hang.
    let lines: Vec<String> = (0..24)
        .map(|i| {
            render_query(&QueryRequest {
                id: i + 1,
                dataset: datasets[0].name.clone(),
                measure: "slow".into(),
                norm: Normalization::ZScore,
                k: 1,
                pruned: true,
                series: datasets[0].test[(i as usize) % datasets[0].test.len()].clone(),
                deadline_ms: None,
            })
        })
        .collect();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let responses = client.roundtrip(&lines).expect("roundtrip");

    let mut rejected = 0usize;
    let mut answered = 0usize;
    for line in &responses {
        match Response::parse(line).expect("parse") {
            Response::Error {
                code: ErrorCode::QueueFull,
                ..
            } => rejected += 1,
            Response::Answer { .. } => answered += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(rejected + answered, 24);
    assert!(rejected > 0, "flooding a 1-deep queue must shed load");
    assert!(answered > 0, "accepted jobs must still be answered");
    handle.shutdown();
}

#[test]
fn shutdown_mid_batch_drains_and_journal_replays_byte_identically() {
    let datasets = archive();
    let journal_path = std::env::temp_dir().join(format!(
        "tsdist_serve_e2e_journal_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            journal_path: Some(journal_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server");

    // Pipeline a burst, then kill the server while jobs may still be in
    // shard queues. Drain-on-shutdown promises every accepted job an
    // answer.
    let queries: Vec<QueryRequest> = mixed_queries(&datasets).into_iter().take(40).collect();
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for line in &lines {
        client.send_line(line).expect("send");
    }
    let mut live: BTreeMap<u64, String> = BTreeMap::new();
    // Wait for the first answer so the burst is demonstrably mid-flight
    // (some accepted, most still queued or unread), then kill.
    let first = client.recv_line().expect("first response");
    let parsed = Response::parse(&first).expect("parse first response");
    live.insert(parsed.id(), first);
    handle.shutdown(); // kill mid-batch

    while let Ok(line) = client.recv_line() {
        let r = Response::parse(&line).expect("parse live response");
        live.insert(r.id(), line);
    }

    // Whatever made it into the journal was accepted, so it must have a
    // live answer — and the offline replay must reproduce it exactly.
    // The journal is a v2 durable journal now: recover its framed
    // records (none may be corrupt after a clean shutdown).
    let recovered = recover_lines(&journal_path).expect("recover journal");
    assert_eq!(recovered.corrupt_records, 0);
    let journal_lines: Vec<String> = recovered.lines;
    assert!(
        !journal_lines.is_empty(),
        "burst must journal accepted requests"
    );
    let replayed = replay_journal(journal_lines.clone(), datasets, resolver());
    assert_eq!(replayed.len(), journal_lines.len());
    let mut checked = 0usize;
    for line in &replayed {
        let r = Response::parse(line).expect("parse replayed response");
        let live_line = live
            .get(&r.id())
            .unwrap_or_else(|| panic!("journaled request {} has no live answer", r.id()));
        assert_eq!(live_line, line, "live vs replay for id {}", r.id());
        checked += 1;
    }
    assert!(checked > 0);
    let _ = std::fs::remove_file(&journal_path);
}

/// A query line in non-canonical spellings a client may send: padding
/// around the object and its numbers, an exponent `k`, and series tokens
/// written `-0.0`, `1e0`, in exponent form and with padding.
/// `render_query` would spell each of them differently.
fn non_canonical_line(id: u64, dataset: &str, measure: &str, k: &str, series: &[f64]) -> String {
    let mut tokens = vec!["-0.0".to_string(), "1e0".to_string()];
    tokens.extend(series.iter().skip(2).enumerate().map(|(t, v)| match t % 3 {
        0 => format!("{v:e}"),
        1 => format!("  {v} "),
        _ => format!("{v}"),
    }));
    format!(
        "  {{\"op\":\"query\",\"id\": {id} ,\"dataset\":\"{dataset}\",\
         \"measure\":\"{measure}\",\"k\": {k},\"pruned\":1,\"series\":\"{}\"}} ",
        tokens.join(",")
    )
}

#[test]
fn the_journal_keeps_received_lines_and_replays_them_bit_for_bit() {
    let datasets = archive();
    let journal_path = std::env::temp_dir().join(format!(
        "tsdist_serve_e2e_raw_journal_{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            journal_path: Some(journal_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut sent = Vec::new();
    for (i, ds) in datasets.iter().enumerate() {
        for (q, series) in ds.test.iter().enumerate().take(4) {
            let id = (10 * i + q + 1) as u64;
            let measure = if q % 2 == 0 { "ed" } else { "dtw:10" };
            let k = if q < 2 { "1" } else { "3e0" };
            sent.push(non_canonical_line(id, &ds.name, measure, k, series));
        }
    }
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut live: BTreeMap<u64, String> = BTreeMap::new();
    for (n, line) in sent.iter().enumerate() {
        // Every other line arrives with a `\r\n` ending.
        let wire = if n % 2 == 0 {
            line.clone()
        } else {
            format!("{line}\r")
        };
        client.send_line(&wire).expect("send");
        let answer = client.recv_line().expect("answer");
        let r = Response::parse(&answer).expect("parse live response");
        assert!(matches!(r, Response::Answer { .. }), "{answer}");
        live.insert(r.id(), answer);
    }
    handle.shutdown();

    // The journal holds each received line byte for byte, without its
    // line ending, and not its canonical rendering.
    let recovered = recover_lines(&journal_path).expect("recover journal");
    assert_eq!(recovered.corrupt_records, 0);
    assert_eq!(recovered.lines, sent);
    for line in &sent {
        let Ok(Request::Query(q)) = parse_request(line) else {
            panic!("{line} is a query");
        };
        assert_ne!(&render_query(&q), line);
        assert_eq!(q.series[0].to_bits(), (-0.0f64).to_bits());
    }
    // Replay decodes the same lines and answers them bit for bit.
    let replayed = replay_journal(recovered.lines, datasets, resolver());
    assert_eq!(replayed.len(), sent.len());
    for line in &replayed {
        let r = Response::parse(line).expect("parse replayed response");
        assert_eq!(
            live.get(&r.id()),
            Some(line),
            "live vs replay for id {}",
            r.id()
        );
    }
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn chaos_faults_degrade_gracefully() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 1,
            batch_max: 1, // isolate each chaos query's fault
            cache_cap: 0,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Alternate healthy and chaos-injected queries. The chaos measure
    // panics on a schedule; those come back as typed `internal` errors
    // until the circuit breaker opens (threshold 3), after which the
    // measure is quarantined and answered `measure_quarantined` without
    // being invoked — while the worker keeps serving byte-correct
    // answers for healthy measures throughout.
    let mut internal = 0usize;
    let mut quarantined = 0usize;
    for (i, series) in datasets[0].test.iter().enumerate().take(10) {
        let chaos = QueryRequest {
            id: (2 * i + 1) as u64,
            dataset: datasets[0].name.clone(),
            measure: "chaos".into(),
            norm: Normalization::ZScore,
            k: 1,
            pruned: true,
            series: series.clone(),
            deadline_ms: None,
        };
        match client.query(&chaos).expect("chaos query") {
            Response::Error { code, message, .. } => match code {
                ErrorCode::Internal => {
                    assert_eq!(quarantined, 0, "no internal fault after the breaker opened");
                    internal += 1;
                }
                ErrorCode::MeasureQuarantined => quarantined += 1,
                other => panic!("unexpected error code {other:?}: {message}"),
            },
            Response::Answer { .. } => {}
            other => panic!("unexpected {other:?}"),
        }

        let healthy = QueryRequest {
            id: (2 * i + 2) as u64,
            measure: "ed".into(),
            ..chaos
        };
        match client.query(&healthy).expect("healthy query") {
            Response::Answer { answer, .. } => {
                assert_eq!(answer, offline_answer(&datasets, &healthy), "query {i}");
            }
            other => panic!("healthy query {i} failed: {other:?}"),
        }
    }
    assert!(internal > 0, "the chaos schedule must fire at least once");
    assert!(
        quarantined > 0,
        "repeated faults must open the circuit breaker"
    );
    assert!(internal <= 3, "the breaker must open at the threshold");
    // The quarantine is visible in the health report.
    let health = client.health(998).expect("health");
    assert_eq!(health.total_quarantined(), 1);
    // The server is still alive and polite after repeated faults.
    assert!(client.ping(999).expect("ping"));
    handle.shutdown();
}

#[test]
fn killed_shard_restarts_inflight_jobs_get_typed_errors_and_service_recovers() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            queue_cap: 256,
            batch_max: 8,
            kill: Some(KillSpec { after_jobs: 3 }),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Burst enough queries that both shards' first incarnations pick up
    // batches, die mid-batch, and get restarted by the supervisor.
    let queries = mixed_queries(&datasets);
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let responses = client.roundtrip(&lines).expect("roundtrip");
    assert_eq!(
        responses.len(),
        queries.len(),
        "every request gets exactly one response — a killed worker never swallows jobs"
    );

    let mut answered = 0usize;
    let mut restarted = 0usize;
    for line in &responses {
        match Response::parse(line).expect("parse") {
            Response::Answer { id, answer } => {
                let q = queries.iter().find(|q| q.id == id).expect("query for id");
                assert_eq!(answer, offline_answer(&datasets, q), "id {id}");
                answered += 1;
            }
            Response::Error {
                code: ErrorCode::ShardRestarted,
                ..
            } => restarted += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        restarted > 0,
        "the kill must strand at least one in-flight job"
    );
    assert!(
        answered > 0,
        "queued jobs must survive the crash and be answered"
    );

    // The supervisor's work is visible in health: every shard alive,
    // restart counters matching the kills.
    let health = client.health(9_000).expect("health");
    assert!(health.all_alive());
    assert!(health.total_restarts() >= 1);
    assert!(
        health.total_restarts() <= 2,
        "each shard re-kills at most once"
    );

    // The restarted shards serve subsequent requests correctly.
    let again: Vec<QueryRequest> = queries
        .iter()
        .take(20)
        .map(|q| QueryRequest {
            id: q.id + 10_000,
            ..q.clone()
        })
        .collect();
    let again_lines: Vec<String> = again.iter().map(render_query).collect();
    for line in client
        .roundtrip(&again_lines)
        .expect("post-restart roundtrip")
    {
        match Response::parse(&line).expect("parse") {
            Response::Answer { id, answer } => {
                let q = again.iter().find(|q| q.id == id).expect("query");
                assert_eq!(answer, offline_answer(&datasets, q), "post-restart id {id}");
            }
            other => panic!("post-restart: unexpected {other:?}"),
        }
    }
    handle.shutdown();
}

#[test]
fn retrying_client_turns_shard_restarts_into_answers() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            queue_cap: 256,
            batch_max: 8,
            kill: Some(KillSpec { after_jobs: 3 }),
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let queries = mixed_queries(&datasets);
    let lines: Vec<String> = queries.iter().map(render_query).collect();
    let responses = client
        .pipeline_with_retry(&lines, &RetryPolicy::default())
        .expect("retrying pipeline");
    assert_eq!(responses.len(), queries.len());
    for line in &responses {
        match Response::parse(line).expect("parse") {
            Response::Answer { id, answer } => {
                let q = queries.iter().find(|q| q.id == id).expect("query");
                assert_eq!(answer, offline_answer(&datasets, q), "id {id}");
            }
            other => panic!("retry must convert transient rejections, got {other:?}"),
        }
    }
    let health = client.health(9_001).expect("health");
    assert!(
        health.total_restarts() >= 1,
        "the chaos kill must have fired"
    );
    handle.shutdown();
}

#[test]
fn ingress_limits_are_typed_rejections() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 1,
            limits: Limits {
                max_line_bytes: 512,
                max_series_len: 8,
                max_k: 2,
                max_inflight_per_conn: 128,
            },
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ds = &datasets[0].name;

    let expect_code = |client: &mut Client, line: &str, want: ErrorCode| {
        client.send_line(line).expect("send");
        match client.recv_response().expect("recv") {
            Response::Error { code, .. } => assert_eq!(code, want, "line {line:?}"),
            other => panic!("line {line:?}: unexpected {other:?}"),
        }
    };

    // A line over the byte cap: discarded, answered `limit_exceeded`,
    // and the connection stays line-synchronized.
    let huge = format!(
        "{{\"op\":\"query\",\"id\":1,\"dataset\":\"{ds}\",\"measure\":\"ed\",\"series\":\"{}\"}}",
        "1,".repeat(600)
    );
    assert!(huge.len() > 512);
    expect_code(&mut client, &huge, ErrorCode::LimitExceeded);

    // Series longer than the point cap (but under the byte cap).
    let long_series = format!(
        "{{\"op\":\"query\",\"id\":2,\"dataset\":\"{ds}\",\"measure\":\"ed\",\"series\":\"1,2,3,4,5,6,7,8,9\"}}"
    );
    expect_code(&mut client, &long_series, ErrorCode::LimitExceeded);

    // k over the cap.
    let big_k = format!(
        "{{\"op\":\"query\",\"id\":3,\"dataset\":\"{ds}\",\"measure\":\"ed\",\"k\":3,\"series\":\"1,2\"}}"
    );
    expect_code(&mut client, &big_k, ErrorCode::LimitExceeded);

    // Structurally broken JSON is `bad_request`; a parseable object with
    // a bad field is `invalid_request`.
    expect_code(
        &mut client,
        "{\"op\":\"query\",\"id\":4",
        ErrorCode::BadRequest,
    );
    let bad_field = format!(
        "{{\"op\":\"query\",\"id\":5,\"dataset\":\"{ds}\",\"measure\":\"ed\",\"norm\":\"nope\",\"series\":\"1,2\"}}"
    );
    expect_code(&mut client, &bad_field, ErrorCode::InvalidRequest);

    // A legal request still works on the same connection afterwards.
    let q = QueryRequest {
        id: 6,
        dataset: ds.clone(),
        measure: "ed".into(),
        norm: Normalization::ZScore,
        k: 1,
        pruned: true,
        series: datasets[0].test[0].iter().copied().take(8).collect(),
        deadline_ms: None,
    };
    match client.query(&q).expect("query") {
        Response::Answer { .. } => {}
        other => panic!("legal query after rejections failed: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn fuzz_smoke_in_process() {
    let datasets = archive();
    let mut handle = Server::start(
        datasets.clone(),
        resolver(),
        &ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");

    let mut templates: Vec<String> = mixed_queries(&datasets)
        .iter()
        .take(6)
        .map(render_query)
        .collect();
    templates.push(tsdist_serve::protocol::render_ping(77));
    let report = fuzz_server(
        handle.addr(),
        &templates,
        &FuzzConfig {
            seed: 0xdead_beef,
            iterations: 2_000,
            deadline: Duration::from_secs(10),
        },
    )
    .expect("fuzz run must complete without hangs, panics, or lost workers");
    assert_eq!(report.sent, 2_000);
    assert_eq!(report.restarts_before, report.restarts_after);
    assert!(
        !report.errors.is_empty(),
        "mutated lines must produce typed errors"
    );
    handle.shutdown();
}
