//! The NDJSON wire protocol of `tsdist serve`.
//!
//! One flat JSON object per line in each direction, in the exact dialect
//! of [`tsdist_eval::wire`] (string / number / `null` values, no
//! nesting). Series and neighbour lists travel as comma-joined strings,
//! each float rendered with shortest-round-trip formatting so a series
//! that crosses the wire parses back to the same bits — the property
//! behind the served-vs-offline byte-equivalence contract.
//!
//! Requests:
//!
//! ```text
//! {"op":"query","id":1,"dataset":"synthetic/shape-00","measure":"ed","series":"0.1,0.4,..."}
//! {"op":"query","id":2,"dataset":"d","measure":"dtw:10","norm":"zscore","k":3,"pruned":1,"deadline_ms":250,"series":"..."}
//! {"op":"ping","id":3}
//! {"op":"health","id":4}
//! {"op":"shutdown","id":5}
//! ```
//!
//! Responses carry the request `id` (so pipelined clients can reorder)
//! and either an answer or a typed error:
//!
//! ```text
//! {"id":1,"status":"ok","index":3,"distance":1.25,"label":2,"neighbours":"3"}
//! {"id":2,"status":"error","code":"queue_full","message":"shard queue at capacity"}
//! ```
//!
//! Error codes form the backpressure and crash-safety contract:
//! `queue_full` (the 429-style typed rejection — never a panic, never a
//! dropped connection), `deadline_exceeded`, `bad_request` (the line is
//! not a wire object), `invalid_request` (a field is missing or
//! malformed), `limit_exceeded` (a hard ingress limit tripped),
//! `unknown_dataset`, `unknown_measure`, `shard_restarted` (the shard
//! worker died mid-evaluation and the supervisor rebuilt it; retryable),
//! `measure_quarantined` (the per-measure circuit breaker opened), and
//! `internal` (a faulted measure; the shard survives and keeps serving).
//!
//! The `health` request returns per-shard liveness, queue depth, the
//! supervisor's restart / quarantine counters, and the engine's index
//! tier structure counts as flat `shard_<i>` string fields (the wire
//! dialect has no nesting):
//!
//! ```text
//! {"id":4,"status":"ok","health":1,"shards":2,"restarts":1,"quarantined":0,
//!  "shard_0":"up queue=0 restarts=1 quarantined=0 index_series=24 index_bands=1 index_pivots=2",
//!  "shard_1":"up queue=3 restarts=0 quarantined=0 index_series=0 index_bands=0 index_pivots=0"}
//! ```

use std::fmt::Write as _;

use crate::limits::Limits;
use tsdist_core::normalization::Normalization;
use tsdist_eval::request::Answer;
use tsdist_eval::wire::{get_num, get_str, parse_json_object, ObjectWriter};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a 1-NN / k-NN query against a served dataset.
    Query(QueryRequest),
    /// Liveness probe.
    Ping {
        /// Request id echoed in the response.
        id: u64,
    },
    /// Ask for the supervisor's per-shard health report.
    Health {
        /// Request id echoed in the response.
        id: u64,
    },
    /// Ask the server to shut down cleanly.
    Shutdown {
        /// Request id echoed in the response.
        id: u64,
    },
}

/// One query against a served dataset's training split.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen id echoed in the response.
    pub id: u64,
    /// Name of the served dataset to query.
    pub dataset: String,
    /// Measure spec, resolved server-side (e.g. `"ed"`, `"dtw:10"`).
    pub measure: String,
    /// Evaluation normalization (default z-score).
    pub norm: Normalization,
    /// Neighbours to vote over (default 1).
    pub k: usize,
    /// Use the cutoff-threaded pruned scan (default true; answers are
    /// byte-identical either way).
    pub pruned: bool,
    /// The raw query series; preprocessed server-side exactly like the
    /// dataset's own series.
    pub series: Vec<f64>,
    /// Optional per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Typed error codes of the response protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The target shard's bounded queue is at capacity (429-style; retry
    /// later).
    QueueFull,
    /// The request's deadline elapsed before the evaluation finished.
    DeadlineExceeded,
    /// The request line failed to parse as a wire object at all.
    BadRequest,
    /// The line parsed as JSON but a field was missing or invalid.
    InvalidRequest,
    /// The request exceeded a hard ingress limit (line bytes, series
    /// length, `k`, or the per-connection outstanding-request quota).
    LimitExceeded,
    /// The named dataset is not served.
    UnknownDataset,
    /// The measure spec did not resolve.
    UnknownMeasure,
    /// The shard worker holding this request died and was restarted by
    /// the supervisor; the request was lost mid-evaluation (retryable —
    /// the rebuilt shard serves the same datasets).
    ShardRestarted,
    /// The measure tripped the per-measure circuit breaker (too many
    /// panics) and is quarantined on this shard.
    MeasureQuarantined,
    /// The measure faulted while evaluating; the shard survives.
    Internal,
}

impl ErrorCode {
    /// The wire label of the code.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidRequest => "invalid_request",
            ErrorCode::LimitExceeded => "limit_exceeded",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::UnknownMeasure => "unknown_measure",
            ErrorCode::ShardRestarted => "shard_restarted",
            ErrorCode::MeasureQuarantined => "measure_quarantined",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire label back into a code.
    pub fn from_label(label: &str) -> Option<ErrorCode> {
        match label {
            "queue_full" => Some(ErrorCode::QueueFull),
            "deadline_exceeded" => Some(ErrorCode::DeadlineExceeded),
            "bad_request" => Some(ErrorCode::BadRequest),
            "invalid_request" => Some(ErrorCode::InvalidRequest),
            "limit_exceeded" => Some(ErrorCode::LimitExceeded),
            "unknown_dataset" => Some(ErrorCode::UnknownDataset),
            "unknown_measure" => Some(ErrorCode::UnknownMeasure),
            "shard_restarted" => Some(ErrorCode::ShardRestarted),
            "measure_quarantined" => Some(ErrorCode::MeasureQuarantined),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Whether a client may transparently retry a request rejected with
    /// this code (the condition is transient, the request unexecuted or
    /// safely re-executable).
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::QueueFull | ErrorCode::ShardRestarted)
    }
}

/// A typed request-rejection: which code the line earns and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The typed code (`bad_request`, `invalid_request`, or
    /// `limit_exceeded`).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::InvalidRequest,
            message: message.into(),
        }
    }

    fn limit(message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::LimitExceeded,
            message: message.into(),
        }
    }
}

/// One shard's health as reported by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardHealth {
    /// Whether a live worker incarnation currently owns the shard.
    pub alive: bool,
    /// Jobs waiting in the shard's bounded queue.
    pub queue_depth: usize,
    /// Times the supervisor has restarted this shard's worker.
    pub restarts: u64,
    /// Measures currently quarantined on this shard.
    pub quarantined: usize,
    /// Train series covered by the current engine's index tier.
    pub index_series: u64,
    /// Distinct DTW band structures (PAA + Keogh envelopes) held.
    pub index_bands: u64,
    /// Conformance-checked metric pivot tables held.
    pub index_pivots: u64,
}

impl ShardHealth {
    /// Renders the compact wire form, e.g. `up queue=0 restarts=1
    /// quarantined=0 index_series=24 index_bands=1 index_pivots=2`.
    pub fn render(&self) -> String {
        format!(
            "{} queue={} restarts={} quarantined={} index_series={} index_bands={} index_pivots={}",
            if self.alive { "up" } else { "down" },
            self.queue_depth,
            self.restarts,
            self.quarantined,
            self.index_series,
            self.index_bands,
            self.index_pivots
        )
    }

    /// Parses the compact wire form.
    pub fn parse(text: &str) -> Result<ShardHealth, String> {
        let mut parts = text.split_whitespace();
        let alive = match parts.next() {
            Some("up") => true,
            Some("down") => false,
            other => return Err(format!("bad shard liveness {other:?}")),
        };
        let mut health = ShardHealth {
            alive,
            ..ShardHealth::default()
        };
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad shard field {part:?}"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("bad shard count {part:?}"))?;
            match key {
                "queue" => health.queue_depth = n as usize,
                "restarts" => health.restarts = n,
                "quarantined" => health.quarantined = n as usize,
                "index_series" => health.index_series = n,
                "index_bands" => health.index_bands = n,
                "index_pivots" => health.index_pivots = n,
                _ => return Err(format!("unknown shard field {key:?}")),
            }
        }
        Ok(health)
    }
}

/// The supervisor's full health report: one entry per shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Per-shard health, indexed by shard id.
    pub shards: Vec<ShardHealth>,
}

impl HealthReport {
    /// Total supervisor restarts across all shards.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }

    /// Total quarantined measures across all shards.
    pub fn total_quarantined(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// Whether every shard currently has a live worker.
    pub fn all_alive(&self) -> bool {
        self.shards.iter().all(|s| s.alive)
    }

    /// Total train series covered by index tiers across all shards.
    pub fn total_indexed_series(&self) -> u64 {
        self.shards.iter().map(|s| s.index_series).sum()
    }

    /// Total index structures (DTW bands + pivot tables) across all
    /// shards.
    pub fn total_index_structures(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.index_bands + s.index_pivots)
            .sum()
    }
}

/// A response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successfully answered query.
    Answer {
        /// Echo of the request id.
        id: u64,
        /// The answer (index, distance, label, neighbours).
        answer: Answer,
    },
    /// A typed failure.
    Error {
        /// Echo of the request id (0 when the line was unparseable).
        id: u64,
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to `ping`.
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Reply to `health`.
    Health {
        /// Echo of the request id.
        id: u64,
        /// The supervisor's per-shard report.
        report: HealthReport,
    },
    /// Acknowledgement that the server is shutting down.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
}

impl Response {
    /// The request id this response answers.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Answer { id, .. }
            | Response::Error { id, .. }
            | Response::Pong { id }
            | Response::Health { id, .. }
            | Response::ShuttingDown { id } => id,
        }
    }

    /// Renders the response as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Answer { id, answer } => {
                let mut w = ObjectWriter::new()
                    .uint("id", usize_of(*id))
                    .str("status", "ok");
                w = match answer.index {
                    Some(j) => w.uint("index", j),
                    None => w.null("index"),
                };
                w = w.num("distance", answer.distance);
                w = match answer.label {
                    Some(l) => w.uint("label", l),
                    None => w.null("label"),
                };
                w.str("neighbours", &join(&answer.neighbours)).finish()
            }
            Response::Error { id, code, message } => ObjectWriter::new()
                .uint("id", usize_of(*id))
                .str("status", "error")
                .str("code", code.label())
                .str("message", message)
                .finish(),
            Response::Pong { id } => ObjectWriter::new()
                .uint("id", usize_of(*id))
                .str("status", "ok")
                .uint("pong", 1)
                .finish(),
            Response::Health { id, report } => {
                let mut w = ObjectWriter::new()
                    .uint("id", usize_of(*id))
                    .str("status", "ok")
                    .uint("health", 1)
                    .uint("shards", report.shards.len())
                    .uint("restarts", report.total_restarts() as usize)
                    .uint("quarantined", report.total_quarantined());
                for (i, shard) in report.shards.iter().enumerate() {
                    w = w.str(&format!("shard_{i}"), &shard.render());
                }
                w.finish()
            }
            Response::ShuttingDown { id } => ObjectWriter::new()
                .uint("id", usize_of(*id))
                .str("status", "ok")
                .uint("shutdown", 1)
                .finish(),
        }
    }

    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let fields = parse_json_object(line)?;
        let id = get_num(&fields, "id").ok_or("missing id")? as u64;
        match get_str(&fields, "status") {
            Some("ok") => {
                if get_num(&fields, "pong").is_some() {
                    return Ok(Response::Pong { id });
                }
                if get_num(&fields, "shutdown").is_some() {
                    return Ok(Response::ShuttingDown { id });
                }
                if get_num(&fields, "health").is_some() {
                    let n = get_num(&fields, "shards").unwrap_or(0.0) as usize;
                    let mut shards = Vec::with_capacity(n);
                    for i in 0..n {
                        let text = get_str(&fields, &format!("shard_{i}"))
                            .ok_or_else(|| format!("health response without shard_{i}"))?;
                        shards.push(ShardHealth::parse(text)?);
                    }
                    return Ok(Response::Health {
                        id,
                        report: HealthReport { shards },
                    });
                }
                let index = get_num(&fields, "index").map(|v| v as usize);
                // `distance: null` encodes a non-finite distance — an
                // empty neighbour set reports `INFINITY`.
                let distance = get_num(&fields, "distance").unwrap_or(f64::INFINITY);
                let label = get_num(&fields, "label").map(|v| v as usize);
                let neighbours =
                    decode_indices(get_str(&fields, "neighbours").unwrap_or_default())?;
                Ok(Response::Answer {
                    id,
                    answer: Answer {
                        index,
                        distance,
                        label,
                        neighbours,
                    },
                })
            }
            Some("error") => {
                let label = get_str(&fields, "code").ok_or("error response without code")?;
                let code = ErrorCode::from_label(label)
                    .ok_or_else(|| format!("unknown error code {label:?}"))?;
                Ok(Response::Error {
                    id,
                    code,
                    message: get_str(&fields, "message").unwrap_or_default().to_string(),
                })
            }
            other => Err(format!("bad status {other:?}")),
        }
    }
}

fn usize_of(id: u64) -> usize {
    id as usize
}

/// Encodes a series as a comma-joined string of shortest-round-trip
/// floats (non-finite values render as `NaN` / `inf` / `-inf`, which
/// `f64::from_str` parses back bit-exactly for the values we produce).
pub fn encode_series(series: &[f64]) -> String {
    join(series)
}

/// Decodes a comma-joined series.
pub fn decode_series(text: &str) -> Result<Vec<f64>, String> {
    decode_points(text, series_points(text))
}

/// The values in a comma-joined series: its separators plus one, or none
/// for the empty string. The count allocates nothing, so it can gate
/// the ingress limit before the series is decoded.
fn series_points(text: &str) -> usize {
    if text.is_empty() {
        0
    } else {
        text.bytes().filter(|&b| b == b',').count() + 1
    }
}

/// Decodes a comma-joined series of `points` values (its
/// [`series_points`]) into a vector allocated once at that size. Each
/// token goes through `str::parse::<f64>`.
fn decode_points(text: &str, points: usize) -> Result<Vec<f64>, String> {
    let mut series = Vec::with_capacity(points);
    if text.is_empty() {
        return Ok(series);
    }
    for t in text.split(',') {
        series.push(
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad series value {t:?}"))?,
        );
    }
    Ok(series)
}

/// Joins values with commas, each in its `Display` form, written
/// straight into one buffer.
fn join<T: std::fmt::Display>(values: &[T]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
    out
}

fn decode_indices(text: &str) -> Result<Vec<usize>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad index {t:?}"))
        })
        .collect()
}

/// Parses a normalization wire name (the same vocabulary as the CLI's
/// `--norm` flag).
pub fn parse_norm(name: &str) -> Result<Normalization, String> {
    match name {
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

/// The canonical wire name of a normalization (inverse of
/// [`parse_norm`] for the wire vocabulary; parameterized variants are
/// not served).
pub fn norm_tag(norm: Normalization) -> &'static str {
    match norm {
        Normalization::ZScore => "zscore",
        Normalization::MinMax => "minmax",
        Normalization::MeanNorm => "meannorm",
        Normalization::MedianNorm => "mediannorm",
        Normalization::UnitLength => "unitlength",
        Normalization::AdaptiveScaling => "adaptive",
        Normalization::Logistic => "logistic",
        Normalization::Tanh => "tanh",
        _ => "other",
    }
}

/// Renders a query request as one wire line (no trailing newline).
pub fn render_query(q: &QueryRequest) -> String {
    let mut w = ObjectWriter::new()
        .str("op", "query")
        .uint("id", usize_of(q.id))
        .str("dataset", &q.dataset)
        .str("measure", &q.measure)
        .str("norm", norm_tag(q.norm))
        .uint("k", q.k)
        .uint("pruned", usize::from(q.pruned));
    if let Some(ms) = q.deadline_ms {
        w = w.uint("deadline_ms", ms as usize);
    }
    w.str("series", &encode_series(&q.series)).finish()
}

/// Renders a `ping` line.
pub fn render_ping(id: u64) -> String {
    ObjectWriter::new()
        .str("op", "ping")
        .uint("id", usize_of(id))
        .finish()
}

/// Renders a `health` line.
pub fn render_health(id: u64) -> String {
    ObjectWriter::new()
        .str("op", "health")
        .uint("id", usize_of(id))
        .finish()
}

/// Renders a `shutdown` line.
pub fn render_shutdown(id: u64) -> String {
    ObjectWriter::new()
        .str("op", "shutdown")
        .uint("id", usize_of(id))
        .finish()
}

/// Parses one request line with no ingress limits. Kept for offline
/// tooling (replay, tests); the server path goes through
/// [`parse_request_limited`] so over-limit requests earn the typed
/// `limit_exceeded` rejection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_limited(line, &Limits::unlimited()).map_err(|e| e.message)
}

/// Parses one request line under hard ingress limits, classifying every
/// rejection: `bad_request` when the line is not a wire object or the op
/// is unknown, `invalid_request` when a field is missing or malformed,
/// and `limit_exceeded` when the series length or `k` exceeds `limits`.
pub fn parse_request_limited(line: &str, limits: &Limits) -> Result<Request, RequestError> {
    let fields = parse_json_object(line).map_err(RequestError::bad)?;
    let id = get_num(&fields, "id").unwrap_or(0.0) as u64;
    match get_str(&fields, "op") {
        Some("ping") => Ok(Request::Ping { id }),
        Some("health") => Ok(Request::Health { id }),
        Some("shutdown") => Ok(Request::Shutdown { id }),
        Some("query") => {
            let dataset = get_str(&fields, "dataset")
                .ok_or_else(|| RequestError::invalid("query without dataset"))?
                .to_string();
            let measure = get_str(&fields, "measure")
                .ok_or_else(|| RequestError::invalid("query without measure"))?
                .to_string();
            let norm = match get_str(&fields, "norm") {
                Some(name) => parse_norm(name).map_err(RequestError::invalid)?,
                None => Normalization::ZScore,
            };
            let k = match get_num(&fields, "k") {
                Some(v) if v >= 1.0 => v as usize,
                Some(v) => return Err(RequestError::invalid(format!("bad k {v}"))),
                None => 1,
            };
            if k > limits.max_k {
                return Err(RequestError::limit(format!(
                    "k {k} exceeds limit {}",
                    limits.max_k
                )));
            }
            let pruned = match get_num(&fields, "pruned") {
                // tsdist-lint: allow(float-total-order, reason = "wire booleans travel as the JSON numbers 0/1; the exact-zero test is the deliberate falsy check")
                Some(v) => v != 0.0,
                None => true,
            };
            let raw_series = get_str(&fields, "series")
                .ok_or_else(|| RequestError::invalid("query without series"))?;
            // The separator count gates the limit before anything is
            // allocated, then sizes the decoded series.
            let points = series_points(raw_series);
            if points > limits.max_series_len {
                return Err(RequestError::limit(format!(
                    "series of {points} points exceeds limit {}",
                    limits.max_series_len
                )));
            }
            let series = decode_points(raw_series, points).map_err(RequestError::invalid)?;
            if series.is_empty() {
                return Err(RequestError::invalid("empty series"));
            }
            let deadline_ms = get_num(&fields, "deadline_ms").map(|v| v as u64);
            Ok(Request::Query(QueryRequest {
                id,
                dataset,
                measure,
                norm,
                k,
                pruned,
                series,
                deadline_ms,
            }))
        }
        other => Err(RequestError::bad(format!("bad op {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lines_roundtrip() {
        let q = QueryRequest {
            id: 7,
            dataset: "synthetic/shape-00".into(),
            measure: "dtw:10".into(),
            norm: Normalization::MinMax,
            k: 3,
            pruned: false,
            series: vec![0.25, -1.5, f64::MIN_POSITIVE, 1.0 / 3.0],
            deadline_ms: Some(250),
        };
        match parse_request(&render_query(&q)) {
            Ok(Request::Query(back)) => {
                assert_eq!(back, q);
                for (a, b) in back.series.iter().zip(&q.series) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn defaults_are_k1_pruned_zscore() {
        let line =
            "{\"op\":\"query\",\"id\":1,\"dataset\":\"d\",\"measure\":\"ed\",\"series\":\"1,2\"}";
        match parse_request(line) {
            Ok(Request::Query(q)) => {
                assert_eq!(q.k, 1);
                assert!(q.pruned);
                assert_eq!(q.norm, Normalization::ZScore);
                assert_eq!(q.deadline_ms, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let cases = vec![
            Response::Answer {
                id: 1,
                answer: Answer {
                    index: Some(4),
                    distance: 1.0 / 7.0,
                    label: Some(2),
                    neighbours: vec![4, 9, 0],
                },
            },
            Response::Answer {
                id: 2,
                answer: Answer {
                    index: None,
                    distance: f64::INFINITY,
                    label: Some(1),
                    neighbours: vec![],
                },
            },
            Response::Error {
                id: 3,
                code: ErrorCode::QueueFull,
                message: "shard queue at capacity".into(),
            },
            Response::Pong { id: 4 },
            Response::ShuttingDown { id: 5 },
        ];
        for r in cases {
            assert_eq!(Response::parse(&r.render()).unwrap(), r, "{}", r.render());
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"op\":\"nope\",\"id\":1}",
            "{\"op\":\"query\",\"id\":1}",
            "{\"op\":\"query\",\"id\":1,\"dataset\":\"d\",\"measure\":\"ed\",\"series\":\"\"}",
            "{\"op\":\"query\",\"id\":1,\"dataset\":\"d\",\"measure\":\"ed\",\"series\":\"a,b\"}",
            "{\"op\":\"query\",\"id\":1,\"dataset\":\"d\",\"measure\":\"ed\",\"k\":0,\"series\":\"1\"}",
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn health_reports_roundtrip_with_index_stats() {
        let report = HealthReport {
            shards: vec![
                ShardHealth {
                    alive: true,
                    queue_depth: 3,
                    restarts: 1,
                    quarantined: 0,
                    index_series: 24,
                    index_bands: 1,
                    index_pivots: 2,
                },
                ShardHealth {
                    alive: false,
                    ..ShardHealth::default()
                },
            ],
        };
        let r = Response::Health { id: 9, report };
        assert_eq!(Response::parse(&r.render()).unwrap(), r, "{}", r.render());
        match Response::parse(&r.render()).unwrap() {
            Response::Health { report, .. } => {
                assert_eq!(report.total_indexed_series(), 24);
                assert_eq!(report.total_index_structures(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn query_with_series(series: &str) -> String {
        format!(
            "{{\"op\":\"query\",\"id\":1,\"dataset\":\"d\",\"measure\":\"ed\",\"series\":\"{series}\"}}"
        )
    }

    #[test]
    fn series_edge_tokens_decode_to_their_exact_bits() {
        let line = query_with_series("-0.0,5e-324,1e308,NaN,inf,-inf, 0.5 ,  -2.25,1e-7  ");
        let expected = [
            -0.0,
            f64::from_bits(1),
            1e308,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            -2.25,
            1e-7,
        ];
        match parse_request(&line) {
            Ok(Request::Query(q)) => {
                let bits: Vec<u64> = q.series.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_series_tokens_are_invalid_requests() {
        for series in ["1,,2", "1,2,", ",1", "1, ,2"] {
            let err = parse_request_limited(&query_with_series(series), &Limits::default())
                .expect_err(series);
            assert_eq!(err.code, ErrorCode::InvalidRequest, "{series}");
        }
    }

    #[test]
    fn over_limit_series_is_refused_before_its_tokens_are_decoded() {
        let limits = Limits {
            max_series_len: 4,
            ..Limits::default()
        };
        let err = parse_request_limited(&query_with_series("x,y,z,w,v"), &limits)
            .expect_err("five points over a limit of four");
        assert_eq!(err.code, ErrorCode::LimitExceeded);
        assert_eq!(err.message, "series of 5 points exceeds limit 4");
        let err = parse_request_limited(&query_with_series("x,y,z,w"), &limits)
            .expect_err("garbage tokens within the limit");
        assert_eq!(err.code, ErrorCode::InvalidRequest);
    }

    #[test]
    fn non_finite_series_survive_the_wire() {
        let series = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5];
        let decoded = decode_series(&encode_series(&series)).unwrap();
        assert_eq!(decoded.len(), 4);
        assert!(decoded[0].is_nan());
        assert_eq!(decoded[1], f64::INFINITY);
        assert_eq!(decoded[2], f64::NEG_INFINITY);
        assert_eq!(decoded[3].to_bits(), 0.5f64.to_bits());
    }
}
