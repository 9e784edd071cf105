//! The threaded TCP server: shard-affine routing, bounded queues with
//! typed backpressure, request batching, supervised workers, hardened
//! ingress, and clean drain-on-shutdown.
//!
//! ```text
//!                        ┌────────────────────────────┐
//!  client ── TCP ──▶ reader thread ── try_send ──▶ shard 0 worker ◀─ monitor
//!     ▲                 │    │                     (owns its datasets,   │
//!     │                 │    └─ try_send ────▶ shard 1 worker  prepared  │
//!     └── writer thread ◀── mpsc ◀── responses ──┘   splits, indexes    restart
//!                                                    + answer caches)  on panic
//! ```
//!
//! * **Sharding** — datasets are partitioned across worker threads by an
//!   FNV-1a hash of their name; every query for a dataset lands on the
//!   same worker, so its prepared train split, [`TrainIndex`], answer
//!   cache, and resolved measures are owned single-threaded state (no
//!   locks on the hot path). Inside a worker, [`Eval`]'s pruned scans
//!   fan rows out over the crate-wide worker pool with per-worker
//!   `Workspace` reuse.
//! * **Backpressure** — each shard has a bounded `sync_channel`; when it
//!   is full the reader answers `queue_full` immediately (429-style).
//!   Overload is a typed response, never a panic, never a dropped
//!   connection.
//! * **Supervision** — every worker runs under a [`Supervisor`] monitor:
//!   a panicking worker is restarted with its [`Engine`] rebuilt from
//!   the dataset manifest, its in-flight jobs answered `shard_restarted`,
//!   and its still-queued jobs served by the new incarnation. The
//!   `health` op reports per-shard liveness, queue depth, restart and
//!   quarantine counters.
//! * **Hardened ingress** — request lines are read through the bounded
//!   [`read_limited_line`] reader (an oversized line is discarded, not
//!   buffered), structural and limit violations earn typed
//!   `invalid_request` / `limit_exceeded` responses, and each connection
//!   has a hard outstanding-request quota.
//! * **Durable journal** — accepted queries are journaled through the
//!   checksummed, segment-rotated [`DurableJournal`] (v2): each record
//!   is CRC32-framed so a torn or corrupted write is skipped and counted
//!   on recovery while every intact record replays byte-identically.
//! * **Batching** — a worker drains its queue up to `batch_max` jobs and
//!   groups compatible ones into a single [`Eval`] run, amortizing query
//!   preprocessing and candidate-ordering setup. Answers are independent
//!   of batch composition.
//! * **Shutdown** — a `shutdown` op (or [`ServerHandle::shutdown`]) stops
//!   the acceptor and read halves, then drains every already-accepted
//!   job before the workers exit: in-flight requests are answered, which
//!   the kill-mid-batch e2e test checks against journal replay.
//!
//! [`TrainIndex`]: tsdist_core::TrainIndex
//! [`Eval`]: tsdist_eval::Eval
//! [`Engine`]: crate::engine::Engine
//! [`DurableJournal`]: tsdist_eval::journal::DurableJournal

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use tsdist_data::Dataset;
use tsdist_eval::journal::{DurableConfig, DurableJournal};
use tsdist_eval::wire::{get_num, parse_json_object};

use crate::engine::MeasureResolver;
use crate::limits::{read_limited_line, Limits, LineRead};
use crate::protocol::{parse_request_limited, ErrorCode, Request, Response};
use crate::supervisor::{
    lock, Job, KillSpec, QuotaGuard, ShardState, Supervisor, SupervisorConfig,
};

/// Tuning knobs of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Number of shard worker threads (min 1).
    pub shards: usize,
    /// Bounded per-shard queue depth; a full queue answers `queue_full`.
    pub queue_cap: usize,
    /// Max jobs a worker drains into one batch (min 1).
    pub batch_max: usize,
    /// Per-shard LRU answer-cache capacity (0 disables).
    pub cache_cap: usize,
    /// When set, every accepted query is journaled to this durable v2
    /// journal (CRC32-framed records, segment rotation) as the request
    /// line it arrived as, without its line ending.
    pub journal_path: Option<PathBuf>,
    /// Durability knobs of the request journal (segment size, fsync
    /// policy).
    pub journal_config: DurableConfig,
    /// Hard ingress limits applied to every connection.
    pub limits: Limits,
    /// Measure faults before the per-shard circuit breaker opens.
    pub quarantine_threshold: u32,
    /// Build the sublinear index tier at shard prepare time (default
    /// on; answers are byte-identical either way).
    pub index: bool,
    /// Chaos: abort each shard worker's first incarnation mid-batch.
    pub kill: Option<KillSpec>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 2,
            queue_cap: 64,
            batch_max: 16,
            cache_cap: 256,
            journal_path: None,
            journal_config: DurableConfig::default(),
            limits: Limits::default(),
            quarantine_threshold: 3,
            index: true,
            kill: None,
        }
    }
}

/// State shared by the acceptor, connection readers, and the handle.
struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    routing: BTreeMap<String, usize>,
    senders: Mutex<Vec<SyncSender<Job>>>,
    states: Vec<Arc<ShardState>>,
    journal: Option<DurableJournal>,
    limits: Limits,
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// FNV-1a — stable across runs (dataset→shard routing must be
/// deterministic so the journal replays against the same layout).
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Constructor namespace: [`Server::start`].
pub struct Server;

impl Server {
    /// Binds, spawns the supervised shard workers and acceptor, and
    /// returns a handle. The server runs until a client sends `shutdown`
    /// or the handle shuts it down (dropping the handle also shuts
    /// down).
    pub fn start(
        datasets: Vec<Dataset>,
        resolver: MeasureResolver,
        config: &ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let shards = config.shards.max(1);
        let mut routing = BTreeMap::new();
        let mut buckets: Vec<Vec<Dataset>> = (0..shards).map(|_| Vec::new()).collect();
        for ds in datasets {
            let s = (fnv1a(&ds.name) % shards as u64) as usize;
            routing.insert(ds.name.clone(), s);
            buckets[s].push(ds);
        }

        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let journal = match &config.journal_path {
            Some(p) => Some(DurableJournal::open(p, config.journal_config)?),
            None => None,
        };

        let (supervisor, senders) = Supervisor::start(
            buckets,
            resolver,
            &SupervisorConfig {
                queue_cap: config.queue_cap,
                batch_max: config.batch_max,
                cache_cap: config.cache_cap,
                quarantine_threshold: config.quarantine_threshold,
                index: config.index,
                kill: config.kill,
            },
        );

        let shared = Arc::new(Shared {
            addr,
            shutdown: AtomicBool::new(false),
            routing,
            senders: Mutex::new(senders),
            states: supervisor.states().to_vec(),
            journal,
            limits: config.limits.clone(),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = thread::spawn(move || accept_loop(listener, acceptor_shared));
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
        })
    }
}

/// Accepts connections until the shutdown flag rises.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Request/response lines are tiny; Nagle + delayed ACK would add
        // ~40ms stalls per unpipelined round trip.
        let _ = stream.set_nodelay(true);
        if let Ok(tracked) = stream.try_clone() {
            lock(&shared.conns).push(tracked);
        }
        let conn_shared = Arc::clone(&shared);
        let handle = thread::spawn(move || connection_loop(stream, conn_shared));
        lock(&shared.readers).push(handle);
    }
}

/// One connection: a reader (this thread) parsing and routing lines, and
/// a writer thread draining the response channel. Shard workers hold
/// clones of the response sender, so the writer naturally outlives the
/// reader until every in-flight job for this connection is answered.
/// Lines come through the bounded reader, and accepted queries count
/// against this connection's outstanding-request quota.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || writer_loop(write_half, rx));
    let outstanding = Arc::new(AtomicUsize::new(0));
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_limited_line(&mut reader, shared.limits.max_line_bytes) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::TooLong(bytes)) => {
                // The oversized line is already discarded; the stream is
                // synchronized at the next line. No id is recoverable.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    let _ = tx.send(
                        Response::Error {
                            id: 0,
                            code: ErrorCode::LimitExceeded,
                            message: format!(
                                "request line of {bytes} bytes exceeds the {}-byte limit",
                                shared.limits.max_line_bytes
                            ),
                        }
                        .render(),
                    );
                }
                continue;
            }
            Ok(LineRead::Eof) | Err(_) => break,
        };
        // After shutdown, keep *draining* (without processing) until the
        // read half EOFs: breaking with pipelined requests still unread
        // would make the eventual close an RST, destroying in-flight
        // responses before the client reads them.
        if shared.shutdown.load(Ordering::SeqCst) {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        handle_line(&line, &tx, &outstanding, &shared);
    }
    drop(tx);
    let _ = writer.join();
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<String>) {
    use std::io::Write;
    for line in rx {
        if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
            return;
        }
    }
    // Half-close with FIN once every response is flushed, so clients
    // reading to EOF see all of them.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Best-effort id extraction from a line that failed request parsing, so
/// even `bad_request` responses stay correlatable.
fn lenient_id(line: &str) -> u64 {
    parse_json_object(line)
        .ok()
        .and_then(|fields| get_num(&fields, "id"))
        .map_or(0, |v| v as u64)
}

/// Parses and dispatches one request line.
fn handle_line(
    line: &str,
    reply: &Sender<String>,
    outstanding: &Arc<AtomicUsize>,
    shared: &Shared,
) {
    let send = |r: Response| {
        let _ = reply.send(r.render());
    };
    match parse_request_limited(line, &shared.limits) {
        Err(e) => send(Response::Error {
            id: lenient_id(line),
            code: e.code,
            message: e.message,
        }),
        Ok(Request::Ping { id }) => send(Response::Pong { id }),
        Ok(Request::Health { id }) => send(Response::Health {
            id,
            report: crate::protocol::HealthReport {
                shards: shared.states.iter().map(|s| s.health()).collect(),
            },
        }),
        Ok(Request::Shutdown { id }) => {
            send(Response::ShuttingDown { id });
            trigger_shutdown(shared);
        }
        Ok(Request::Query(req)) => {
            let Some(&shard) = shared.routing.get(&req.dataset) else {
                return send(Response::Error {
                    id: req.id,
                    code: ErrorCode::UnknownDataset,
                    message: format!("dataset {:?} is not served", req.dataset),
                });
            };
            let Some(quota) =
                QuotaGuard::try_acquire(outstanding, shared.limits.max_inflight_per_conn)
            else {
                return send(Response::Error {
                    id: req.id,
                    code: ErrorCode::LimitExceeded,
                    message: format!(
                        "connection has {} requests outstanding (limit {})",
                        outstanding.load(Ordering::SeqCst),
                        shared.limits.max_inflight_per_conn
                    ),
                });
            };
            let job = Job {
                req,
                reply: reply.clone(),
                quota: Some(quota),
            };
            let outcome = match lock(&shared.senders).get(shard) {
                Some(tx) => tx.try_send(job),
                None => return,
            };
            match outcome {
                Ok(()) => {
                    if let Some(state) = shared.states.get(shard) {
                        state.note_enqueued();
                    }
                    // The received line itself, journaled only once the job
                    // is actually accepted (a rejected request has no
                    // answer for a replay to reproduce). Replay decodes it
                    // with the decoder that produced `req`.
                    if let Some(journal) = &shared.journal {
                        let _ = journal.append_line(line);
                    }
                }
                Err(TrySendError::Full(job)) => send(Response::Error {
                    id: job.req.id,
                    code: ErrorCode::QueueFull,
                    message: "shard queue at capacity; retry later".to_string(),
                }),
                Err(TrySendError::Disconnected(job)) => send(Response::Error {
                    id: job.req.id,
                    code: ErrorCode::Internal,
                    message: "server is shutting down".to_string(),
                }),
            }
        }
    }
}

/// Raises the shutdown flag and pokes the acceptor awake.
fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(shared.addr);
}

/// Owns the running server; dropping it shuts the server down cleanly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<Supervisor>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current per-shard health report (the same data the `health`
    /// op serves over the wire).
    pub fn health(&self) -> crate::protocol::HealthReport {
        crate::protocol::HealthReport {
            shards: self.shared.states.iter().map(|s| s.health()).collect(),
        }
    }

    /// Blocks until a client sends the `shutdown` op, then drains and
    /// joins everything. This is the CLI foreground mode.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.finish();
    }

    /// Initiates shutdown and drains: stops accepting, closes read
    /// halves, answers every already-accepted job, joins all threads.
    pub fn shutdown(&mut self) {
        trigger_shutdown(&self.shared);
        self.finish();
    }

    fn finish(&mut self) {
        trigger_shutdown(&self.shared);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Close only the read halves: readers unblock and exit, while
        // writer threads keep the write halves to flush in-flight
        // responses (drain-on-shutdown).
        for conn in lock(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let readers: Vec<JoinHandle<()>> = lock(&self.shared.readers).drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        // All producers are gone; dropping the senders lets each worker
        // drain its queue and exit, after which the monitors join.
        lock(&self.shared.senders).clear();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join();
        }
        if let Some(journal) = &self.shared.journal {
            let _ = journal.sync();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let names = ["a", "b", "dataset-7", "synthetic/shape-03"];
        for shards in 1..5usize {
            for name in names {
                let s1 = (fnv1a(name) % shards as u64) as usize;
                let s2 = (fnv1a(name) % shards as u64) as usize;
                assert_eq!(s1, s2);
                assert!(s1 < shards);
            }
        }
        // Known FNV-1a vector: fnv1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
