//! A blocking client for the serve protocol — used by the e2e suite,
//! the `tsdist serve-client` subcommand, and perfbench's serve workload.
//!
//! Responses are correlated by `id`, not arrival order: pipelined
//! requests fan out across shards and complete out of order. The
//! [`Client::roundtrip`] helper reads exactly one response per request
//! and leaves reordering to the caller; [`Client::query`] is a
//! convenience for the single-in-flight case only.
//!
//! ## Resilience
//!
//! [`Client::pipeline_with_retry`] layers a [`RetryPolicy`] over the
//! raw pipeline: requests rejected with a *retryable* typed code
//! (`queue_full` backpressure, `shard_restarted` after a supervisor
//! restart) are re-sent with exponential backoff, and a broken
//! connection (the server restarted, a mid-pipeline reset) triggers a
//! transparent reconnect with only the unanswered requests re-sent.
//! `RetryPolicy::disabled()` is the `--no-retry` escape hatch: every
//! typed rejection surfaces to the caller verbatim.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tsdist_eval::wire::{get_num, parse_json_object};

use crate::protocol::{
    render_health, render_ping, render_query, render_shutdown, HealthReport, QueryRequest, Response,
};

/// Retry behaviour of [`Client::pipeline_with_retry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry rounds after the initial attempt (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry round; doubles each round.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// The `--no-retry` escape hatch: typed rejections and broken pipes
    /// surface to the caller immediately.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// A blocking NDJSON connection to a serve instance.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Single-request round trips would otherwise stall on Nagle +
        // delayed ACK (~40ms per exchange).
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            addr,
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Drops the current connection and dials the same address again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// Sends one raw request line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Receives one raw response line (skipping blanks). EOF is an
    /// `UnexpectedEof` error.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if !trimmed.is_empty() {
                return Ok(trimmed.to_string());
            }
        }
    }

    /// Receives and parses one response.
    pub fn recv_response(&mut self) -> std::io::Result<Response> {
        let line = self.recv_line()?;
        Response::parse(&line).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
    }

    /// Pipelines `lines` and reads exactly one response line per request
    /// (arrival order; correlate by `id`).
    pub fn roundtrip(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        for line in lines {
            self.send_line(line)?;
        }
        let mut out = Vec::with_capacity(lines.len());
        for _ in lines {
            out.push(self.recv_line()?);
        }
        Ok(out)
    }

    /// Sends one query and reads its response. Only valid when no other
    /// requests are in flight on this connection.
    pub fn query(&mut self, q: &QueryRequest) -> std::io::Result<Response> {
        self.send_line(&render_query(q))?;
        self.recv_response()
    }

    /// Liveness probe; `Ok(true)` on a matching pong.
    pub fn ping(&mut self, id: u64) -> std::io::Result<bool> {
        self.send_line(&render_ping(id))?;
        Ok(matches!(
            self.recv_response()?,
            Response::Pong { id: got } if got == id
        ))
    }

    /// Fetches the server's per-shard health report.
    pub fn health(&mut self, id: u64) -> std::io::Result<HealthReport> {
        self.send_line(&render_health(id))?;
        match self.recv_response()? {
            Response::Health { report, .. } => Ok(report),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected health response, got {other:?}"),
            )),
        }
    }

    /// Pipelines `lines` like [`Client::roundtrip`], but re-sends any
    /// request answered with a retryable typed code (`queue_full`,
    /// `shard_restarted`) with exponential backoff, and transparently
    /// reconnects when the connection breaks mid-pipeline — re-sending
    /// only the requests that never got a response (correlated by id).
    ///
    /// Returns one final response line per request, in request order.
    /// When the retry budget runs out, the last typed rejection is
    /// returned as that request's final response (never an invented
    /// line); an unrecoverable transport error is an `Err`.
    pub fn pipeline_with_retry(
        &mut self,
        lines: &[String],
        policy: &RetryPolicy,
    ) -> std::io::Result<Vec<String>> {
        let ids: Vec<u64> = lines.iter().map(|l| line_id(l)).collect();
        let mut results: Vec<Option<String>> = vec![None; lines.len()];
        let mut pending: Vec<usize> = (0..lines.len()).collect();
        let mut rounds_left = policy.max_retries;
        let mut backoff = policy.backoff;
        loop {
            let mut received: Vec<String> = Vec::with_capacity(pending.len());
            let io_outcome: std::io::Result<()> = (|| {
                for &i in &pending {
                    self.send_line(&lines[i])?;
                }
                for _ in 0..pending.len() {
                    received.push(self.recv_line()?);
                }
                Ok(())
            })();

            // Correlate what did arrive back to pending requests by id.
            let mut unmatched = pending.clone();
            let mut retry_next: Vec<usize> = Vec::new();
            for resp_line in received {
                let parsed = Response::parse(&resp_line).ok();
                let rid = parsed.as_ref().map(Response::id);
                let Some(pos) = rid.and_then(|rid| unmatched.iter().position(|&i| ids[i] == rid))
                else {
                    continue;
                };
                let idx = unmatched.swap_remove(pos);
                let retryable = matches!(
                    parsed,
                    Some(Response::Error { code, .. }) if code.is_retryable()
                );
                if retryable && rounds_left > 0 {
                    retry_next.push(idx);
                } else {
                    results[idx] = Some(resp_line);
                }
            }
            // Requests that never got a response (transport died) are
            // retried along with the typed-retryable ones.
            retry_next.extend(unmatched);
            retry_next.sort_unstable();
            if retry_next.is_empty() {
                break;
            }
            if rounds_left == 0 {
                return Err(io_outcome.err().unwrap_or_else(|| {
                    std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!(
                            "{} requests unanswered after retry budget",
                            retry_next.len()
                        ),
                    )
                }));
            }
            rounds_left -= 1;
            if io_outcome.is_err() {
                self.reconnect()?;
            }
            std::thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
            pending = retry_next;
        }
        Ok(results.into_iter().flatten().collect())
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    pub fn shutdown_server(&mut self, id: u64) -> std::io::Result<()> {
        self.send_line(&render_shutdown(id))?;
        let _ = self.recv_line()?;
        Ok(())
    }
}

/// Best-effort id extraction from a request line (retry correlation —
/// mirrors the server's lenient id recovery).
fn line_id(line: &str) -> u64 {
    parse_json_object(line)
        .ok()
        .and_then(|fields| get_num(&fields, "id"))
        .map_or(0, |v| v as u64)
}
