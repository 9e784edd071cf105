//! Offline replay of a request journal.
//!
//! The server journals every *accepted* query as the request line it
//! received, byte for byte without its line ending (`\r\n` or `\n`).
//! Replay decodes each line with the same decoder that produced the
//! request the server answered ([`parse_request`] is the server's
//! `parse_request_limited` without limits, and an accepted line was
//! within them), so a non-canonical number (`1e0`, `-0.0`, padding)
//! replays as the value the server saw. Replaying those lines through
//! the same [`Engine`] the shard workers use reproduces every answer
//! byte-identically: grouping, batching, caching, and sharding are all
//! answer-invariant by construction, so `live response == replayed
//! response` line-for-line (modulo arrival order; correlate by id).
//!
//! Two outcomes are deliberately *not* replayable, and the journal never
//! contains them: `queue_full` rejections (rejected before acceptance)
//! and, being timing-dependent, `deadline_exceeded` — replay strips
//! deadlines and computes the answer the request would have produced
//! with infinite time.

use tsdist_data::Dataset;

use crate::engine::{Engine, MeasureResolver};
use crate::protocol::{parse_request, ErrorCode, Request, Response};

/// Replays journal `lines` against `datasets`, returning one rendered
/// response line per journaled request, in journal order.
pub fn replay_journal<I>(lines: I, datasets: Vec<Dataset>, resolver: MeasureResolver) -> Vec<String>
where
    I: IntoIterator<Item = String>,
{
    let mut engine = Engine::new(datasets, resolver, 0);
    let mut out = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Ok(Request::Query(mut q)) => {
                // Deadline outcomes are timing-dependent; replay computes
                // the untimed answer.
                q.deadline_ms = None;
                for response in engine.answer_batch(std::slice::from_ref(&q)) {
                    out.push(response.render());
                }
            }
            Ok(Request::Ping { id }) => out.push(Response::Pong { id }.render()),
            // Health is point-in-time server state; replay answers an
            // empty report (the journal never contains health lines —
            // only accepted queries are journaled).
            Ok(Request::Health { id }) => out.push(
                Response::Health {
                    id,
                    report: crate::protocol::HealthReport::default(),
                }
                .render(),
            ),
            Ok(Request::Shutdown { id }) => out.push(Response::ShuttingDown { id }.render()),
            Err(message) => out.push(
                Response::Error {
                    id: 0,
                    code: ErrorCode::BadRequest,
                    message,
                }
                .render(),
            ),
        }
    }
    out
}
