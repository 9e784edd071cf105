//! Hard ingress limits of the query service.
//!
//! Every bound here is enforced *before* a request reaches a shard
//! queue, and every violation earns a typed [`limit_exceeded`] response
//! — never a panic, an unbounded allocation, or a silently dropped
//! connection. The limits compose with the protocol's structural
//! validation ([`parse_request_limited`]) and with the per-connection
//! outstanding-request quota tracked by the connection reader.
//!
//! [`limit_exceeded`]: crate::protocol::ErrorCode::LimitExceeded
//! [`parse_request_limited`]: crate::protocol::parse_request_limited

use std::io::{BufRead, ErrorKind};

/// Hard resource bounds applied to every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line in bytes (excluding the newline).
    /// Longer lines are discarded wholesale and answered with
    /// `limit_exceeded`.
    pub max_line_bytes: usize,
    /// Longest accepted query series in points.
    pub max_series_len: usize,
    /// Largest accepted `k`.
    pub max_k: usize,
    /// Most requests one connection may have outstanding (queued or
    /// evaluating) at once; the overflow request is answered
    /// `limit_exceeded` immediately.
    pub max_inflight_per_conn: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_line_bytes: 1 << 20,
            max_series_len: 65_536,
            max_k: 64,
            max_inflight_per_conn: 128,
        }
    }
}

impl Limits {
    /// Limits that never trip — the historical unbounded behaviour,
    /// kept for offline tooling and tests.
    pub fn unlimited() -> Limits {
        Limits {
            max_line_bytes: usize::MAX,
            max_series_len: usize::MAX,
            max_k: usize::MAX,
            max_inflight_per_conn: usize::MAX,
        }
    }
}

/// The outcome of one bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line within the byte limit (newline stripped, lossy
    /// UTF-8).
    Line(String),
    /// The line exceeded `max_line_bytes`; its bytes were discarded up
    /// to and including the terminating newline, and the reader is
    /// positioned at the next line. The payload is the discarded length
    /// in bytes.
    TooLong(u64),
    /// Clean end of stream (or an empty final fragment).
    Eof,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max_line_bytes` of it. Oversized lines are drained (so the
/// connection stays line-synchronized) and reported as
/// [`LineRead::TooLong`] instead of growing an unbounded buffer —
/// the defence against a memory-exhaustion ingress.
pub fn read_limited_line<R: BufRead>(
    reader: &mut R,
    max_line_bytes: usize,
) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarded: u64 = 0;
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF: a partial oversized line still reports TooLong so the
            // caller can account for it; a partial in-limit fragment is
            // surfaced as a line (mirrors `read_line` semantics).
            if discarded > 0 {
                return Ok(LineRead::TooLong(discarded + buf.len() as u64));
            }
            if buf.is_empty() {
                return Ok(LineRead::Eof);
            }
            return Ok(LineRead::Line(into_string(buf)));
        }
        let newline_at = available.iter().position(|&b| b == b'\n');
        let take = newline_at.map_or(available.len(), |i| i);
        if discarded == 0 && buf.len() + take <= max_line_bytes {
            buf.extend_from_slice(&available[..take]);
        } else if discarded == 0 {
            // First overflow: everything gathered so far becomes discard.
            discarded = buf.len() as u64 + take as u64;
            buf.clear();
        } else {
            discarded += take as u64;
        }
        let consumed = newline_at.map_or(available.len(), |i| i + 1);
        reader.consume(consumed);
        if newline_at.is_some() {
            if discarded > 0 {
                return Ok(LineRead::TooLong(discarded));
            }
            let mut line = into_string(buf);
            if line.ends_with('\r') {
                line.pop();
            }
            return Ok(LineRead::Line(line));
        }
    }
}

/// Hands `buf` over as the line's `String` without a copy; only invalid
/// UTF-8 takes the lossy path, which replaces each bad sequence with
/// U+FFFD.
fn into_string(buf: Vec<u8>) -> String {
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_all(input: &[u8], max: usize) -> Vec<LineRead> {
        let mut reader = BufReader::with_capacity(7, input);
        let mut out = Vec::new();
        loop {
            let item = read_limited_line(&mut reader, max).unwrap();
            if item == LineRead::Eof {
                return out;
            }
            out.push(item);
        }
    }

    #[test]
    fn lines_within_limit_pass_through() {
        let items = read_all(b"alpha\nbeta\r\ngamma", 64);
        assert_eq!(
            items,
            vec![
                LineRead::Line("alpha".into()),
                LineRead::Line("beta".into()),
                LineRead::Line("gamma".into()),
            ]
        );
    }

    #[test]
    fn oversized_line_is_drained_and_stream_stays_synchronized() {
        let input = format!("{}\nshort\n", "x".repeat(100));
        let items = read_all(input.as_bytes(), 10);
        assert_eq!(
            items,
            vec![LineRead::TooLong(100), LineRead::Line("short".into())]
        );
    }

    #[test]
    fn exact_limit_is_accepted() {
        let items = read_all(b"12345\n", 5);
        assert_eq!(items, vec![LineRead::Line("12345".into())]);
    }

    #[test]
    fn one_over_limit_is_rejected() {
        let items = read_all(b"123456\n", 5);
        assert_eq!(items, vec![LineRead::TooLong(6)]);
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let items = read_all(b"ab\xffcd\n", 64);
        match &items[..] {
            [LineRead::Line(s)] => assert_eq!(s, "ab\u{fffd}cd"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lines_match_the_lossy_copy_of_their_bytes() {
        // Valid and invalid UTF-8, with and without `\r\n`, and a final
        // fragment without a newline: each line is what the lossy copy
        // of its bytes, minus a trailing `\r`, was.
        let lines: [&[u8]; 7] = [
            b"plain",
            b"cr\r",
            b"bad\xff\r",
            b"\xe2\x82\r",
            "caf\u{e9} \u{1f600}".as_bytes(),
            b"\xc3(\xa0\xa1",
            b"",
        ];
        let mut input = Vec::new();
        for line in lines {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        input.extend_from_slice(b"tail\xfe\r");
        let expected: Vec<LineRead> = lines
            .iter()
            .map(|bytes| {
                let mut line = String::from_utf8_lossy(bytes).into_owned();
                if line.ends_with('\r') {
                    line.pop();
                }
                LineRead::Line(line)
            })
            .chain([LineRead::Line("tail\u{fffd}\r".into())])
            .collect();
        assert_eq!(read_all(&input, 64), expected);
        assert_eq!(expected[2], LineRead::Line("bad\u{fffd}".into()));
        assert_eq!(expected[3], LineRead::Line("\u{fffd}".into()));
    }

    #[test]
    fn oversized_final_fragment_without_newline_reports_too_long() {
        let items = read_all(b"0123456789abcdef", 4);
        assert_eq!(items, vec![LineRead::TooLong(16)]);
    }
}
