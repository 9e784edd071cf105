//! The hand-rolled flat-JSON wire format shared by the results journal
//! and the `tsdist serve` NDJSON protocol.
//!
//! One JSON object per line; string keys; string / number / `null`
//! values — no nesting, no arrays, no external crates. Floats render
//! with Rust's shortest-round-trip `Display`, so a value that crosses
//! the wire and comes back parses to the *same bits*. That property is
//! what lets served answers be diffed byte-for-byte against offline
//! replays, and journaled cells reproduce bit-identical tables.
//!
//! Decoding is one left-to-right pass of a byte cursor over the line,
//! and it borrows from the line. Every structural byte (`{`, `}`, `,`,
//! `:`, `"`, `\`) is ASCII, so every cut falls on a char boundary: a key
//! or string value without an escape is a slice of the line
//! ([`Cow::Borrowed`]), and only a string holding a `\` escape is
//! copied, through the escape decoder. A number parses straight from its
//! slice with `str::parse::<f64>`. Encoding appends to one buffer:
//! [`ObjectWriter`] writes every key and value in place, with no
//! temporary `String` per field.
//!
//! Extracted from the journal implementation (PR 3) so the query
//! service speaks exactly the same dialect instead of growing a second,
//! subtly different encoder.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escapes a string as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal. The bytes that need an
/// escape are all ASCII, so the runs between them are copied whole, and
/// a string with none (a count that vectorizes) is copied in one piece.
fn push_string(out: &mut String, s: &str) {
    let needs_escape = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    if s.bytes().filter(|&b| needs_escape(b)).count() > 0 {
        for (i, b) in s.bytes().enumerate() {
            if !needs_escape(b) {
                continue;
            }
            out.push_str(&s[run..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\t' => out.push_str("\\t"),
                b'\r' => out.push_str("\\r"),
                _ => {
                    // Writing to a `String` cannot fail.
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats a float so that `parse::<f64>()` round-trips it bit-exactly
/// (Rust's `Display` emits the shortest such representation); non-finite
/// values fall back to `null`.
pub fn json_number(v: f64) -> String {
    let mut out = String::new();
    push_number(&mut out, v);
    out
}

/// Appends [`json_number`]'s rendering of `v` to `out`.
fn push_number(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A value in the flat object grammar, borrowing from the parsed line.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// A JSON string: a slice of the line, owned only when it held an
    /// escape.
    Str(Cow<'a, str>),
    /// A finite JSON number.
    Num(f64),
    /// The `null` literal (also how non-finite floats travel).
    Null,
}

/// The parsed fields of one flat JSON object, in line order.
pub type Fields<'a> = Vec<(Cow<'a, str>, JsonValue<'a>)>;

/// Looks up a string field.
pub fn get_str<'f>(fields: &'f Fields<'_>, key: &str) -> Option<&'f str> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => Some(s),
        _ => None,
    }
}

/// Looks up a numeric field.
pub fn get_num(fields: &Fields<'_>, key: &str) -> Option<f64> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Num(n))) => Some(*n),
        _ => None,
    }
}

/// Parses the flat JSON object grammar: string keys, and
/// string / number / null values. Keys and unescaped strings borrow from
/// `line`.
pub fn parse_json_object(line: &str) -> Result<Fields<'_>, String> {
    let s = line.trim();
    let b = s.as_bytes();
    let mut fields = Vec::new();
    if b.first() != Some(&b'{') {
        return Err("expected '{'".into());
    }
    let mut at = 1;
    loop {
        match b.get(at) {
            Some(b'}') => {
                at += 1;
                break;
            }
            Some(b'"') => {}
            Some(b',') => {
                at += 1;
                continue;
            }
            _ => return Err("expected key".into()),
        }
        let key = parse_string(s, &mut at)?;
        if b.get(at) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        at += 1;
        let value = match b.get(at) {
            Some(b'"') => JsonValue::Str(parse_string(s, &mut at)?),
            Some(b'n') => {
                if !b[at..].starts_with(b"null") {
                    return Err("bad literal".into());
                }
                at += 4;
                JsonValue::Null
            }
            Some(_) => {
                let end = b[at..]
                    .iter()
                    .position(|&c| c == b',' || c == b'}')
                    .map_or(b.len(), |p| at + p);
                let num = &s[at..end];
                at = end;
                JsonValue::Num(
                    num.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad number {num:?}"))?,
                )
            }
            None => return Err("unexpected end of line".into()),
        };
        fields.push((key, value));
    }
    if at < b.len() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

/// Parses the JSON string literal whose opening quote is `s[*at]`,
/// leaving `*at` just past its closing quote. A literal without a `\`
/// is borrowed from `s`. Both searches are `str::find` for one ASCII
/// byte, which scans a word at a time.
fn parse_string<'a>(s: &'a str, at: &mut usize) -> Result<Cow<'a, str>, String> {
    let start = *at + 1;
    let rest = &s[start..];
    let quote = rest.find('"');
    match quote.map_or(rest, |q| &rest[..q]).find('\\') {
        Some(escape) => unescape(s, start, start + escape, at).map(Cow::Owned),
        None => match quote {
            Some(q) => {
                *at = start + q + 1;
                Ok(Cow::Borrowed(&rest[..q]))
            }
            None => Err("unterminated string".into()),
        },
    }
}

/// The escape path of [`parse_string`]: copies the literal that starts
/// at `s[start]` and holds its first `\` at `s[escape]`, decoding
/// escapes up to the closing quote.
fn unescape(s: &str, start: usize, escape: usize, at: &mut usize) -> Result<String, String> {
    let mut out = String::from(&s[start..escape]);
    let mut chars = s[escape..].chars();
    loop {
        match chars.next() {
            Some('"') => {
                *at = s.len() - chars.as_str().len();
                return Ok(out);
            }
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err("bad escape".into()),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// Incremental writer for one flat JSON object line — the encoding twin
/// of [`parse_json_object`]. Fields render in insertion order, each
/// written straight into the one line buffer.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
}

impl ObjectWriter {
    /// An empty object.
    pub fn new() -> ObjectWriter {
        ObjectWriter { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_string(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_string(&mut self.buf, value);
        self
    }

    /// Appends a numeric field (non-finite renders as `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_number(&mut self.buf, value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn uint(mut self, key: &str, value: usize) -> Self {
        self.key(key);
        // Writing to a `String` cannot fail.
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a `null` field.
    pub fn null(mut self, key: &str) -> Self {
        self.key(key);
        self.buf.push_str("null");
        self
    }

    /// Finishes the object (no trailing newline).
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_roundtrip_bit_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308] {
            let line = ObjectWriter::new().num("v", v).finish();
            let fields = parse_json_object(&line).unwrap();
            assert_eq!(get_num(&fields, "v").unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        let line = ObjectWriter::new().num("v", f64::NAN).finish();
        assert_eq!(line, "{\"v\":null}");
        let fields = parse_json_object(&line).unwrap();
        assert_eq!(get_num(&fields, "v"), None);
        assert_eq!(fields[0].1, JsonValue::Null);
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let line = ObjectWriter::new().str("s", nasty).uint("n", 42).finish();
        let fields = parse_json_object(&line).unwrap();
        assert_eq!(get_str(&fields, "s"), Some(nasty));
        assert_eq!(get_num(&fields, "n"), Some(42.0));
    }

    #[test]
    fn writer_matches_handwritten_lines() {
        let line = ObjectWriter::new()
            .str("op", "query")
            .uint("id", 7)
            .num("x", 0.5)
            .null("deadline_ms")
            .finish();
        assert_eq!(
            line,
            "{\"op\":\"query\",\"id\":7,\"x\":0.5,\"deadline_ms\":null}"
        );
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_json_object("{}").unwrap().is_empty());
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in ["", "{", "{\"k\":}", "{\"k\":\"v\"} trailing", "[1]"] {
            assert!(parse_json_object(bad).is_err(), "accepted {bad:?}");
        }
    }
}
