//! The borrowed single-pass wire parser against the `Chars` parser it
//! replaced.
//!
//! `old` below is that parser and its encoder, kept verbatim as the
//! oracle. Over generated lines (well-formed objects, escapes, `\u`,
//! non-ASCII text, `null`, surrounding whitespace, truncations,
//! malformed prefixes and inserted fragments), `parse_json_object` must
//! give the same fields, numbers to the bit, or the same error string.
//! `ObjectWriter` must write the old encoder's bytes, and its lines must
//! parse back bit for bit.

use proptest::prelude::*;
use tsdist_eval::wire::{parse_json_object, JsonValue, ObjectWriter};

/// The character-at-a-time parser and the per-field encoder the wire
/// module used before its single borrowed pass.
mod old {
    pub fn json_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    pub fn json_number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        Str(String),
        Num(f64),
        Null,
    }

    pub type Fields = Vec<(String, JsonValue)>;

    pub fn parse_json_object(line: &str) -> Result<Fields, String> {
        let mut chars = line.trim().chars().peekable();
        let mut fields = Vec::new();
        if chars.next() != Some('{') {
            return Err("expected '{'".into());
        }
        loop {
            match chars.peek() {
                Some('}') => {
                    chars.next();
                    break;
                }
                Some('"') => {}
                Some(',') => {
                    chars.next();
                    continue;
                }
                _ => return Err("expected key".into()),
            }
            let key = parse_string(&mut chars)?;
            if chars.next() != Some(':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            let value = match chars.peek() {
                Some('"') => JsonValue::Str(parse_string(&mut chars)?),
                Some('n') => {
                    for expected in "null".chars() {
                        if chars.next() != Some(expected) {
                            return Err("bad literal".into());
                        }
                    }
                    JsonValue::Null
                }
                Some(_) => {
                    let mut num = String::new();
                    while let Some(&c) = chars.peek() {
                        if c == ',' || c == '}' {
                            break;
                        }
                        num.push(c);
                        chars.next();
                    }
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
        if chars.next().is_some() {
            return Err("trailing characters after object".into());
        }
        Ok(fields)
    }

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    ) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected '\"'".into());
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(out),
                Some('\\') => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".into()),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }
}

/// A parsed value with numbers compared by their bits.
#[derive(Debug, PartialEq)]
enum Bits {
    Str(String),
    Num(u64),
    Null,
}

fn new_parse(line: &str) -> Result<Vec<(String, Bits)>, String> {
    parse_json_object(line).map(|fields| {
        fields
            .into_iter()
            .map(|(k, v)| {
                let v = match v {
                    JsonValue::Str(s) => Bits::Str(s.into_owned()),
                    JsonValue::Num(n) => Bits::Num(n.to_bits()),
                    JsonValue::Null => Bits::Null,
                };
                (k.into_owned(), v)
            })
            .collect()
    })
}

fn old_parse(line: &str) -> Result<Vec<(String, Bits)>, String> {
    old::parse_json_object(line).map(|fields| {
        fields
            .into_iter()
            .map(|(k, v)| {
                let v = match v {
                    old::JsonValue::Str(s) => Bits::Str(s),
                    old::JsonValue::Num(n) => Bits::Num(n.to_bits()),
                    old::JsonValue::Null => Bits::Null,
                };
                (k, v)
            })
            .collect()
    })
}

/// Keys and string values, escapes and non-ASCII text among them.
const STRINGS: &[&str] = &[
    "\"op\"",
    "\"series\"",
    "\"\"",
    "\"a\\\"b\"",
    "\"back\\\\slash\"",
    "\"\\n\\t\\r\"",
    "\"\\u00e9t\\u00C9\"",
    "\"\\u+041\"",
    "\"\\ud800\"",
    "\"\\u12\"",
    "\"\\uZZZZ\"",
    "\"\\x\"",
    "\"caf\u{e9}\"",
    "\"\u{65e5}\u{672c}\"",
    "\"\u{1f600}\\u0041\"",
    "\"0.1,-2.5e-3,NaN,inf\"",
    "\"\\u00",
    "\"open",
];

/// Values that are not strings: numbers, literals and near misses.
const SCALARS: &[&str] = &[
    "null", "nul", "nulll", "nan", "1", "-0.0", "5e-324", "1e308", "NaN", "inf", "-inf", " 2.5 ",
    "1.5e", "0x10", "+3", "\u{e9}", "", " ", "1e400",
];

/// Loose fragments for malformed prefixes and insertions.
const JUNK: &[&str] = &[
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "\t",
    "\u{a0}",
    "x",
    "[1]",
    "\u{e9}",
    "\u{1f600}",
    "\n",
];

/// Padding around the line: whitespace `str::trim` strips, and a byte
/// it keeps.
const PAD: &[&str] = &["", " ", "\t", "\r\n", "\u{a0}", "\u{3000}", "x"];

/// A well-formed-looking object built from `picks`, then mutated: kept,
/// truncated, given a malformed prefix, or given an inserted fragment.
fn line_from(picks: &[usize], mutation: usize, cut: usize, pad: (usize, usize)) -> String {
    let mut body = String::from("{");
    for (i, p) in picks.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(STRINGS[p % STRINGS.len()]);
        body.push(':');
        let v = p / STRINGS.len();
        if v.is_multiple_of(2) {
            body.push_str(STRINGS[(v / 2) % STRINGS.len()]);
        } else {
            body.push_str(SCALARS[(v / 2) % SCALARS.len()]);
        }
    }
    body.push('}');
    let boundaries: Vec<usize> = body
        .char_indices()
        .map(|(i, _)| i)
        .chain([body.len()])
        .collect();
    let at = boundaries[cut % boundaries.len()];
    let junk = JUNK[cut % JUNK.len()];
    let body = match mutation % 4 {
        0 => body,
        1 => body[..at].to_string(),
        2 => format!("{junk}{body}"),
        _ => format!("{}{junk}{}", &body[..at], &body[at..]),
    };
    format!("{}{body}{}", PAD[pad.0 % PAD.len()], PAD[pad.1 % PAD.len()])
}

/// Characters for generated keys and values: escapes, control bytes,
/// structural bytes and multi-byte text.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '\n',
    '\t',
    '\r',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    '\u{e9}',
    '\u{65e5}',
    '\u{1f600}',
    '/',
    ',',
    ':',
    '{',
    '}',
];

fn text_from(picks: &[usize]) -> String {
    picks.iter().map(|p| CHARS[p % CHARS.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Generated lines parse to the same fields (numbers to the bit) or
    /// the same error as the `Chars` parser.
    #[test]
    fn parser_matches_the_chars_parser(
        picks in proptest::collection::vec(0usize..10_000, 0..6),
        mutation in 0usize..4,
        cut in 0usize..10_000,
        pad in (0usize..16, 0usize..16),
    ) {
        let line = line_from(&picks, mutation, cut, pad);
        prop_assert_eq!(new_parse(&line), old_parse(&line), "line {:?}", line);
    }

    /// Loose fragment soup, mostly malformed, gets the same verdicts.
    #[test]
    fn fragment_soup_matches_the_chars_parser(
        picks in proptest::collection::vec(0usize..10_000, 0..12),
    ) {
        let mut line = String::new();
        for p in &picks {
            line.push_str(match p % 3 {
                0 => STRINGS[p / 3 % STRINGS.len()],
                1 => SCALARS[p / 3 % SCALARS.len()],
                _ => JUNK[p / 3 % JUNK.len()],
            });
        }
        prop_assert_eq!(new_parse(&line), old_parse(&line), "line {:?}", line);
    }

    /// `ObjectWriter` writes the old encoder's bytes, and its line parses
    /// back bit for bit: strings exactly, finite numbers to the bit,
    /// non-finite ones as `null`.
    #[test]
    fn writer_lines_parse_back_bit_for_bit(
        kinds in proptest::collection::vec(0usize..4, 0..8),
        texts in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..10), 16),
        bits in proptest::collection::vec(0u64..u64::MAX, 8),
        uints in proptest::collection::vec(0usize..usize::MAX, 8),
    ) {
        let mut w = ObjectWriter::new();
        let mut expected_line = String::new();
        let mut expected = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let key = text_from(&texts[2 * i]);
            expected_line.push(if i == 0 { '{' } else { ',' });
            expected_line.push_str(&old::json_string(&key));
            expected_line.push(':');
            let value = match kind {
                0 => {
                    let s = text_from(&texts[2 * i + 1]);
                    w = w.str(&key, &s);
                    expected_line.push_str(&old::json_string(&s));
                    Bits::Str(s)
                }
                1 => {
                    let v = f64::from_bits(bits[i]);
                    w = w.num(&key, v);
                    expected_line.push_str(&old::json_number(v));
                    if v.is_finite() { Bits::Num(v.to_bits()) } else { Bits::Null }
                }
                2 => {
                    w = w.uint(&key, uints[i]);
                    expected_line.push_str(&format!("{}", uints[i]));
                    Bits::Num((uints[i] as f64).to_bits())
                }
                _ => {
                    w = w.null(&key);
                    expected_line.push_str("null");
                    Bits::Null
                }
            };
            expected.push((key, value));
        }
        if expected_line.is_empty() {
            expected_line.push('{');
        }
        expected_line.push('}');
        let line = w.finish();
        prop_assert_eq!(&line, &expected_line);
        prop_assert_eq!(new_parse(&line), Ok(expected), "line {:?}", line);
    }
}

/// Hand-picked lines where the two parsers could plausibly part ways.
#[test]
fn edge_lines_match_the_chars_parser() {
    for line in [
        "",
        " ",
        "{",
        "}",
        "{}",
        " \t{}\r\n",
        "{}x",
        "{,,}",
        "{\"a\":1,}",
        "{\"a\" :1}",
        "{\"a\": 1 }",
        "{\"a\": \"x\"}",
        "{\"a\":nu",
        "{\"a\":nullx}",
        "{\"a\":null,\"b\":null}",
        "{\"a\":1\"b\":2}",
        "{\"a\":",
        "{\"a\"",
        "{\"a",
        "{\"\u{e9}\":\"\u{1f600}\"}",
        "{\"a\":\"\\u",
        "{\"a\":\"\\u0",
        "{\"a\":\"\\u00e9",
        "{\"a\":\"\\u00e9\"}",
        "{\"a\":\"\\ud83d\\ude00\"}",
        "{\"a\":\"x\\",
        "{\"a\":\u{e9}}",
        "{\"a\":1.5e}",
        "{\"k\":-0.0,\"m\":5e-324,\"n\":1e308,\"o\":NaN,\"p\":inf}",
    ] {
        assert_eq!(new_parse(line), old_parse(line), "line {line:?}");
    }
}
