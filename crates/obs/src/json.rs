//! A minimal JSON-lines writer and flat-object parser.
//!
//! The workspace carries no serialisation dependency, and the export
//! format is deliberately flat — one object per line, values restricted to
//! strings and integers — so a ~150-line hand-rolled codec covers it. The
//! parser exists so tests (and downstream tooling) can prove
//! `parse(to_json_lines(report)) == report` instead of eyeballing output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed flat JSON value: this format only ever carries strings and
/// (signed) integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonVal {
    /// A string value.
    Str(String),
    /// An integer value (all counters fit in `i64` in practice).
    Int(i64),
}

impl JsonVal {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            JsonVal::Int(_) => None,
        }
    }

    /// The integer as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The raw integer, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonVal::Int(n) => Some(*n),
            JsonVal::Str(_) => None,
        }
    }
}

/// One parsed line: key → value.
pub type JsonMap = BTreeMap<String, JsonVal>;

/// Incremental writer for one flat JSON object (one export line).
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an object with its `type` discriminator.
    pub fn new(ty: &str) -> Self {
        let mut o = JsonObj::default();
        o.buf.push('{');
        o.str_field("type", ty);
        o
    }

    fn sep(&mut self) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
    }

    /// Append a string field.
    pub fn str_field(&mut self, key: &str, val: &str) -> &mut Self {
        self.sep();
        push_json_string(&mut self.buf, key);
        self.buf.push(':');
        push_json_string(&mut self.buf, val);
        self
    }

    /// Append an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, val: u64) -> &mut Self {
        self.sep();
        push_json_string(&mut self.buf, key);
        let _ = write!(self.buf, ":{val}");
        self
    }

    /// Append a signed integer field.
    pub fn i64_field(&mut self, key: &str, val: i64) -> &mut Self {
        self.sep();
        push_json_string(&mut self.buf, key);
        let _ = write!(self.buf, ":{val}");
        self
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Close the object as one line of a JSON-lines file, newline included.
    pub fn finish_line(self) -> String {
        self.finish() + "\n"
    }
}

fn push_json_string(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Parse one flat JSON object line into a key → value map.
///
/// Accepts exactly what [`JsonObj`] emits (plus insignificant whitespace):
/// one level of nesting, string and integer values only. Returns an error
/// string naming the first offence — good enough for test assertions and
/// load-time validation.
pub fn parse_line(line: &str) -> Result<JsonMap, String> {
    let mut chars = line.char_indices().peekable();
    let mut out = BTreeMap::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    };

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', got {other:?}")),
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(s),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 'r')) => s.push('\r'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                            code = code * 16 + h.to_digit(16).ok_or("bad hex in \\u escape")?;
                        }
                        s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(format!("expected '{{', got {other:?}")),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        return Ok(out);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            other => return Err(format!("expected ':', got {other:?}")),
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some((_, '"')) => JsonVal::Str(parse_string(&mut chars)?),
            Some((_, c)) if *c == '-' || c.is_ascii_digit() => {
                let mut num = String::new();
                if matches!(chars.peek(), Some((_, '-'))) {
                    num.push('-');
                    chars.next();
                }
                while matches!(chars.peek(), Some((_, c)) if c.is_ascii_digit()) {
                    num.push(chars.next().unwrap().1);
                }
                JsonVal::Int(
                    num.parse()
                        .map_err(|e| format!("bad integer {num:?}: {e}"))?,
                )
            }
            other => return Err(format!("expected value, got {other:?}")),
        };
        out.insert(key, val);
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing input at byte {i}: {c:?}"));
    }
    Ok(out)
}

/// Fetch a required string field from a parsed line.
pub fn req_str(map: &JsonMap, key: &str) -> Result<String, String> {
    map.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Fetch a required unsigned-integer field from a parsed line.
pub fn req_u64(map: &JsonMap, key: &str) -> Result<u64, String> {
    map.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut o = JsonObj::new("abort");
        o.str_field("class", "Branch")
            .i64_field("block", -1)
            .u64_field("count", 42);
        let line = o.finish();
        assert_eq!(
            line,
            r#"{"type":"abort","class":"Branch","block":-1,"count":42}"#
        );
        let map = parse_line(&line).unwrap();
        assert_eq!(req_str(&map, "type").unwrap(), "abort");
        assert_eq!(map["block"].as_i64(), Some(-1));
        assert_eq!(req_u64(&map, "count").unwrap(), 42);
        assert_eq!(map["block"].as_u64(), None, "negative is not a u64");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let mut o = JsonObj::new("meta");
        o.str_field("key", "quote\" slash\\ nl\n tab\t ctl\u{1}");
        let line = o.finish();
        let map = parse_line(&line).unwrap();
        assert_eq!(
            req_str(&map, "key").unwrap(),
            "quote\" slash\\ nl\n tab\t ctl\u{1}"
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "{\"a\":\"unterminated}",
            "{\"a\":12x}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
        assert!(parse_line("  { }  ").unwrap().is_empty());
    }
}
