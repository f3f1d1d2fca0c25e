//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`] / [`to_string_pretty`] / [`from_str`] over the serde
//! shim's [`serde::Value`] tree, plus [`publish`], which writes a table
//! of rows as a JSON array with one compact row per line.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Serializes a value to indented JSON.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Writes `rows` to `path` as a JSON array, one compact row per line, so
/// a regenerated table diffs row by row.
pub fn publish<T: serde::Serialize>(
    path: impl AsRef<std::path::Path>,
    rows: &[T],
) -> std::io::Result<()> {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let mut out = String::from("  ");
            write_value(&row.to_value(), &mut out);
            out
        })
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
}

/// Parses JSON text into a value.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!("trailing data at byte {}", parser.pos)));
    }
    T::from_value(&value)
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let text = format!("{v}");
        out.push_str(&text);
        // Keep the float/integer distinction through a round trip.
        if !text.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null"); // matches serde_json's lossy default
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => write_f64(*v, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(value: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    let close_pad = "  ".repeat(indent);
    match value {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_value_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad);
                write_escaped(k, out);
                out.push_str(": ");
                write_value_pretty(v, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&close_pad);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::msg("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::msg("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::msg("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::msg("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        other => return Err(Error::msg(format!("bad escape {:?}", other as char))),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::msg("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("bad number"))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::I64)
                        .map_err(|_| Error::msg(format!("integer out of range: {text}")));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| Error::msg(format!("bad number {text:?}")))
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Default)]
    struct Stats {
        words: u64,
        tags: Vec<String>,
        per: BTreeMap<u32, u64>,
        ok: bool,
    }
    serde::impl_serde_struct!(Stats { words, tags, per, ok });

    #[test]
    fn round_trip_struct() {
        let s = Stats {
            words: 42,
            tags: vec!["bb/vetting".into(), "weak \"ba\"".into()],
            per: [(0u32, 5u64), (7, 9)].into_iter().collect(),
            ok: true,
        };
        let json = to_string(&s).unwrap();
        let back: Stats = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn escapes_and_unicode() {
        let s = "line\nbreak \"quoted\" π → δ".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn negative_and_large_integers() {
        let json = to_string(&(-42i64)).unwrap();
        assert_eq!(json, "-42");
        let v: i64 = from_str(&json).unwrap();
        assert_eq!(v, -42);
        let big = u64::MAX;
        let back: u64 = from_str(&to_string(&big).unwrap()).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<Vec<u64>>("[1,2").is_err());
    }

    #[test]
    fn published_rows_are_one_per_line_and_parse_back() {
        let rows = vec![
            Stats { words: 1, tags: vec![], per: BTreeMap::new(), ok: true },
            Stats { words: 2, tags: vec!["t".into()], per: BTreeMap::new(), ok: false },
        ];
        let path = std::env::temp_dir().join(format!("publish-{}.json", std::process::id()));
        publish(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.lines().nth(1).unwrap().starts_with("  {\"words\":1,"), "{text}");
        assert_eq!(from_str::<Vec<Stats>>(&text).unwrap(), rows);
    }

    #[test]
    fn pretty_output_parses_back() {
        let s = Stats { words: 1, tags: vec!["t".into()], per: BTreeMap::new(), ok: false };
        let pretty = to_string_pretty(&s).unwrap();
        assert!(pretty.contains('\n'));
        let back: Stats = from_str(&pretty).unwrap();
        assert_eq!(back, s);
    }
}
