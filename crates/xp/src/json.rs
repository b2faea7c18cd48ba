//! A small JSON value model, writer, and reader for campaign output and
//! study specs.
//!
//! The workspace has no serialization dependency, so the engine writes
//! JSON through this hand-rolled module. The output is plain RFC 8259
//! JSON; numbers are emitted with enough precision to round-trip `f64`.
//! [`parse`] is the matching reader — it accepts any RFC 8259 document
//! (used by `study --spec file.json` and by the golden tests that compare
//! campaign manifests).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, kept exact — 64-bit seeds must round-trip through the
    /// run manifest, so they never pass through `f64`.
    Int(i128),
    /// Any finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    #[must_use]
    pub fn object() -> Self {
        Value::Obj(Vec::new())
    }

    /// Inserts `key: value` into an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        match self {
            Value::Obj(entries) => entries.push((key.to_owned(), value.into())),
            other => panic!("set on non-object JSON value {other:?}"),
        }
        self
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => {
                if x.is_finite() {
                    // Integral values render without a fraction for
                    // readability; everything else with full precision.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x:?}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Value {
    /// Looks up `key` in an object; `None` on non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses an RFC 8259 JSON document into a [`Value`].
///
/// Integers without a fraction or exponent become [`Value::Int`] (so
/// 64-bit seeds round-trip exactly); everything else numeric becomes
/// [`Value::Num`].
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(src, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", char::from(c), *pos))
    }
}

/// Nesting cap: far beyond any campaign manifest or spec, and low enough
/// that a pathological document returns an error instead of blowing the
/// stack through recursion.
const MAX_DEPTH: usize = 128;

fn parse_value(
    src: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_lit(src, pos, "null", Value::Null),
        Some(b't') => parse_lit(src, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(src, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(src, bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(src, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(src, bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(src, bytes, pos),
    }
}

fn parse_lit(src: &str, pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if src[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = parse_hex4(src, pos)?;
                        let scalar = match code {
                            // High surrogate: combine with the mandatory
                            // low-surrogate escape that must follow.
                            0xD800..=0xDBFF => {
                                if src.get(*pos..*pos + 2) != Some("\\u") {
                                    return Err(format!(
                                        "high surrogate \\u{code:04X} not followed by a low \
                                         surrogate escape"
                                    ));
                                }
                                *pos += 2;
                                let low = parse_hex4(src, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "\\u{code:04X} must pair with a low surrogate, got \
                                         \\u{low:04X}"
                                    ));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!("unpaired low surrogate \\u{code:04X}"));
                            }
                            other => other,
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| format!("invalid code point U+{scalar:X}"))?,
                        );
                    }
                    other => return Err(format!("bad escape \\{}", char::from(other))),
                }
            }
            _ => {
                // Consume one UTF-8 scalar from the source text.
                let ch = src[*pos..].chars().next().ok_or("invalid UTF-8")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Reads the four hex digits of a `\u` escape at `pos`.
fn parse_hex4(src: &str, pos: &mut usize) -> Result<u32, String> {
    let hex = src.get(*pos..*pos + 4).ok_or_else(|| "truncated \\u escape".to_owned())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
    *pos += 4;
    Ok(code)
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = &src[start..*pos];
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !fractional {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("malformed number {text:?} at byte {start}"))
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Int(x as i128)
    }
}
impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Int(i128::from(x))
    }
}
impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::Int(i128::from(x))
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::Int(i128::from(x))
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Arr(items)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let mut obj = Value::object();
        obj.set("name", "load_curves");
        obj.set("n", 37usize);
        obj.set("quick", false);
        obj.set("rows", Value::Arr(vec![Value::Num(0.5), Value::Null]));
        assert_eq!(
            obj.to_json(),
            r#"{"name":"load_curves","n":37,"quick":false,"rows":[0.5,null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Value::Str("a\"b\\c\nd".to_owned());
        assert_eq!(v.to_json(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integers_stay_exact_beyond_f64() {
        // A full 64-bit seed must round-trip through the manifest.
        let seed = (1u64 << 53) + 1;
        assert_eq!(Value::from(seed).to_json(), "9007199254740993");
        assert_eq!(Value::from(u64::MAX).to_json(), "18446744073709551615");
    }

    #[test]
    fn numbers_round_trip_precision() {
        assert_eq!(Value::Num(0.1).to_json(), "0.1");
        assert_eq!(Value::Num(3.0).to_json(), "3");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        let third = 1.0 / 3.0;
        let rendered = Value::Num(third).to_json();
        assert_eq!(rendered.parse::<f64>().unwrap(), third);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut obj = Value::object();
        obj.set("name", "load_curves");
        obj.set("n", 37usize);
        obj.set("seed", (1u64 << 53) + 1);
        obj.set("quick", false);
        obj.set("rows", Value::Arr(vec![Value::Num(0.5), Value::Null, Value::Num(-3.25)]));
        obj.set("text", "a\"b\\c\nd");
        let parsed = parse(&obj.to_json()).unwrap();
        assert_eq!(parsed, obj);
    }

    #[test]
    fn parse_accepts_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Value::Arr(items) => Some(items.len()),
                _ => None,
            }),
            Some(3)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Nesting under the cap still parses.
        let fine = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn unicode_escapes_decode_including_surrogate_pairs() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Value::Str("Aé".to_owned()));
        // U+1F600 as a surrogate pair.
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), Value::Str("😀".to_owned()));
        // Unpaired or malformed surrogates are errors, never U+FFFD.
        assert!(parse(r#""\uD83D""#).is_err());
        assert!(parse(r#""\uD83Dx""#).is_err());
        assert!(parse(r#""\uD83DA""#).is_err());
        assert!(parse(r#""\uDE00""#).is_err());
    }

    #[test]
    fn parse_keeps_integers_exact() {
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Int(18446744073709551615));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }

    #[test]
    fn option_maps_to_null() {
        assert_eq!(Value::from(None::<f64>).to_json(), "null");
        assert_eq!(Value::from(Some(2.0)).to_json(), "2");
    }
}
