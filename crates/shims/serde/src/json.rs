//! The JSON tree, parser, and writers shared by the `serde` and
//! `serde_json` shims.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Integers keep their exact magnitude (`PosInt`/`NegInt`) so `u64`
/// seeds and microsecond timestamps survive a round trip; anything with
/// a fraction or exponent becomes `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object (sorted keys — deterministic output).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// As `u64` if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::PosInt(n) => Some(*n),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// As `i64` if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::PosInt(n) => i64::try_from(*n).ok(),
            Value::NegInt(n) => Some(*n),
            Value::Float(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    /// As `f64` (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::PosInt(n) => Some(*n as f64),
            Value::NegInt(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            Value::Null => Some(f64::NAN), // non-finite floats serialise as null
            _ => None,
        }
    }

    /// As `&str` if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As the member list if an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As the key map if an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup (`None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::PosInt(_) | Value::NegInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialisation / deserialisation error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Error from a plain message.
    pub fn msg(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }

    /// "expected X while reading CTX, got KIND".
    pub fn expected(what: &str, ctx: &str, got: &Value) -> Error {
        Error::msg(format!("{ctx}: expected {what}, got {}", got.kind()))
    }

    /// Unknown enum variant.
    pub fn unknown_variant(tag: &str, ty: &str) -> Error {
        Error::msg(format!("unknown variant `{tag}` for {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append the JSON string literal for `s` (with escaping) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append compact JSON for a [`Value`].
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::PosInt(n) => out.push_str(&n.to_string()),
        Value::NegInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, v);
            }
            out.push(']');
        }
        Value::Object(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

/// Append pretty-printed JSON (two-space indent) for a [`Value`].
pub fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(a) if !a.is_empty() => {
            out.push_str("[\n");
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_value_pretty(out, v, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, v, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so hostile input (a file of `[`) must run into this
/// and not into the end of the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (rejects trailing garbage and
/// nesting deeper than [`MAX_DEPTH`]).
pub fn parse(input: &str) -> Result<Value, Error> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let v = parse_value(input, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::msg("unexpected end of input")),
        Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(Error::msg(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ))),
        Some(b'n') => expect_lit(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect_lit(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect_lit(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(input, bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(input, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::msg(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::msg(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(input, bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(Error::msg(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(input, bytes, pos),
    }
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(Error::msg(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::msg(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::msg("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = input
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::msg("invalid \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(Error::msg(format!("invalid escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 character.
                let rest = &input[*pos..];
                let c = rest.chars().next().expect("in-bounds char");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = &input[start..*pos];
    if text.is_empty() || text == "-" {
        return Err(Error::msg(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(n) = stripped.parse::<u64>() {
                if let Ok(neg) = i64::try_from(n).map(|v| -v) {
                    return Ok(Value::NegInt(neg));
                }
            }
        } else if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::PosInt(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::msg(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "42",
            "-7",
            "18446744073709551615",
            "0.5",
            "\"hi\\nthere\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
        ];
        for c in cases {
            let v = parse(c).unwrap();
            let mut out = String::new();
            write_value(&mut out, &v);
            assert_eq!(parse(&out).unwrap(), v, "case {c}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_recursed_to_death() {
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok());
        let past_limit = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&past_limit).is_err());
        let err = parse(&"[".repeat(300_000)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let err = parse(&"{\"a\":".repeat(300_000)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn accessors_read_the_tree() {
        let v = parse("{\"s\":\"x\",\"a\":[1,-2],\"o\":{}}").unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!((a[0].as_u64(), a[1].as_i64()), (Some(1), Some(-2)));
        assert!(v.get("o").and_then(Value::as_object).unwrap().is_empty());
        assert!(v.get("missing").is_none() && a[0].get("s").is_none());
    }

    #[test]
    fn u64_precision_survives() {
        let v = parse("12345678901234567890").unwrap();
        assert_eq!(v.as_u64(), Some(12345678901234567890));
    }
}
