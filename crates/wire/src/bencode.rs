//! Bencoding: the serialisation format used by `.torrent` metainfo files
//! and tracker responses (BEP 3).
//!
//! Four kinds of value exist: byte strings (`4:spam`), integers (`i42e`),
//! lists (`l...e`) and dictionaries (`d...e`, keys sorted as raw byte
//! strings). This module provides a [`Value`] tree, a canonical encoder and
//! a strict decoder. The decoder rejects the classic laxities (leading
//! zeros, `i-0e`, unsorted dictionary keys) so that encode∘decode is the
//! identity on canonical input — which is what the SHA-1 info-hash needs.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed bencoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A byte string. Not required to be UTF-8.
    Bytes(Vec<u8>),
    /// A signed integer (arbitrary precision is not needed for BitTorrent).
    Int(i64),
    /// A list of values.
    List(Vec<Value>),
    /// A dictionary with byte-string keys, kept sorted.
    Dict(BTreeMap<Vec<u8>, Value>),
}

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing
pub enum BencodeError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A byte that cannot start or continue a value at this position.
    UnexpectedByte { pos: usize, byte: u8 },
    /// Integer with a leading zero, a bare `-`, or `-0`.
    MalformedInt { pos: usize },
    /// Integer did not fit in `i64`.
    IntOverflow { pos: usize },
    /// Dictionary keys out of order or duplicated.
    UnsortedKeys { pos: usize },
    /// Trailing bytes after the top-level value.
    TrailingData { pos: usize },
    /// String length prefix overflowed or exceeded remaining input.
    BadLength { pos: usize },
}

impl fmt::Display for BencodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BencodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            BencodeError::UnexpectedByte { pos, byte } => {
                write!(f, "unexpected byte 0x{byte:02x} at {pos}")
            }
            BencodeError::MalformedInt { pos } => write!(f, "malformed integer at {pos}"),
            BencodeError::IntOverflow { pos } => write!(f, "integer overflow at {pos}"),
            BencodeError::UnsortedKeys { pos } => {
                write!(f, "dictionary keys unsorted or duplicated at {pos}")
            }
            BencodeError::TrailingData { pos } => write!(f, "trailing data at {pos}"),
            BencodeError::BadLength { pos } => write!(f, "bad string length at {pos}"),
        }
    }
}

impl std::error::Error for BencodeError {}

impl Value {
    /// Convenience constructor for a UTF-8 string value.
    pub fn str(s: &str) -> Value {
        Value::Bytes(s.as_bytes().to_vec())
    }

    /// Borrow the byte string, if this is one.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Borrow as UTF-8 text, if this is a valid UTF-8 byte string.
    pub fn as_str(&self) -> Option<&str> {
        self.as_bytes().and_then(|b| std::str::from_utf8(b).ok())
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Borrow the dictionary, if this is one.
    pub fn as_dict(&self) -> Option<&BTreeMap<Vec<u8>, Value>> {
        match self {
            Value::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// Look up `key` in a dictionary value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_dict().and_then(|d| d.get(key.as_bytes()))
    }

    /// Encode canonically into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bytes(b) => {
                out.extend_from_slice(b.len().to_string().as_bytes());
                out.push(b':');
                out.extend_from_slice(b);
            }
            Value::Int(i) => {
                out.push(b'i');
                out.extend_from_slice(i.to_string().as_bytes());
                out.push(b'e');
            }
            Value::List(items) => {
                out.push(b'l');
                for item in items {
                    item.encode_into(out);
                }
                out.push(b'e');
            }
            Value::Dict(map) => {
                out.push(b'd');
                for (k, v) in map {
                    out.extend_from_slice(k.len().to_string().as_bytes());
                    out.push(b':');
                    out.extend_from_slice(k);
                    v.encode_into(out);
                }
                out.push(b'e');
            }
        }
    }

    /// Encode canonically to a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Decode a single bencoded value; the whole input must be consumed.
///
/// ```
/// use bt_wire::bencode::{decode, Value};
/// assert_eq!(decode(b"i42e").unwrap(), Value::Int(42));
/// let d = decode(b"d3:cow3:mooe").unwrap();
/// assert_eq!(d.get("cow").and_then(Value::as_str), Some("moo"));
/// assert!(decode(b"i-0e").is_err()); // canonical form enforced
/// ```
pub fn decode(input: &[u8]) -> Result<Value, BencodeError> {
    let mut parser = Parser { input, pos: 0 };
    let v = parser.parse_value()?;
    if parser.pos != input.len() {
        return Err(BencodeError::TrailingData { pos: parser.pos });
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Result<u8, BencodeError> {
        self.input
            .get(self.pos)
            .copied()
            .ok_or(BencodeError::UnexpectedEof)
    }

    fn bump(&mut self) -> Result<u8, BencodeError> {
        let b = self.peek()?;
        self.pos += 1;
        Ok(b)
    }

    fn parse_value(&mut self) -> Result<Value, BencodeError> {
        match self.peek()? {
            b'i' => self.parse_int(),
            b'l' => self.parse_list(),
            b'd' => self.parse_dict(),
            b'0'..=b'9' => Ok(Value::Bytes(self.parse_bytes()?)),
            byte => Err(BencodeError::UnexpectedByte {
                pos: self.pos,
                byte,
            }),
        }
    }

    fn parse_int(&mut self) -> Result<Value, BencodeError> {
        let start = self.pos;
        self.bump()?; // 'i'
        let negative = if self.peek()? == b'-' {
            self.bump()?;
            true
        } else {
            false
        };
        let digits_start = self.pos;
        // Accumulate in i128 so i64::MIN (whose magnitude exceeds
        // i64::MAX) parses; range-check at the end.
        let mut value: i128 = 0;
        loop {
            match self.bump()? {
                b'e' => break,
                d @ b'0'..=b'9' => {
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(i128::from(d - b'0')))
                        .ok_or(BencodeError::IntOverflow { pos: start })?;
                }
                byte => {
                    return Err(BencodeError::UnexpectedByte {
                        pos: self.pos - 1,
                        byte,
                    })
                }
            }
        }
        let digits = &self.input[digits_start..self.pos - 1];
        if digits.is_empty() {
            return Err(BencodeError::MalformedInt { pos: start });
        }
        if digits.len() > 1 && digits[0] == b'0' {
            return Err(BencodeError::MalformedInt { pos: start });
        }
        if negative && value == 0 {
            return Err(BencodeError::MalformedInt { pos: start });
        }
        let signed = if negative { -value } else { value };
        let value = i64::try_from(signed).map_err(|_| BencodeError::IntOverflow { pos: start })?;
        Ok(Value::Int(value))
    }

    fn parse_bytes(&mut self) -> Result<Vec<u8>, BencodeError> {
        let start = self.pos;
        let mut len: usize = 0;
        let mut digit_count = 0usize;
        loop {
            match self.bump()? {
                b':' => break,
                d @ b'0'..=b'9' => {
                    digit_count += 1;
                    len = len
                        .checked_mul(10)
                        .and_then(|l| l.checked_add((d - b'0') as usize))
                        .ok_or(BencodeError::BadLength { pos: start })?;
                }
                byte => {
                    return Err(BencodeError::UnexpectedByte {
                        pos: self.pos - 1,
                        byte,
                    })
                }
            }
        }
        if digit_count == 0 || (digit_count > 1 && self.input[start] == b'0') {
            return Err(BencodeError::BadLength { pos: start });
        }
        if self.pos + len > self.input.len() {
            return Err(BencodeError::BadLength { pos: start });
        }
        let bytes = self.input[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(bytes)
    }

    fn parse_list(&mut self) -> Result<Value, BencodeError> {
        self.bump()?; // 'l'
        let mut items = Vec::new();
        while self.peek()? != b'e' {
            items.push(self.parse_value()?);
        }
        self.bump()?; // 'e'
        Ok(Value::List(items))
    }

    fn parse_dict(&mut self) -> Result<Value, BencodeError> {
        self.bump()?; // 'd'
        let mut map = BTreeMap::new();
        let mut last_key: Option<Vec<u8>> = None;
        while self.peek()? != b'e' {
            let key_pos = self.pos;
            let key = self.parse_bytes()?;
            if let Some(prev) = &last_key {
                if *prev >= key {
                    return Err(BencodeError::UnsortedKeys { pos: key_pos });
                }
            }
            let value = self.parse_value()?;
            last_key = Some(key.clone());
            map.insert(key, value);
        }
        self.bump()?; // 'e'
        Ok(Value::Dict(map))
    }
}

/// Builder for bencoded dictionaries with `&str` keys.
#[derive(Debug, Default, Clone)]
pub struct DictBuilder {
    map: BTreeMap<Vec<u8>, Value>,
}

impl DictBuilder {
    /// Start an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `value` under `key`, replacing any previous entry.
    pub fn insert(mut self, key: &str, value: Value) -> Self {
        self.map.insert(key.as_bytes().to_vec(), value);
        self
    }

    /// Insert an integer.
    pub fn int(self, key: &str, value: i64) -> Self {
        self.insert(key, Value::Int(value))
    }

    /// Insert a UTF-8 string.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.insert(key, Value::str(value))
    }

    /// Insert a raw byte string.
    pub fn bytes(self, key: &str, value: Vec<u8>) -> Self {
        self.insert(key, Value::Bytes(value))
    }

    /// Finish, producing the dictionary value.
    pub fn build(self) -> Value {
        Value::Dict(self.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let enc = v.encode();
        let dec = decode(&enc).expect("decode");
        assert_eq!(&dec, v);
    }

    #[test]
    fn int_roundtrip() {
        for i in [0i64, 1, -1, 42, i64::MAX, i64::MIN + 1] {
            roundtrip(&Value::Int(i));
        }
    }

    #[test]
    fn decodes_spec_examples() {
        assert_eq!(decode(b"4:spam").unwrap(), Value::str("spam"));
        assert_eq!(decode(b"i3e").unwrap(), Value::Int(3));
        assert_eq!(decode(b"i-3e").unwrap(), Value::Int(-3));
        assert_eq!(
            decode(b"l4:spam4:eggse").unwrap(),
            Value::List(vec![Value::str("spam"), Value::str("eggs")])
        );
        let d = decode(b"d3:cow3:moo4:spam4:eggse").unwrap();
        assert_eq!(d.get("cow"), Some(&Value::str("moo")));
        assert_eq!(d.get("spam"), Some(&Value::str("eggs")));
    }

    #[test]
    fn rejects_minus_zero_and_leading_zero() {
        assert!(matches!(
            decode(b"i-0e"),
            Err(BencodeError::MalformedInt { .. })
        ));
        assert!(matches!(
            decode(b"i03e"),
            Err(BencodeError::MalformedInt { .. })
        ));
        assert!(matches!(
            decode(b"i e"),
            Err(BencodeError::UnexpectedByte { .. })
        ));
        assert!(matches!(
            decode(b"ie"),
            Err(BencodeError::MalformedInt { .. })
        ));
    }

    #[test]
    fn rejects_unsorted_and_duplicate_keys() {
        assert!(matches!(
            decode(b"d4:spam4:eggs3:cow3:mooe"),
            Err(BencodeError::UnsortedKeys { .. })
        ));
        assert!(matches!(
            decode(b"d3:cow3:moo3:cow3:mooe"),
            Err(BencodeError::UnsortedKeys { .. })
        ));
    }

    #[test]
    fn rejects_trailing_data() {
        assert!(matches!(
            decode(b"i3ei4e"),
            Err(BencodeError::TrailingData { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        assert!(matches!(
            decode(b"4:spa"),
            Err(BencodeError::BadLength { .. })
        ));
        assert!(matches!(
            decode(b"l4:spam"),
            Err(BencodeError::UnexpectedEof)
        ));
        assert!(matches!(decode(b"i42"), Err(BencodeError::UnexpectedEof)));
    }

    #[test]
    fn rejects_string_length_leading_zero() {
        assert!(matches!(
            decode(b"04:spam"),
            Err(BencodeError::BadLength { .. })
        ));
        // A lone "0:" (empty string) is fine.
        assert_eq!(decode(b"0:").unwrap(), Value::Bytes(vec![]));
    }

    #[test]
    fn nested_structures() {
        let v = Value::Dict(
            [(
                b"info".to_vec(),
                Value::List(vec![Value::Int(1), Value::Bytes(vec![0, 255, 7])]),
            )]
            .into_iter()
            .collect(),
        );
        roundtrip(&v);
    }

    #[test]
    fn dict_builder_orders_keys() {
        let v = DictBuilder::new().int("zeta", 1).str("alpha", "x").build();
        assert_eq!(v.encode(), b"d5:alpha1:x4:zetai1ee".to_vec());
    }

    #[test]
    fn binary_safe_strings() {
        let raw: Vec<u8> = (0u8..=255).collect();
        roundtrip(&Value::Bytes(raw));
    }
}
