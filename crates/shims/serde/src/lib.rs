//! Offline stand-in for `serde` (JSON-only).
//!
//! The real serde separates the data model from formats; this workspace
//! only ever serialises to and from JSON (`serde_json` shim), so the two
//! traits here are JSON-direct:
//!
//! * [`Serialize::serialize_json`] appends compact JSON to a `String`;
//! * [`Deserialize::deserialize_json`] reads from a parsed [`json::Value`].
//!
//! The derive macros (re-exported from the `serde_derive` shim) generate
//! serde-compatible shapes: structs as objects, newtypes transparently,
//! enums externally tagged (`"Unit"`, `{"Variant": payload}`), tuples and
//! arrays as JSON arrays, maps as objects. Missing `Option` fields
//! deserialise to `None` (via [`Deserialize::absent`]), matching serde's
//! observable behaviour for the types this workspace declares; an
//! object key that is not a field is rejected, as under serde's
//! `deny_unknown_fields`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

pub mod json;

use json::{Error, Value};

/// Serialise `self` as compact JSON appended to `out`.
pub trait Serialize {
    /// Append this value's JSON encoding to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// Reconstruct `Self` from a parsed JSON tree.
pub trait Deserialize: Sized {
    /// Read `Self` from `v`.
    fn deserialize_json(v: &Value) -> Result<Self, Error>;

    /// Value to use when an object field is missing entirely.
    /// `None` (the default) makes the field required; `Option<T>`
    /// overrides this to produce `None`, serde-style.
    fn absent() -> Option<Self> {
        None
    }
}

// ---------------------------------------------------------------------
// Helpers used by the derive-generated code
// ---------------------------------------------------------------------

/// Write `"name":` (object key plus colon). `name` must not need escaping
/// (derive only passes Rust identifiers).
pub fn ser_key(out: &mut String, name: &str) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

/// Write a JSON string literal.
pub fn ser_str(out: &mut String, s: &str) {
    json::write_escaped(out, s);
}

/// View `v` as the object form of the struct (or struct variant)
/// `ctx`, whose fields are `fields`. A key that is not a field is an
/// error naming it: a misspelt or since-removed setting must not load
/// as its default.
pub fn as_object<'v>(
    v: &'v Value,
    fields: &[&str],
    ctx: &str,
) -> Result<&'v BTreeMap<String, Value>, Error> {
    let Value::Object(m) = v else {
        return Err(Error::expected("object", ctx, v));
    };
    match m.keys().find(|k| !fields.contains(&k.as_str())) {
        Some(k) => Err(Error::msg(format!("unknown field `{k}` in {ctx}"))),
        None => Ok(m),
    }
}

/// View `v` as an array of exactly `len` elements, or error.
pub fn as_array<'v>(v: &'v Value, len: usize, ctx: &str) -> Result<&'v [Value], Error> {
    match v {
        Value::Array(a) if a.len() == len => Ok(a),
        Value::Array(a) => Err(Error::msg(format!(
            "{ctx}: expected array of {len} elements, got {}",
            a.len()
        ))),
        other => Err(Error::expected("array", ctx, other)),
    }
}

/// Deserialise the field `name` of `obj`; missing fields fall back to
/// [`Deserialize::absent`].
pub fn de_field<T: Deserialize>(obj: &BTreeMap<String, Value>, name: &str) -> Result<T, Error> {
    match obj.get(name) {
        Some(v) => T::deserialize_json(v),
        None => T::absent().ok_or_else(|| Error::msg(format!("missing field `{name}`"))),
    }
}

/// Deserialise element `i` of `arr`.
pub fn de_elem<T: Deserialize>(arr: &[Value], i: usize) -> Result<T, Error> {
    match arr.get(i) {
        Some(v) => T::deserialize_json(v),
        None => Err(Error::msg(format!("missing tuple element {i}"))),
    }
}

/// Split an externally-tagged enum value into `(variant, payload)`:
/// a bare string is a unit variant, a single-key object a data variant.
pub fn variant_of<'v>(v: &'v Value, ctx: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
    match v {
        Value::Str(s) => Ok((s.as_str(), None)),
        Value::Object(m) if m.len() == 1 => {
            let (k, inner) = m.iter().next().expect("len checked");
            Ok((k.as_str(), Some(inner)))
        }
        other => Err(Error::expected("enum variant", ctx, other)),
    }
}

// ---------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::expected("unsigned integer", stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::expected("integer", stringify!($t), v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{}` prints the shortest string that round-trips, and prints
            // integral values without a fractional part; our parser reads
            // either spelling back into the same f64.
            let _ = write!(out, "{self}");
        } else {
            // serde_json maps non-finite floats to null.
            out.push_str("null");
        }
    }
}

impl Deserialize for f64 {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::expected("number", "f64", v))
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        f64::from(*self).serialize_json(out)
    }
}

impl Deserialize for f32 {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        Ok(f64::deserialize_json(v)? as f32)
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", "bool", other)),
        }
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(out, self);
    }
}

impl Deserialize for String {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", "String", other)),
        }
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize_json(other)?)),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.serialize_json(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(a) => a.iter().map(T::deserialize_json).collect(),
            other => Err(Error::expected("array", "Vec", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        self.as_slice().serialize_json(out)
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize_json(v)?;
        let len = items.len();
        <[T; N]>::try_from(items)
            .map_err(|_| Error::msg(format!("expected array of {N} elements, got {len}")))
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+),)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first { out.push(','); }
                    first = false;
                    self.$n.serialize_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize_json(v: &Value) -> Result<Self, Error> {
                const LEN: usize = [$(stringify!($n)),+].len();
                let a = as_array(v, LEN, "tuple")?;
                Ok(($(de_elem::<$t>(a, $n)?,)+))
            }
        }
    )*};
}
ser_de_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
);

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(out, k);
            out.push(':');
            v.serialize_json(out);
        }
        out.push('}');
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::deserialize_json(v)?)))
                .collect(),
            other => Err(Error::expected("object", "BTreeMap", other)),
        }
    }
}

impl Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        json::write_value(out, self);
    }
}

impl Deserialize for Value {
    fn deserialize_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
