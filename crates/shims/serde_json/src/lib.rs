//! Offline stand-in for `serde_json`, backed by the workspace's
//! JSON-only `serde` shim (the parser, [`Value`], and [`Error`] live
//! there so derive-generated code can reach them).

pub use serde::json::{Error, Value};

/// Serialise `value` to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Serialise `value` as compact JSON into `writer`. The text is
/// rendered in a per-thread buffer that keeps its capacity, so writing
/// into a reused `Vec<u8>` allocates nothing once both have grown.
pub fn to_writer<W: std::io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    thread_local! {
        static TEXT: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
    }
    TEXT.with(|text| {
        let mut text = text.borrow_mut();
        text.clear();
        value.serialize_json(&mut text);
        writer
            .write_all(text.as_bytes())
            .map_err(|e| Error::msg(e.to_string()))
    })
}

/// Serialise `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let compact = to_string(value)?;
    let tree = serde::json::parse(&compact)?;
    let mut out = String::new();
    serde::json::write_value_pretty(&mut out, &tree, 0);
    Ok(out)
}

/// Parse `input` into a `T`.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T, Error> {
    let tree = serde::json::parse(input)?;
    T::deserialize_json(&tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_writer_matches_to_string() {
        let v: Value = from_str("{\"a\":[1,2.5,\"x\"],\"b\":null}").unwrap();
        let mut out = b"prefix ".to_vec();
        to_writer(&mut out, &v).unwrap();
        assert_eq!(
            out,
            format!("prefix {}", to_string(&v).unwrap()).into_bytes()
        );
    }

    #[test]
    fn value_round_trip() {
        let v: Value = from_str("{\"a\":[1,2.5,\"x\"],\"b\":null}").unwrap();
        let s = to_string(&v).unwrap();
        let v2: Value = from_str(&s).unwrap();
        assert_eq!(v, v2);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Knobs {
        rate: u32,
        note: Option<String>,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Model {
        Flat,
        Shaped { knobs: Knobs, cap: u64 },
    }

    #[test]
    fn derived_readers_reject_keys_that_are_not_fields() {
        // What is written loads, with an absent `Option` as `None`.
        let model = Model::Shaped {
            knobs: Knobs {
                rate: 3,
                note: None,
            },
            cap: 9,
        };
        let json = to_string(&model).unwrap();
        assert_eq!(from_str::<Model>(&json).unwrap(), model);
        assert_eq!(from_str::<Model>("\"Flat\"").unwrap(), Model::Flat);
        let knobs: Knobs = from_str("{\"rate\":3}").unwrap();
        assert_eq!(knobs.note, None);
        // A named struct, a struct variant, and a struct nested in one.
        let err = |text: &str| from_str::<Model>(text).unwrap_err().to_string();
        assert_eq!(
            from_str::<Knobs>("{\"rate\":3,\"rat\":4}")
                .unwrap_err()
                .to_string(),
            "unknown field `rat` in Knobs"
        );
        assert_eq!(
            err("{\"Shaped\":{\"knobs\":{\"rate\":3},\"cap\":9,\"cpa\":1}}"),
            "unknown field `cpa` in Model::Shaped"
        );
        assert_eq!(
            err("{\"Shaped\":{\"knobs\":{\"rate\":3,\"nte\":0},\"cap\":9}}"),
            "unknown field `nte` in Knobs"
        );
    }

    #[test]
    fn pretty_parses_back() {
        let v: Value = from_str("{\"a\":[1,2],\"b\":{\"c\":true}}").unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
    }
}
