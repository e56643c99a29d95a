//! Offline stand-in for `serde_derive`.
//!
//! The real `serde_derive` depends on `syn`/`quote`, which are not
//! available in this build environment, so the derives are implemented
//! directly over `proc_macro::TokenStream`. They target the workspace's
//! JSON-only `serde` shim:
//!
//! * `Serialize` generates `fn serialize_json(&self, out: &mut String)`
//!   writing compact JSON;
//! * `Deserialize` generates
//!   `fn deserialize_json(&Value) -> Result<Self, Error>` reading the
//!   parsed JSON tree; a struct or struct variant rejects any object
//!   key that is not one of its fields.
//!
//! Supported shapes (everything this workspace declares): non-generic
//! structs with named fields, newtype structs, and enums whose variants
//! are unit, tuple, or struct-like. Serde field/variant attributes are
//! not supported and generics are rejected with a clear error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive the workspace `serde::Serialize` (JSON writer).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derive the workspace `serde::Deserialize` (JSON reader).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------
// Item model + parser
// ---------------------------------------------------------------------

struct Item {
    name: String,
    shape: Shape,
}

enum Shape {
    /// Struct with named fields.
    Named(Vec<String>),
    /// Tuple struct with N fields (N = 1 is the serde "newtype" form).
    Tuple(usize),
    /// Enum.
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_field_names(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_top_level_fields(g.stream()))
            }
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: expected enum body for `{name}`, got {other:?}"),
        },
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    };
    Item { name, shape }
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
            *i += 1;
        }
        match tokens.get(*i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => *i += 1,
            other => panic!("serde shim derive: malformed attribute: {other:?}"),
        }
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Field names of a named-fields body (`{ a: T, pub b: U, ... }`).
fn parse_field_names(body: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut names = Vec::new();
    loop {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        }
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde shim derive: expected `:` after field name, got {other:?}"),
        }
        skip_type(&tokens, &mut i);
    }
    names
}

/// Advance past one type, stopping after the `,` that follows it (or at
/// the end of the stream). Tracks `<`/`>` nesting because generic
/// argument commas are plain puncts, not grouped token trees.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Number of fields in a tuple body (`(T, U, ...)`).
fn count_top_level_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut i = 0;
    let mut count = 0;
    while i < tokens.len() {
        // A field may start with attributes and a visibility.
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut i);
        skip_type(&tokens, &mut i);
        count += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    loop {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Tuple(count_top_level_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_field_names(g.stream()))
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional discriminant (`= expr`) and the separator.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation (emitted as source text, then reparsed)
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut s = String::from("out.push('{');\n");
            for (k, f) in fields.iter().enumerate() {
                if k > 0 {
                    s.push_str("out.push(',');\n");
                }
                s.push_str(&format!(
                    "::serde::ser_key(out, \"{f}\");\n::serde::Serialize::serialize_json(&self.{f}, out);\n"
                ));
            }
            s.push_str("out.push('}');");
            s
        }
        Shape::Tuple(1) => "::serde::Serialize::serialize_json(&self.0, out);".to_string(),
        Shape::Tuple(n) => {
            let mut s = String::from("out.push('[');\n");
            for k in 0..*n {
                if k > 0 {
                    s.push_str("out.push(',');\n");
                }
                s.push_str(&format!(
                    "::serde::Serialize::serialize_json(&self.{k}, out);\n"
                ));
            }
            s.push_str("out.push(']');");
            s
        }
        Shape::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        s.push_str(&format!(
                            "{name}::{vn} => ::serde::ser_str(out, \"{vn}\"),\n"
                        ));
                    }
                    VariantKind::Tuple(1) => {
                        s.push_str(&format!(
                            "{name}::{vn}(__f0) => {{ out.push('{{'); ::serde::ser_key(out, \"{vn}\"); ::serde::Serialize::serialize_json(__f0, out); out.push('}}'); }}\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let mut arm = format!(
                            "{name}::{vn}({}) => {{ out.push('{{'); ::serde::ser_key(out, \"{vn}\"); out.push('[');",
                            binders.join(", ")
                        );
                        for (k, b) in binders.iter().enumerate() {
                            if k > 0 {
                                arm.push_str(" out.push(',');");
                            }
                            arm.push_str(&format!(
                                " ::serde::Serialize::serialize_json({b}, out);"
                            ));
                        }
                        arm.push_str(" out.push(']'); out.push('}'); }\n");
                        s.push_str(&arm);
                    }
                    VariantKind::Struct(fields) => {
                        let mut arm = format!(
                            "{name}::{vn} {{ {} }} => {{ out.push('{{'); ::serde::ser_key(out, \"{vn}\"); out.push('{{');",
                            fields.join(", ")
                        );
                        for (k, f) in fields.iter().enumerate() {
                            if k > 0 {
                                arm.push_str(" out.push(',');");
                            }
                            arm.push_str(&format!(
                                " ::serde::ser_key(out, \"{f}\"); ::serde::Serialize::serialize_json({f}, out);"
                            ));
                        }
                        arm.push_str(" out.push('}'); out.push('}'); }\n");
                        s.push_str(&arm);
                    }
                }
            }
            s.push('}');
            s
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Serialize for {name} {{\n    fn serialize_json(&self, out: &mut ::std::string::String) {{\n{body}\n    }}\n}}\n"
    )
}

/// The field names as a `[&str; N]` literal: the keys a derived
/// reader accepts.
fn field_list(fields: &[String]) -> String {
    let quoted: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let mut s = format!(
                "let __o = ::serde::as_object(__v, &{}, \"{name}\")?;\n::std::result::Result::Ok({name} {{\n",
                field_list(fields)
            );
            for f in fields {
                s.push_str(&format!("    {f}: ::serde::de_field(__o, \"{f}\")?,\n"));
            }
            s.push_str("})");
            s
        }
        Shape::Tuple(1) => format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize_json(__v)?))"
        ),
        Shape::Tuple(n) => {
            let mut s = format!("let __a = ::serde::as_array(__v, {n}usize, \"{name}\")?;\n");
            let elems: Vec<String> = (0..*n)
                .map(|k| format!("::serde::de_elem(__a, {k}usize)?"))
                .collect();
            s.push_str(&format!(
                "::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            ));
            s
        }
        Shape::Enum(variants) => {
            let mut s = format!(
                "let (__tag, __payload) = ::serde::variant_of(__v, \"{name}\")?;\nmatch (__tag, __payload) {{\n"
            );
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => {
                        s.push_str(&format!(
                            "(\"{vn}\", ::std::option::Option::None) => ::std::result::Result::Ok({name}::{vn}),\n"
                        ));
                    }
                    VariantKind::Tuple(1) => {
                        s.push_str(&format!(
                            "(\"{vn}\", ::std::option::Option::Some(__p)) => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::deserialize_json(__p)?)),\n"
                        ));
                    }
                    VariantKind::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::de_elem(__a, {k}usize)?"))
                            .collect();
                        s.push_str(&format!(
                            "(\"{vn}\", ::std::option::Option::Some(__p)) => {{ let __a = ::serde::as_array(__p, {n}usize, \"{name}::{vn}\")?; ::std::result::Result::Ok({name}::{vn}({})) }}\n",
                            elems.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{f}: ::serde::de_field(__o, \"{f}\")?"))
                            .collect();
                        s.push_str(&format!(
                            "(\"{vn}\", ::std::option::Option::Some(__p)) => {{ let __o = ::serde::as_object(__p, &{}, \"{name}::{vn}\")?; ::std::result::Result::Ok({name}::{vn} {{ {} }}) }}\n",
                            field_list(fields),
                            inits.join(", ")
                        ));
                    }
                }
            }
            s.push_str(&format!(
                "_ => ::std::result::Result::Err(::serde::json::Error::unknown_variant(__tag, \"{name}\")),\n}}"
            ));
            s
        }
    };
    format!(
        "#[automatically_derived]\nimpl ::serde::Deserialize for {name} {{\n    fn deserialize_json(__v: &::serde::json::Value) -> ::std::result::Result<Self, ::serde::json::Error> {{\n{body}\n    }}\n}}\n"
    )
}
