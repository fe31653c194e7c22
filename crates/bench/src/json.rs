//! A tiny JSON document builder shared by every bench binary that emits
//! JSON (`platform_compare`, `fleet_sim`, …).
//!
//! The build environment has no serialization dependency, and hand-rolled
//! `write!` chains proved easy to unbalance; this module provides the one
//! JSON writer the crate needs.  Rendering is deterministic: object keys
//! keep insertion order, floats use Rust's shortest-roundtrip `Display`
//! (never scientific notation), and non-finite floats become `null`.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered via shortest-roundtrip `Display`; non-finite
    /// values render as `null`).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub(crate) fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object and returns it (builder style).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub(crate) fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    let integral = !s.contains('.') && !s.contains('e') && !s.contains('E');
                    out.push_str(&s);
                    if integral {
                        // Keep integral floats visibly floating-point.
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  \"{}\": ", escape(key));
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents_with_balanced_brackets() {
        let doc = Json::obj()
            .field("name", "fleet")
            .field("n", 3u64)
            .field(
                "rows",
                vec![Json::obj().field("x", 1u64), Json::obj().field("y", 2.5f64)],
            )
            .field("empty", Json::Arr(vec![]));
        let text = doc.render();
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(text.contains("\"name\": \"fleet\""));
        assert!(text.contains("\"y\": 2.5"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn floats_render_deterministically_and_json_safely() {
        assert_eq!(Json::F64(0.5).render(), "0.5\n");
        assert_eq!(Json::F64(2.0).render(), "2.0\n");
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null\n");
        // Tiny values must not use scientific notation.
        assert!(!Json::F64(1e-7).render().contains('e'));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let doc = Json::Str("say \"hi\"".into()).render();
        assert_eq!(doc, "\"say \\\"hi\\\"\"\n");
    }
}
