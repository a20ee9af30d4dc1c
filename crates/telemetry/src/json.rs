//! [`Json`]: the one JSON value type the workspace's report files
//! (`BENCH_*.json`) are built and read back with, and that every
//! `to_json` rendering (telemetry snapshots, cache statistics, health
//! reports) returns.
//!
//! A report is assembled as a value, checked, and only then rendered,
//! so nothing prints half a document. Two renderings exist: the inline
//! form ([`Display`](fmt::Display)) and the file layout
//! ([`Json::to_document`]), which puts each top-level field on its own
//! line and each row of a top-level array on its own line, so a diff of
//! two committed reports shows one changed row per changed measurement.

use std::fmt::{self, Write as _};

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A count, size or other non-negative integer.
    Int(u64),
    /// A float printed with the given number of decimals; a non-finite
    /// value renders as `null`, since JSON has no NaN or infinity.
    Num(f64, usize),
    /// A string, escaped on rendering.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered `(key, value)` fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`field`](Self::field).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends the field `key: value` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object: a report builder bug.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object {other}"),
        }
        self
    }

    /// The value of field `key`, if `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `Err` naming the first of `keys` this object lacks — the key-set
    /// half of a report's self-check.
    pub fn require(&self, keys: &[&str]) -> Result<(), String> {
        match keys.iter().find(|k| self.get(k).is_none()) {
            Some(k) => Err(format!("missing key `{k}` in {self}")),
            None => Ok(()),
        }
    }

    /// The number, for [`Int`](Self::Int) and finite [`Num`](Self::Num).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Num(x, _) if x.is_finite() => Some(x),
            _ => None,
        }
    }

    /// The string, for [`Str`](Self::Str).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, for [`Arr`](Self::Arr).
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The file layout: one top-level field per line, one row of a
    /// top-level array per line, everything deeper inline, and a
    /// trailing newline.
    pub fn to_document(&self) -> String {
        let Json::Obj(fields) = self else {
            return format!("{self}\n");
        };
        let mut out = String::from("{\n");
        for (i, (key, value)) in fields.iter().enumerate() {
            let _ = write!(out, "  \"{}\": ", json_escape(key));
            match value {
                Json::Arr(rows) if !rows.is_empty() => {
                    out.push_str("[\n");
                    for (j, row) in rows.iter().enumerate() {
                        let sep = if j + 1 < rows.len() { "," } else { "" };
                        let _ = writeln!(out, "    {row}{sep}");
                    }
                    out.push_str("  ]");
                }
                _ => {
                    let _ = write!(out, "{value}");
                }
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// The inline rendering: `{"a": 1, "b": [true, 0.50]}`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x, decimals) if x.is_finite() => write!(f, "{x:.decimals$}"),
            Json::Num(..) => f.write_str("null"),
            Json::Str(s) => write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    write!(f, "{sep}{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    write!(f, "{sep}\"{}\": {value}", json_escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (quotes,
/// backslashes and control characters; everything else passes
/// through).
fn json_escape(s: &str) -> String {
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
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n.into())
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_are_escaped() {
        let j = Json::obj().field("a\"b", "x\\y\n\u{1}");
        assert_eq!(j.to_string(), r#"{"a\"b": "x\\y\n\u0001"}"#);
        assert_eq!(j.get("a\"b").and_then(Json::as_str), Some("x\\y\n\u{1}"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let j: Json = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.25]
            .into_iter()
            .map(|x| Json::Num(x, 1))
            .collect();
        assert_eq!(j.to_string(), "[null, null, null, 1.2]");
        assert_eq!(Json::Num(f64::NAN, 2).as_f64(), None);
        assert_eq!(Json::Num(0.5, 3).to_string(), "0.500");
        assert_eq!(Json::from(7usize).as_f64(), Some(7.0));
    }

    #[test]
    fn document_puts_one_row_per_line() {
        let row = |n: u64| Json::obj().field("n", n).field("ok", true);
        let report = Json::obj()
            .field("host_cpus", 2usize)
            .field("rows", vec![row(1), row(2)])
            .field("empty", Json::Arr(Vec::new()))
            .field(
                "stats",
                Json::obj()
                    .field("hits", 3u64)
                    .field("p", Json::Num(0.5, 2)),
            );
        assert_eq!(
            report.to_document(),
            "{\n  \"host_cpus\": 2,\n  \"rows\": [\n    {\"n\": 1, \"ok\": true},\n    \
             {\"n\": 2, \"ok\": true}\n  ],\n  \"empty\": [],\n  \
             \"stats\": {\"hits\": 3, \"p\": 0.50}\n}\n"
        );
        assert_eq!(Json::Int(3).to_document(), "3\n");
        assert_eq!(report.require(&["rows", "host_cpus"]), Ok(()));
        assert!(report
            .require(&["rows", "cpus"])
            .unwrap_err()
            .contains("`cpus`"));
        assert!(Json::Int(1).get("rows").is_none());
    }
}
