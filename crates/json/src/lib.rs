//! # gf-json
//!
//! A small, real JSON subsystem for the offline GreenFPGA workspace: a
//! one-pass lexer from text to a flat, borrowed token tape with depth and
//! size limits ([`Document`], read through [`Node`]), a one-pass writer
//! ([`JsonWriter`]) whose `f64` rendering round-trips bit-for-bit
//! ([`write_f64`]), and a reindenter for human-facing output ([`pretty`]).
//!
//! Every machine-readable artifact — bench metrics, the `bench_gate`
//! baseline, and the `greenfpga-serve` HTTP API — goes through this crate
//! instead of hand-concatenated strings.
//!
//! Design constraints, in order:
//!
//! 1. **Round-tripping**: numbers are written as the shortest decimal
//!    that parses back to the same bits, byte-identical to Rust's `{}` on
//!    `f64`, so a served number is *bit-identical* to the `f64` the
//!    engine produced — the property the serving tests golden-match on,
//!    byte for byte.
//! 2. **Encode everything, decode what is read**: [`ToJson::write_json`]
//!    appends straight into the output, with no intermediate tree. Only
//!    what the service reads has a decoder: requests, the query envelope
//!    and the metrics snapshot. [`FromJson::from_node`] reads their
//!    members straight from a [`Document`]'s tape, with no tree either.
//!    Results only leave the process, so they only encode.
//! 3. **Bounded input**: the parser enforces a nesting-depth limit and an
//!    input-size limit so a hostile request body cannot blow the stack or
//!    memory of a long-lived server.
//! 4. **Strict JSON**: no NaN/Infinity literals, no trailing commas, no
//!    comments, no unquoted keys. Numbers that overflow `f64` are rejected
//!    rather than silently becoming infinite.
//!
//! [`Value`], with [`parse`], [`FromJson::from_json`] and [`decode_value`],
//! is a cold tree adapter: the CLI assembles its flag object as a tree,
//! and the benchmark client reads through it. Everything else reads the
//! tape.
//!
//! ## Example
//!
//! ```
//! use gf_json::{pretty, Document, ParseLimits};
//!
//! let text = r#"{"domain": "dnn", "points": [1, 2.5e0]}"#;
//! let doc = Document::parse(text, ParseLimits::default())?;
//! assert!(doc.root().get("domain").is_some_and(|d| d.is_str("dnn")));
//! assert_eq!(doc.root().get("points").and_then(|p| p.items()).map(|i| i.len()), Some(2));
//! assert_eq!(pretty(r#"{"k":[1,2],"e":{}}"#), "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"e\": {}\n}\n");
//! # Ok::<(), gf_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod number;
mod parse;
mod wire;
mod write;

use std::borrow::Cow;
use std::fmt;

pub use number::write_f64;
pub use parse::{parse, parse_with, Document, Node, ParseLimits};
pub use wire::{
    decode_found, decode_found_or, decode_member, decode_member_or, expect_object, prefix_schema,
};
pub use write::{pretty, JsonWriter};

/// A JSON document: the result of parsing, and the input to writing.
///
/// Objects preserve insertion order (they are association lists, not hash
/// maps): serialized output is deterministic, and round-trips reproduce the
/// source layout. Duplicate keys are allowed by the parser — [`Value::get`]
/// returns the **last** occurrence, matching the common
/// last-value-wins convention.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. The writer rejects non-finite contents.
    Number(f64),
    /// A string.
    String(String),
    /// `[ ... ]`.
    Array(Vec<Value>),
    /// `{ ... }` as an insertion-ordered association list.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member of an object by key (last occurrence wins), or `None` for
    /// a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The element of an array by index, or `None` for a non-array or an
    /// out-of-range index.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The boolean content, or `None` for other variants.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric content, or `None` for other variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as an exact unsigned integer: `None` unless the
    /// number is integral, non-negative and at most 2⁵³ (beyond which `f64`
    /// cannot represent every integer and a silent rounding would corrupt
    /// counts).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The string content, or `None` for other variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The array items, or `None` for other variants.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in insertion order, or `None` for other variants.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// `true` for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes compactly (no interstitial whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::NonFinite`] when any contained number is NaN or
    /// infinite — JSON has no lexeme for them, and emitting `null` instead
    /// would silently break round-tripping.
    pub fn to_json_string(&self) -> Result<String, JsonError> {
        ToJson::to_json_string(self)
    }
}

/// `n` as an exact unsigned integer: integral, non-negative, at most 2⁵³.
/// In that range the cast truncates, so it round-trips only for integers.
#[inline]
fn exact_u64(n: f64) -> Option<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    ((0.0..=MAX_EXACT).contains(&n) && n as u64 as f64 == n).then_some(n as u64)
}

/// Errors raised while parsing, writing, or decoding JSON.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JsonError {
    /// The input violated the JSON grammar.
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Nesting exceeded the configured depth limit.
    DepthLimit {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The input exceeded the configured size limit.
    SizeLimit {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// A number was NaN or infinite (on write), or overflowed `f64` (on
    /// parse).
    NonFinite,
    /// A well-formed document did not match the expected schema
    /// ([`FromJson`] decoding).
    Schema {
        /// Which field or element was wrong.
        at: String,
        /// What was expected.
        message: String,
    },
}

impl JsonError {
    /// Constructs a [`JsonError::Schema`] error — the helper every
    /// `FromJson` impl leans on.
    pub fn schema(at: impl Into<String>, message: impl Into<String>) -> JsonError {
        JsonError::Schema {
            at: at.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::DepthLimit { limit } => {
                write!(f, "JSON nesting exceeds the depth limit of {limit}")
            }
            JsonError::SizeLimit { limit } => {
                write!(f, "JSON input exceeds the size limit of {limit} bytes")
            }
            JsonError::NonFinite => f.write_str("JSON cannot represent NaN or infinite numbers"),
            JsonError::Schema { at, message } if at.is_empty() => {
                write!(f, "JSON schema error: {message}")
            }
            JsonError::Schema { at, message } => {
                write!(f, "JSON schema error at {at}: {message}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Serialization to JSON text.
pub trait ToJson {
    /// Appends `self`'s JSON encoding to `w` — the type's one encoder.
    fn write_json(&self, w: &mut JsonWriter);

    /// Serializes `self` compactly.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] when any number is NaN or infinite.
    fn to_json_string(&self) -> Result<String, JsonError> {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// The encoding as a [`Value`] tree: written, then parsed back. Only
    /// the tree adapter needs it; everything else writes with
    /// [`ToJson::write_json`].
    ///
    /// # Panics
    ///
    /// When `self` holds a NaN or infinite number, which JSON cannot
    /// represent.
    fn to_json(&self) -> Value {
        let text = self
            .to_json_string()
            .unwrap_or_else(|e| panic!("cannot build a JSON value: {e}"));
        parse_with(&text, UNBOUNDED).expect("the writer emits valid JSON")
    }
}

/// Limits for text this crate's writer produced.
const UNBOUNDED: ParseLimits = ParseLimits {
    max_depth: usize::MAX,
    max_bytes: usize::MAX,
};

/// Deserialization from JSON, for what the service reads: requests, the
/// query envelope and the metrics snapshot. A type's one decoder is
/// [`FromJson::from_node`], which reads a [`Node`] of a [`Document`]'s
/// token tape, so decoding text builds no [`Value`] tree;
/// [`FromJson::from_json`] is a cold adapter for callers holding a tree.
pub trait FromJson: Sized {
    /// Decodes `Self` from a tape node.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Schema`] when the node does not match.
    fn from_node(node: Node<'_>) -> Result<Self, JsonError>;

    /// Decodes `Self` from a [`Value`] tree: the tree is written, taped
    /// and decoded with [`FromJson::from_node`], so both entries share one
    /// decoder.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Schema`] when the value does not match, and
    /// [`JsonError::NonFinite`] when it holds a NaN or infinite number.
    #[cold]
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        decode_value(value, Self::from_node)
    }
}

/// Runs `decode` on the root of `value`'s tape: the cold adapter from a
/// [`Value`] tree to a tape decoder.
///
/// # Errors
///
/// [`JsonError::NonFinite`] for a NaN or infinite number, else `decode`'s.
#[cold]
pub fn decode_value<T>(
    value: &Value,
    decode: impl FnOnce(Node<'_>) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    let text = value.to_json_string()?;
    decode(Document::parse(&text, UNBOUNDED)?.root())
}

impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.number(*self);
    }
}

impl FromJson for f64 {
    #[inline]
    fn from_node(value: Node<'_>) -> Result<f64, JsonError> {
        value
            .as_f64()
            .ok_or_else(|| JsonError::schema("number", "expected a number"))
    }
}

/// Integers travel as JSON numbers, i.e. as the `f64` they convert to.
impl ToJson for u64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.number(*self as f64);
    }
}

impl FromJson for u64 {
    #[inline]
    fn from_node(value: Node<'_>) -> Result<u64, JsonError> {
        value
            .as_u64()
            .ok_or_else(|| JsonError::schema("number", "expected a non-negative integer ≤ 2^53"))
    }
}

impl ToJson for usize {
    fn write_json(&self, w: &mut JsonWriter) {
        w.number(*self as f64);
    }
}

impl FromJson for usize {
    #[inline]
    fn from_node(value: Node<'_>) -> Result<usize, JsonError> {
        u64::from_node(value).map(|n| n as usize)
    }
}

impl ToJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    #[inline]
    fn from_node(value: Node<'_>) -> Result<bool, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::schema("bool", "expected true or false"))
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

/// A reference encodes as its referent.
impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl FromJson for String {
    fn from_node(value: Node<'_>) -> Result<String, JsonError> {
        value
            .as_str()
            .map(Cow::into_owned)
            .ok_or_else(|| JsonError::schema("string", "expected a string"))
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

/// An element's schema error names its index: `[1].domain`, which a
/// member prefix turns into `scenarios[1].domain`.
impl<T: FromJson> FromJson for Vec<T> {
    fn from_node(value: Node<'_>) -> Result<Vec<T>, JsonError> {
        let items = value
            .items()
            .ok_or_else(|| JsonError::schema("array", "expected an array"))?;
        let mut decoded = Vec::with_capacity(items.len());
        for (i, item) in items.enumerate() {
            let at = |e| wire::prefix_schema(&format!("[{i}]"), e);
            decoded.push(T::from_node(item).map_err(at)?);
        }
        Ok(decoded)
    }
}

/// `None` encodes as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(value) => value.write_json(w),
            None => w.null(),
        }
    }
}

/// `null` decodes as `None`.
impl<T: FromJson> FromJson for Option<T> {
    fn from_node(value: Node<'_>) -> Result<Option<T>, JsonError> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_node(value).map(Some)
        }
    }
}

/// A pair encodes as the two-element array `[a, b]`.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        self.0.write_json(w);
        self.1.write_json(w);
        w.end_array();
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_node(value: Node<'_>) -> Result<(A, B), JsonError> {
        let mut items = value.items().into_iter().flatten();
        match (items.next(), items.next(), items.next()) {
            (Some(a), Some(b), None) => Ok((A::from_node(a)?, B::from_node(b)?)),
            _ => Err(JsonError::schema("array", "expected a [low, high] pair")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        let doc = parse(r#"{"flag":true,"n":2.5,"s":"hi","list":[1,2],"nothing":null}"#).unwrap();
        assert_eq!(doc.get("flag").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(2.5));
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(
            doc.get("list")
                .and_then(|v| v.index(1))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(doc.get("nothing").is_some_and(Value::is_null));
        assert!(doc.get("missing").is_none());
        assert!(Value::Null.get("x").is_none());
        assert!(Value::Null.index(0).is_none());
        assert_eq!(doc.as_object().map(<[_]>::len), Some(5));
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last() {
        let doc = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(doc.get("k").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn u64_conversion_is_exact_or_nothing() {
        assert_eq!(Value::Number(5.0).as_u64(), Some(5));
        assert_eq!(Value::Number(0.0).as_u64(), Some(0));
        assert_eq!(Value::Number(2.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(
            Value::Number(9.007_199_254_740_992e15).as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Value::Number(1e16).as_u64(), None);
        assert_eq!(Value::Bool(true).as_u64(), None);
    }

    #[test]
    fn trait_round_trips_for_primitives() {
        assert_eq!(f64::from_json(&2.5f64.to_json()).unwrap(), 2.5);
        assert_eq!(u64::from_json(&7u64.to_json()).unwrap(), 7);
        assert!(bool::from_json(&true.to_json()).unwrap());
        assert_eq!(String::from_json(&"x".to_string().to_json()).unwrap(), "x");
        let v: Vec<f64> = vec![1.0, 2.0];
        assert_eq!(Vec::<f64>::from_json(&v.to_json()).unwrap(), v);
        assert!(f64::from_json(&Value::Null).is_err());
        assert!(u64::from_json(&Value::Number(0.5)).is_err());
        assert!(Vec::<f64>::from_json(&Value::Bool(true)).is_err());
        assert_eq!(usize::from_json(&3usize.to_json()).unwrap(), 3);
        assert_eq!(
            Option::<f64>::from_json(&None::<f64>.to_json()).unwrap(),
            None
        );
        assert_eq!(
            Option::<u64>::from_json(&Some(4u64).to_json()).unwrap(),
            Some(4)
        );
        let pair = (0.5f64, 9u64);
        assert_eq!(<(f64, u64)>::from_json(&pair.to_json()).unwrap(), pair);
        assert!(<(f64, f64)>::from_json(&parse("[1]").unwrap()).is_err());
    }

    #[test]
    fn error_display_names_the_problem() {
        assert!(JsonError::schema("point.volume", "expected an integer")
            .to_string()
            .contains("point.volume"));
        assert!(JsonError::DepthLimit { limit: 4 }.to_string().contains('4'));
        assert!(JsonError::SizeLimit { limit: 9 }.to_string().contains('9'));
        assert!(JsonError::NonFinite.to_string().contains("NaN"));
        assert!(JsonError::Syntax {
            offset: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("byte 3"));
    }

    #[test]
    fn element_errors_name_their_index() {
        let tape = |text| Document::parse(text, ParseLimits::default()).unwrap();
        let nested = tape(r#"{"items":[{"n":1},{"n":"x"}]}"#);
        struct N;
        impl FromJson for N {
            fn from_node(value: Node<'_>) -> Result<N, JsonError> {
                wire::decode_member::<u64>(value, "n").map(|_| N)
            }
        }
        let at = |error: JsonError| match error {
            JsonError::Schema { at, .. } => at,
            other => panic!("not a schema error: {other}"),
        };
        let error = wire::decode_member::<Vec<N>>(nested.root(), "items")
            .err()
            .unwrap();
        assert_eq!(
            at(error),
            "items[1].n",
            "the index survives the member prefix"
        );
        let flat = parse("[1, 2, true]").unwrap();
        assert_eq!(at(Vec::<u64>::from_json(&flat).err().unwrap()), "[2]");
        let error = wire::decode_member::<Vec<u64>>(tape(r#"{"xs":[1,"a"]}"#).root(), "xs");
        assert_eq!(at(error.err().unwrap()), "xs[1]");
        let grid = tape(r#"{"rows":[[1],[2,null]]}"#);
        let error = wire::decode_member::<Vec<Vec<u64>>>(grid.root(), "rows");
        assert_eq!(at(error.err().unwrap()), "rows[1][1]");
    }
}
