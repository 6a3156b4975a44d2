//! JSON serialization with round-tripping `f64` output.
//!
//! [`JsonWriter`] appends compact JSON straight into a byte buffer; every
//! [`ToJson`] impl writes through it, [`Value`] included. The buffer runs
//! past the text into initialized slack: numbers print their digits there
//! with fixed-size stores, and the text's end moves over them. Keys and
//! strings copy their UTF-8 bytes (a key is written inline at its call
//! site, where a literal's escape check folds away), so the text is valid
//! UTF-8 by construction: [`finish`](JsonWriter::finish) cuts the slack
//! off and checks the text once per document. Pretty printing is
//! [`pretty`], a second pass over the compact text for human-facing
//! artifacts.
//!
//! Numbers use the shortest round-trip formatting of
//! [`write_f64`](crate::write_f64), which
//! matches Rust's `{}` on `f64` byte for byte and guarantees
//! `text.parse::<f64>()` recovers the exact bits that were written — the
//! property the serving tests golden-match on. Non-finite numbers are an
//! error: JSON has no lexeme for them, and the usual fallback (emitting
//! `null`) silently breaks round-tripping.

use crate::number::{print, WINDOW};
use crate::{JsonError, ToJson, Value};

/// The slack [`JsonWriter`] adds to its buffer when it runs out: enough
/// for a few dozen numbers between growths.
const SLACK: usize = 1024;

/// Slots of [`JsonWriter`]'s number memo; a power of two.
const NUMBER_SLOTS: usize = 32;

/// Where the writer's text first holds a printed number: the number's
/// bits and its byte range. An empty slot holds NaN bits, which no
/// printed (finite) number has.
#[derive(Debug, Clone, Copy)]
struct Printed {
    bits: u64,
    start: u32,
    len: u32,
}

impl Default for Printed {
    fn default() -> Printed {
        Printed {
            bits: f64::NAN.to_bits(),
            start: 0,
            len: 0,
        }
    }
}

/// A one-pass compact JSON encoder over a growing byte buffer.
///
/// Containers open and close with [`begin_object`](JsonWriter::begin_object)
/// / [`end_object`](JsonWriter::end_object) and their array twins; the
/// writer places the commas. A non-finite number is written as `null` to
/// keep the text well formed and recorded as [`JsonError::NonFinite`],
/// which [`finish`](JsonWriter::finish) returns.
///
/// The buffer runs past the text: its tail is initialized slack, so a
/// number is laid out there with whole fixed-size stores and then taken
/// in by moving the text's end, with nothing to cut back.
///
/// Result bodies repeat numbers (a grid row's cells at equal application
/// counts, a sweep's held coordinates), so [`number`](JsonWriter::number)
/// keeps a small direct-mapped table from a number's bits to the bytes
/// where this writer first printed it, and copies those bytes on a hit.
/// The copy is exact: the text depends only on the bits, and the writer
/// only appends, so printed bytes never change.
///
/// ```
/// use gf_json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.member("ratio", &0.5);
/// w.key("cells");
/// w.begin_array();
/// w.number(1.0);
/// w.number(2.5);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish()?, r#"{"ratio":0.5,"cells":[1,2.5]}"#);
/// # Ok::<(), gf_json::JsonError>(())
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    /// The text, `out[..end]`, and then slack left by earlier stores.
    out: Vec<u8>,
    end: usize,
    /// Whether the next value or key needs a leading comma.
    comma: bool,
    non_finite: bool,
    /// The next `begin_object` splices its members into the open object.
    splice_next: bool,
    /// Open object depth, and one bit per depth whose braces were spliced.
    depth: u32,
    spliced: u64,
    printed: [Printed; NUMBER_SLOTS],
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer that appends to `prefix`, as if at the start of a document
    /// (no comma precedes the first value).
    pub fn appending(prefix: String) -> JsonWriter {
        let out = prefix.into_bytes();
        JsonWriter {
            end: out.len(),
            out,
            ..JsonWriter::default()
        }
    }

    /// The text written so far, or [`JsonError::NonFinite`] if any number
    /// was NaN or infinite.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] as above.
    pub fn finish(mut self) -> Result<String, JsonError> {
        if self.non_finite {
            Err(JsonError::NonFinite)
        } else {
            self.out.truncate(self.end);
            // The one UTF-8 check of the document.
            Ok(String::from_utf8(self.out).expect("the writer appends only UTF-8"))
        }
    }

    /// The `n` bytes past the text's end, grown into first if the buffer
    /// holds fewer.
    #[inline(always)]
    fn room(&mut self, n: usize) -> &mut [u8] {
        if self.out.len() - self.end < n {
            self.grow(n);
        }
        &mut self.out[self.end..self.end + n]
    }

    /// Makes `n` bytes past the text, and a run of slack after them. The
    /// capacity grows to powers of two, and only the bytes about to be
    /// written are touched: off-size blocks raised the server's peak RSS
    /// by a tenth.
    #[cold]
    fn grow(&mut self, n: usize) {
        let len = self.end + n + SLACK;
        if len > self.out.capacity() {
            self.out
                .reserve_exact(len.next_power_of_two() - self.out.len());
        }
        self.out.resize(len, 0);
    }

    #[inline(always)]
    fn push(&mut self, b: u8) {
        self.room(1)[0] = b;
        self.end += 1;
    }

    #[inline(always)]
    fn append(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    #[inline]
    fn separate(&mut self) {
        if self.comma {
            self.push(b',');
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        // Splices are tracked for the first 64 levels; deeper ones keep
        // their braces, so the text stays well formed.
        if std::mem::take(&mut self.splice_next) && self.depth < 64 {
            self.spliced |= 1 << self.depth;
        } else {
            self.separate();
            self.push(b'{');
            self.comma = false;
        }
        self.depth += 1;
    }

    /// Closes the innermost open object (which a fragment writer may have
    /// left to an earlier writer).
    pub fn end_object(&mut self) {
        self.depth = self.depth.saturating_sub(1);
        let bit = 1u64.checked_shl(self.depth).unwrap_or(0);
        if self.spliced & bit != 0 {
            // A spliced object's members continue the enclosing object.
            self.spliced &= !bit;
        } else {
            self.push(b'}');
            self.comma = true;
        }
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.separate();
        self.push(b'[');
        self.comma = false;
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.push(b']');
        self.comma = true;
    }

    /// Writes an object key; the member's value follows.
    ///
    /// Always inlined: keys are mostly string literals, and at the call
    /// site the escape scan folds away and the copy becomes a few stores.
    #[inline(always)]
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.write_string(key, b":");
        self.comma = false;
    }

    /// Writes `key` and then `value`.
    pub fn member<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Writes the members of `value`, which must encode as an object,
    /// into the object being written — the `[flatten]` of
    /// [`wire_struct!`](crate::wire_struct).
    pub fn splice<T: ToJson + ?Sized>(&mut self, value: &T) {
        self.splice_next = true;
        value.write_json(self);
        debug_assert!(!self.splice_next, "spliced values encode to objects");
    }

    /// Writes a number (see [`write_f64`](crate::write_f64)).
    pub fn number(&mut self, n: f64) {
        self.separate();
        if n.is_finite() {
            let bits = n.to_bits();
            // Fibonacci hashing: the top bits of the product mix every bit.
            let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> (u64::BITS - NUMBER_SLOTS.trailing_zeros())) as usize;
            let seen = self.printed[slot];
            let start = self.end;
            if seen.bits == bits {
                let (from, len) = (seen.start as usize, seen.len as usize);
                // Nearly every text fits one fixed-size copy, whose tail
                // lands in the slack.
                if len <= 32 {
                    self.room(32);
                    self.out.copy_within(from..from + 32, start);
                } else {
                    self.room(len);
                    self.out.copy_within(from..from + len, start);
                }
                self.end += len;
            } else {
                self.room(WINDOW);
                self.end += print(&mut self.out, start, n);
                // Bodies past 4 GiB print their later numbers afresh.
                if let Ok(start) = u32::try_from(start) {
                    self.printed[slot] = Printed {
                        bits,
                        start,
                        len: (self.end - start as usize) as u32,
                    };
                }
            }
        } else {
            self.non_finite = true;
            self.append(b"null");
        }
        self.comma = true;
    }

    /// Writes a string, escaped.
    pub fn string(&mut self, s: &str) {
        self.separate();
        self.write_string(s, b"");
        self.comma = true;
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.separate();
        self.append(if b { b"true" } else { b"false" });
        self.comma = true;
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        self.append(b"null");
        self.comma = true;
    }

    /// Appends `s` quoted, escaping `"`, `\` and control bytes (every
    /// other byte, multi-byte characters included, is copied as is), and
    /// then `after`.
    #[inline(always)]
    fn write_string(&mut self, s: &str, after: &[u8]) {
        let bytes = s.as_bytes();
        if bytes.iter().any(|&b| b == b'"' || b == b'\\' || b < 0x20) {
            self.write_escaped(bytes);
            self.append(after);
        } else {
            let len = bytes.len();
            let room = self.room(len + 2 + after.len());
            room[0] = b'"';
            room[1..=len].copy_from_slice(bytes);
            room[len + 1] = b'"';
            room[len + 2..].copy_from_slice(after);
            self.end += len + 2 + after.len();
        }
    }

    /// [`write_string`](JsonWriter::write_string)'s rare case: copies the
    /// runs between escapes whole.
    #[cold]
    fn write_escaped(&mut self, bytes: &[u8]) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.push(b'"');
        let mut copied = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let unicode;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                0x08 => b"\\b",
                0x0c => b"\\f",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..0x20 => {
                    let (high, low) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]);
                    unicode = [b'\\', b'u', b'0', b'0', high, low];
                    &unicode
                }
                _ => continue,
            };
            self.append(&bytes[copied..i]);
            self.append(escape);
            copied = i + 1;
        }
        self.append(&bytes[copied..]);
        self.push(b'"');
    }
}

impl ToJson for Value {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Number(n) => w.number(*n),
            Value::String(s) => w.string(s),
            Value::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write_json(w);
                }
                w.end_array();
            }
            Value::Object(members) => {
                w.begin_object();
                for (key, member) in members {
                    w.member(key, member);
                }
                w.end_object();
            }
        }
    }
}

/// Re-indents compact JSON text, as [`JsonWriter`] writes it, for
/// human-facing artifacts (the committed `BENCH_eval.json` baseline, the
/// CLI's `--json`): two spaces per level, `": "` after a key, empty
/// containers kept as `{}` and `[]`, and a final newline. Strings and
/// numbers are copied as written, so the result parses to the same
/// document and differs from `compact` only in whitespace.
pub fn pretty(compact: &str) -> String {
    let bytes = compact.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() + bytes.len() / 2);
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        i += 1;
        if in_string {
            (in_string, escaped) = (escaped || b != b'"', !escaped && b == b'\\');
            out.push(b);
            continue;
        }
        match b {
            b'{' | b'[' if matches!(bytes.get(i), Some(b'}' | b']')) => {
                out.extend_from_slice(&bytes[i - 1..=i]);
                i += 1;
            }
            b'{' | b'[' => {
                depth += 1;
                out.push(b);
                newline_indent(&mut out, depth);
            }
            b'}' | b']' => {
                depth = usize::saturating_sub(depth, 1);
                newline_indent(&mut out, depth);
                out.push(b);
            }
            b',' => {
                out.push(b);
                newline_indent(&mut out, depth);
            }
            b':' => out.extend_from_slice(b": "),
            _ => {
                in_string = b == b'"';
                out.push(b);
            }
        }
    }
    out.push(b'\n');
    String::from_utf8(out).expect("only ASCII is inserted, between tokens")
}

fn newline_indent(out: &mut Vec<u8>, indent: usize) {
    out.push(b'\n');
    out.resize(out.len() + 2 * indent, b' ');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_output_matches_expectations() {
        let doc = parse(r#"{"a": 1.0, "b": [null, false], "c": "x\"y"}"#).unwrap();
        assert_eq!(
            doc.to_json_string().unwrap(),
            r#"{"a":1,"b":[null,false],"c":"x\"y"}"#
        );
        assert_eq!(Value::Object(vec![]).to_json_string().unwrap(), "{}");
        assert_eq!(Value::Array(vec![]).to_json_string().unwrap(), "[]");
    }

    #[test]
    fn pretty_output_is_indented_and_parseable() {
        let compact = r#"{"k":[1,2],"m":[],"s":"a,b:{[\"]}","o":{"n":null}}"#;
        let pretty = pretty(compact);
        assert_eq!(
            pretty,
            "{\n  \"k\": [\n    1,\n    2\n  ],\n  \"m\": [],\n  \"s\": \"a,b:{[\\\"]}\",\n  \"o\": {\n    \"n\": null\n  }\n}\n"
        );
        assert_eq!(parse(&pretty).unwrap(), parse(compact).unwrap());
        assert_eq!(super::pretty("7"), "7\n");
    }

    #[test]
    fn strings_escape_controls_and_round_trip() {
        let original =
            Value::String("tab\t nl\n quote\" back\\ bell\u{7} nul\u{0} é→\u{1f600}".into());
        let text = original.to_json_string().unwrap();
        assert!(text.contains("\\u0007") && text.contains("\\u0000"));
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                Value::Number(bad).to_json_string().unwrap_err(),
                JsonError::NonFinite
            );
            let mut w = JsonWriter::new();
            w.begin_array();
            w.number(bad);
            w.end_array();
            assert_eq!(w.finish().unwrap_err(), JsonError::NonFinite);
        }
    }

    #[test]
    fn spliced_objects_continue_the_enclosing_object() {
        let inner = parse(r#"{"b":2,"c":3}"#).unwrap();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.member("a", &1.0);
        w.splice(&inner);
        w.splice(&Value::Object(Vec::new()));
        w.member("d", &parse(r#"{"e":4}"#).unwrap());
        w.end_object();
        assert_eq!(w.finish().unwrap(), r#"{"a":1,"b":2,"c":3,"d":{"e":4}}"#);

        let mut w = JsonWriter::new();
        w.begin_object();
        w.splice(&inner);
        w.end_object();
        assert_eq!(w.finish().unwrap(), r#"{"b":2,"c":3}"#);
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            1e-9,
            1.000000001,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // smallest subnormal
            1234567890123456.7,
        ] {
            let text = Value::Number(n).to_json_string().unwrap();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n} -> {text}");
        }
    }
}
