//! Recursive-descent JSON parser with depth and size limits.
//!
//! Strict RFC 8259 grammar: one top-level value, no trailing commas, no
//! comments, no NaN/Infinity literals, `\uXXXX` escapes with surrogate-pair
//! decoding. The limits exist because the parser's primary caller is a
//! long-lived server reading request bodies from the network: depth bounds
//! the recursion (stack), size bounds the scan (memory/time).

use crate::{JsonError, Value};

/// Resource bounds enforced while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum container nesting depth. A top-level scalar has depth 0; each
    /// enclosing array or object adds one.
    pub max_depth: usize,
    /// Maximum input length in bytes, checked before scanning starts.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    /// 64 nesting levels and 16 MiB of input — far beyond any legitimate
    /// request this workspace produces, small enough to stop abuse.
    fn default() -> Self {
        ParseLimits {
            max_depth: 64,
            max_bytes: 16 << 20,
        }
    }
}

/// Parses one JSON document with the [default limits](ParseLimits::default).
///
/// # Errors
///
/// Returns [`JsonError::Syntax`] (with a byte offset) for grammar
/// violations, [`JsonError::DepthLimit`] / [`JsonError::SizeLimit`] when a
/// bound is exceeded, and [`JsonError::NonFinite`] for numbers that
/// overflow `f64`.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with(text, ParseLimits::default())
}

/// [`parse`] with caller-chosen limits.
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_with(text: &str, limits: ParseLimits) -> Result<Value, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError::SizeLimit {
            limit: limits.max_bytes,
        });
    }
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        limits,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.syntax("trailing data after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    limits: ParseLimits,
}

impl<'a> Parser<'a> {
    fn syntax(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > self.limits.max_depth {
            return Err(JsonError::DepthLimit {
                limit: self.limits.max_depth,
            });
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.syntax(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.syntax(format!("expected '{literal}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.syntax("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.syntax("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Take the run up to the next quote, backslash or control byte
            // in one piece. Those bytes are ASCII, so the run ends on a
            // character boundary.
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            let run = &self.text[start..self.pos];
            if out.is_empty() {
                // A string without escapes costs one exact-size allocation.
                out = run.to_owned();
            } else {
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.parse_escape(&mut out)?;
                }
                Some(_) => return Err(self.syntax("raw control character in string")),
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(byte) = self.peek() else {
            return Err(self.syntax("unterminated escape"));
        };
        self.pos += 1;
        match byte {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.parse_hex4()?;
                let ch = if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.syntax("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.syntax("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    let low = self.parse_hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.syntax("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    char::from_u32(code).ok_or_else(|| self.syntax("invalid surrogate pair"))?
                } else if (0xdc00..0xe000).contains(&unit) {
                    return Err(self.syntax("unpaired low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.syntax("invalid \\u escape"))?
                };
                out.push(ch);
            }
            other => {
                return Err(self.syntax(format!("invalid escape '\\{}'", other as char)));
            }
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut unit = 0u32;
        for _ in 0..4 {
            let Some(byte) = self.peek() else {
                return Err(self.syntax("truncated \\u escape"));
            };
            let digit = match byte {
                b'0'..=b'9' => u32::from(byte - b'0'),
                b'a'..=b'f' => u32::from(byte - b'a') + 10,
                b'A'..=b'F' => u32::from(byte - b'A') + 10,
                _ => return Err(self.syntax("non-hex digit in \\u escape")),
            };
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.syntax("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.syntax("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.syntax("expected a digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number lexemes are ASCII");
        let number: f64 = text
            .parse()
            .map_err(|_| self.syntax(format!("unparseable number '{text}'")))?;
        if !number.is_finite() {
            // "1e999" is grammatical JSON but has no f64 value; clamping to
            // infinity would poison downstream arithmetic silently.
            return Err(JsonError::NonFinite);
        }
        Ok(Value::Number(number))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("0").unwrap(), Value::Number(0.0));
        assert_eq!(
            parse("-0").unwrap().as_f64().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(parse("2.5e3").unwrap(), Value::Number(2500.0));
        assert_eq!(parse("1E-2").unwrap(), Value::Number(0.01));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
        assert_eq!(parse("  42  ").unwrap(), Value::Number(42.0));
    }

    #[test]
    fn parses_containers_and_preserves_order() {
        let doc = parse(r#"{"b": [1, {"c": null}], "a": "x", "b": 2}"#).unwrap();
        let members = doc.as_object().unwrap();
        assert_eq!(members.len(), 3);
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        // Duplicate key: get() returns the last occurrence.
        assert_eq!(doc.get("b").and_then(Value::as_f64), Some(2.0));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(
            parse("[1, [2, [3]]]")
                .unwrap()
                .index(1)
                .and_then(|v| v.index(1))
                .and_then(|v| v.index(0))
                .and_then(Value::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn decodes_escapes_and_unicode() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap(),
            Value::String("a\"b\\c/d\u{8}\u{c}\n\r\t".into())
        );
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::String("A".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::String("\u{1f600}".into())
        );
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(parse("\"héllo→\"").unwrap(), Value::String("héllo→".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[",
            "]",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "[1 2]",
            "tru",
            "nul",
            "truex",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "-",
            "NaN",
            "Infinity",
            "-Infinity",
            "1 2",
            "[1],",
            "\"a\"x",
            "{\"a\":1,}",
            "nan",
            "\u{1}",
            "\"\u{1}\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reports_offsets() {
        let err = parse("[1, x]").unwrap_err();
        match err {
            JsonError::Syntax { offset, .. } => assert_eq!(offset, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn enforces_the_depth_limit() {
        let limits = ParseLimits {
            max_depth: 8,
            ..ParseLimits::default()
        };
        let ok = format!("{}0{}", "[".repeat(8), "]".repeat(8));
        assert!(parse_with(&ok, limits).is_ok());
        let deep = format!("{}0{}", "[".repeat(9), "]".repeat(9));
        assert_eq!(
            parse_with(&deep, limits).unwrap_err(),
            JsonError::DepthLimit { limit: 8 }
        );
        // Objects count too.
        let deep = format!("{}1{}", "{\"k\":".repeat(9), "}".repeat(9));
        assert_eq!(
            parse_with(&deep, limits).unwrap_err(),
            JsonError::DepthLimit { limit: 8 }
        );
        // The default limit stops pathological nesting without recursing
        // anywhere near the real stack bound.
        let hostile = "[".repeat(100_000);
        assert_eq!(
            parse(&hostile).unwrap_err(),
            JsonError::DepthLimit {
                limit: ParseLimits::default().max_depth
            }
        );
    }

    #[test]
    fn enforces_the_size_limit() {
        let limits = ParseLimits {
            max_bytes: 10,
            ..ParseLimits::default()
        };
        assert!(parse_with("[1, 2, 3]", limits).is_ok());
        assert_eq!(
            parse_with("[1, 2, 3, 4]", limits).unwrap_err(),
            JsonError::SizeLimit { limit: 10 }
        );
    }

    #[test]
    fn rejects_numbers_that_overflow_f64() {
        assert_eq!(parse("1e999").unwrap_err(), JsonError::NonFinite);
        assert_eq!(parse("-1e999").unwrap_err(), JsonError::NonFinite);
        // Subnormal underflow is representable (rounds to 0 or a subnormal).
        assert!(parse("1e-999").is_ok());
    }
}
