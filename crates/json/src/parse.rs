//! One validating pass from JSON text to a flat, borrowed token tape,
//! after simdjson's (Langdale & Lemire, "Parsing Gigabytes of JSON per
//! Second", 2019): one 16-byte node per value in document order. A number
//! holds its `f64`, converted once; a string is a slice of the text plus a
//! flag saying whether it holds escapes (decoded only when read); a
//! container stores the index just past its subtree, so skipping one is
//! O(1), and an object's children alternate key and value. The grammar is
//! strict RFC 8259; decoders read the tape through [`Node`], and [`parse`]
//! builds a [`Value`] from it.
//!
//! Numbers take exact fast paths only (Clinger, "How to Read Floating
//! Point Numbers Accurately", 1990): a lexeme of at most 15 digits and no
//! exponent is `m / 10^k` with `m` and `10^k` exact in `f64`, so the one
//! correctly rounded division gives the correctly rounded value; any
//! other lexeme goes through `str::parse::<f64>`.
//!
//! The depth limit bounds the open containers and the size limit the
//! scan, since the main caller is a server reading network bodies.

use std::borrow::Cow;

use crate::{JsonError, Value};

/// Resource bounds enforced while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum container nesting depth. A top-level scalar has depth 0; each
    /// enclosing array or object adds one.
    pub max_depth: usize,
    /// Maximum input length in bytes, checked before scanning starts. The
    /// tape holds 32-bit offsets, so it is at most `u32::MAX` in effect.
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
    Ok(Document::parse(text, limits)?.root().to_value())
}

/// One tape node: a string is `text[start..start + len]`; an array or
/// object's subtree ends before `end` and holds `len` items or members.
#[derive(Debug, Clone, Copy)]
enum Tok {
    Null,
    Bool(bool),
    Number(f64),
    Str { start: u32, len: u32, escaped: bool },
    Container { object: bool, end: u32, len: u32 },
}

const _: () = assert!(std::mem::size_of::<Tok>() <= 16);

/// A parsed JSON document: the input text and its token tape. A text of
/// `n` bytes makes at most `(n + 1) / 2` nodes.
#[derive(Debug)]
pub struct Document<'t> {
    text: &'t str,
    tape: Vec<Tok>,
}

impl<'t> Document<'t> {
    /// Lexes `text` into a tape in one validating pass.
    ///
    /// # Errors
    ///
    /// Same conditions, messages and byte offsets as [`parse_with`].
    pub fn parse(text: &'t str, limits: ParseLimits) -> Result<Document<'t>, JsonError> {
        let max_bytes = limits.max_bytes.min(u32::MAX as usize);
        if text.len() > max_bytes {
            return Err(JsonError::SizeLimit { limit: max_bytes });
        }
        // About one node per 8 bytes of a request body.
        let mut lexer = Lexer::new(text, limits.max_depth, text.len() / 8 + 1);
        lexer.skip_whitespace();
        lexer.document()?;
        lexer.skip_whitespace();
        if lexer.pos != text.len() {
            return Err(lexer.syntax("trailing data after the document"));
        }
        let tape = lexer.tape;
        Ok(Document { text, tape })
    }

    /// The top-level value.
    #[inline]
    pub fn root(&self) -> Node<'_> {
        Node { doc: self, at: 0 }
    }

    /// The number of tape nodes (an object's keys count).
    pub fn node_count(&self) -> usize {
        self.tape.len()
    }
}

/// A value inside a [`Document`]: a copyable view of one tape node, with
/// the accessors of [`Value`].
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    doc: &'a Document<'a>,
    at: usize,
}

impl<'a> Node<'a> {
    #[inline]
    fn tok(self) -> Tok {
        self.doc.tape[self.at]
    }

    /// The children of a container: `len` of them, each `width` nodes
    /// wide at its head (2 for an object's key and value).
    #[inline]
    fn children(self, len: u32, width: usize) -> impl ExactSizeIterator<Item = Node<'a>> {
        let mut at = self.at + 1;
        (0..len).map(move |_| {
            let child = Node { doc: self.doc, at };
            let value = Node {
                at: at + width - 1,
                ..child
            };
            at = match value.tok() {
                Tok::Container { end, .. } => end as usize,
                _ => value.at + 1,
            };
            child
        })
    }

    /// `true` for `null`.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self.tok(), Tok::Null)
    }

    /// The boolean content, or `None` for other kinds.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self.tok() {
            Tok::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The numeric content, or `None` for other kinds.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self.tok() {
            Tok::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The content as an exact integer, as [`Value::as_u64`] reads it.
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        self.as_f64().and_then(crate::exact_u64)
    }

    /// The string content, borrowed unless it holds escapes, or `None`
    /// for other kinds.
    #[inline]
    pub fn as_str(self) -> Option<Cow<'a, str>> {
        let Tok::Str {
            start,
            len,
            escaped,
        } = self.tok()
        else {
            return None;
        };
        let raw = &self.doc.text[start as usize..(start + len) as usize];
        Some(if escaped {
            Cow::Owned(unescape(raw))
        } else {
            Cow::Borrowed(raw)
        })
    }

    /// The array items in order, or `None` for other kinds.
    #[inline]
    pub fn items(self) -> Option<impl ExactSizeIterator<Item = Node<'a>>> {
        let Tok::Container {
            object: false, len, ..
        } = self.tok()
        else {
            return None;
        };
        Some(self.children(len, 1))
    }

    /// `true` when this is the string `s` (escapes decoded).
    #[inline(always)]
    pub fn is_str(self, s: &str) -> bool {
        match self.tok() {
            Tok::Str {
                start,
                len,
                escaped: false,
            } => {
                let raw = &self.doc.text.as_bytes()[start as usize..];
                len as usize == s.len() && raw.starts_with(s.as_bytes())
            }
            _ => self.as_str().is_some_and(|text| text == s),
        }
    }

    /// The object members as (key, value) in document order, duplicates
    /// included, or `None` for other kinds. A key is a string node.
    #[inline]
    pub fn members(self) -> Option<impl ExactSizeIterator<Item = (Node<'a>, Node<'a>)>> {
        let Tok::Container {
            object: true, len, ..
        } = self.tok()
        else {
            return None;
        };
        Some(self.children(len, 2).map(|key| {
            (
                key,
                Node {
                    at: key.at + 1,
                    ..key
                },
            )
        }))
    }

    /// The member of an object by key (the last occurrence wins; escaped
    /// keys compare unescaped), or `None` for a missing key or a
    /// non-object.
    pub fn get(self, key: &str) -> Option<Node<'a>> {
        let found = self.members()?.filter(|(k, _)| k.is_str(key)).last();
        found.map(|(_, value)| value)
    }

    /// This node's subtree as a [`Value`] tree.
    pub(crate) fn to_value(self) -> Value {
        match self.tok() {
            Tok::Null => Value::Null,
            Tok::Bool(b) => Value::Bool(b),
            Tok::Number(n) => Value::Number(n),
            Tok::Str { .. } => Value::String(self.as_str().unwrap_or_default().into_owned()),
            Tok::Container {
                object: false, len, ..
            } => Value::Array(self.children(len, 1).map(Node::to_value).collect()),
            Tok::Container { .. } => Value::Object(
                (self.members().into_iter().flatten())
                    .map(|(key, value)| (key.as_str().unwrap_or_default().into(), value.to_value()))
                    .collect(),
            ),
        }
    }
}

/// The decoded text of a string whose escapes the lexer validated.
fn unescape(raw: &str) -> String {
    let mut lexer = Lexer::new(raw, 0, 0);
    let mut out = String::with_capacity(raw.len());
    while let Some(run) = raw[lexer.pos..].find('\\') {
        out.push_str(&raw[lexer.pos..lexer.pos + run]);
        lexer.pos += run + 1;
        out.push(lexer.escape().expect("the lexer validated every escape"));
    }
    out.push_str(&raw[lexer.pos..]);
    out
}

/// `10^k` for the exact fast path; each is exact in `f64`.
const EXACT_POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
    tape: Vec<Tok>,
}

impl Lexer<'_> {
    fn new(text: &str, max_depth: usize, capacity: usize) -> Lexer<'_> {
        let tape = Vec::with_capacity(capacity);
        Lexer {
            bytes: text.as_bytes(),
            pos: 0,
            max_depth,
            tape,
        }
    }

    #[cold]
    fn syntax(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected '{}'", byte as char)))
        }
    }

    /// Lexes one value and everything nested in it. The open containers
    /// form a stack inside the tape: until it closes, a container node's
    /// `end` holds the index of the container it is in (`ROOT` for none),
    /// and its `len` that container's count so far.
    fn document(&mut self) -> Result<(), JsonError> {
        const ROOT: u32 = u32::MAX;
        // The innermost open container: its node, whether it is an object,
        // and its members so far.
        let (mut open, mut object, mut len, mut depth) = (ROOT, false, 0, 0);
        loop {
            // A value starts here, at nesting depth `depth`.
            if depth > self.max_depth {
                let limit = self.max_depth;
                return Err(JsonError::DepthLimit { limit });
            }
            let at = self.tape.len() as u32;
            let tok = match self.peek() {
                Some(byte @ (b'{' | b'[')) => Tok::Container {
                    object: byte == b'{',
                    end: open,
                    len,
                },
                Some(b'"') => self.string()?,
                Some(b't') => self.literal("true", Tok::Bool(true))?,
                Some(b'f') => self.literal("false", Tok::Bool(false))?,
                Some(b'n') => self.literal("null", Tok::Null)?,
                Some(b'-' | b'0'..=b'9') => Tok::Number(self.number()?),
                Some(other) => return Err(self.syntax(format!("unexpected byte 0x{other:02x}"))),
                None => return Err(self.syntax("unexpected end of input")),
            };
            self.tape.push(tok);
            let mut closing = false;
            if let Tok::Container { object: opened, .. } = tok {
                self.pos += 1;
                (open, object, len, depth) = (at, opened, 0, depth + 1);
                self.skip_whitespace();
                closing = self.peek() == Some(if object { b'}' } else { b']' });
                if !closing {
                    len += 1;
                    self.member(object)?;
                    continue;
                }
            }
            // The value ended: close containers until one has a next member.
            while open != ROOT {
                if !closing {
                    self.skip_whitespace();
                    match (self.peek(), object) {
                        (Some(b','), _) => {
                            self.pos += 1;
                            len += 1;
                            self.member(object)?;
                            break;
                        }
                        (Some(b'}'), true) | (Some(b']'), false) => {}
                        (_, true) => return Err(self.syntax("expected ',' or '}' in object")),
                        (_, false) => return Err(self.syntax("expected ',' or ']' in array")),
                    }
                }
                closing = false;
                self.pos += 1;
                let end = self.tape.len() as u32;
                let node = &mut self.tape[open as usize];
                let Tok::Container {
                    end: parent,
                    len: outer,
                    ..
                } = *node
                else {
                    unreachable!("only containers are open");
                };
                *node = Tok::Container { object, end, len };
                (open, len, depth) = (parent, outer, depth - 1);
                object = matches!(
                    self.tape.get(open as usize),
                    Some(Tok::Container { object: true, .. })
                );
            }
            if open == ROOT {
                return Ok(());
            }
        }
    }

    /// Starts a container's next member: in an object, its key and colon.
    #[inline(always)]
    fn member(&mut self, object: bool) -> Result<(), JsonError> {
        self.skip_whitespace();
        if object {
            let key = self.string()?;
            self.tape.push(key);
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
        }
        Ok(())
    }

    #[inline]
    fn literal(&mut self, literal: &str, tok: Tok) -> Result<Tok, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(tok)
        } else {
            Err(self.syntax(format!("expected '{literal}'")))
        }
    }

    /// Skips to the next quote, backslash or control byte, eight bytes at
    /// a time: a byte is flagged when it XORs to zero with `"` or `\` or
    /// is below 0x20. A borrow can flag only bytes above a flagged one, so
    /// the lowest flag is exact.
    #[inline(always)]
    fn skip_string_run(&mut self) {
        const ONES: u64 = 0x0101_0101_0101_0101;
        let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x;
        while let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
            let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
            let quote = below(x ^ (ONES * 0x22), 1);
            let backslash = below(x ^ (ONES * 0x5c), 1);
            let stop = (quote | backslash | below(x, 0x20)) & (ONES * 0x80);
            if stop != 0 {
                self.pos += (stop.trailing_zeros() / 8) as usize;
                return;
            }
            self.pos += 8;
        }
        while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn string(&mut self) -> Result<Tok, JsonError> {
        self.expect(b'"')?;
        let (start, mut escaped) = (self.pos, false);
        loop {
            self.skip_string_run();
            match self.peek() {
                Some(b'"') => {
                    let len = (self.pos - start) as u32;
                    self.pos += 1;
                    let start = start as u32;
                    return Ok(Tok::Str {
                        start,
                        len,
                        escaped,
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape()?;
                    escaped = true;
                }
                Some(_) => return Err(self.syntax("raw control character in string")),
                None => return Err(self.syntax("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    #[inline(never)]
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(byte) = self.peek() else {
            return Err(self.syntax("unterminated escape"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                if (0xd800..0xdc00).contains(&unit) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.syntax("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.syntax("unpaired high surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.syntax("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    char::from_u32(code).ok_or_else(|| self.syntax("invalid surrogate pair"))?
                } else if (0xdc00..0xe000).contains(&unit) {
                    return Err(self.syntax("unpaired low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.syntax("invalid \\u escape"))?
                }
            }
            other => {
                return Err(self.syntax(format!("invalid escape '\\{}'", other as char)));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
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

    /// Skips a run of digits, appending them to `mantissa` (which wraps
    /// past 19 digits; the fast path reads it only up to 15). Returns the
    /// run's length.
    #[inline]
    fn digits(&mut self, mantissa: &mut u64) -> usize {
        let start = self.pos;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            *mantissa = mantissa
                .wrapping_mul(10)
                .wrapping_add(u64::from(digit - b'0'));
            self.pos += 1;
        }
        self.pos - start
    }

    #[inline(always)]
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let mut mantissa = 0u64;
        // Integer part: a single 0, or a nonzero digit followed by digits.
        let mut digits = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                1
            }
            Some(b'1'..=b'9') => self.digits(&mut mantissa),
            _ => return Err(self.syntax("expected a digit")),
        };
        let mut scale = 0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.syntax("expected a digit after '.'"));
            }
            scale = self.digits(&mut mantissa);
            digits += scale;
        }
        let mut exact = digits <= 15;
        if matches!(self.peek(), Some(b'e' | b'E')) {
            exact = false;
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
        if exact {
            // `mantissa < 10^15 < 2^53` and `10^scale` are exact, so the
            // one rounding of the division is the correct rounding.
            let magnitude = match scale {
                0 => mantissa as f64,
                _ => mantissa as f64 / EXACT_POW10[scale],
            };
            return Ok(if negative { -magnitude } else { magnitude });
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
        Ok(number)
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
        let Value::Object(members) = &doc else {
            panic!("expected an object, got {doc:?}");
        };
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
