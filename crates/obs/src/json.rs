//! A deliberately small JSON reader/writer — just enough for the schema-v1
//! JSONL trace format (flat objects of scalars) and the fleet checkpoint,
//! kept in-tree so the workspace stays zero-dependency.
//!
//! There is one grammar, [`Reader`]: a borrowed pull tokenizer that
//! accepts full JSON (nested arrays/objects included, to a fixed depth).
//! It has two consumers — [`parse`], which builds a [`Json`] tree so
//! `trace-report` can reject malformed lines with a real error rather
//! than a partial match, and typed decoders that stream from it without
//! a tree (`rpas-core`'s checkpoint loader). The writer side is
//! [`escape_into`], the number writers [`write_f64`] / [`write_u64`] and
//! the line writer in `crate::event` (`open_line`, `write_member`,
//! `close_line`, driven by an event or a tape record); all append to a
//! caller-owned buffer.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

mod number;

pub use number::{f64_string, write_f64, write_u64};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; trace integers fit in 2^53 safely).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with deterministic key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Append `s` to `out`, escaped for inclusion between JSON double
/// quotes. Every escaped character is ASCII, so the runs between them are
/// copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    // One predicate per byte to find the next escape: keys, names and
    // labels rarely hold one, so most strings are a single copy.
    while let Some(at) = bytes[run..].iter().position(|&b| b < 0x20 || b == b'"' || b == b'\\') {
        let i = run + at;
        out.push_str(&s[run..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Escape a string for inclusion between JSON double quotes.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Parse one JSON document, requiring it to consume the whole input.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut r = Reader::new(input);
    let v = tree(&mut r)?;
    r.end()?;
    Ok(v)
}

/// The value at `r` as a tree; recursion is bounded by the reader's
/// nesting bound. A repeated object key keeps its last value.
fn tree(r: &mut Reader<'_>) -> Result<Json, String> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.null()?;
            Json::Null
        }
        Kind::Bool => Json::Bool(r.bool()?),
        Kind::Num => Json::Num(r.number()?),
        Kind::Str => Json::Str(r.string()?.into_owned()),
        Kind::Arr => {
            let mut items = Vec::new();
            r.begin_array()?;
            while r.next_element()? {
                items.push(tree(r)?);
            }
            Json::Arr(items)
        }
        Kind::Obj => {
            let mut map = BTreeMap::new();
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                map.insert(key.into_owned(), tree(r)?);
            }
            Json::Obj(map)
        }
    })
}

/// Containers may nest this deep; one more is an `Err`, not a stack
/// overflow (recursive consumers — [`parse`], [`Reader::skip_value`] —
/// are bounded by it).
const MAX_DEPTH: usize = 128;

/// What kind of value comes next; see [`Reader::peek`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull tokenizer over borrowed JSON text: the caller asks for what
/// its type expects next (`begin_object`, `next_key`, `string`, ...) and
/// gets `Err` if the text holds something else. Nothing is allocated
/// except for a string that contains an escape.
///
/// The reader is a `Copy` cursor (source + offset), so a caller can look
/// ahead on a copy and then decode from the original position.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// A container was just opened: its first member takes no comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self { src, pos: 0, depth: 0, fresh: false }
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        let found = self.peek_byte();
        if found == Some(b) {
            self.pos += 1;
            return Ok(());
        }
        let found = found.map(|c| c as char);
        Err(format!("expected {:?} at offset {}, found {found:?}", b as char, self.pos))
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Skip whitespace and classify the value that follows by its first
    /// byte, consuming nothing else.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            other => {
                Err(format!("unexpected {:?} at offset {}", other.map(|c| c as char), self.pos))
            }
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect_byte(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos - 1));
        }
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step to the next member of the open container: `true` in front of
    /// it, `false` once the closing bracket has been consumed.
    #[inline]
    fn next_member(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.fresh, false);
        match self.peek_byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            other => Err(format!(
                "expected ',' or {:?} at offset {}, found {:?}",
                close as char,
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    /// Enter an object; follow with [`Reader::next_key`] until it
    /// answers `None`.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// The next member's key, leaving the reader in front of its value;
    /// `None` once the object is closed (and left).
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        Ok(Some(key))
    }

    /// Enter an array; follow with [`Reader::next_element`] until it
    /// answers `false`.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// `true` in front of the next element; `false` once the array is
    /// closed (and left).
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.next_member(b']')
    }

    /// A string value: borrowed from the source unless it contains an
    /// escape. `\u` escapes that are not a scalar value on their own
    /// (surrogates) decode to U+FFFD.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect_byte(b'"')?;
        let bytes = self.src.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // Quote, backslash and control bytes are ASCII, so stopping
            // at one always lands on a char boundary of `src`.
            let (stop, &at) = bytes[self.pos..]
                .iter()
                .enumerate()
                .find(|&(_, &b)| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            let piece = &self.src[run..self.pos + stop];
            self.pos += stop + 1;
            if at == b'"' {
                return Ok(match owned {
                    Some(mut s) => {
                        s.push_str(piece);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(piece),
                });
            }
            if at != b'\\' {
                return Err("raw control byte in string".to_string());
            }
            let c = self.escape()?;
            let s = owned.get_or_insert_with(String::new);
            s.push_str(piece);
            s.push(c);
            run = self.pos;
        }
    }

    /// The character named by the escape whose backslash was just read.
    fn escape(&mut self) -> Result<char, String> {
        let mut bump = || {
            let b = self.peek_byte();
            self.pos += usize::from(b.is_some());
            b
        };
        Ok(match bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let d = bump().ok_or("truncated \\u escape")?;
                    code = code * 16 + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
        })
    }

    /// A number, as `f64` (`str::parse` decides what is one).
    #[inline]
    pub fn number(&mut self) -> Result<f64, String> {
        let (start, text) = self.number_token();
        text.parse().map_err(|_| bad_number(start, text))
    }

    /// Step over the token [`Reader::number`] would parse: an optional
    /// `-`, then every byte a number may hold. Answers where it started.
    #[inline]
    fn number_token(&mut self) -> (usize, &'a str) {
        self.skip_ws();
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek_byte(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        (start, &self.src[start..self.pos])
    }

    /// The offset of the next unread byte in the source.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let v = self.peek_byte() == Some(b't');
        self.literal(if v { "true" } else { "false" })?;
        Ok(v)
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.literal("null")
    }

    /// Validate and step over one value of any kind without building it.
    /// A number is checked against its grammar, not converted.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => {
                let (start, text) = self.number_token();
                if is_number(text.as_bytes()) {
                    Ok(())
                } else {
                    Err(bad_number(start, text))
                }
            }
            Kind::Str => self.string().map(drop),
            Kind::Arr => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// Require that only whitespace remains.
    #[inline]
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at offset {}", self.pos))
        }
    }
}

fn bad_number(start: usize, text: &str) -> String {
    format!("invalid number {text:?} at offset {start}")
}

/// Whether `str::parse::<f64>` accepts `token`, for a token of the bytes
/// `[-+.eE0-9]` (what [`Reader::number_token`] takes): an optional sign,
/// digits with an optional fraction or `.` and digits, then an optional
/// exponent of a sign and digits.
fn is_number(token: &[u8]) -> bool {
    let digits = |at: usize| token[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    let mut at = usize::from(matches!(token.first(), Some(b'-' | b'+')));
    let whole = digits(at);
    at += whole;
    let mut fraction = 0;
    if token.get(at) == Some(&b'.') {
        fraction = digits(at + 1);
        at += 1 + fraction;
    }
    if whole + fraction == 0 {
        return false;
    }
    if matches!(token.get(at), Some(b'e' | b'E')) {
        at += 1 + usize::from(matches!(token.get(at + 1), Some(b'-' | b'+')));
        let exponent = digits(at);
        if exponent == 0 {
            return false;
        }
        at += exponent;
    }
    at == token.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::prop_assert;
    use rpas_tsmath::propcheck::{forall, Gen};

    /// The parser and escaper this module had before [`Reader`]: one
    /// byte at a time, a `String` per string, recursion unbounded. Kept
    /// verbatim as the oracle the differential tests below compare
    /// against.
    mod oracle {
        use super::super::Json;
        use std::collections::BTreeMap;

        pub fn escape_str(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        pub fn parse(input: &str) -> Result<Json, String> {
            let bytes = input.as_bytes();
            let mut p = Parser { bytes, pos: 0 };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != bytes.len() {
                return Err(format!("trailing bytes at offset {}", p.pos));
            }
            Ok(v)
        }

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> Parser<'a> {
            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn bump(&mut self) -> Option<u8> {
                let b = self.peek()?;
                self.pos += 1;
                Some(b)
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect_byte(&mut self, b: u8) -> Result<(), String> {
                match self.bump() {
                    Some(x) if x == b => Ok(()),
                    other => Err(format!(
                        "expected {:?} at offset {}, found {:?}",
                        b as char,
                        self.pos.saturating_sub(1),
                        other.map(|c| c as char)
                    )),
                }
            }

            fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
                if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                    self.pos += lit.len();
                    Ok(v)
                } else {
                    Err(format!("invalid literal at offset {}", self.pos))
                }
            }

            fn value(&mut self) -> Result<Json, String> {
                self.skip_ws();
                match self.peek() {
                    Some(b'{') => self.object(),
                    Some(b'[') => self.array(),
                    Some(b'"') => Ok(Json::Str(self.string()?)),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    other => Err(format!("unexpected {:?} at offset {}", other.map(|c| c as char), self.pos)),
                }
            }

            fn object(&mut self) -> Result<Json, String> {
                self.expect_byte(b'{')?;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(map)),
                        other => {
                            return Err(format!(
                                "expected ',' or '}}' at offset {}, found {:?}",
                                self.pos.saturating_sub(1),
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }

            fn array(&mut self) -> Result<Json, String> {
                self.expect_byte(b'[')?;
                let mut out = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                loop {
                    out.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(out)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']' at offset {}, found {:?}",
                                self.pos.saturating_sub(1),
                                other.map(|c| c as char)
                            ))
                        }
                    }
                }
            }

            fn string(&mut self) -> Result<String, String> {
                self.expect_byte(b'"')?;
                let mut out = String::new();
                loop {
                    match self.bump() {
                        None => return Err("unterminated string".to_string()),
                        Some(b'"') => return Ok(out),
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let mut code = 0u32;
                                for _ in 0..4 {
                                    let d = self.bump().ok_or("truncated \\u escape")?;
                                    code = code * 16
                                        + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
                                }
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                        },
                        Some(b) if b < 0x20 => return Err("raw control byte in string".to_string()),
                        Some(b) => {
                            // Re-assemble multi-byte UTF-8 sequences.
                            let start = self.pos - 1;
                            let len = utf8_len(b);
                            let end = start + len;
                            if end > self.bytes.len() {
                                return Err("truncated UTF-8 sequence".to_string());
                            }
                            let chunk = std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?;
                            out.push_str(chunk);
                            self.pos = end;
                        }
                    }
                }
            }

            fn number(&mut self) -> Result<Json, String> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("invalid number {text:?} at offset {start}"))
            }
        }

        fn utf8_len(first: u8) -> usize {
            match first {
                0x00..=0x7f => 1,
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            }
        }
    }

    const WS: [&str; 6] = ["", "", "", " ", "\n", " \t\r\n"];

    fn ws(g: &mut Gen, out: &mut String) {
        out.push_str(WS[g.usize_in(0, WS.len())]);
    }

    fn gen_string(g: &mut Gen, out: &mut String) {
        const PIECES: [&str; 22] = [
            "a", "key", " ", "0", "µ", "—", "漢", "🦀", "\u{7f}", "/", "\\\"", "\\\\", "\\/",
            "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\uD83D", "\\udc00",
        ];
        out.push('"');
        for _ in 0..g.usize_in(0, 6) {
            out.push_str(PIECES[g.usize_in(0, PIECES.len())]);
        }
        out.push('"');
    }

    /// One JSON value, at most `depth` containers deep, with whitespace
    /// in every gap the grammar allows.
    fn gen_value(g: &mut Gen, depth: usize, out: &mut String) {
        const NUMBERS: [&str; 14] = [
            "0", "-0", "7", "-12", "3.25", "-0.5", "1e3", "1E-2", "2.5e+10", "1e999",
            "12345678901234567890", "1.", "-.5", "007",
        ];
        ws(g, out);
        let kind = g.usize_in(0, if depth == 0 { 5 } else { 8 });
        match kind {
            0 => out.push_str("null"),
            1 => out.push_str("true"),
            2 => out.push_str("false"),
            3 => out.push_str(NUMBERS[g.usize_in(0, NUMBERS.len())]),
            4 => gen_string(g, out),
            5 | 6 => {
                let object = kind == 5;
                out.push(if object { '{' } else { '[' });
                for i in 0..g.usize_in(0, 4) {
                    if i > 0 {
                        out.push(',');
                    }
                    if object {
                        ws(g, out);
                        // A small key alphabet, so keys repeat.
                        out.push_str(["\"a\"", "\"b\"", "\"\\u0061\"", "\"\""][g.usize_in(0, 4)]);
                        ws(g, out);
                        out.push(':');
                    }
                    gen_value(g, depth - 1, out);
                }
                ws(g, out);
                out.push(if object { '}' } else { ']' });
            }
            // A chain straight down (a quarter of them all the way), so
            // deep documents stay small.
            _ => {
                let levels = if g.u8() < 64 { depth } else { g.usize_in(1, depth + 1) };
                let mut closers = Vec::new();
                for _ in 0..levels {
                    let object = g.u8() < 128;
                    out.push_str(if object { "{\"k\":" } else { "[" });
                    closers.push(if object { '}' } else { ']' });
                }
                gen_value(g, depth - levels, out);
                out.extend(closers.iter().rev());
            }
        }
        ws(g, out);
    }

    fn gen_doc(g: &mut Gen) -> String {
        let depth = [0, 2, 4, 8, MAX_DEPTH][g.usize_in(0, 5)];
        let mut doc = String::new();
        gen_value(g, depth, &mut doc);
        doc
    }

    /// `doc` with a few bytes overwritten, inserted, deleted, or its tail
    /// cut off (re-read lossily, so the result is still a `str`).
    fn mutate(g: &mut Gen, doc: &str) -> String {
        const BYTES: &[u8] = b"\"\\{}[],:0123456789eE.+- tfnu/\x00\x1f\x7f\xc3\xa9";
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, bytes.len() + 1);
            let b = BYTES[g.usize_in(0, BYTES.len())];
            match g.usize_in(0, 4) {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                3 => bytes.truncate(at),
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn skip(doc: &str) -> Result<(), String> {
        let mut r = Reader::new(doc);
        r.skip_value()?;
        r.end()
    }

    /// `parse` and `skip_value` against the oracle: the same tree or both
    /// refuse — except that nesting past the bound is refused here and
    /// was a deeper recursion there.
    fn agrees_with_oracle(doc: &str) -> Result<(), String> {
        let (new, old) = (parse(doc), oracle::parse(doc));
        match (&new, &old) {
            (Ok(a), Ok(b)) => prop_assert!(a == b, "trees differ for {doc:?}:\n {a:?}\n {b:?}"),
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) if e.starts_with("nesting deeper") => {
                let opens = doc.bytes().filter(|b| matches!(b, b'[' | b'{')).count();
                prop_assert!(opens > MAX_DEPTH, "{e} for {doc:?}");
            }
            _ => return Err(format!("disagree on {doc:?}: new {new:?}, old {old:?}")),
        }
        let skipped = skip(doc);
        prop_assert!(
            skipped.is_ok() == new.is_ok(),
            "skip_value {skipped:?} but parse {new:?} for {doc:?}"
        );
        Ok(())
    }

    #[test]
    fn reader_agrees_with_the_old_parser_on_generated_and_mutated_documents() {
        let mut accepted = 0;
        forall("json_reader_vs_oracle", 1500, |g| {
            let doc = gen_doc(g);
            prop_assert!(oracle::parse(&doc).is_ok(), "generator wrote a bad document: {doc:?}");
            agrees_with_oracle(&doc)?;
            for _ in 0..6 {
                let mutant = mutate(g, &doc);
                accepted += usize::from(parse(&mutant).is_ok());
                agrees_with_oracle(&mutant)?;
            }
            Ok(())
        });
        // The mutants exercise both verdicts, not only the easy one.
        assert!((500..8500).contains(&accepted), "{accepted} of 9000 mutants parsed");
    }

    /// `skip_value`'s number check against the conversion `number` runs,
    /// over tokens of every byte a number token may hold.
    #[test]
    fn the_number_grammar_accepts_what_str_parse_accepts() {
        const BYTES: &[u8] = b"-+.eE0123456789";
        let agrees = |token: &str| {
            let parsed = token.parse::<f64>().is_ok();
            prop_assert!(is_number(token.as_bytes()) == parsed, "{token:?}: parse ok = {parsed}");
            Ok(())
        };
        for token in ["", "-", "+", ".", "0", "-0", "1.", ".5", "-.5", "+1", "1e5", "1E-2", "1e", "1e+",
            "e5", ".e5", "1.e5", "--1", "-+1", "1e5.0", "1.2.3", "007"]
        {
            agrees(token).unwrap();
        }
        let mut accepted = 0;
        forall("json_number_grammar_vs_parse", 20_000, |g| {
            let token: String =
                (0..g.usize_in(0, 13)).map(|_| char::from(BYTES[g.usize_in(0, BYTES.len())])).collect();
            accepted += usize::from(token.parse::<f64>().is_ok());
            agrees(&token)
        });
        assert!(accepted > 500, "only {accepted} of the drawn tokens were numbers");
    }

    #[test]
    fn escape_into_agrees_with_the_old_escaper() {
        forall("json_escape_vs_oracle", 500, |g| {
            let s: String = (0..g.usize_in(0, 24))
                .map(|_| match g.usize_in(0, 4) {
                    0 => char::from(g.u8() % 0x28),
                    1 => ['"', '\\', '/', 'µ', '漢', '🦀', '\u{7f}', '\u{80}'][g.usize_in(0, 8)],
                    _ => char::from(b'a' + g.u8() % 26),
                })
                .collect();
            let mut out = String::from("kept:");
            escape_into(&mut out, &s);
            prop_assert!(out == format!("kept:{}", oracle::escape_str(&s)), "{s:?} -> {out:?}");
            prop_assert!(parse(&format!("\"{}\"", escape_str(&s))) == Ok(Json::Str(s.clone())));
            Ok(())
        });
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(skip(&nest(MAX_DEPTH)).is_ok());
        for bomb in [nest(MAX_DEPTH + 1), "[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&bomb).unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
            // The same bomb under a key nobody asked for.
            let line = format!("{{\"known\":1,\"unknown\":{bomb}}}");
            let mut r = Reader::new(&line);
            r.begin_object().unwrap();
            assert_eq!(r.next_key().unwrap().as_deref(), Some("known"));
            assert_eq!(r.number(), Ok(1.0));
            assert_eq!(r.next_key().unwrap().as_deref(), Some("unknown"));
            let err = r.skip_value().unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn reader_borrows_plain_strings_and_looks_ahead_on_a_copy() {
        let mut r = Reader::new(r#" {"plain":"µ text","esc":"a\nb","rest":[true,null,-2.5e1]} "#);
        r.begin_object().unwrap();
        assert!(matches!(r.next_key(), Ok(Some(Cow::Borrowed("plain")))));

        // Look ahead for a later member; the original cursor stays put.
        let mut ahead = r;
        ahead.skip_value().unwrap();
        assert_eq!(ahead.next_key().unwrap().as_deref(), Some("esc"));
        assert!(matches!(ahead.string(), Ok(Cow::Owned(s)) if s == "a\nb"));

        assert!(matches!(r.string(), Ok(Cow::Borrowed("µ text"))));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("esc"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("rest"));
        assert_eq!(r.peek(), Ok(Kind::Arr));
        r.begin_array().unwrap();
        assert_eq!(r.next_element(), Ok(true));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.next_element(), Ok(true));
        assert_eq!(r.null(), Ok(()));
        assert_eq!(r.next_element(), Ok(true));
        assert_eq!(r.number(), Ok(-25.0));
        assert_eq!(r.next_element(), Ok(false));
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn parses_flat_object() {
        let j = parse(r#"{"a":1,"b":-2.5,"c":"x","d":true,"e":null}"#).unwrap();
        let o = j.as_obj().unwrap();
        assert_eq!(o["a"].as_num(), Some(1.0));
        assert_eq!(o["b"].as_num(), Some(-2.5));
        assert_eq!(o["c"].as_str(), Some("x"));
        assert_eq!(o["d"], Json::Bool(true));
        assert_eq!(o["e"], Json::Null);
    }

    #[test]
    fn parses_nesting_and_arrays() {
        let j = parse(r#"{"f":{"x":[1,2,3]},"g":[]}"#).unwrap();
        let o = j.as_obj().unwrap();
        assert!(matches!(&o["f"], Json::Obj(_)));
        assert_eq!(o["g"], Json::Arr(vec![]));
    }

    #[test]
    fn escape_roundtrip() {
        let ugly = "a\"b\\c\nd\te\u{1}f µ—漢";
        let encoded = format!("\"{}\"", escape_str(ugly));
        let j = parse(&encoded).unwrap();
        assert_eq!(j.as_str(), Some(ugly));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("{'a':1}").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn event_json_parses_back() {
        use crate::event::{Event, Level};
        let mut e = Event::new(Level::Warn, "sim", "zero_workload");
        e.field("steps", 4usize).field("nan", f64::NAN);
        e.wall_us = Some(9);
        let j = parse(&e.to_json()).unwrap();
        let o = j.as_obj().unwrap();
        assert_eq!(o["level"].as_str(), Some("warn"));
        assert_eq!(o["fields"].as_obj().unwrap()["nan"].as_str(), Some("NaN"));
        assert_eq!(o["wall_us"].as_num(), Some(9.0));
    }
}
