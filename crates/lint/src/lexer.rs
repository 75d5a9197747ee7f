//! A small hand-written Rust lexer: line/token level, comment- and
//! string-literal-aware.
//!
//! This is *not* a full Rust parser — it produces a flat token stream with
//! line numbers, which is exactly enough for the lexical rules in
//! [`crate::rules`]: it never confuses a banned identifier inside a string
//! literal or a doc comment with real code, it distinguishes float from
//! integer literals, and it keeps comments on the side so suppression
//! directives can be read back out.
//!
//! Covered syntax: line and (nested) block comments, string / raw-string /
//! byte-string literals, char literals vs. lifetimes, raw identifiers,
//! numeric literals with suffixes, and maximal-munch multi-character
//! operators (`::`, `==`, `..=`, …).

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `match`, `self`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Floating-point literal (`1.0`, `2.`, `1e-9`, `3f64`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Punctuation / operator (`::`, `==`, `[`, `#`, …).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Verbatim source text (raw identifiers keep their `r#` prefix).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this text?
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A comment, kept out of the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full text including the `//` / `/*` markers.
    pub text: String,
    /// True when code tokens precede the comment on its starting line
    /// (a trailing comment suppresses its own line, not the next one).
    pub trailing: bool,
}

/// Lexer output: code tokens plus side-band comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first (maximal munch).
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Rust keywords (strict + reserved ones that matter lexically). `self` and
/// `Self` are deliberately *included* here; rules that want to treat `self`
/// as an indexable expression handle that themselves.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// Is `s` a Rust keyword?
pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into tokens and comments. Never fails: unknown bytes become
/// single-character [`TokKind::Punct`] tokens, and unterminated literals
/// simply run to end of input — for linting, graceful degradation beats
/// rejecting a file the compiler will diagnose anyway.
pub fn lex(src: &str) -> Lexed {
    Lexer { b: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.b.get(self.pos + off).copied()
    }

    fn bump_bytes(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(c) = self.b.get(self.pos) {
                if *c == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
    }

    fn text_from(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.b[start..self.pos]).into_owned()
    }

    fn has_code_on_line(&self, line: u32) -> bool {
        self.out.tokens.last().is_some_and(|t| t.line == line)
    }

    fn push(&mut self, kind: TokKind, start: usize, line: u32) {
        let text = self.text_from(start);
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump_bytes(1),
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.bump_bytes(1);
                    }
                    let trailing = self.has_code_on_line(line);
                    let text = self.text_from(start);
                    self.out.comments.push(Comment { line, text, trailing });
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment(start, line);
                }
                b'"' => self.string_literal(start, line),
                b'r' | b'b' if self.raw_or_byte_literal() => {} // token pushed inside
                b'\'' => self.char_or_lifetime(start, line),
                b'0'..=b'9' => self.number(start, line),
                c if is_ident_start(c) => {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump_bytes(1);
                    }
                    self.push(TokKind::Ident, start, line);
                }
                _ => {
                    let rest = &self.b[self.pos..];
                    let op = OPS.iter().find(|op| rest.starts_with(op.as_bytes()));
                    match op {
                        Some(op) => self.bump_bytes(op.len()),
                        None => self.bump_bytes(1),
                    }
                    self.push(TokKind::Punct, start, line);
                }
            }
        }
        self.out
    }

    fn block_comment(&mut self, start: usize, line: u32) {
        let trailing = self.has_code_on_line(line);
        self.bump_bytes(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_bytes(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_bytes(2);
                }
                (Some(_), _) => self.bump_bytes(1),
                (None, _) => break,
            }
        }
        let text = self.text_from(start);
        self.out.comments.push(Comment { line, text, trailing });
    }

    /// Handle `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `br"…"`, `b'…'`.
    /// Returns false (consuming nothing) when this is a plain identifier
    /// that merely starts with `r` or `b`.
    fn raw_or_byte_literal(&mut self) -> bool {
        let start = self.pos;
        let line = self.line;
        let c0 = self.peek(0).unwrap_or(0);
        let (prefix_len, next) = match (c0, self.peek(1)) {
            (b'r' | b'b', Some(n @ (b'"' | b'#' | b'\''))) => (1usize, n),
            (b'b', Some(b'r')) => match self.peek(2) {
                Some(n @ (b'"' | b'#')) => (2usize, n),
                _ => return false,
            },
            _ => return false,
        };
        if next == b'\'' {
            // b'x' byte-char literal.
            self.bump_bytes(prefix_len);
            self.char_or_lifetime(start, line);
            return true;
        }
        if next == b'#' {
            // Either a raw string `r#"…"#` or a raw identifier `r#type`.
            let mut hashes = 0usize;
            while self.peek(prefix_len + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(prefix_len + hashes) != Some(b'"') {
                if c0 == b'r' && hashes == 1 {
                    // Raw identifier.
                    self.bump_bytes(2);
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump_bytes(1);
                    }
                    self.push(TokKind::Ident, start, line);
                    return true;
                }
                return false;
            }
            self.bump_bytes(prefix_len + hashes + 1);
            // Scan for `"` followed by `hashes` hash marks.
            'outer: while self.peek(0).is_some() {
                if self.peek(0) == Some(b'"') {
                    for h in 0..hashes {
                        if self.peek(1 + h) != Some(b'#') {
                            self.bump_bytes(1);
                            continue 'outer;
                        }
                    }
                    self.bump_bytes(1 + hashes);
                    self.push(TokKind::Str, start, line);
                    return true;
                }
                self.bump_bytes(1);
            }
            self.push(TokKind::Str, start, line); // unterminated: run to EOF
            return true;
        }
        // r"…" or b"…" or br"…" (no hashes): raw forms have no escapes.
        let raw = c0 == b'r' || (c0 == b'b' && prefix_len == 2);
        self.bump_bytes(prefix_len);
        self.string_body(raw);
        self.push(TokKind::Str, start, line);
        true
    }

    fn string_literal(&mut self, start: usize, line: u32) {
        self.string_body(false);
        self.push(TokKind::Str, start, line);
    }

    /// Consume a `"`-delimited body, honouring `\` escapes unless `raw`.
    fn string_body(&mut self, raw: bool) {
        self.bump_bytes(1); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                b'"' => {
                    self.bump_bytes(1);
                    return;
                }
                b'\\' if !raw => self.bump_bytes(2),
                _ => self.bump_bytes(1),
            }
        }
    }

    fn char_or_lifetime(&mut self, start: usize, line: u32) {
        self.bump_bytes(1); // the opening '
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume the escape then the close.
                self.bump_bytes(2);
                if self.peek(0) == Some(b'{') {
                    // '\u{1F600}'
                    while self.peek(0).is_some_and(|c| c != b'}' && c != b'\'') {
                        self.bump_bytes(1);
                    }
                    self.bump_bytes(1);
                }
                if self.peek(0) == Some(b'\'') {
                    self.bump_bytes(1);
                }
                self.push(TokKind::Char, start, line);
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a / 'static (lifetime). Look past
                // one UTF-8 character: a closing quote means char literal.
                let clen = utf8_len(c);
                if self.peek(clen) == Some(b'\'') {
                    self.bump_bytes(clen + 1);
                    self.push(TokKind::Char, start, line);
                } else {
                    while self.peek(0).is_some_and(is_ident_continue) {
                        self.bump_bytes(1);
                    }
                    self.push(TokKind::Lifetime, start, line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' or ' '.
                let clen = self.peek(0).map_or(1, utf8_len);
                self.bump_bytes(clen);
                if self.peek(0) == Some(b'\'') {
                    self.bump_bytes(1);
                }
                self.push(TokKind::Char, start, line);
            }
            None => self.push(TokKind::Punct, start, line),
        }
    }

    fn number(&mut self, start: usize, line: u32) {
        let mut float = false;
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            self.bump_bytes(2);
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.bump_bytes(1);
            }
            self.push(TokKind::Int, start, line);
            return;
        }
        let digits = |c: u8| c.is_ascii_digit() || c == b'_';
        while self.peek(0).is_some_and(digits) {
            self.bump_bytes(1);
        }
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                // `0..n` (range) and `1.max(2)` (method call) keep the dot.
                Some(b'.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    float = true;
                    self.bump_bytes(1);
                    while self.peek(0).is_some_and(digits) {
                        self.bump_bytes(1);
                    }
                }
            }
        }
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let (s1, s2) = (self.peek(1), self.peek(2));
            let exp = match s1 {
                Some(c) if c.is_ascii_digit() => true,
                Some(b'+' | b'-') => s2.is_some_and(|c| c.is_ascii_digit()),
                _ => false,
            };
            if exp {
                float = true;
                self.bump_bytes(2);
                while self.peek(0).is_some_and(digits) {
                    self.bump_bytes(1);
                }
            }
        }
        // Type suffix (f64, u32, usize, …).
        let suffix_start = self.pos;
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump_bytes(1);
        }
        let suffix = &self.b[suffix_start..self.pos];
        if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
            float = true;
        }
        self.push(if float { TokKind::Float } else { TokKind::Int }, start, line);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_and_comments_leave_no_code_tokens() {
        let l = lex("// use rand::Rng\nlet s = \"rand::thread_rng()\"; /* Instant */");
        assert_eq!(l.comments.len(), 2);
        // The banned names survive only inside Str/comment tokens, which the
        // rules never match against — no Ident token carries them.
        assert!(!l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text.contains("rand") || t.text.contains("Instant"))));
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ still comment */ fn x() {}");
        assert_eq!(l.comments.len(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("fn")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("still")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r##"let x = r#"quote " inside"#; let y = 1;"##);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(l.tokens.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'x'"));
        let toks = kinds(r"let c = '\n'; let s = 'static_nope");
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Char));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'static_nope"));
    }

    #[test]
    fn float_vs_int_classification() {
        for (src, kind) in [
            ("1.0", TokKind::Float),
            ("2.", TokKind::Float),
            ("1e-9", TokKind::Float),
            ("1.5e3", TokKind::Float),
            ("3f64", TokKind::Float),
            ("42", TokKind::Int),
            ("100_000", TokKind::Int),
            ("0xFF", TokKind::Int),
            ("7u64", TokKind::Int),
        ] {
            let l = lex(src);
            assert_eq!(l.tokens.len(), 1, "{src}");
            assert_eq!(l.tokens[0].kind, kind, "{src}");
        }
        // Ranges and literal method calls must not absorb the dot.
        let toks = kinds("0..n");
        assert_eq!(toks[0], (TokKind::Int, "0".into()));
        assert_eq!(toks[1], (TokKind::Punct, "..".into()));
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokKind::Int, "1".into()));
    }

    #[test]
    fn multi_char_operators_munch_maximally() {
        let toks = kinds("a == b != c :: d ..= e");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "..="]);
    }

    #[test]
    fn line_numbers_and_trailing_comments() {
        let l = lex("let a = 1; // trailing\n// standalone\nlet b = 2;");
        assert!(l.comments[0].trailing);
        assert!(!l.comments[1].trailing);
        assert_eq!(l.comments[1].line, 2);
        let b = l.tokens.iter().find(|t| t.is_ident("b")).expect("token b");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn byte_literals() {
        let toks = kinds(r#"let x = b"bytes"; let c = b'\n'; let r = br"raw";"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }
}
