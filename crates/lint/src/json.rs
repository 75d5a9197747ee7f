//! The JSON scanner behind the committed-file parser
//! ([`crate::baseline`]): whitespace-skipping byte cursor with line
//! tracking, covering exactly the value shapes that format uses —
//! punctuation, escape-free strings, unsigned integers.

pub(crate) struct Scanner<'a> {
    b: &'a [u8],
    pos: usize,
    /// 1-based line of the cursor, for anchoring errors.
    line: u32,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Self { b: src.as_bytes(), pos: 0, line: 1 }
    }

    fn advance(&mut self) {
        if self.b.get(self.pos) == Some(&b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.advance();
        }
    }

    pub(crate) fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(&c) if c == want => {
                self.advance();
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at line {}, found {:?}",
                want as char,
                self.line,
                other.map(|&c| c as char)
            )),
        }
    }

    pub(crate) fn try_byte(&mut self, want: u8) -> bool {
        self.skip_ws();
        if self.b.get(self.pos) == Some(&want) {
            self.advance();
            true
        } else {
            false
        }
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        while let Some(&c) = self.b.get(self.pos) {
            if c == b'"' {
                let s = std::str::from_utf8(&self.b[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                self.advance();
                return Ok(s.to_string());
            }
            if c == b'\\' {
                return Err(format!("escapes not supported in strings (line {})", self.line));
            }
            self.advance();
        }
        Err("unterminated string".to_string())
    }

    pub(crate) fn integer(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.advance();
        }
        if start == self.pos {
            return Err(format!("expected integer at line {}", self.line));
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("invalid integer at line {}", self.line))
    }

    /// Only whitespace may follow the document.
    pub(crate) fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at line {}", self.line))
        }
    }
}
