//! A recursive-descent JSON checker for the exporters' tests: it accepts
//! exactly one RFC 8259 value, surrounded by optional whitespace, and
//! names the byte offset of the first error otherwise. It builds no
//! values; the tests only need to know that a consumer could parse the
//! text.

/// Checks that `text` is one well-formed JSON value.
pub(crate) fn check(text: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.at == p.bytes.len() {
        Ok(())
    } else {
        Err(p.error("trailing bytes"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.sequence(b'}', |p| {
                p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                p.value()
            }),
            Some(b'[') => self.sequence(b']', Self::value),
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|word| self.bytes[self.at..].starts_with(word.as_bytes()))
                    .ok_or_else(|| self.error("expected a value"))?;
                self.at += word.len();
                Ok(())
            }
        }
    }

    /// An object or array body after its opening byte: `item`s separated
    /// by commas, then `close`.
    fn sequence(
        &mut self,
        close: u8,
        item: impl Fn(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.at += 1;
                    self.skip_ws();
                }
                Some(b) if b == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.at += 1
                        }
                        Some(b'u') => {
                            self.at += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(self.error("bad \\u escape"));
                                }
                                self.at += 1;
                            }
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control byte in a string")),
                Some(_) => self.at += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            self.digits()?;
        }
        Ok(())
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            Err(self.error("expected a digit"))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::check;

    #[test]
    fn accepts_json_and_rejects_near_misses() {
        for good in [
            "{}",
            "[]",
            " {\"a\":[1,-0.5,2e10,1E-3,true,false,null],\"b\":{\"c\":\"\\u00e9\\n\\\"\"}} ",
            "0",
            "\"é\"",
        ] {
            assert_eq!(check(good), Ok(()), "{good}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "NaN",
            "inf",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "\"a\nb\"",
            "\"\\x\"",
            "\"\\u12g4\"",
            "tru",
            "{} {}",
        ] {
            assert!(check(bad).is_err(), "accepted {bad:?}");
        }
    }
}
