//! A minimal JSON object writer (the benchmark emits JSON, never parses
//! it).

use std::fmt::Write;

#[derive(Debug)]
pub struct Json {
    buf: String,
    empty: bool,
}

impl Json {
    pub fn object() -> Self {
        Json {
            buf: String::from("{"),
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.buf.push_str(", ");
        }
        self.empty = false;
        push_str(&mut self.buf, key);
        self.buf.push_str(": ");
    }

    /// A number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        push_str(&mut self.buf, v);
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// An already-serialised JSON value.
    pub fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(v);
        self
    }

    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\t' => buf.push_str("\\t"),
            '\r' => buf.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", u32::from(c));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_object() {
        let mut o = Json::object();
        o.str("a\"b", "x\ny")
            .num("n", 1.5)
            .bool("t", true)
            .raw("r", "[1]");
        assert_eq!(
            o.finish(),
            r#"{"a\"b": "x\ny", "n": 1.5, "t": true, "r": [1]}"#
        );
    }
}
