//! The workspace's JSON writer and reader (no serde in the hermetic
//! build environment).
//!
//! [`JsonObject`] emits one object per call site: numbers, booleans,
//! strings, nulls and pre-rendered nested values. [`parse`] reads any
//! JSON document back into a [`Json`] tree — JSONL trace lines (which
//! [`crate::schema::parse_flat_object`] then checks are flat),
//! `BENCH_*.json` snapshots and server responses.
//! Nesting deeper than `MAX_DEPTH` (128) levels is a parse error, so
//! hostile input cannot overflow the stack.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Builder for one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start a new object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a signed integer field.
    pub fn i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Add a float field (finite values only; NaN/inf become null).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Add an optional unsigned field (`None` → JSON null).
    pub fn opt_u64(&mut self, key: &str, value: Option<u64>) -> &mut Self {
        match value {
            Some(v) => self.u64(key, v),
            None => {
                self.key(key);
                self.buf.push_str("null");
                self
            }
        }
    }

    /// Add a pre-rendered JSON value verbatim (caller guarantees
    /// validity — used to nest objects built by other builders).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Close and return the rendered object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escape `s` into `out` per JSON string rules.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64` (trace integers fit exactly; snapshot
    /// metrics are f64 already).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is not preserved (keys are unique in
    /// every document the workspace reads).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level; the documents the workspace writes nest
/// only a few levels deep.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. The whole input must be consumed.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            got => Err(format!(
                "offset {}: expected {:?}, got {:?}",
                self.pos,
                want as char,
                got.map(|b| b as char)
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "offset {}: unexpected {:?}",
                self.pos,
                other.map(|b| b as char)
            )),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// `MAX_DEPTH`.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "offset {}: nesting deeper than {MAX_DEPTH} levels",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("offset {}: expected {word:?}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("offset {start}: bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit {:?}", d as char))?;
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("bad \\u code point {code:#x}"))?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                    }
                },
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| format!("string is not UTF-8: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                other => {
                    return Err(format!(
                        "offset {}: expected ',' or ']', got {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ));
                }
            }
        }
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "offset {}: expected ',' or '}}', got {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ));
                }
            }
        }
        Ok(Json::Obj(map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object_renders() {
        let mut o = JsonObject::new();
        o.str("ev", "chop")
            .u64("emitted", 5)
            .i64("delta", -2)
            .bool("ok", true);
        o.opt_u64("cut", None).f64("mean", 1.5);
        assert_eq!(
            o.finish(),
            r#"{"ev":"chop","emitted":5,"delta":-2,"ok":true,"cut":null,"mean":1.5}"#
        );
    }

    #[test]
    fn strings_escape() {
        let mut o = JsonObject::new();
        o.str("m", "a\"b\\c\nd\u{1}");
        let want = String::from(r#"{"m":"a\"b\\c\nd"#) + "\\u0001\"}";
        assert_eq!(o.finish(), want);
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a":{"b":[1,2.5,-3e2]},"s":"x\"y","t":true,"n":null}"#;
        let v = parse(doc).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(
            *b,
            Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"tab\there\"").is_err());
    }

    #[test]
    fn parses_a_real_snapshot_envelope() {
        let doc =
            r#"{"schema":"asched-bench-snapshot-v2","label":"ctx","metrics":{"a.b":1,"a.c":0.5}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str).unwrap().len(), 24);
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("a.b").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn writer_output_reads_back() {
        let mut o = JsonObject::new();
        o.str("m", "a\"b\\c\nd\u{1}").u64("n", 7).raw("x", "[1,{}]");
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("m").and_then(Json::as_str), Some("a\"b\\c\nd\u{1}"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(7.0));
    }
}
