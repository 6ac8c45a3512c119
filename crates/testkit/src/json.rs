//! A tiny JSON value type with writer and parser.
//!
//! Replaces `serde_json` for the workspace's needs: emitting mapping
//! audits, stats, and bench reports, and parsing `confanon scan
//! --record` ground-truth files. Object member order is preserved
//! (insertion order), which keeps emitted reports deterministic.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; integers up to 2^53 round-trip
    /// exactly and are printed without a fractional part.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self { Json::Num(v as f64) }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Inserts (or replaces) an object member; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Json::Obj(members) = self else {
            panic!("Json::set on non-object");
        };
        let value = value.into();
        if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            members.push((key.to_string(), value));
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object member lookup (for tests that corrupt documents
    /// in place to exercise validators).
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        JsonWriter::compact(&mut out).value(self);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        JsonWriter::pretty(&mut out).value(self);
        out
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// A streaming JSON writer: the one formatter behind
/// [`Json::to_string_compact`] and [`Json::to_string_pretty`], usable
/// directly to emit a large document without building its [`Json`]
/// tree first. Callers open and close containers, write object keys,
/// and write scalar values; the writer places separators, newlines and
/// indentation exactly as the tree serializers do, so a streamed
/// document and the tree of the same value are byte-identical.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Spaces per nesting level, or `None` for the compact form.
    indent: Option<usize>,
    /// Items written so far in each open container, innermost last.
    open: Vec<usize>,
    /// A key was just written: the next value follows it directly.
    keyed: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending the compact form to `out`.
    pub fn compact(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter {
            out,
            indent: None,
            open: Vec::new(),
            keyed: false,
        }
    }

    /// A writer appending the two-space pretty form to `out`.
    pub fn pretty(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter {
            indent: Some(2),
            ..JsonWriter::compact(out)
        }
    }

    /// Positions the output for the next array item or object key.
    fn item(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let depth = self.open.len();
        let Some(count) = self.open.last_mut() else {
            return;
        };
        if *count > 0 {
            self.out.push(',');
        }
        *count += 1;
        self.newline(depth);
    }

    /// In the pretty form, a newline and the indentation of `depth`.
    fn newline(&mut self, depth: usize) {
        if let Some(w) = self.indent {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }

    fn begin(&mut self, open: char) -> &mut Self {
        self.item();
        self.out.push(open);
        self.open.push(0);
        self
    }

    fn end(&mut self, close: char) -> &mut Self {
        let count = self.open.pop().expect("JsonWriter: end without begin");
        if count > 0 {
            self.newline(self.open.len());
        }
        self.out.push(close);
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        write_string(self.out, key);
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        self.keyed = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.item();
        write_string(self.out, s);
        self
    }

    /// Writes a number value (integers print without a fraction, as
    /// [`Json::Num`] does).
    pub fn number(&mut self, n: impl Into<f64>) -> &mut Self {
        self.item();
        write_number(self.out, n.into());
        self
    }

    /// Writes a `u64` value exactly as `Json::from(n)` serializes.
    pub fn uint(&mut self, n: u64) -> &mut Self {
        self.number(n as f64)
    }

    /// Writes a whole [`Json`] value.
    pub fn value(&mut self, v: &Json) -> &mut Self {
        match v {
            Json::Null => {
                self.item();
                self.out.push_str("null");
            }
            Json::Bool(b) => {
                self.item();
                self.out.push_str(if *b { "true" } else { "false" });
            }
            Json::Num(n) => {
                self.number(*n);
            }
            Json::Str(s) => {
                self.string(s);
            }
            Json::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Json::Obj(members) => {
                self.begin_object();
                for (k, v) in members {
                    self.key(k).value(v);
                }
                self.end_object();
            }
        }
        self
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = fmt::write(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::write(out, format_args!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        // Nothing to escape (the common case): one copy.
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&c) => Err(self.err(&format!("unexpected byte {:?}", c as char))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: require the low half.
                                self.eat("\\u")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(ch.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0xC0 == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_shapes() {
        let mut obj = Json::obj();
        obj.set("name", "corp-router")
            .set("lines", 42u64)
            .set("ratio", 0.5)
            .set("ok", true)
            .set("tags", vec!["a", "b"])
            .set("none", Json::Null);
        assert_eq!(
            obj.to_string_compact(),
            r#"{"name":"corp-router","lines":42,"ratio":0.5,"ok":true,"tags":["a","b"],"none":null}"#
        );
    }

    #[test]
    fn pretty_indents_two_spaces() {
        let v = Json::obj().with("a", 1u64).with("b", Json::Arr(vec![Json::Num(2.0)]));
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}"
        );
    }

    #[test]
    fn streamed_writer_matches_the_tree_serializers() {
        let tree = Json::obj()
            .with("empty_obj", Json::obj())
            .with("empty_arr", Json::Arr(Vec::new()))
            .with("n", 7u64)
            .with("s", "a\"b\n")
            .with("arr", Json::Arr(vec![Json::from("x"), Json::obj().with("k", 0.25)]));
        let stream = |out: &mut String, pretty: bool| {
            let mut w = if pretty {
                JsonWriter::pretty(out)
            } else {
                JsonWriter::compact(out)
            };
            w.begin_object();
            w.key("empty_obj").begin_object().end_object();
            w.key("empty_arr").begin_array().end_array();
            w.key("n").uint(7);
            w.key("s").string("a\"b\n");
            w.key("arr").begin_array().string("x");
            w.begin_object().key("k").number(0.25).end_object();
            w.end_array().end_object();
        };
        for pretty in [false, true] {
            let mut out = String::new();
            stream(&mut out, pretty);
            let want = if pretty {
                tree.to_string_pretty()
            } else {
                tree.to_string_compact()
            };
            assert_eq!(out, want);
        }
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{07}";
        let v = Json::Str(s.to_string());
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_nested_document() {
        let text = r#"
            { "asns": ["701", "1239"],
              "ips": [],
              "nested": { "x": -1.5e3, "y": null, "ok": false } }
        "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("asns").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("ips").unwrap().as_array().unwrap(), &[]);
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("x").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(nested.get("y"), Some(&Json::Null));
        assert_eq!(nested.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0u64, 1, 4_294_967_296, 9_007_199_254_740_991] {
            let text = Json::from(n).to_string_compact();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
    }

    #[test]
    fn round_trips_arbitrary_trees() {
        let docs = [
            r#"{"a":[1,2,{"b":"c"}],"d":null}"#,
            r#"[[[]],{},"",0]"#,
            r#"{"k":"A\n"}"#,
        ];
        for d in docs {
            let v = Json::parse(d).unwrap();
            assert_eq!(Json::parse(&v.to_string_compact()).unwrap(), v);
            assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        }
    }
}
