//! The one JSON reader: a tokenizing parser into a small [`Value`] tree,
//! plus the string codec every writer shares (no serde in the tree).
//!
//! Strict RFC 8259 — duplicate keys, trailing bytes and nesting past
//! [`MAX_DEPTH`] are errors, and numbers keep their text so
//! [`Value::as_u64`] refuses `8.9` — with two liberties kept for records
//! older versions wrote: raw control characters pass through strings,
//! and escapes decode leniently ([`unescape`]). A key is only ever
//! matched as a key, so key order carries no meaning.

use std::collections::BTreeMap;
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts (every format in the
/// tree needs three levels; the bound keeps hostile input off the stack).
pub const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number's grammar-checked source text, so integer reads are exact.
    Number(String),
    Str(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.get(key),
            _ => None,
        }
    }

    fn number<T: FromStr>(&self) -> Option<T> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// An integer in `u64` range (not a fraction, exponent or negative).
    pub fn as_u64(&self) -> Option<u64> {
        self.number()
    }

    /// An integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()
    }

    /// Any number, as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()
    }

    /// A string's unescaped text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member `key` read through `read`; `Ok(None)` when absent.
    ///
    /// # Errors
    /// `bad field `key`` when the member is present but `read` refuses it.
    pub fn opt<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| read(v).ok_or_else(|| format!("bad field `{key}`")))
            .transpose()
    }

    /// [`Value::opt`] for a required member.
    ///
    /// # Errors
    /// `missing field `key`` or `bad field `key``.
    pub fn req<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, read)?
            .ok_or_else(|| format!("missing field `{key}`"))
    }
}

/// Parses one complete JSON text.
///
/// # Errors
/// A message naming the byte offset of the first syntax error, duplicate
/// key, trailing byte, or nesting past [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing bytes"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` (after whitespace) if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.eat_any(&[byte])
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        let (word, value) = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => return Err(self.error("nesting too deep")),
            Some(b'{') => return self.object(depth + 1),
            Some(b'[') => return self.array(depth + 1),
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            _ => return Err(self.error("expected a value")),
        };
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("unknown literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut members = BTreeMap::new();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            let value = self.value(depth)?;
            if members.insert(key.clone(), value).is_some() {
                return Err(format!("JSON: duplicate key `{key}` at byte {at}"));
            }
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    /// Finds the closing quote (a backslash always skips the byte after
    /// it), then decodes the body with [`unescape`].
    fn string(&mut self) -> Result<String, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        let mut i = start;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    self.pos = i + 1;
                    return Ok(unescape(&self.text[start..i]));
                }
                _ => i += 1,
            }
        }
        Err(self.error("unterminated string"))
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat_any(b"-");
        let int = self.eat_any(b"0") || self.digits();
        let frac = !self.eat_any(b".") || self.digits();
        let exp = !self.eat_any(b"eE") || {
            self.eat_any(b"+-");
            self.digits()
        };
        if !(int && frac && exp) {
            return Err(self.error("malformed number"));
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    /// Consumes one byte from `set` if it comes next (no whitespace skip).
    fn eat_any(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }
}

/// Escapes a string as a JSON string body (RFC 8259): backslash, quote,
/// and every control character below U+0020 — `\n`, `\r` and `\t` by
/// name, the rest as `\u00XX`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decodes a JSON string body: every RFC 8259 escape, including UTF-16
/// surrogate pairs. A lone surrogate or an invalid escape decodes to
/// U+FFFD. Raw characters pass through unchanged, so records written
/// before control characters were escaped still read back as written.
pub(crate) fn unescape(s: &str) -> String {
    const BAD: char = char::REPLACEMENT_CHARACTER;
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        rest = &rest[at + 1..];
        let Some(c) = rest.chars().next() else {
            out.push(BAD);
            break;
        };
        rest = &rest[c.len_utf8()..];
        out.push(match c {
            '"' | '\\' | '/' => c,
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => match hex4(rest) {
                Some(hi @ 0xD800..=0xDBFF) => {
                    rest = &rest[4..];
                    match rest.strip_prefix("\\u").and_then(hex4) {
                        Some(lo @ 0xDC00..=0xDFFF) => {
                            rest = &rest[6..];
                            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                .unwrap_or(BAD)
                        }
                        _ => BAD,
                    }
                }
                Some(unit) => {
                    rest = &rest[4..];
                    char::from_u32(unit).unwrap_or(BAD)
                }
                None => BAD,
            },
            _ => BAD,
        });
    }
    out.push_str(rest);
    out
}

/// The four hex digits opening `s`, as a UTF-16 code unit.
fn hex4(s: &str) -> Option<u32> {
    let digits = s.get(..4)?;
    if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u32::from_str_radix(digits, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CellRequest;
    use crate::pipeline::Model;
    use crate::service::parse_request;
    use hyperpred_sim::{CacheConfig, MemoryModel, SimStats};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every key the wire protocol and the record format read.
    const KEYS: [&str; 12] = [
        "name",
        "model",
        "issue",
        "branches",
        "memory",
        "max_cycles",
        "args",
        "source",
        "kind",
        "version",
        "fp",
        "cycles",
    ];

    /// A string mixing quotes, backslashes, every control character,
    /// non-BMP characters and embedded `"key":` patterns.
    fn hostile_string(rng: &mut StdRng) -> String {
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..40usize) {
            match rng.gen_range(0..7u32) {
                0 => s.push('"'),
                1 => s.push('\\'),
                2 => s.push(char::from(rng.gen_range(0..0x20u8))),
                3 => s.push(['\u{1f600}', '\u{10348}', '\u{10ffff}'][rng.gen_range(0..3usize)]),
                4 => {
                    let key = KEYS[rng.gen_range(0..KEYS.len())];
                    s.push_str(&format!("\"{key}\":"));
                }
                5 => s.push_str(
                    ["\\u0041", "{", "}", "[", "]", ",", "é", "\u{7f}"][rng.gen_range(0..8usize)],
                ),
                _ => s.push(char::from(rng.gen_range(b' '..b'~'))),
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn escaped_strings_round_trip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = hostile_string(&mut rng);
            prop_assert_eq!(unescape(&escape(&s)), s.clone());
            let text = format!("{{\"k\":\"{}\",\"n\":[\"{}\"]}}", escape(&s), escape(&s));
            let v = parse(&text).expect("escaped text parses");
            prop_assert_eq!(v.get("k").and_then(Value::as_str), Some(s.as_str()));
            let items = v.get("n").and_then(Value::as_array).expect("array");
            prop_assert_eq!(items[0].as_str(), Some(s.as_str()));
        }

        /// Every string field of a request embeds every key's pattern and
        /// the keys arrive shuffled, with whitespace between tokens: the
        /// request still reads back exactly, so nothing depends on
        /// `source` being serialized last.
        #[test]
        fn hostile_keys_in_any_order_parse_to_the_same_request(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let spoof: String = KEYS
                .iter()
                .map(|k| format!("\"{k}\":\"x\",\"{k}\":0,"))
                .collect();
            let req = CellRequest {
                name: format!("{spoof}{}", hostile_string(&mut rng)),
                source: format!("int main() {{ /* {spoof} */ return 3; }}{}", hostile_string(&mut rng)),
                args: vec![rng.gen_range(-9..9i64), 4],
                model: Model::ALL[rng.gen_range(0..3usize)],
                issue: rng.gen_range(1..9u32),
                branches: rng.gen_range(1..3u32),
                memory: MemoryModel::Caches(CacheConfig::default()),
                max_cycles: rng.gen_range(1..1_000_000u64),
            };
            let mut members = [
                ("name", format!("\"{}\"", escape(&req.name))),
                ("model", format!("\"{}\"", crate::journal::model_slug(Some(req.model)))),
                ("issue", req.issue.to_string()),
                ("branches", req.branches.to_string()),
                ("memory", "\"caches\"".to_string()),
                ("max_cycles", req.max_cycles.to_string()),
                ("args", format!("[{},{}]", req.args[0], req.args[1])),
                ("source", format!("\"{}\"", escape(&req.source))),
            ];
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0..=i));
            }
            let ws = [" ", "\n", "\t", "\r\n ", ""][rng.gen_range(0..5usize)];
            let members: Vec<String> = members
                .iter()
                .map(|(key, value)| format!("\"{key}\"{ws}:{ws}{value}"))
                .collect();
            let body = format!("{ws}{{{ws}{}{ws}}}{ws}", members.join(&format!(",{ws}")));
            prop_assert_eq!(parse_request(&body).expect("parses"), req);
        }
    }

    #[test]
    fn values_and_accessors() {
        let v =
            parse(r#" { "a" : [1, -2, 3.5e2, true, null], "b": {"c": "d"} } "#).expect("parses");
        let a = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_f64(), Some(350.0));
        assert_eq!(a[2].as_u64(), None, "a fraction is not an integer");
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("d")
        );
        assert_eq!(v.get("zz"), None);
        assert_eq!(
            parse("4294967304").expect("parses").as_u64(),
            Some(4_294_967_304)
        );
        assert_eq!(
            parse("18446744073709551616").expect("parses").as_u64(),
            None
        );
    }

    #[test]
    fn malformed_text_is_an_error() {
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":1}x",
            "{\"a\":1} {}",
            "[1 2]",
            "{\"a\":1,\"a\":1}",
            "{a:1}",
            "\"open",
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        let dup = parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap_err();
        assert!(dup.contains("duplicate key `a`"), "{dup}");
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&past).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        let objects = format!(
            "{}{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // A hostile body far past the bound fails fast instead of
        // overflowing the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    /// A single-file journal written by the pre-store journal writer (a
    /// real 4-workload Figure 8 run plus hostile names, a conflict, a
    /// legacy v1 line and a torn tail), moved in as a store's only
    /// segment, serves exactly what the old reader served. The
    /// `.expected` file is that reader's own dump.
    #[test]
    fn pre_store_journal_loads_bit_identically_as_a_segment() {
        let dir = std::env::temp_dir().join("hyperpred-json-pre-store-journal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("seg-00000000-0000.jsonl"),
            include_str!("../tests/fixtures/pre-store-journal.jsonl"),
        )
        .unwrap();
        let store = crate::store::Store::open(&dir).unwrap();
        let expected = include_str!("../tests/fixtures/pre-store-journal.expected");
        let mut lines = expected.lines();
        let header = lines.next().expect("summary line");
        assert_eq!(
            header,
            format!(
                "# len {} corrupt {} conflicts {}",
                store.len(),
                store.corrupt(),
                store.conflicts()
            )
        );
        for line in lines {
            let mut words = line.split_whitespace();
            let fp = words.next().expect("fingerprint");
            let rest: Vec<&str> = words.collect();
            let want = (rest != ["none"]).then(|| {
                let n = |i: usize| rest[i].parse::<u64>().expect("count");
                SimStats {
                    cycles: n(0),
                    insts: n(1),
                    nullified: n(2),
                    branches: n(3),
                    mispredicts: n(4),
                    loads: n(5),
                    stores: n(6),
                    icache_misses: n(7),
                    dcache_misses: n(8),
                    ret: rest[9].parse().expect("ret"),
                }
            });
            assert_eq!(store.get(fp), want, "fingerprint {fp}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
