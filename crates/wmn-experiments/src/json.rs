//! A minimal hand-rolled JSON parser for reading back the harness's own
//! artifacts (notably `checkpoint.jsonl`, see [`crate::checkpoint`]), and
//! the one string escaper its writers share ([`escape`]).
//!
//! The workspace's JSON *writers* are all hand-rolled `format!` calls (the
//! vendored `serde` is a no-op shim), so reading our own documents back
//! needs a real parser. This one covers exactly the JSON this repository
//! emits: objects, arrays, strings with the standard escapes, numbers,
//! booleans, and null. It is strict about structure (trailing garbage and
//! raw control characters inside strings are errors) and preserves object
//! key order, which keeps parse-then-rerender deterministic. Arrays and
//! objects nest at most [`MAX_DEPTH`] levels deep, so a hostile document
//! is an error rather than a stack overflow.

use std::fmt::{self, Write as _};

/// Escapes `s` for the inside of a JSON string literal: the quote, the
/// backslash and every control character (U+0000–U+001F), which JSON
/// forbids raw.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the harness only emits integers
    /// well inside the exact range).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered key–value pairs (first occurrence wins in
    /// [`get`](JsonValue::get)).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number below
    /// 2^53. Numbers are parsed as `f64`, which holds every integer below
    /// 2^53 exactly; from 2^53 on, neighbouring integers share one `f64`
    /// (9007199254740993 parses as 9007199254740992), so those are `None`
    /// rather than a silently rounded value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if n.fract() == 0.0 && *n >= 0.0 && *n < 9_007_199_254_740_992.0 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The program's own
/// documents nest at most a dozen levels (the telemetry attribution tree).
pub const MAX_DEPTH: usize = 128;

/// A JSON syntax error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending byte offset, including for
/// arrays or objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            // Exactly four hex digits (no sign, no
                            // shorter form).
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.error("truncated \\u escape"))?
                                .iter()
                                .try_fold(0, |code, &h| {
                                    Some(code * 16 + char::from(h).to_digit(16)?)
                                })
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own output;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.error(format!("bad escape \\{}", other as char))),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error(format!("raw control character U+{byte:04X} in string")));
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control character at once. All are ASCII,
                    // so the run ends on a character boundary of the `&str`
                    // input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse()
            .map(JsonValue::Number)
            .map_err(|_| self.error(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), JsonValue::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::String("hi".to_owned()));
    }

    #[test]
    fn parses_nested_structures_and_preserves_key_order() {
        let doc = r#"{"b":[1,2,{"x":null}],"a":{"nested":true},"n":-7}"#;
        let v = parse(doc).unwrap();
        let JsonValue::Object(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "n"]);
        assert_eq!(v.get("n").unwrap().as_u64(), None, "negative");
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().get("nested"),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn parses_a_long_mixed_string_exactly() {
        // Over 1 MiB of ASCII, multi-byte characters and escapes in one
        // string: the parse must be exact, and linear in the input.
        let pieces = [
            ("plain ascii ", "plain ascii "),
            ("ü€𝄞", "ü€𝄞"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("A\n", "\\u0041\\n"),
            ("é", "\\u00E9"),
        ];
        let (mut expected, mut doc) = (String::new(), String::from('"'));
        while doc.len() <= 1 << 20 {
            for (value, encoded) in pieces {
                expected.push_str(value);
                doc.push_str(encoded);
            }
        }
        doc.push('"');
        assert_eq!(parse(&doc).unwrap().as_str(), Some(expected.as_str()));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("[ ]").unwrap(), JsonValue::Array(vec![]));
    }

    #[test]
    fn u64_extraction_is_exact_for_integers() {
        assert_eq!(parse("64").unwrap().as_u64(), Some(64));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("\"64\"").unwrap().as_u64(), None);
    }

    #[test]
    fn u64_extraction_never_rounds_past_2_pow_53() {
        // 2^53 - 1 is the largest integer an f64 holds exactly.
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some(9_007_199_254_740_991)
        );
        // 2^53 + 1 parses to the same f64 as 2^53: neither is exact.
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("12345678901234567").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"open",
            "1 2",
            "{} x",
            "[1 2]",
            "{\"a\":1,}x",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?}");
        }
        // A `\u` escape takes exactly four hex digits: no sign.
        let signed = parse("\"\\u+041\"").unwrap_err();
        assert!(signed.to_string().contains("bad \\u escape"), "{signed}");
        // JSON forbids raw control characters inside a string; the error
        // names the offending byte.
        for (bad, offset, code) in [("\"a\tb\"", 2, "U+0009"), ("{\"k\":\"x\ny\"}", 7, "U+000A")] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.offset, offset, "{bad:?}");
            assert!(err.to_string().contains(code), "{err}");
        }
    }

    #[test]
    fn escape_round_trips_every_control_character() {
        let raw: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/ü".chars())
            .collect();
        let escaped = escape(&raw);
        assert!(escaped.bytes().all(|b| b >= 0x20), "{escaped:?}");
        assert!(escaped.starts_with("\\u0000\\u0001"), "{escaped:?}");
        assert!(escaped.contains("\\t\\n\\u000b\\u000c\\r"), "{escaped:?}");
        let parsed = parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(parsed.as_str(), Some(raw.as_str()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
        // The cap itself still parses.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    #[test]
    fn roundtrips_a_real_telemetry_header() {
        // The shape telemetry.rs emits: pretty-printed, `config` on one line.
        let doc = "{\n  \"schema\": \"wmn-telemetry/v2\",\n  \"bin\": \"fig3\",\n  \
                   \"config\": {\"instance_seed\":2009,\"run_seed\":42},\n  \
                   \"counters\": {\n    \"ga.generations\": 280\n  }\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("wmn-telemetry/v2"));
        assert_eq!(
            v.get("config")
                .unwrap()
                .get("instance_seed")
                .unwrap()
                .as_u64(),
            Some(2009)
        );
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("ga.generations")
                .unwrap()
                .as_u64(),
            Some(280)
        );
    }
}
