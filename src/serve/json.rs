//! Minimal JSON value: enough for the serve protocol, no dependencies.
//!
//! The workspace has no JSON dependency, so the daemon's frames are
//! parsed and printed by hand. Supports the full JSON grammar except
//! that numbers are kept as `f64` (every value the protocol carries —
//! record ids, sequence numbers, counters — is exactly representable
//! below 2^53).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see module docs for the `f64` caveat).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth lets one small frame of `[`s overflow the
/// stack; no request or reply nests deeper than 4.
pub const MAX_DEPTH: usize = 64;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(utf8(&bytes[chunk_start..*pos])?);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(utf8(&bytes[chunk_start..*pos])?);
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let code = parse_hex4(bytes, pos)?;
                        let c = if (0xD800..0xDC00).contains(&code) {
                            // Surrogate pair: expect \uDC00-\uDFFF next.
                            if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid \\u escape")?);
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or("truncated \\u escape")?;
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
}

fn utf8(bytes: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(bytes).map_err(|e| format!("invalid utf-8 in string: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let req = Json::parse(r#"{"cmd":"ingest-batch","records":["1|A|B","|C|D"]}"#).unwrap();
        assert_eq!(req.get("cmd").and_then(Json::as_str), Some("ingest-batch"));
        assert_eq!(
            req.get("records").and_then(Json::as_array).unwrap().len(),
            2
        );
        let q = Json::parse(r#" {"cmd" : "query-matches", "id": 17} "#).unwrap();
        assert_eq!(q.get("id").and_then(Json::as_u64), Some(17));
    }

    #[test]
    fn round_trips_strings_with_escapes() {
        let original = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\\c\nd\te\u{0007}ü€".into())),
            ("n".into(), Json::Num(42.0)),
            ("x".into(), Json::Null),
            ("b".into(), Json::Bool(true)),
        ]);
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::Num(5225.0).to_string(), "5225");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("😀".into())
        );
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\uD83D""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse(r#""\q""#).is_err());
        assert!(Json::parse("1e999").is_err(), "infinite numbers rejected");
    }

    /// A 200 KB frame of `[`s — far under the frame cap — is an error, not
    /// a stack overflow that aborts the daemon.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn as_u64_guards() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
    }
}
