//! Minimal JSON value for the harness: wire frames, `BENCHMARK.json`,
//! the pinned expectations and the result line. Deliberately a copy-free
//! re-implementation rather than a link to the program's own parser, so
//! the end-to-end legs share no code with the system under test.

use std::fmt;

/// A parsed JSON value. Objects keep insertion order, so printing a parsed
/// sub-tree reproduces the sender's field order (the `stats.store`
/// identity check compares such prints).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one document; trailing whitespace allowed, garbage rejected.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup along `path`.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, k| v.get(k))
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The number as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n < 9.1e15 => Some(n as u64),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// Appends `s` as a JSON string literal (quotes included) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => write!(f, "{}", *n as i64),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                escape_into(&mut out, s);
                f.write_str(&out)
            }
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
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\n' | b'\r' | b'\t') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                ws(b, pos);
                let key = string(b, pos)?;
                ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, value(b, pos)?));
                ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(value(b, pos)?);
                ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("short \\u escape")?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs never occur in the frames the daemon
                        // sends; map an unpaired one to U+FFFD rather than fail.
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document_in_field_order() {
        let text =
            r#"{"ok":true,"store":{"records":12,"passes":[{"key":"a b","w":6}]},"x":null,"r":2.5}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.at(&["store", "records"]).and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn escapes_survive_a_round_trip() {
        let s = "O'BRIEN \"q\" \\ tab\t nl\n";
        let printed = Json::Str(s.into()).to_string();
        assert_eq!(Json::parse(&printed).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\"").is_err());
        assert!(Json::parse("").is_err());
    }
}
