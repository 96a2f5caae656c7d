//! The baseline drift check: parse two benchmark artifacts and diff them
//! as JSON trees.
//!
//! `BENCH_baseline.json` is committed so a PR's diff shows exactly which
//! modeled quantities moved. Every field of it is deterministic (the
//! baseline reads no clock), so [`diff`] compares two documents exactly —
//! bit-for-bit on numbers — and reports every divergence with its JSON
//! path, so a CI failure names the drifted quantity instead of dumping two
//! documents.
//!
//! [`parse`] reads the dialect [`Json::render`] emits (compact RFC 8259,
//! with the artifact's newline between records) plus the standard escapes
//! a hand-edited baseline might contain.

use crate::json::Json;

/// Collects every divergence between two values as `path: left != right`
/// lines. Equal values produce an empty vec. Numbers compare exactly
/// (`f64::to_bits`): the artifact is deterministic, so any difference at
/// all is drift.
#[must_use]
pub fn diff(left: &Json, right: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("$", left, right, &mut out);
    out
}

fn summarize(value: &Json) -> String {
    match value {
        Json::Arr(items) => format!("<array of {}>", items.len()),
        Json::Obj(entries) => format!("<object of {}>", entries.len()),
        scalar => scalar.render(),
    }
}

fn diff_at(path: &str, left: &Json, right: &Json, out: &mut Vec<String>) {
    match (left, right) {
        (Json::Num(a), Json::Num(b)) => {
            if a.to_bits() != b.to_bits() {
                out.push(format!("{path}: {a} != {b}"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: array length {} != {}", a.len(), b.len()));
                return;
            }
            for (i, (ai, bi)) in a.iter().zip(b).enumerate() {
                diff_at(&format!("{path}[{i}]"), ai, bi, out);
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let a_keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let b_keys: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            if a_keys != b_keys {
                out.push(format!("{path}: object keys {a_keys:?} != {b_keys:?}"));
                return;
            }
            for ((key, av), (_, bv)) in a.iter().zip(b) {
                diff_at(&format!("{path}.{key}"), av, bv, out);
            }
        }
        (a, b) if a == b => {}
        (a, b) => out.push(format!("{path}: {} != {}", summarize(a), summarize(b))),
    }
}

/// Parses a JSON document into a [`Json`] value.
///
/// # Errors
///
/// Returns a message naming the byte offset and problem on malformed
/// input (trailing garbage, bad escapes, unterminated literals, …).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match byte {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&escape) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs don't occur in our artifacts;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "unknown escape '\\{}' at byte {}",
                            char::from(other),
                            *pos
                        ))
                    }
                }
            }
            _ => {
                // Re-decode the UTF-8 sequence starting at byte - 1.
                let start = *pos - 1;
                let mut end = *pos;
                while end < bytes.len() && (bytes[end] & 0b1100_0000) == 0b1000_0000 {
                    end += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..end]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_render_dialect() {
        let value = Json::obj(vec![
            ("name", Json::str("bench \"quoted\"\nline")),
            ("pi", Json::Num(3.25)),
            ("neg", Json::Num(-1e-3)),
            ("flag", Json::Bool(false)),
            ("nothing", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::Num(1.0), Json::obj(vec![("k", Json::str("v"))])]),
            ),
        ]);
        let parsed = parse(&value.render()).expect("round trip");
        assert_eq!(parsed, value);
    }

    #[test]
    fn parse_accepts_standard_escapes_and_whitespace() {
        let parsed = parse(" { \"a\\u0041\\/\" : [ 1 , true , null ] } ").expect("parses");
        assert_eq!(
            parsed,
            Json::obj(vec![(
                "aA/",
                Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null])
            )])
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn diff_reports_paths_and_equal_trees_report_nothing() {
        let base = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::str("x"), Json::Num(2.0)])),
        ]);
        assert!(diff(&base, &base.clone()).is_empty());
        let moved = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::str("x"), Json::Num(2.5)])),
        ]);
        let lines = diff(&base, &moved);
        assert_eq!(lines, vec!["$.b[1]: 2 != 2.5".to_string()]);
        // Shape changes name the containing path, not a value.
        let reshaped = Json::obj(vec![("a", Json::Num(1.0))]);
        let lines = diff(&base, &reshaped);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("$: object keys"), "{}", lines[0]);
    }
}
