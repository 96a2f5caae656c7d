//! The baseline drift check: parse two benchmark artifacts, strip every
//! volatile (wall-clock) field recursively, and diff what remains.
//!
//! `BENCH_baseline.json` is committed so a PR's diff shows exactly which
//! modeled quantities moved — but the artifact also records wall-clock
//! detail (`wall_ms` per experiment, `wall_secs`/`sessions_per_wall_sec`
//! inside the `bench_simspeed` experiment's rows), which is machine noise,
//! not drift. CI
//! used to strip a hand-kept allowlist of such keys per experiment; that
//! broke every time an experiment nested new timing detail. [`strip_volatile`]
//! instead walks the whole tree and removes any object entry whose key
//! *names wall-clock time*:
//!
//! * contains `wall` (`wall_ms`, `wall_secs`, `sessions_per_wall_sec`), or
//! * ends with `_secs` (a duration measured, not modeled — modeled times
//!   use the `_s`/`_ms` suffixes), or
//! * is one of the legacy machine-dependent signature fields
//!   (`dense_gbps`, `speedup_vs_scalar` from `bench_engines`).
//!
//! [`diff`] then compares the stripped trees exactly (bit-for-bit on
//! numbers — everything left is deterministic by construction) and
//! reports every divergence with its JSON path, so a CI failure names the
//! drifted quantity instead of dumping two documents.
//!
//! [`parse`] reads the dialect [`Json::render`] emits (compact RFC 8259)
//! plus the standard escapes a hand-edited baseline might contain.

use crate::json::Json;

/// Whether an object key names a volatile (machine-dependent) quantity
/// that the drift check must ignore.
#[must_use]
pub fn is_volatile_key(key: &str) -> bool {
    key.contains("wall")
        || key.ends_with("_secs")
        || key == "dense_gbps"
        || key == "speedup_vs_scalar"
}

/// Recursively removes every volatile-keyed entry from `value` (the
/// replacement for the old per-experiment allowlist).
#[must_use]
pub fn strip_volatile(value: Json) -> Json {
    match value {
        Json::Obj(entries) => Json::Obj(
            entries
                .into_iter()
                .filter(|(key, _)| !is_volatile_key(key))
                .map(|(key, inner)| (key, strip_volatile(inner)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_volatile).collect()),
        scalar => scalar,
    }
}

/// Selects the experiment records named `name` from a baseline document
/// (`{"experiments": [{"name": ..., ...}]}`), preserving document order.
/// Returns an empty vec when the document has no such experiment.
#[must_use]
pub fn select_experiment(doc: &Json, name: &str) -> Vec<Json> {
    let Json::Obj(entries) = doc else {
        return Vec::new();
    };
    let Some(Json::Arr(experiments)) = entries
        .iter()
        .find(|(key, _)| key == "experiments")
        .map(|(_, v)| v)
    else {
        return Vec::new();
    };
    experiments
        .iter()
        .filter(|record| {
            matches!(record, Json::Obj(fields)
                if fields.iter().any(|(k, v)| k == "name" && matches!(v, Json::Str(s) if s == name)))
        })
        .cloned()
        .collect()
}

/// Lists the experiment names a baseline document carries
/// (`{"experiments": [{"name": ..., ...}]}`), in document order, deduped.
/// Returns an empty vec for documents without an `experiments` array —
/// the caller can tell "no such experiment" from "not a baseline at all".
#[must_use]
pub fn experiment_names(doc: &Json) -> Vec<String> {
    let Json::Obj(entries) = doc else {
        return Vec::new();
    };
    let Some(Json::Arr(experiments)) = entries
        .iter()
        .find(|(key, _)| key == "experiments")
        .map(|(_, v)| v)
    else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for record in experiments {
        let Json::Obj(fields) = record else { continue };
        let Some(Json::Str(name)) = fields.iter().find(|(k, _)| k == "name").map(|(_, v)| v) else {
            continue;
        };
        if !names.iter().any(|n| n == name) {
            names.push(name.clone());
        }
    }
    names
}

/// Collects every divergence between two values as `path: left != right`
/// lines. Equal values produce an empty vec. Numbers compare exactly
/// (`f64::to_bits`): everything surviving [`strip_volatile`] is
/// deterministic, so any difference at all is drift.
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
    fn stripper_removes_wall_fields_recursively() {
        let doc = Json::obj(vec![
            ("wall_ms", Json::Num(12.0)),
            ("makespan_s", Json::Num(60.5)),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("policy", Json::str("continuous")),
                    ("wall_secs", Json::Num(2.5)),
                    ("sessions_per_wall_sec", Json::Num(400_000.0)),
                    (
                        "inner",
                        Json::obj(vec![
                            ("search_wall_ms", Json::Num(3.0)),
                            ("elapsed_secs", Json::Num(1.0)),
                            ("p99_ttft_s", Json::Num(0.2)),
                        ]),
                    ),
                ])]),
            ),
            ("dense_gbps", Json::Num(100.0)),
            ("speedup_vs_scalar", Json::Num(9.0)),
        ]);
        let stripped = strip_volatile(doc);
        assert_eq!(
            stripped,
            Json::obj(vec![
                ("makespan_s", Json::Num(60.5)),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("policy", Json::str("continuous")),
                        ("inner", Json::obj(vec![("p99_ttft_s", Json::Num(0.2))])),
                    ])])
                ),
            ])
        );
    }

    #[test]
    fn volatile_keys_spare_modeled_time_fields() {
        // Modeled, deterministic quantities survive...
        for key in [
            "makespan_s",
            "p99_ttft_s",
            "slo_tpot_ms",
            "sessions_per_sim_sec",
        ] {
            assert!(!is_volatile_key(key), "{key} must survive");
        }
        // ...measured wall-clock (and legacy machine-dependent) ones don't.
        for key in [
            "wall_ms",
            "wall_secs",
            "sessions_per_wall_sec",
            "search_wall_ms",
            "elapsed_secs",
            "dense_gbps",
            "speedup_vs_scalar",
        ] {
            assert!(is_volatile_key(key), "{key} must be stripped");
        }
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

    #[test]
    fn select_experiment_filters_by_name() {
        let doc = Json::obj(vec![
            ("schema_version", Json::Num(1.0)),
            (
                "experiments",
                Json::Arr(vec![
                    Json::obj(vec![("name", Json::str("alpha")), ("x", Json::Num(1.0))]),
                    Json::obj(vec![("name", Json::str("beta")), ("x", Json::Num(2.0))]),
                ]),
            ),
        ]);
        let beta = select_experiment(&doc, "beta");
        assert_eq!(beta.len(), 1);
        assert_eq!(
            beta[0],
            Json::obj(vec![("name", Json::str("beta")), ("x", Json::Num(2.0))])
        );
        assert!(select_experiment(&doc, "gamma").is_empty());
        assert!(select_experiment(&Json::Null, "alpha").is_empty());
    }

    #[test]
    fn experiment_names_lists_in_document_order_and_dedupes() {
        let doc = Json::obj(vec![(
            "experiments",
            Json::Arr(vec![
                Json::obj(vec![("name", Json::str("beta")), ("x", Json::Num(1.0))]),
                Json::obj(vec![("name", Json::str("alpha"))]),
                // A second record of an already-seen experiment (partial
                // artifacts repeat names) must not list twice.
                Json::obj(vec![("name", Json::str("beta"))]),
                // Records without a name are skipped, not an error.
                Json::obj(vec![("x", Json::Num(2.0))]),
            ]),
        )]);
        assert_eq!(experiment_names(&doc), vec!["beta", "alpha"]);
        assert!(experiment_names(&Json::Null).is_empty());
        assert!(experiment_names(&Json::obj(vec![("other", Json::Num(1.0))])).is_empty());
    }
}
