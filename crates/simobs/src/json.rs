//! Minimal deterministic JSON writing helpers: escaped strings and
//! round-trip floats, shared by telemetry output and `vgrid-core`'s
//! figure JSON. There is deliberately no parser here — the artifacts
//! written with these helpers are gated with `cmp`, not reparsed.

/// Escape and quote a string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format a finite f64 so it round-trips exactly; non-finite values
/// become `null` (JSON has no Inf/NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let short = format!("{v}");
        if short.parse::<f64>() == Ok(v) {
            short
        } else {
            format!("{v:e}")
        }
    } else {
        "null".to_string()
    }
}

/// Render an object from already-rendered `(key, value)` pairs, in the
/// order given. Callers are responsible for sorted key order; every
/// call site in this crate iterates a `DetMap` or a fixed field list.
pub fn object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&string(k));
        out.push(':');
        out.push_str(v);
    }
    out.push('}');
    out
}

/// Render an array from already-rendered element strings.
pub fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip() {
        for v in [0.0, 1.5, -3.25, 1e300, 0.1, 2.0 / 3.0] {
            assert_eq!(number(v).parse::<f64>().unwrap(), v);
        }
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn containers_render() {
        assert_eq!(
            object(&[("a", "1".into()), ("b", string("x"))]),
            "{\"a\":1,\"b\":\"x\"}"
        );
        assert_eq!(array(&["1".into(), "2".into()]), "[1,2]");
        assert_eq!(object(&[]), "{}");
        assert_eq!(array(&[]), "[]");
    }
}
