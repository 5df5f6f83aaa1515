//! Rendering for the parser's `JsonValue` (the parser itself is the
//! program's, reached through `bind`).

use crate::bind::JsonValue;

pub fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_string())
}

pub fn obj(fields: &[(&str, JsonValue)]) -> JsonValue {
    JsonValue::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn push_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// `indent = None` renders on one line.
fn write(out: &mut String, v: &JsonValue, indent: Option<usize>) {
    let (open_sep, item_sep, pad, close_pad) = match indent {
        Some(n) => ("\n", ",\n", " ".repeat(n + 2), " ".repeat(n)),
        None => ("", ", ", String::new(), String::new()),
    };
    let inner = indent.map(|n| n + 2);
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust prints the shortest digits that round-trip, never an
        // exponent; a non-finite value has no JSON form and is a bug
        // upstream (`MetricSet::check` refuses them).
        JsonValue::Num(n) => out.push_str(&if n.is_finite() {
            n.to_string()
        } else {
            "null".into()
        }),
        JsonValue::Str(text) => push_str(out, text),
        JsonValue::Arr(items) if items.is_empty() => out.push_str("[]"),
        JsonValue::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        JsonValue::Arr(items) => {
            // Arrays of scalars stay on one line even when pretty.
            let flat = items
                .iter()
                .all(|i| !matches!(i, JsonValue::Arr(_) | JsonValue::Obj(_)));
            if flat || indent.is_none() {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write(out, item, None);
                }
                out.push(']');
                return;
            }
            out.push('[');
            out.push_str(open_sep);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(item_sep);
                }
                out.push_str(&pad);
                // One declaration per line reads better than one field per line.
                write(out, item, None);
            }
            out.push_str(open_sep);
            out.push_str(&close_pad);
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            out.push_str(open_sep);
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(item_sep);
                }
                out.push_str(&pad);
                push_str(out, k);
                out.push_str(": ");
                write(out, val, inner);
            }
            out.push_str(open_sep);
            out.push_str(&close_pad);
            out.push('}');
        }
    }
}

/// One line, no trailing newline.
pub fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    write(&mut out, v, None);
    out
}

/// Indented objects, one array element per line, trailing newline.
pub fn render_pretty(v: &JsonValue) -> String {
    let mut out = String::new();
    write(&mut out, v, Some(0));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::parse_json;

    #[test]
    fn both_renderings_parse_back_to_the_same_value() {
        let v = obj(&[
            ("text", s("a \"quoted\"\nline")),
            ("n", JsonValue::Num(0.000_012_5)),
            ("big", JsonValue::Num(29_491_200.0)),
            (
                "list",
                JsonValue::Arr(vec![obj(&[("k", JsonValue::Bool(false))]), JsonValue::Null]),
            ),
            ("flat", JsonValue::Arr(vec![s("bash"), s("x")])),
            ("empty", JsonValue::Obj(vec![])),
        ]);
        assert_eq!(parse_json(&render(&v)).unwrap(), v);
        assert_eq!(parse_json(&render_pretty(&v)).unwrap(), v);
        assert!(!render(&v).contains('\n'));
    }
}
