//! Chrome-trace (`chrome://tracing` / Perfetto "JSON Array Format")
//! export, plus a minimal JSON parser so the exported trace can be
//! validated in-process (the workspace has no serde).
//!
//! Spans export as `"ph": "X"` (complete) events with microsecond
//! timestamps; instantaneous events as `"ph": "i"`. Counter snapshots
//! ride along in a top-level `"counters"` object that Chrome ignores
//! but [`parse_chrome_trace`] surfaces.

use crate::{Category, CounterSnapshot, Event};

/// Render `events` and a counter snapshot as Chrome-trace JSON.
pub fn chrome_trace_json(events: &[Event], counters: &CounterSnapshot) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = if ev.dur_ns == 0 { "i" } else { "X" };
        out.push_str("{\"name\":");
        push_json_str(&mut out, ev.name);
        out.push_str(",\"cat\":");
        push_json_str(&mut out, ev.cat.label());
        out.push_str(&format!(
            ",\"ph\":\"{ph}\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"bytes\":{},\"flops\":{},\"id\":{}}}",
            fmt_f64(ev.start_ns as f64 / 1e3),
            fmt_f64(ev.dur_ns as f64 / 1e3),
            ev.tid,
            ev.bytes,
            ev.flops,
            ev.id,
        ));
        if ev.dur_ns == 0 {
            // Instant events need a scope; "t" = thread.
            out.push_str(",\"s\":\"t\"");
        }
        out.push('}');
    }
    out.push_str("],\"counters\":{");
    let c = counters;
    let fields: [(&str, u64); 19] = [
        ("nc_read_bytes", c.nc_read_bytes),
        ("nc_write_bytes", c.nc_write_bytes),
        ("cg_bytes", c.cg_bytes),
        ("gg_bytes", c.gg_bytes),
        ("rs_bytes", c.rs_bytes),
        ("ckpt_bytes", c.ckpt_bytes),
        ("prefetch_issued", c.prefetch_issued),
        ("prefetch_hits", c.prefetch_hits),
        ("prefetch_misses", c.prefetch_misses),
        ("prefetch_late", c.prefetch_late),
        ("retries", c.retries),
        ("degraded_transitions", c.degraded_transitions),
        ("wb_stalls", c.wb_stalls),
        ("pinned_waits", c.pinned_waits),
        ("pinned_acquires", c.pinned_acquires),
        ("shard_cache_bytes", c.shard_cache_bytes),
        ("io_in_flight", c.io_in_flight),
        ("io_in_flight_peak", c.io_in_flight_peak),
        ("events_dropped", c.events_dropped),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push_str(&format!(":{v}"));
    }
    out.push_str("}}\n");
    out
}

fn fmt_f64(v: f64) -> String {
    // Chrome accepts any finite number; keep sub-microsecond precision.
    format!("{v:.3}")
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// A parsed JSON value (the subset the trace format uses).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound a file of `[`s overflows
/// the stack; Chrome traces and ledger lines nest four or five deep.
const MAX_NESTING: usize = 128;

/// Parse a JSON document. Errors carry a byte offset and a reason;
/// nesting deeper than `MAX_NESTING` (128) is an error, not a stack overflow.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ascii number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .map_err(|_| self.err("non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// One event read back out of a Chrome-trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Event name.
    pub name: String,
    /// Category (a [`Category::label`] string).
    pub cat: String,
    /// Phase: `"X"` for spans, `"i"` for instants.
    pub ph: String,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds (0 for instants).
    pub dur_us: f64,
    /// Recording thread id.
    pub tid: u64,
    /// Payload bytes from `args`.
    pub bytes: u64,
    /// Floating-point operation count from `args`.
    pub flops: u64,
    /// Correlation id from `args`.
    pub id: u64,
}

/// A fully parsed Chrome trace: events plus the counter sidecar.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// All `traceEvents`, in document order.
    pub spans: Vec<ParsedSpan>,
    /// The `counters` object, as `(name, value)` pairs.
    pub counters: Vec<(String, f64)>,
}

impl ChromeTrace {
    /// Number of duration (`"X"`) spans whose category is `cat`.
    pub fn span_count(&self, cat: Category) -> usize {
        self.spans.iter().filter(|s| s.ph == "X" && s.cat == cat.label()).count()
    }

    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Parse a Chrome-trace document produced by [`chrome_trace_json`]
/// (or by hand, as long as `traceEvents` is present).
pub fn parse_chrome_trace(input: &str) -> Result<ChromeTrace, String> {
    let doc = parse_json(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing traceEvents".to_string())?;
    let items = match events {
        JsonValue::Arr(items) => items,
        _ => return Err("traceEvents is not an array".to_string()),
    };
    let mut spans = Vec::with_capacity(items.len());
    for ev in items {
        let field_str = |k: &str| {
            ev.get(k).and_then(JsonValue::as_str).map(str::to_string)
        };
        let field_num =
            |k: &str| ev.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let args_num = |k: &str| {
            ev.get("args").and_then(|a| a.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0)
        };
        spans.push(ParsedSpan {
            name: field_str("name").ok_or_else(|| "event missing name".to_string())?,
            cat: field_str("cat").unwrap_or_default(),
            ph: field_str("ph").unwrap_or_default(),
            ts_us: field_num("ts"),
            dur_us: field_num("dur"),
            tid: field_num("tid") as u64,
            bytes: args_num("bytes") as u64,
            flops: args_num("flops") as u64,
            id: args_num("id") as u64,
        });
    }
    let counters = match doc.get("counters") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChromeTrace { spans, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Tracer};

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let t = Tracer::new();
        {
            let mut s = t.span(Category::NcTransfer, "nc.read");
            s.set_bytes(4096);
            s.set_id(11);
            zi_sync::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _s = t.span(Category::Compute, "adam_chunk");
            zi_sync::thread::sleep(std::time::Duration::from_millis(1));
        }
        t.instant(Category::Retry, "io.retry", 0, 2);
        t.count(Counter::NcReadBytes, 4096);
        let events = t.take_events();
        let json = chrome_trace_json(&events, &t.snapshot());
        let trace = parse_chrome_trace(&json).expect("parse back");
        assert_eq!(trace.spans.len(), events.len());
        assert_eq!(trace.span_count(Category::NcTransfer), 1);
        assert_eq!(trace.span_count(Category::Compute), 1);
        let nc = trace.spans.iter().find(|s| s.name == "nc.read").unwrap();
        assert_eq!((nc.bytes, nc.id, nc.ph.as_str()), (4096, 11, "X"));
        assert!(nc.dur_us >= 1000.0, "1ms sleep shows up in dur: {}", nc.dur_us);
        let retry = trace.spans.iter().find(|s| s.name == "io.retry").unwrap();
        assert_eq!(retry.ph, "i");
        assert_eq!(trace.counter("nc_read_bytes"), Some(4096.0));
        assert_eq!(trace.counter("events_dropped"), Some(0.0));
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let v = parse_json(r#"{"a":[1,-2.5,true,null,"x\"y\nA"],"b":{}}"#).unwrap();
        let arr = match v.get("a") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], JsonValue::Num(1.0));
        assert_eq!(arr[1], JsonValue::Num(-2.5));
        assert_eq!(arr[4], JsonValue::Str("x\"y\nA".to_string()));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_chrome_trace("{\"notTraceEvents\":[]}").is_err());

        // Nesting is bounded: the limit itself parses, one level more is
        // an error, and a megabyte of `[` (or of `{"a":`) is an error
        // rather than a stack overflow.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(MAX_NESTING)).is_ok());
        assert!(parse_json(&nest(MAX_NESTING + 1)).unwrap_err().contains("nesting"));
        assert!(parse_json(&"[".repeat(1 << 20)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(1 << 18)).is_err());
        // The bound is on depth, not on how many containers a document holds.
        assert!(parse_json(&format!("[{}[]]", "[[]],".repeat(1000))).is_ok());

        // Every proper prefix of a document is an error, never a panic.
        let doc = r#"{"k":[1,{"s":"a\u00e9\n"},-2.5e3,true,null],"e":{}}"#;
        assert!(parse_json(doc).is_ok());
        for end in 0..doc.len() {
            assert!(parse_json(&doc[..end]).is_err(), "prefix {:?}", &doc[..end]);
        }

        // A lone surrogate is not a scalar value: it decodes to U+FFFD.
        assert_eq!(parse_json(r#""\ud800x""#), Ok(JsonValue::Str("\u{fffd}x".to_string())));
        assert!(parse_json(r#""\ud80""#).is_err());
        assert!(parse_json(r#""\u"#).is_err());
    }

    #[test]
    fn empty_trace_exports_and_parses() {
        let json = chrome_trace_json(&[], &CounterSnapshot::default());
        let trace = parse_chrome_trace(&json).expect("parse");
        assert!(trace.spans.is_empty());
        assert_eq!(trace.counter("cg_bytes"), Some(0.0));
    }
}
