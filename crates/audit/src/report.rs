//! Report rendering: human text and a hand-rolled JSON document.
//!
//! No serde in the offline build, so JSON is emitted through a tiny
//! escaping writer. The JSON shape is stable (consumed by CI tooling
//! and the fixture tests):
//!
//! ```json
//! {
//!   "files_scanned": N,
//!   "findings": [{"rule","path","line","symbol","message"}...],
//!   "suppressed": N,
//!   "unused_allow_entries": [{"line","rule","glob"}...],
//!   "unsafe_inventory": {"<crate>": {"total","documented","by_kind":{...}}},
//!   "lock_graph": {"nodes": N, "edges": [...], "ambiguous_sites": N,
//!                   "cycles": [[...]...], "acyclic": bool}
//! }
//! ```

use std::fmt::Write as _;

use crate::allow::{AllowEntry, AllowOutcome};
use crate::Analysis;

/// Escape a string for a JSON value position.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the JSON report document.
pub fn to_json(analysis: &Analysis, outcome: &AllowOutcome) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"files_scanned\": {},", analysis.files_scanned);

    j.push_str("  \"findings\": [");
    for (i, f) in outcome.kept.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \"message\": \"{}\"}}",
            f.rule.as_str(),
            json_escape(&f.path),
            f.line,
            json_escape(&f.symbol),
            json_escape(&f.message)
        );
    }
    j.push_str(if outcome.kept.is_empty() { "],\n" } else { "\n  ],\n" });

    let _ = writeln!(j, "  \"suppressed\": {},", outcome.suppressed);

    j.push_str("  \"unused_allow_entries\": [");
    for (i, e) in outcome.unused.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    {{\"line\": {}, \"rule\": \"{}\", \"glob\": \"{}\"}}",
            e.line,
            e.rule.as_str(),
            json_escape(&e.glob)
        );
    }
    j.push_str(if outcome.unused.is_empty() { "],\n" } else { "\n  ],\n" });

    j.push_str("  \"unsafe_inventory\": {");
    for (i, (krate, inv)) in analysis.unsafe_inventory.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    \"{}\": {{\"total\": {}, \"documented\": {}, \"by_kind\": {{",
            json_escape(krate),
            inv.total,
            inv.documented
        );
        for (k, (kind, count)) in inv.by_kind.iter().enumerate() {
            if k > 0 {
                j.push_str(", ");
            }
            let _ = write!(j, "\"{kind}\": {count}");
        }
        j.push_str("}}");
    }
    j.push_str(if analysis.unsafe_inventory.is_empty() { "},\n" } else { "\n  },\n" });

    let g = &analysis.lock_graph;
    let _ = write!(
        j,
        "  \"lock_graph\": {{\"nodes\": {}, \"ambiguous_sites\": {}, \"ambiguous_calls\": {}, \"acyclic\": {}, \"edges\": [",
        g.nodes.len(),
        g.ambiguous_sites,
        g.ambiguous_calls,
        g.cycles.is_empty()
    );
    for (i, e) in g.edges.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(
            j,
            "\n    {{\"from\": \"{}\", \"to\": \"{}\", \"site\": \"{}\", \"via\": \"{}\"}}",
            json_escape(&e.from),
            json_escape(&e.to),
            json_escape(&e.site),
            json_escape(&e.via)
        );
    }
    j.push_str(if g.edges.is_empty() { "], " } else { "\n  ], " });
    j.push_str("\"cycles\": [");
    for (i, c) in g.cycles.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push('[');
        for (k, n) in c.iter().enumerate() {
            if k > 0 {
                j.push_str(", ");
            }
            let _ = write!(j, "\"{}\"", json_escape(n));
        }
        j.push(']');
    }
    j.push_str("]}\n}\n");
    j
}

/// Render the human report to a string.
pub fn to_human(analysis: &Analysis, outcome: &AllowOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "zi-audit: scanned {} files — {} violation(s), {} suppressed by audit.allow",
        analysis.files_scanned,
        outcome.kept.len(),
        outcome.suppressed
    );
    for rule in crate::rules::RuleId::all() {
        let in_rule: Vec<_> = outcome.kept.iter().filter(|f| f.rule == rule).collect();
        if in_rule.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n[{}] {} finding(s):", rule.as_str(), in_rule.len());
        for f in in_rule {
            let _ = writeln!(out, "  {}:{}: {} — {}", f.path, f.line, f.symbol, f.message);
        }
    }
    let g = &analysis.lock_graph;
    let _ = writeln!(
        out,
        "\nlock-order graph: {} named locks, {} hold-while-acquiring edges, {} ambiguous \
         acquisition site(s) + {} ambiguous call(s) skipped — {}",
        g.nodes.len(),
        g.edges.len(),
        g.ambiguous_sites,
        g.ambiguous_calls,
        if g.cycles.is_empty() { "acyclic" } else { "CYCLES FOUND" }
    );
    let mut total = 0usize;
    let mut documented = 0usize;
    for inv in analysis.unsafe_inventory.values() {
        total += inv.total;
        documented += inv.documented;
    }
    let _ = writeln!(
        out,
        "unsafe inventory: {total} site(s) across {} crate(s), {documented} documented",
        analysis.unsafe_inventory.len()
    );
    for e in &outcome.unused {
        let _ = writeln!(
            out,
            "error: audit.allow:{} ({} {}) suppressed nothing — stale entry",
            e.line,
            e.rule.as_str(),
            e.glob
        );
    }
    out
}

/// Human line for one unused allow entry (used by the binary's stderr).
pub fn unused_entry_line(e: &AllowEntry) -> String {
    format!("audit.allow:{}: unused entry ({} {})", e.line, e.rule.as_str(), e.glob)
}
