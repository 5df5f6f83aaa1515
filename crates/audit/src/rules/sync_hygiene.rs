//! Rule 1: the sync-hygiene wall.
//!
//! Every concurrent subsystem must take its primitives from `zi-sync`
//! so `zi-check` can model-check it and chaos runs can replay it. This
//! pass forbids, outside `crates/sync/`:
//!
//! * any `std::sync::...` path (locks, atomics, channels — and also
//!   `Arc`/`Weak`/`OnceLock`, which `zi-sync` re-exports so that the
//!   wall stays a single greppable rule rather than a carve-out list),
//! * any `std::thread::...` path (`zi_sync::thread` wraps the surface
//!   the workspace uses),
//! * `std::time::Instant` (`zi_sync::time::Instant` is virtualized
//!   under the model checker; `Duration` is pure data and stays legal),
//! * any mention of `parking_lot` or `crossbeam` (those belong behind
//!   the wall only).
//!
//! Items under `#[cfg(zi_check)]` / `#[cfg(not(zi_check))]` are exempt:
//! they *are* the wall's implementation detail when it leaks into
//! another crate as a shim. Everything else goes through `audit.allow`
//! with a written justification.

use super::{zi_check_regions, Finding, RuleId};
use crate::lexer::SourceFile;

/// Path prefixes exempt from this rule (the wall's inside).
const EXEMPT_PREFIXES: &[&str] = &["crates/sync/"];

/// Run the sync-hygiene pass over one file.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if EXEMPT_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    let skip = zi_check_regions(file);
    let mut i = 0;
    while i < file.tokens.len() {
        if skip.contains(i) {
            i += 1;
            continue;
        }
        let Some(ident) = file.ident(i) else {
            i += 1;
            continue;
        };
        let line = file.tokens[i].line;
        match ident {
            "std" if file.is_path_sep(i + 1) => {
                let (segs, after) = file.path_from(i);
                if let Some(sym) = forbidden_std_path(&segs) {
                    out.push(finding(file, line, sym, &segs));
                }
                i = after;
                continue;
            }
            "parking_lot" | "crossbeam" => {
                let (segs, after) = file.path_from(i);
                out.push(finding(file, line, ident.to_string(), &segs));
                i = after;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// Decide whether a `std::...` path is forbidden; returns the symbol to
/// report (the offending prefix, not the full path, so allowlist
/// `token=` entries stay short).
fn forbidden_std_path(segs: &[&str]) -> Option<String> {
    match segs.get(1) {
        Some(&"sync") => Some("std::sync".to_string()),
        Some(&"thread") => Some("std::thread".to_string()),
        Some(&"time") if segs.get(2) == Some(&"Instant") => {
            Some("std::time::Instant".to_string())
        }
        _ => None,
    }
}

fn finding(file: &SourceFile, line: u32, symbol: String, segs: &[&str]) -> Finding {
    let replacement = match symbol.as_str() {
        "std::sync" => "zi_sync (locks/atomics/channels/Arc/OnceLock are all re-exported)",
        "std::thread" => "zi_sync::thread",
        "std::time::Instant" => "zi_sync::time::Instant",
        _ => "zi_sync",
    };
    Finding {
        rule: RuleId::SyncHygiene,
        path: file.path.clone(),
        line,
        symbol,
        message: format!(
            "`{}` bypasses the zi-sync wall (erodes zi-check model coverage); use {}",
            segs.join("::"),
            replacement
        ),
    }
}
