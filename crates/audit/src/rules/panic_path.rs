//! Rule 4: the panic-path audit.
//!
//! Library code must surface failures as typed `Result`s, not process
//! aborts — PR 4's lock-unwrap audit (engine/store/trainer unwraps →
//! `Error::Internal`) made permanent. Denied in non-test library code:
//! `.unwrap()`, `.expect(...)`, `panic!`, `todo!`, `unimplemented!`.
//!
//! Scope: `crates/*/src/**` and the root `src/` — excluding `src/bin/`
//! (report binaries legitimately abort on bad CLI input), `tests/`,
//! `benches/`, `examples/`, and items under `#[cfg(test)]` / `#[test]`.
//! `assert!`/`debug_assert!` stay legal: they state invariants, not
//! error handling.

use super::{is_punct, test_regions, Finding, RuleId};
use crate::lexer::SourceFile;

/// Does the panic-path rule apply to this file at all?
pub(crate) fn in_scope(path: &str) -> bool {
    let lib_src = (path.starts_with("crates/") && path.contains("/src/"))
        || path.starts_with("src/");
    lib_src && !path.contains("/bin/")
}

/// Run the panic-path pass over one file.
pub(crate) fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path) {
        return;
    }
    let skip = test_regions(file);
    for i in 0..file.tokens.len() {
        if skip.contains(i) {
            continue;
        }
        let Some(ident) = file.ident(i) else { continue };
        let line = file.tokens[i].line;
        let hit = match ident {
            // `.unwrap()` / `.expect(` — method-call position only, so
            // a local `fn expect(...)` or `unwrap_or` never trips.
            "unwrap" | "expect"
                if is_punct(file, i.wrapping_sub(1), '.') && is_punct(file, i + 1, '(') =>
            {
                Some(format!(".{ident}()"))
            }
            "panic" | "todo" | "unimplemented" if is_punct(file, i + 1, '!') => {
                Some(format!("{ident}!"))
            }
            _ => None,
        };
        if let Some(symbol) = hit {
            out.push(Finding {
                rule: RuleId::PanicPath,
                path: file.path.clone(),
                line,
                symbol,
                message: format!(
                    "`{ident}` aborts the process from library code; return a typed \
                     error (zi_types::Error) instead, or allowlist with a justification"
                ),
            });
        }
    }
}
