#![warn(missing_docs)]

//! `zi-audit`: workspace static-analysis pass.
//!
//! The repo's resilience story rests on one assumption: every
//! concurrent subsystem goes through `zi-sync`, so `zi-check` can
//! model-check it and chaos runs can replay it. Nothing in the
//! compiler enforces that — `[workspace.lints]` cannot express "no
//! `std::sync` outside `crates/sync`" — so this crate does, as a
//! self-contained token-level analyzer (no `syn`; see [`lexer`]) with
//! four rule passes:
//!
//! 1. **sync-hygiene** ([`rules::sync_hygiene`]) — the primitives wall.
//! 2. **lock-order** ([`rules::lock_order`]) — static ABBA-cycle
//!    detection over named `zi_sync` locks, the always-on complement to
//!    `zi-check`'s schedule-dependent wait-for-graph detector.
//! 3. **unsafe-safety** ([`rules::unsafe_safety`]) — every `unsafe`
//!    carries a `// SAFETY:` comment; per-crate inventory in the JSON
//!    report.
//! 4. **panic-path** ([`rules::panic_path`]) — no
//!    `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test
//!    library code.
//!
//! Exceptions live in a checked-in [`allow::Allowlist`] (`audit.allow`)
//! where every entry carries a written justification. The `zi-audit`
//! binary walks `crates/`, `src/`, `tests/`, and `examples/`, prints
//! human + JSON findings, and exits nonzero on any unallowlisted
//! violation — wired into `scripts/ci.sh` as the `audit` stage.

pub mod allow;
pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use lexer::SourceFile;
use rules::lock_order::LockGraph;
use rules::unsafe_safety::CrateInventory;
use rules::Finding;

/// Everything one analysis run produced (before allowlisting).
#[derive(Debug, Default)]
pub struct Analysis {
    /// How many `.rs` files were lexed.
    pub files_scanned: usize,
    /// All raw findings across rules, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Per-crate unsafe tallies.
    pub unsafe_inventory: BTreeMap<String, CrateInventory>,
    /// The workspace lock-order graph.
    pub lock_graph: LockGraph,
}

/// The directories the auditor walks, relative to the workspace root.
pub(crate) const WALK_DIRS: &[&str] = &["crates", "src", "tests", "examples"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// Collect `(relative_path, content)` for every `.rs` file under the
/// walked directories of `root`, sorted by path for determinism.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for dir in WALK_DIRS {
        let abs = root.join(dir);
        if abs.is_dir() {
            walk(root, &abs, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Run every rule over in-memory sources. This is the same entry point
/// the fixture tests use, so "what the binary enforces" and "what the
/// tests cover" cannot drift apart.
pub fn analyze(sources: &[(String, String)]) -> Analysis {
    let files: Vec<SourceFile> =
        sources.iter().map(|(p, c)| SourceFile::lex(p, c)).collect();

    let mut findings = Vec::new();
    let mut inventory = BTreeMap::new();
    for f in &files {
        rules::sync_hygiene::check(f, &mut findings);
        rules::panic_path::check(f, &mut findings);
        rules::unsafe_safety::check(f, &mut findings, &mut inventory);
    }
    let lock_graph = rules::lock_order::check(&files, &mut findings);

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Analysis {
        files_scanned: files.len(),
        findings,
        unsafe_inventory: inventory,
        lock_graph,
    }
}

/// Convenience for tests: analyze `(path, content)` pairs given as
/// string slices.
pub fn analyze_strs(sources: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> =
        sources.iter().map(|(p, c)| (p.to_string(), c.to_string())).collect();
    analyze(&owned)
}
