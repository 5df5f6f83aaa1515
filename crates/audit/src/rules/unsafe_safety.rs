//! Rule 3: the unsafe inventory.
//!
//! Every `unsafe` block, fn, impl, or trait must carry a `// SAFETY:`
//! comment on the line(s) immediately above it (attribute lines such as
//! `#[target_feature(...)]` may sit between the comment and the
//! `unsafe`, and an `unsafe fn`'s doc `# Safety` section also counts).
//! The pass additionally builds the per-crate inventory — total unsafe
//! sites and how many are documented — that lands in the JSON report,
//! so "how much unsafe do we carry and where" is a build artifact, not
//! an archaeology project.

use std::collections::{BTreeMap, HashSet};

use super::{Finding, RuleId};
use crate::lexer::{SourceFile, Tok};

/// What kind of unsafe site a token introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnsafeKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe fn ...` (including `#[target_feature]` kernels).
    Fn,
    /// `unsafe impl Trait for T`.
    Impl,
    /// `unsafe trait ...`.
    Trait,
}

impl UnsafeKind {
    /// Stable label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            UnsafeKind::Block => "block",
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::Trait => "trait",
        }
    }
}

/// Per-crate unsafe tallies for the JSON report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CrateInventory {
    /// Total unsafe sites (blocks + fns + impls + traits).
    pub total: usize,
    /// Sites with a `SAFETY:`/`# Safety` comment.
    pub documented: usize,
    /// Count per [`UnsafeKind`] label.
    pub by_kind: BTreeMap<&'static str, usize>,
}

/// The crate key a path belongs to (`crates/<name>/...` → `<name>`,
/// anything else → `(root)`).
pub(crate) fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("(root)")
}

/// Run the unsafe pass over one file, appending findings and updating
/// the per-crate inventory.
pub(crate) fn check(
    file: &SourceFile,
    out: &mut Vec<Finding>,
    inventory: &mut BTreeMap<String, CrateInventory>,
) {
    let attr_lines = attribute_lines(file);
    let code_lines: HashSet<u32> = file.tokens.iter().map(|t| t.line).collect();

    for i in 0..file.tokens.len() {
        if !super::is_ident(file, i, "unsafe") {
            continue;
        }
        let line = file.tokens[i].line;
        let kind = if super::is_punct(file, i + 1, '{') {
            UnsafeKind::Block
        } else {
            match file.ident(i + 1) {
                Some("impl") => UnsafeKind::Impl,
                Some("trait") => UnsafeKind::Trait,
                // `fn`, `unsafe extern "C" fn`, fn-pointer types, etc.
                _ => UnsafeKind::Fn,
            }
        };
        let documented = has_safety_comment(file, line, &attr_lines, &code_lines);

        let entry = inventory.entry(crate_of(&file.path).to_string()).or_default();
        entry.total += 1;
        *entry.by_kind.entry(kind.as_str()).or_insert(0) += 1;
        if documented {
            entry.documented += 1;
        } else {
            out.push(Finding {
                rule: RuleId::UnsafeSafety,
                path: file.path.clone(),
                line,
                symbol: format!("unsafe {}", kind.as_str()),
                message: "`unsafe` without a `// SAFETY:` comment on the line(s) above; \
                          state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

/// Walk upward from the `unsafe` token's line looking for a comment
/// containing `SAFETY:` (or a doc `# Safety` section). Comment lines
/// and attribute-only lines may stack; the first plain code line or
/// blank line ends the search. A trailing comment on the `unsafe` line
/// itself also counts.
fn has_safety_comment(
    file: &SourceFile,
    unsafe_line: u32,
    attr_lines: &HashSet<u32>,
    code_lines: &HashSet<u32>,
) -> bool {
    let marker = |text: &str| text.contains("SAFETY:") || text.contains("# Safety");
    if file.comments.get(&unsafe_line).is_some_and(|c| marker(c)) {
        return true;
    }
    let mut l = unsafe_line.saturating_sub(1);
    while l >= 1 {
        if let Some(c) = file.comments.get(&l) {
            if marker(c) {
                return true;
            }
            // A non-marker comment line: keep walking (multi-line
            // SAFETY blocks put the keyword on their first line).
        } else if attr_lines.contains(&l) {
            // Attribute between comment and item — keep walking.
        } else if code_lines.contains(&l) {
            return false; // real code: the comment chain is broken
        } else {
            return false; // blank line: comment is not "above" anymore
        }
        l -= 1;
    }
    false
}

/// Lines whose code tokens all belong to `#[...]` attribute groups.
fn attribute_lines(file: &SourceFile) -> HashSet<u32> {
    let mut per_line: BTreeMap<u32, (usize, usize)> = BTreeMap::new(); // (attr, total)
    let mut i = 0;
    while i < file.tokens.len() {
        if super::is_punct(file, i, '#') && super::is_punct(file, i + 1, '[') {
            // Span the attribute group.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < file.tokens.len() {
                match file.tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for t in &file.tokens[i..(j + 1).min(file.tokens.len())] {
                let e = per_line.entry(t.line).or_default();
                e.0 += 1;
                e.1 += 1;
            }
            i = j + 1;
            continue;
        }
        let e = per_line.entry(file.tokens[i].line).or_default();
        e.1 += 1;
        i += 1;
    }
    per_line
        .into_iter()
        .filter(|&(_, (attr, total))| attr == total && total > 0)
        .map(|(line, _)| line)
        .collect()
}
