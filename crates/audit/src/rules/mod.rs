//! Rule passes over lexed token streams.
//!
//! Each rule consumes [`SourceFile`]s and emits [`Finding`]s. Rules are
//! token-level by design: with no AST available, every pass documents
//! the approximation it makes and errs toward whichever direction is
//! cheaper to audit (sync-hygiene/panic-path over-report and rely on
//! the allowlist; lock-order drops ambiguous sites rather than
//! fabricating edges, and says how many it dropped).

pub mod lock_order;
pub mod panic_path;
pub mod sync_hygiene;
pub mod unsafe_safety;

use crate::lexer::{SourceFile, Tok};

/// Identifies which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `std::sync`/`parking_lot`/`crossbeam`/`std::thread`/`Instant`
    /// outside `crates/sync`.
    SyncHygiene,
    /// Potential ABBA deadlock cycle in the static lock-order graph.
    LockOrder,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeSafety,
    /// `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test
    /// library code.
    PanicPath,
}

impl RuleId {
    /// Stable string id used in reports and `audit.allow`.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::SyncHygiene => "sync-hygiene",
            RuleId::LockOrder => "lock-order",
            RuleId::UnsafeSafety => "unsafe-safety",
            RuleId::PanicPath => "panic-path",
        }
    }

    /// Parse a string id back into a rule (for allowlist entries).
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "sync-hygiene" => Some(RuleId::SyncHygiene),
            "lock-order" => Some(RuleId::LockOrder),
            "unsafe-safety" => Some(RuleId::UnsafeSafety),
            "panic-path" => Some(RuleId::PanicPath),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub fn all() -> [RuleId; 4] {
        [RuleId::SyncHygiene, RuleId::LockOrder, RuleId::UnsafeSafety, RuleId::PanicPath]
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The offending symbol (matched against allowlist `token=`).
    pub symbol: String,
    /// Human explanation, including the suggested fix.
    pub message: String,
}

/// Token-index ranges (half-open) that a rule should skip, e.g. items
/// under `#[cfg(test)]`.
#[derive(Debug, Default, Clone)]
pub(crate) struct SkipRegions {
    ranges: Vec<(usize, usize)>,
}

impl SkipRegions {
    /// Is token index `i` inside any skipped region?
    pub fn contains(&self, i: usize) -> bool {
        self.ranges.iter().any(|&(a, b)| a <= i && i < b)
    }
}

/// Find items annotated with an attribute accepted by `pred` and return
/// their token extents (attribute start through end of item).
///
/// `pred` sees the identifier list of one attribute, e.g.
/// `["cfg", "test"]` for `#[cfg(test)]` or `["test"]` for `#[test]`.
/// The "item" is everything up to the first `;` at bracket depth zero
/// or the matching `}` of the first body brace — enough for `use`,
/// `fn`, `mod`, `impl`, `static`, and struct declarations alike.
pub(crate) fn attr_item_regions<F>(file: &SourceFile, pred: F) -> SkipRegions
where
    F: Fn(&[&str]) -> bool,
{
    let toks = &file.tokens;
    let mut regions = SkipRegions::default();
    let mut i = 0;
    while i < toks.len() {
        if !is_punct(file, i, '#') || !is_punct(file, i + 1, '[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let (idents, after) = attr_tokens(file, i);
        if !pred(&idents) {
            i = after;
            continue;
        }
        // Skip any further stacked attributes before the item proper.
        let mut j = after;
        while is_punct(file, j, '#') && is_punct(file, j + 1, '[') {
            let (_, next) = attr_tokens(file, j);
            j = next;
        }
        let end = item_end(file, j);
        regions.ranges.push((attr_start, end));
        i = end;
    }
    regions
}

/// Collect the identifier texts inside one `#[...]` attribute starting
/// at the `#` token; returns them plus the index one past the closing
/// `]`.
fn attr_tokens(file: &SourceFile, hash_idx: usize) -> (Vec<&str>, usize) {
    let toks = &file.tokens;
    let mut idents = Vec::new();
    let mut depth = 0i32;
    let mut i = hash_idx + 1; // at '['
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (idents, i + 1);
                }
            }
            Tok::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
        i += 1;
    }
    (idents, toks.len())
}

/// Token index one past the end of the item starting at `start`: the
/// first `;` at paren/bracket/brace depth zero, or the matching `}` of
/// the first `{` encountered at depth zero.
fn item_end(file: &SourceFile, start: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut i = start;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct(';') if depth == 0 => return i + 1,
            Tok::Punct('{') if depth == 0 => return matching_brace(file, i),
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Index one past the `}` matching the `{` at `open`.
pub(crate) fn matching_brace(file: &SourceFile, open: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Is token `i` the given punctuation char?
pub(crate) fn is_punct(file: &SourceFile, i: usize, c: char) -> bool {
    matches!(file.tokens.get(i), Some(t) if t.tok == Tok::Punct(c))
}

/// Is token `i` the given identifier?
pub(crate) fn is_ident(file: &SourceFile, i: usize, s: &str) -> bool {
    file.ident(i) == Some(s)
}

/// Regions under `#[cfg(test)]` / `#[test]` (plus `#[cfg(any(test,..))]`
/// and similar — any cfg attribute that mentions `test`).
pub(crate) fn test_regions(file: &SourceFile) -> SkipRegions {
    attr_item_regions(file, |idents| {
        idents == ["test"]
            || (idents.first() == Some(&"cfg") && idents.contains(&"test"))
    })
}

/// Regions under `#[cfg(zi_check)]` / `#[cfg(not(zi_check))]` — the
/// model-checking shims the sync-hygiene wall explicitly permits.
pub(crate) fn zi_check_regions(file: &SourceFile) -> SkipRegions {
    attr_item_regions(file, |idents| {
        idents.first() == Some(&"cfg") && idents.contains(&"zi_check")
    })
}
