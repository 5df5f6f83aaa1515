//! The `audit.allow` allowlist.
//!
//! Format — one entry per line, `#` comments and blank lines ignored:
//!
//! ```text
//! <rule-id> <path-glob> [token=<substring>] -- <justification>
//! ```
//!
//! * `rule-id` — one of `sync-hygiene`, `lock-order`, `unsafe-safety`,
//!   `panic-path`.
//! * `path-glob` — `/`-separated, `*` matches within a segment, `**`
//!   matches any number of segments.
//! * `token=` — optional substring the finding's symbol must contain.
//! * justification — **required**; an entry without one is a parse
//!   error, so every exception in the file says *why* it is sound.
//!
//! Entries that suppress nothing are reported back (a stale exception
//! is a hole in the wall that no longer needs to exist).

use crate::rules::{Finding, RuleId};

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: u32,
    /// Which rule the entry silences.
    pub rule: RuleId,
    /// Path glob the finding's file must match.
    pub glob: String,
    /// Optional substring of the finding's symbol.
    pub token: Option<String>,
    /// Why the exception is sound (required, non-empty).
    pub justification: String,
}

/// A parsed allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A malformed allowlist line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: u32,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit.allow:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parse allowlist text; any malformed line is an error (a silently
    /// ignored exception would be worse than a loud one).
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx as u32 + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (head, justification) = match trimmed.split_once(" -- ") {
                Some((h, j)) if !j.trim().is_empty() => (h.trim(), j.trim().to_string()),
                _ => {
                    return Err(ParseError {
                        line,
                        message: "missing ` -- <justification>` (every exception must say why)"
                            .to_string(),
                    })
                }
            };
            let mut parts = head.split_whitespace();
            let rule = match parts.next().and_then(RuleId::parse) {
                Some(r) => r,
                None => {
                    return Err(ParseError {
                        line,
                        message: "unknown rule id (expected sync-hygiene | lock-order | \
                                  unsafe-safety | panic-path)"
                            .to_string(),
                    })
                }
            };
            let Some(glob) = parts.next() else {
                return Err(ParseError { line, message: "missing path glob".to_string() });
            };
            let mut token = None;
            for extra in parts {
                if let Some(t) = extra.strip_prefix("token=") {
                    token = Some(t.to_string());
                } else {
                    return Err(ParseError {
                        line,
                        message: format!("unexpected field `{extra}` (only token=… is allowed)"),
                    });
                }
            }
            entries.push(AllowEntry {
                line,
                rule,
                glob: glob.to_string(),
                token,
                justification,
            });
        }
        Ok(Allowlist { entries })
    }

    /// Split findings into (kept violations, suppressed count) and
    /// report which entries were used / unused.
    pub fn apply(&self, findings: Vec<Finding>) -> AllowOutcome {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            let mut hit = false;
            for (k, e) in self.entries.iter().enumerate() {
                if e.rule == f.rule
                    && glob_match(&e.glob, &f.path)
                    && e.token.as_ref().is_none_or(|t| f.symbol.contains(t.as_str()))
                {
                    used[k] = true;
                    hit = true;
                    break;
                }
            }
            if hit {
                suppressed += 1;
            } else {
                kept.push(f);
            }
        }
        let unused = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.clone())
            .collect();
        AllowOutcome { kept, suppressed, unused }
    }
}

/// Result of applying an allowlist to a finding set.
#[derive(Debug, Clone)]
pub struct AllowOutcome {
    /// Findings not covered by any entry — these fail the build.
    pub kept: Vec<Finding>,
    /// How many findings entries silenced.
    pub suppressed: usize,
    /// Entries that silenced nothing (stale exceptions).
    pub unused: Vec<AllowEntry>,
}

/// `/`-separated glob match: `**` spans segments, `*` matches within
/// one segment.
pub(crate) fn glob_match(glob: &str, path: &str) -> bool {
    let gsegs: Vec<&str> = glob.split('/').collect();
    let psegs: Vec<&str> = path.split('/').collect();
    seg_match(&gsegs, &psegs)
}

fn seg_match(glob: &[&str], path: &[&str]) -> bool {
    match (glob.first(), path.first()) {
        (None, None) => true,
        (Some(&"**"), _) => {
            // `**` eats zero or more path segments.
            seg_match(&glob[1..], path)
                || (!path.is_empty() && seg_match(glob, &path[1..]))
        }
        (Some(g), Some(p)) => star_match(g, p) && seg_match(&glob[1..], &path[1..]),
        _ => false,
    }
}

/// Single-segment match with `*` wildcards.
fn star_match(glob: &str, s: &str) -> bool {
    let g: Vec<char> = glob.chars().collect();
    let t: Vec<char> = s.chars().collect();
    fn go(g: &[char], t: &[char]) -> bool {
        match g.first() {
            None => t.is_empty(),
            Some('*') => go(&g[1..], t) || (!t.is_empty() && go(g, &t[1..])),
            Some(c) => t.first() == Some(c) && go(&g[1..], &t[1..]),
        }
    }
    go(&g, &t)
}
