//! A small, self-contained Rust lexer.
//!
//! `zi-audit` deliberately vendors no parser (`syn` is unavailable in
//! the offline build, and the rules below need token streams, not
//! ASTs). This lexer handles exactly the parts of the grammar that can
//! silently hide a forbidden token from a grep: line and (nested) block
//! comments, string / raw-string / byte-string literals, character
//! literals vs. lifetimes, and raw identifiers. Everything else is
//! reduced to identifiers, numbers, and single-character punctuation
//! with 1-based line spans.
//!
//! Comments are not discarded: the unsafe-inventory rule needs to see
//! `// SAFETY:` text, so each [`SourceFile`] keeps a per-line comment
//! map alongside the code-token stream.

use std::collections::BTreeMap;

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// Single punctuation character (`::` arrives as two adjacent `:`).
    Punct(char),
    /// Any string-like literal (string, raw string, byte string).
    Str,
    /// Character literal (`'a'`, `'\n'`, ...).
    Char,
    /// Lifetime (`'a`) — distinguished from [`Tok::Char`].
    Lifetime,
    /// Numeric literal.
    Num,
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// What was lexed.
    pub tok: Tok,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// A lexed source file: the relative path, the code-token stream, and
/// the comment text found on each line (joined when several comments
/// share a line).
#[derive(Debug, Clone)]
pub(crate) struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Code tokens in source order (comments excluded).
    pub tokens: Vec<Token>,
    /// Comment text by 1-based line. Block comments spanning several
    /// lines record their text on every line they cover, so "the
    /// comment on the line above" is a single map lookup.
    pub comments: BTreeMap<u32, String>,
}

impl SourceFile {
    /// Lex `content` into a token stream + comment map.
    ///
    /// The lexer never fails: unterminated literals or comments simply
    /// run to end-of-file (the compiler is the arbiter of validity; the
    /// auditor only needs to not misclassify what follows).
    pub(crate) fn lex(path: &str, content: &str) -> SourceFile {
        let mut lx = Lexer {
            src: content.as_bytes(),
            pos: 0,
            line: 1,
            tokens: Vec::new(),
            comments: BTreeMap::new(),
        };
        lx.run();
        SourceFile { path: path.to_string(), tokens: lx.tokens, comments: lx.comments }
    }

    /// The identifier text of token `i`, if it is one.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i) {
            Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when tokens `i` and `i + 1` form a `::` path separator.
    pub(crate) fn is_path_sep(&self, i: usize) -> bool {
        matches!(self.tokens.get(i), Some(Token { tok: Tok::Punct(':'), .. }))
            && matches!(self.tokens.get(i + 1), Some(Token { tok: Tok::Punct(':'), .. }))
    }

    /// The `a::b::c` path chain starting at identifier `i`, as segment
    /// strings, together with the token index one past the chain.
    pub(crate) fn path_from(&self, i: usize) -> (Vec<&str>, usize) {
        let mut segs = Vec::new();
        let mut at = i;
        while let Some(s) = self.ident(at) {
            segs.push(s);
            if self.is_path_sep(at + 1) {
                at += 3;
            } else {
                at += 1;
                break;
            }
        }
        (segs, at)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
    comments: BTreeMap<u32, String>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.tokens.push(Token { tok, line });
    }

    fn add_comment(&mut self, line: u32, text: &str) {
        let slot = self.comments.entry(line).or_default();
        if !slot.is_empty() {
            slot.push(' ');
        }
        slot.push_str(text);
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'r' | b'b' => {
                    if !self.try_prefixed_literal() {
                        self.ident_or_kw();
                    }
                }
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.ident_or_kw(),
                _ => {
                    let line = self.line;
                    self.bump();
                    // Multi-byte UTF-8 only occurs inside comments and
                    // strings in this codebase; stray continuation
                    // bytes in code would be a compile error anyway.
                    if b.is_ascii() {
                        self.push(Tok::Punct(b as char), line);
                    }
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.add_comment(line, text.trim());
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let first_line = self.line;
        self.bump();
        self.bump(); // consume "/*"
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: runs to EOF
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        // Record the comment's text on every line it covers so rules
        // can ask "is there a comment on line N" without span math.
        for (off, piece) in text.split('\n').enumerate() {
            self.add_comment(first_line + off as u32, piece.trim());
        }
    }

    /// `r"..."`, `r#"..."#`, `br##"..."##`, `b"..."`, `b'x'`, or not a
    /// literal at all (plain identifier starting with `r`/`b`, or a raw
    /// identifier `r#name`). Returns false when the caller should lex
    /// an identifier instead.
    fn try_prefixed_literal(&mut self) -> bool {
        let line = self.line;
        let mut off = 1; // past the leading r/b
        if self.peek(0) == Some(b'b') && self.peek(1) == Some(b'r') {
            off = 2;
        }
        // Count raw-string hashes.
        let mut hashes = 0usize;
        while self.peek(off + hashes) == Some(b'#') {
            hashes += 1;
        }
        let quote = self.peek(off + hashes);
        let is_raw = self.peek(0) == Some(b'r') || off == 2;
        match quote {
            Some(b'"') if is_raw => {
                // Raw (byte) string: consume prefix + hashes + quote,
                // then scan for `"` followed by `hashes` `#`s.
                for _ in 0..(off + hashes + 1) {
                    self.bump();
                }
                'scan: while let Some(b) = self.bump() {
                    if b == b'"' {
                        for h in 0..hashes {
                            if self.peek(h) != Some(b'#') {
                                continue 'scan;
                            }
                        }
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                }
                self.push(Tok::Str, line);
                true
            }
            Some(b'"') if hashes == 0 => {
                // b"..." — an escaped string body.
                for _ in 0..off {
                    self.bump();
                }
                self.string();
                true
            }
            Some(b'\'') if self.peek(0) == Some(b'b') && hashes == 0 && off == 1 => {
                // b'x' byte literal.
                self.bump();
                self.char_body(line);
                true
            }
            Some(b'#') => false, // unreachable (hashes consumed) — keep lexer total
            _ => {
                if is_raw && hashes > 0 {
                    // Raw identifier r#name: skip prefix, lex the name.
                    self.bump(); // r
                    self.bump(); // #
                    self.ident_or_kw();
                    true
                } else {
                    false
                }
            }
        }
    }

    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        self.push(Tok::Str, line);
    }

    /// After a `'`: a lifetime (`'a`, `'static`) when an identifier
    /// char follows and the char after the identifier is not a closing
    /// `'`; otherwise a char literal.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let c1 = self.peek(1);
        let ident_start = matches!(c1, Some(b'A'..=b'Z' | b'a'..=b'z' | b'_'));
        if ident_start && c1 != Some(b'\\') {
            // Look past the identifier run for a closing quote.
            let mut off = 2;
            while matches!(self.peek(off), Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')) {
                off += 1;
            }
            if self.peek(off) != Some(b'\'') {
                // Lifetime: consume quote + identifier.
                self.bump();
                while matches!(
                    self.peek(0),
                    Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')
                ) {
                    self.bump();
                }
                self.push(Tok::Lifetime, line);
                return;
            }
        }
        self.char_body(line);
    }

    /// Consume a char literal starting at the opening `'`.
    fn char_body(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.push(Tok::Char, line);
    }

    fn number(&mut self) {
        let line = self.line;
        // Digits, hex/underscore/exponent chars; a `.` continues the
        // number only when a digit follows (so `1.max(2)` still lexes
        // `max` as an identifier).
        while let Some(b) = self.peek(0) {
            match b {
                // Digits, hex letters (which cover the exponent `e` —
                // a signed exponent's `-5` lexes as separate tokens,
                // which no rule cares about) and suffix chars.
                b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' | b'x' | b'o' | b'_' | b'u' | b'i' => {
                    self.bump();
                }
                b'.' if matches!(self.peek(1), Some(b'0'..=b'9')) => {
                    self.bump();
                }
                _ => break,
            }
        }
        self.push(Tok::Num, line);
    }

    fn ident_or_kw(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(
            self.peek(0),
            Some(b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')
        ) {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(Tok::Ident(text), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(f: &SourceFile) -> Vec<&str> {
        f.tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let f = SourceFile::lex(
            "t.rs",
            "// std::sync::Mutex\nlet x = \"std::sync::Mutex\";\n/* parking_lot */ fn ok() {}\n",
        );
        let ids = idents(&f);
        assert!(!ids.contains(&"Mutex"));
        assert!(!ids.contains(&"parking_lot"));
        assert!(ids.contains(&"ok"));
        assert!(f.comments.get(&1).is_some_and(|c| c.contains("std::sync::Mutex")));
        assert!(f.comments.get(&3).is_some_and(|c| c.contains("parking_lot")));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::lex("t.rs", "/* a /* b */ still comment */ fn after() {}\n");
        assert_eq!(idents(&f), vec!["fn", "after"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = SourceFile::lex("t.rs", "let s = r#\"unsafe \" quote\"#; fn tail() {}");
        assert!(idents(&f).contains(&"tail"));
        assert!(!idents(&f).contains(&"unsafe"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let f = SourceFile::lex("t.rs", "fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = f.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = f.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn char_does_not_eat_rest_of_file() {
        let f = SourceFile::lex("t.rs", "let c = '\\''; fn visible() {}");
        assert!(idents(&f).contains(&"visible"));
    }

    #[test]
    fn raw_identifiers() {
        let f = SourceFile::lex("t.rs", "let r#type = 1; byte_me();");
        assert!(idents(&f).contains(&"type"));
        assert!(idents(&f).contains(&"byte_me"));
    }

    #[test]
    fn path_chain_reconstruction() {
        let f = SourceFile::lex("t.rs", "use std::sync::Mutex;");
        // token 0 = `use`, token 1 = `std`
        let (segs, _) = f.path_from(1);
        assert_eq!(segs, vec!["std", "sync", "Mutex"]);
    }

    #[test]
    fn multiline_block_comment_covers_every_line() {
        let f = SourceFile::lex("t.rs", "/* SAFETY: one\n   two */\nunsafe {}\n");
        assert!(f.comments.get(&1).is_some_and(|c| c.contains("SAFETY:")));
        assert!(f.comments.contains_key(&2));
    }
}
