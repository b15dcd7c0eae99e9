//! Source model: turn one `.rs` file into scanner-ready lines.
//!
//! The rules in [`crate::rules`] are token matchers, so everything here
//! exists to keep them from firing on text that is not code:
//!
//! - String, byte-string, raw-string, and char literals are masked to
//!   spaces (a fixture snippet containing `Instant::now()` inside a
//!   test's string literal must not trip the self-scan).
//! - Comments are split out per line: rule matching sees only the code
//!   half, waiver parsing (see [`crate::waiver`]) sees only the comment
//!   half.
//! - `#[cfg(test)]` items are tracked by brace depth so rules that only
//!   police library code (`stray-io`, `unordered-iter`) can skip
//!   in-file test modules.

/// Where a file sits in the workspace layout. Rules scope themselves
/// by kind: e.g. `stray-io` polices only [`FileKind::Lib`] — examples
/// print by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` of a crate (the code that feeds artifacts).
    Lib,
    /// `src/main.rs` / `src/bin/**` — CLI entry points.
    Bin,
    /// `tests/**` integration tests.
    Test,
    /// `examples/**`.
    Example,
}

impl FileKind {
    /// Classify a workspace-relative, `/`-separated path.
    pub fn classify(path: &str) -> FileKind {
        if path.starts_with("tests/") || path.contains("/tests/") {
            FileKind::Test
        } else if path.starts_with("examples/") || path.contains("/examples/") {
            FileKind::Example
        } else if path.ends_with("src/main.rs") || path.contains("/src/bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// One physical source line, split into its code and comment halves.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with literals masked to spaces and comments removed.
    /// Columns are preserved so token positions match the file.
    pub code: String,
    /// Text of any `//` / `///` / `/* … */` comment on this line.
    pub comment: String,
}

/// A scanned file: masked lines plus per-line `#[cfg(test)]` scope.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Layout classification (see [`FileKind::classify`]).
    pub kind: FileKind,
    /// Masked lines, index 0 = line 1.
    pub lines: Vec<Line>,
    /// `in_test[i]` — line `i+1` is inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Scan `text` as the file at `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lines = mask(text);
        let in_test = mark_cfg_test(&lines);
        SourceFile { path: path.to_string(), kind: FileKind::classify(path), lines, in_test }
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` item.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Lexer-lite state machine: walk the file once, routing every char to
/// the code half (literals → spaces) or the comment half of its line.
fn mask(text: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        /// Block comments nest in Rust; the payload is the depth.
        BlockComment(u32),
        Str,
        /// Raw string; payload is the number of `#`s in the opener.
        RawStr(u32),
        Char,
    }

    let bytes = text.as_bytes();
    let mut lines = vec![Line::default()];
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(Line::default());
            i += 1;
            continue;
        }
        let line = lines.last_mut().unwrap();
        match state {
            State::Code => {
                if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    line.code.push_str("  ");
                    i += 2;
                } else if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    line.code.push_str("  ");
                    i += 2;
                } else if c == b'"' {
                    state = State::Str;
                    line.code.push(' ');
                    i += 1;
                } else if let Some(hashes) = raw_string_opener(bytes, i) {
                    // `r"`, `r#"`, `br#"` … — mask the whole opener.
                    let open_len = opener_len(bytes, i, hashes);
                    for _ in 0..open_len {
                        line.code.push(' ');
                    }
                    state = State::RawStr(hashes);
                    i += open_len;
                } else if c == b'\'' && is_char_literal(bytes, i) {
                    state = State::Char;
                    line.code.push(' ');
                    i += 1;
                } else {
                    line.code.push(c as char);
                    i += 1;
                }
            }
            State::LineComment => {
                line.comment.push(c as char);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    i += 2;
                } else if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    line.comment.push_str("  ");
                    i += 2;
                } else {
                    line.comment.push(c as char);
                    i += 1;
                }
            }
            State::Str => {
                if c == b'\\' {
                    if bytes.get(i + 1) == Some(&b'\n') {
                        // `\` line continuation: let the main loop see
                        // the newline so line numbering stays aligned.
                        line.code.push(' ');
                        i += 1;
                    } else {
                        line.code.push_str("  ");
                        i += 2; // skip the escaped char (incl. `\"`)
                    }
                } else {
                    if c == b'"' {
                        state = State::Code;
                    }
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == b'"' && closes_raw(bytes, i, hashes) {
                    for _ in 0..=hashes {
                        line.code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == b'\\' {
                    line.code.push_str("  ");
                    i += 2;
                } else {
                    if c == b'\'' {
                        state = State::Code;
                    }
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines
}

/// If position `i` starts a raw (byte) string opener, return its hash
/// count. Requires the `r` not to be the tail of an identifier.
fn raw_string_opener(bytes: &[u8], i: usize) -> Option<u32> {
    let prev_ident = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
    if prev_ident {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Length in bytes of the raw-string opener starting at `i`.
fn opener_len(bytes: &[u8], i: usize, hashes: u32) -> usize {
    let b_prefix = bytes.get(i) == Some(&b'b');
    1 + usize::from(b_prefix) + hashes as usize + 1
}

/// Whether the `"` at `i` ends a raw string with `hashes` trailing `#`s.
fn closes_raw(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Disambiguate a char literal (`'x'`, `'\n'`, `'\u{…}'`) from a
/// lifetime (`'a`, `'static`): a lifetime never has a closing quote.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// Mark every line belonging to a `#[cfg(test)]` item. The item body is
/// delimited by the first `{` after the attribute (matched by depth);
/// an item ending in `;` before any `{` spans only through that line.
fn mark_cfg_test(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut l = 0;
    while l < lines.len() {
        if !lines[l].code.contains("#[cfg(test)]") {
            l += 1;
            continue;
        }
        // Walk chars from just past the attribute to the item end.
        let attr_col = lines[l].code.find("#[cfg(test)]").unwrap() + "#[cfg(test)]".len();
        let mut depth = 0u32;
        let mut opened = false;
        let mut end = l;
        'outer: for (li, line) in lines.iter().enumerate().skip(l) {
            let code = &line.code;
            let start = if li == l { attr_col } else { 0 };
            for ch in code[start.min(code.len())..].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = li;
                            break 'outer;
                        }
                    }
                    ';' if !opened => {
                        end = li;
                        break 'outer;
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for flag in in_test.iter_mut().take(end + 1).skip(l) {
            *flag = true;
        }
        l = end + 1;
    }
    in_test
}
