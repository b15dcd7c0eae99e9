//! The determinism and hygiene rules (DESIGN §10).
//!
//! Every rule is a token matcher over [`SourceFile`] code lines (the
//! literal/comment masking already happened in [`crate::source`]).
//! Rules are deliberately heuristic — this is a line scanner, not a
//! type checker — and err on the side of firing; a site the scanner
//! cannot prove safe takes a `// lint: allow(rule, reason)` waiver,
//! which keeps every exception written down next to the code.

use crate::source::{FileKind, SourceFile};

/// A rule hit before waiver resolution: 1-based line plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Stable rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation, stable across runs.
    pub message: String,
}

/// Stable ids of every rule, in documentation order.
pub const RULES: [&str; 6] = [
    "wall-clock",
    "unordered-iter",
    "float-order",
    "stray-io",
    "thread-spawn",
    "unsafe-crate",
];

/// The only file allowed to read the wall clock: run telemetry in the
/// harness scheduler. Everything else must take time from the
/// simulation clock.
const WALL_CLOCK_ALLOWED: &str = "crates/harness/src/scheduler.rs";

/// The only module allowed to spawn OS threads: the workspace pool
/// (`svr_world::pool::map`). Determinism rests on every simulation
/// staying single-threaded and on the pool returning results in item
/// order.
const THREAD_ALLOWED: &str = "crates/world/src/pool.rs";

/// Run every rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    wall_clock(file, &mut hits);
    unordered_iter(file, &mut hits);
    float_order(file, &mut hits);
    stray_io(file, &mut hits);
    thread_spawn(file, &mut hits);
    unsafe_crate(file, &mut hits);
    hits.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    hits
}

/// `wall-clock`: no `Instant::now` / `SystemTime` outside the harness
/// scheduler. Wall-clock reads that leak into artifacts make
/// byte-identity across `--jobs` counts impossible.
fn wall_clock(file: &SourceFile, hits: &mut Vec<Hit>) {
    if file.path == WALL_CLOCK_ALLOWED {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        for token in ["Instant::now", "SystemTime"] {
            if has_token(&line.code, token) {
                hits.push(Hit {
                    rule: "wall-clock",
                    line: i + 1,
                    message: format!(
                        "`{token}` outside the harness scheduler; take time from the \
                         simulation clock"
                    ),
                });
            }
        }
    }
}

/// Methods whose call on a default-hasher map/set observes iteration
/// order.
const ITER_METHODS: [&str; 9] = [
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "drain(",
    "into_iter()",
    "into_keys()",
    "into_values()",
];

/// Order-insensitive sinks: a statement that sorts the items or
/// reduces them commutatively cannot leak `RandomState` order.
const ORDER_NEUTRAL: [&str; 10] = [
    "sort",
    "BTreeMap",
    "BTreeSet",
    ".sum(",
    ".count(",
    ".any(",
    ".all(",
    ".min(",
    ".max(",
    ".product(",
];

/// `unordered-iter`: no iteration over default-hasher `HashMap` /
/// `HashSet` in library code unless the statement visibly restores an
/// order (sort / BTree collect) or reduces commutatively. The scanner
/// tracks identifiers bound to hash types within the file (fields,
/// params, lets) and flags iterator-method calls and `for` loops over
/// them.
fn unordered_iter(file: &SourceFile, hits: &mut Vec<Hit>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    let idents = hash_bound_idents(file);
    if idents.is_empty() {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if file.line_in_test(i + 1) {
            continue;
        }
        let code = &line.code;
        for ident in &idents {
            // `ident.iter()` / `self.ident.keys()` / …
            for method in ITER_METHODS {
                let needle = format!("{ident}.{method}");
                if has_token(code, &needle) && !statement_is_order_neutral(file, i) {
                    hits.push(Hit {
                        rule: "unordered-iter",
                        line: i + 1,
                        message: format!(
                            "iteration over default-hasher container `{ident}` \
                             (`.{method}`…); sort, use a BTree type, or waive"
                        ),
                    });
                }
            }
            // `for x in &ident` / `for (k, v) in ident` / `… in &mut self.ident`.
            if let Some(pos) = code.find(" in ") {
                if code[..pos].trim_start().starts_with("for ") {
                    let expr = code[pos + 4..].trim_end_matches('{').trim();
                    let expr = expr
                        .trim_start_matches('&')
                        .trim_start_matches("mut ")
                        .trim_start_matches("self.")
                        .trim();
                    if expr == *ident {
                        hits.push(Hit {
                            rule: "unordered-iter",
                            line: i + 1,
                            message: format!(
                                "`for` loop over default-hasher container `{ident}`; \
                                 sort, use a BTree type, or waive"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// `float-order`: no `.partial_cmp(` call sites — float comparisons in
/// sorts/min/max must use `total_cmp`, which is total over NaN and
/// byte-stable. (`fn partial_cmp` *definitions* in `PartialOrd` impls
/// do not match: the token requires a receiver dot.)
fn float_order(file: &SourceFile, hits: &mut Vec<Hit>) {
    for (i, line) in file.lines.iter().enumerate() {
        if line.code.contains(".partial_cmp(") {
            hits.push(Hit {
                rule: "float-order",
                line: i + 1,
                message: "`.partial_cmp(` call site; use `total_cmp` (NaN-total, \
                          byte-stable) or waive with a no-NaN argument"
                    .to_string(),
            });
        }
    }
}

/// `stray-io`: no `println!` / `eprintln!` / `print!` / `eprint!` /
/// `dbg!` in library code. Library crates feed artifacts; reporting
/// belongs to examples and binaries.
fn stray_io(file: &SourceFile, hits: &mut Vec<Hit>) {
    if file.kind != FileKind::Lib {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if file.line_in_test(i + 1) {
            continue;
        }
        for token in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
            if has_token(&line.code, token) {
                hits.push(Hit {
                    rule: "stray-io",
                    line: i + 1,
                    message: format!("`{token}` in library code; move output to a bin/example \
                                      or waive"),
                });
            }
        }
    }
}

/// `thread-spawn`: no `std::thread` spawn/scope/Builder outside the
/// pool module. (`thread::current` and `available_parallelism` are
/// queries, not spawns, and stay legal.)
fn thread_spawn(file: &SourceFile, hits: &mut Vec<Hit>) {
    if file.path == THREAD_ALLOWED {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        for token in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if has_token(&line.code, token) {
                hits.push(Hit {
                    rule: "thread-spawn",
                    line: i + 1,
                    message: format!(
                        "`{token}` outside the pool module; route parallelism \
                         through `svr_world::pool::map`"
                    ),
                });
            }
        }
    }
}

/// `unsafe-crate`: every lib crate root carries `#![forbid(unsafe_code)]`.
fn unsafe_crate(file: &SourceFile, hits: &mut Vec<Hit>) {
    let is_crate_root = file.path == "src/lib.rs"
        || (file.path.starts_with("crates/") && file.path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let has_forbid = file.lines.iter().any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !has_forbid {
        hits.push(Hit {
            rule: "unsafe-crate",
            line: 1,
            message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// Collect identifiers this file binds to `HashMap` / `HashSet`:
/// struct fields and params (`name: [&[mut ]]HashMap<…>`) and lets
/// (`let [mut ]name = HashMap::new()` etc.). Sorted and deduped so
/// diagnostic order is stable.
fn hash_bound_idents(file: &SourceFile) -> Vec<String> {
    let mut idents = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(rel) = code[from..].find(ty) {
                let at = from + rel;
                from = at + ty.len();
                // Reject identifier tails like `MyHashMap` / `HashMapExt`.
                let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1]);
                let after = code.as_bytes().get(at + ty.len()).copied();
                let after_ok = matches!(after, Some(b'<') | Some(b':') | None);
                if !before_ok || !after_ok {
                    continue;
                }
                if let Some(name) = binding_before(code, at) {
                    idents.push(name);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Walk left from a `HashMap`/`HashSet` occurrence to the identifier it
/// is bound to, skipping a `std::collections::` qualifier, `&`/`mut`,
/// and the `:` or `=` binder. Returns `None` for bare uses (returns,
/// generic args) that bind nothing.
fn binding_before(code: &str, ty_at: usize) -> Option<String> {
    let mut left = code[..ty_at].trim_end();
    for qual in ["std::collections::", "collections::"] {
        if let Some(stripped) = left.strip_suffix(qual) {
            left = stripped.trim_end();
        }
    }
    loop {
        let trimmed = left.trim_end();
        if let Some(s) = trimmed.strip_suffix("mut") {
            // Only strip `mut` as a whole word (`&mut `, `: mut` never
            // occurs, but `foo_mut` must not lose its tail).
            if s.ends_with([' ', '&']) || s.is_empty() {
                left = s;
                continue;
            }
        }
        if let Some(s) = trimmed.strip_suffix('&') {
            left = s;
            continue;
        }
        break;
    }
    let binder = left.trim_end();
    let binder_char = binder.chars().last()?;
    if binder_char != ':' && binder_char != '=' {
        return None;
    }
    // `::` is a path, not a type annotation.
    if binder_char == ':' && binder.ends_with("::") {
        return None;
    }
    // `==`, `=>`, `<=`, `>=`, `!=` are not bindings.
    if binder_char == '=' && binder.len() >= 2 {
        let prev = binder.as_bytes()[binder.len() - 2];
        if matches!(prev, b'=' | b'<' | b'>' | b'!') {
            return None;
        }
    }
    let name_part = binder[..binder.len() - 1].trim_end();
    let name: String = name_part
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let valid = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    valid.then_some(name)
}

/// Join the statement starting at `line_idx` (through the first `;`,
/// capped at 8 lines) and test it for an order-insensitive sink.
fn statement_is_order_neutral(file: &SourceFile, line_idx: usize) -> bool {
    let mut stmt = String::new();
    for line in file.lines.iter().skip(line_idx).take(8) {
        stmt.push_str(&line.code);
        stmt.push(' ');
        if line.code.contains(';') {
            break;
        }
    }
    ORDER_NEUTRAL.iter().any(|t| stmt.contains(t))
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Substring match requiring a non-identifier char (or start of line)
/// before the token, so `my_dbg!`-style identifiers don't fire.
fn has_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let at = from + rel;
        if at == 0 || !is_ident_char(code.as_bytes()[at - 1]) {
            return true;
        }
        from = at + token.len();
    }
    false
}
