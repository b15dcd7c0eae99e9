//! # svr-lint
//!
//! Offline static analysis for the workspace's determinism invariants.
//!
//! Every number this reproduction reports rests on artifacts being
//! byte-identical at any `--jobs` count (DESIGN §8–§9). That guarantee
//! was previously enforced only dynamically, by diffing a small
//! experiment selection in `scripts/verify.sh`; this crate checks the
//! underlying invariants statically, over every `.rs` file in the
//! workspace, with zero external dependencies (an in-tree line/token
//! scanner — no `syn`, per the empty-registry policy).
//!
//! The rules (ids are stable; DESIGN §10 documents each threat model):
//!
//! - `wall-clock` — no `Instant::now` / `SystemTime` outside the
//!   harness scheduler.
//! - `unordered-iter` — no iteration over default-hasher `HashMap` /
//!   `HashSet` in library code without a visible ordering or
//!   commutative reduction.
//! - `float-order` — no `.partial_cmp(` call sites; float ordering
//!   goes through `total_cmp`.
//! - `stray-io` — no `println!` / `eprintln!` / `dbg!` in library code.
//! - `thread-spawn` — no thread spawn/scope outside the two pool
//!   modules.
//! - `unsafe-crate` — every lib crate root forbids `unsafe_code`.
//!
//! Exceptions are spelled in-line as waivers (see [`waiver`]); a waiver
//! that stops matching becomes an `unused-waiver` diagnostic, so the
//! exception list can only shrink by itself, never rot.
//!
//! The `svr-lint` binary runs the scan and is wired into
//! `scripts/verify.sh` (both the full and `--fast` paths); the
//! `self_scan` integration test runs the same scan inside `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod source;
pub mod waiver;

pub use report::{Diagnostic, Report, WaivedDiagnostic};
pub use source::{FileKind, SourceFile};

use std::path::{Path, PathBuf};

/// Scan one file's text as if it lived at workspace-relative `path`.
/// Returns (active diagnostics, waived diagnostics) for that file.
pub fn scan_text(path: &str, text: &str) -> (Vec<Diagnostic>, Vec<WaivedDiagnostic>) {
    let file = SourceFile::parse(path, text);
    let hits = rules::check_file(&file);
    let (waivers, mut malformed) = waiver::collect(&file);
    let mut waived_pairs = Vec::new();
    let mut active = waiver::apply(hits, &waivers, &mut waived_pairs);
    active.append(&mut malformed);
    active.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    let lift = |h: rules::Hit| Diagnostic {
        rule: h.rule.to_string(),
        file: path.to_string(),
        line: h.line,
        message: h.message,
    };
    (
        active.into_iter().map(lift).collect(),
        waived_pairs
            .into_iter()
            .map(|(h, reason)| WaivedDiagnostic { diagnostic: lift(h), reason })
            .collect(),
    )
}

/// Scan every workspace `.rs` file under `root` and aggregate a
/// [`Report`]. Files are visited in sorted path order; `target/`,
/// `.git/`, and other dot-directories are skipped.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for (rel, abs) in &files {
        let text = std::fs::read_to_string(abs)?;
        let (active, waived) = scan_text(rel, &text);
        report.diagnostics.extend(active);
        report.waived.extend(waived);
    }
    report.finish();
    Ok(report)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursive `.rs` collector: (workspace-relative `/`-path, absolute).
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, PathBuf)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}
