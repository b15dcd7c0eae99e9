//! The aggregated report: sorted diagnostics, text and JSON renderings.
//!
//! Like every artifact in this workspace the linter's own output is
//! deterministic: files are scanned in sorted path order, hits within a
//! file in (line, rule) order, and the JSON goes through
//! `svr-harness::json` (insertion-ordered objects, byte-stable floats).
//! Running the linter twice over the same tree yields identical bytes —
//! asserted by the self-scan test.

use svr_harness::json::Json;

/// One resolved diagnostic, pinned to a workspace-relative location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (a scanner rule or `waiver-syntax` / `unused-waiver`).
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation, stable across runs.
    pub message: String,
}

/// A suppressed hit plus the waiver reason that suppressed it.
#[derive(Debug, Clone)]
pub struct WaivedDiagnostic {
    /// The suppressed diagnostic.
    pub diagnostic: Diagnostic,
    /// The reason carried by the matching waiver.
    pub reason: String,
}

/// Whole-workspace scan result.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Un-waived diagnostics — any entry here fails the gate.
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressed hits, kept visible so waivers stay auditable.
    pub waived: Vec<WaivedDiagnostic>,
}

impl Report {
    /// Gate verdict: clean means zero un-waived diagnostics.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Sort both lists into the canonical (file, line, rule) order.
    pub fn finish(&mut self) {
        let key = |d: &Diagnostic| (d.file.clone(), d.line, d.rule.clone());
        self.diagnostics.sort_by_key(key);
        self.waived.sort_by_key(|w| key(&w.diagnostic));
    }

    /// `file:line: [rule] message` lines plus a summary, for the console.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}:{}: [{}] {}\n", d.file, d.line, d.rule, d.message));
        }
        out.push_str(&format!(
            "svr-lint: {} files scanned, {} diagnostics, {} waived\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.waived.len()
        ));
        out
    }

    /// Byte-stable JSON document (committed as `LINT.json`).
    pub fn to_json(&self) -> Json {
        let diag = |d: &Diagnostic| {
            Json::obj()
                .set("rule", d.rule.as_str())
                .set("file", d.file.as_str())
                .set("line", d.line as u64)
                .set("message", d.message.as_str())
        };
        Json::obj()
            .set("tool", "svr-lint")
            .set(
                "rules",
                Json::Arr(crate::rules::RULES.iter().map(|r| Json::Str(r.to_string())).collect()),
            )
            .set("files_scanned", self.files_scanned as u64)
            .set("diagnostics", Json::Arr(self.diagnostics.iter().map(diag).collect()))
            .set(
                "waived",
                Json::Arr(
                    self.waived
                        .iter()
                        .map(|w| diag(&w.diagnostic).set("reason", w.reason.as_str()))
                        .collect(),
                ),
            )
    }
}
