//! Golden fixtures: one firing and one passing snippet per rule, the
//! waiver round-trip, and the masking that keeps the scanner honest.
//!
//! Every bad snippet here is the regression guard the acceptance
//! criteria ask for: if the corresponding rule stops firing on it, the
//! gate has a hole.

use svr_lint::{scan_text, Diagnostic};

/// Active (un-waived) diagnostics for `text` at workspace path `path`.
fn active(path: &str, text: &str) -> Vec<Diagnostic> {
    scan_text(path, text).0
}

fn rule_lines(diags: &[Diagnostic]) -> Vec<(&str, usize)> {
    diags.iter().map(|d| (d.rule.as_str(), d.line)).collect()
}

// ---- wall-clock --------------------------------------------------------

#[test]
fn wall_clock_fires_in_sim_code() {
    let bad = "fn t() -> u64 {\n    let s = std::time::Instant::now();\n    0\n}\n";
    assert_eq!(rule_lines(&active("crates/core/src/foo.rs", bad)), [("wall-clock", 2)]);

    let sys = "use std::time::SystemTime;\n";
    assert_eq!(rule_lines(&active("crates/netsim/src/x.rs", sys)), [("wall-clock", 1)]);
}

#[test]
fn wall_clock_allows_only_the_scheduler_and_sim_durations() {
    let timing = "fn t() { let s = std::time::Instant::now(); s.elapsed(); }\n";
    assert!(active("crates/harness/src/scheduler.rs", timing).is_empty());
    assert_eq!(rule_lines(&active("crates/bench/src/x.rs", timing)), [("wall-clock", 1)]);

    let good = "fn t() { let d = std::time::Duration::from_secs(1); let _ = d; }\n";
    assert!(active("crates/core/src/foo.rs", good).is_empty());
}

// ---- unordered-iter ----------------------------------------------------

#[test]
fn unordered_iter_fires_on_hash_iteration() {
    let bad = r#"
use std::collections::HashMap;
struct S { m: HashMap<u32, u32> }
impl S {
    fn ids(&self) -> Vec<u32> {
        self.m.keys().copied().collect()
    }
}
"#;
    assert_eq!(rule_lines(&active("crates/platform/src/x.rs", bad)), [("unordered-iter", 6)]);
}

#[test]
fn unordered_iter_fires_on_for_loop_over_hash() {
    let bad = r#"
struct S { m: std::collections::HashMap<u32, u32> }
impl S {
    fn f(&self, out: &mut Vec<u32>) {
        for (k, _v) in &self.m {
            out.push(*k);
        }
    }
}
"#;
    assert_eq!(rule_lines(&active("crates/platform/src/x.rs", bad)), [("unordered-iter", 5)]);
}

#[test]
fn unordered_iter_fires_on_local_hashset() {
    let bad = r#"
fn f(xs: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashSet::new();
    seen.insert(1u32);
    seen.iter().copied().collect()
}
"#;
    assert_eq!(rule_lines(&active("crates/core/src/x.rs", bad)), [("unordered-iter", 5)]);
}

#[test]
fn unordered_iter_passes_btree_reductions_and_tests() {
    // BTree types carry their own order.
    let btree = r#"
struct S { m: std::collections::BTreeMap<u32, u32> }
impl S { fn ids(&self) -> Vec<u32> { self.m.keys().copied().collect() } }
"#;
    assert!(active("crates/platform/src/x.rs", btree).is_empty());

    // A commutative reduction cannot leak RandomState order.
    let sum = r#"
struct S { m: std::collections::HashMap<u32, u64> }
impl S { fn total(&self) -> u64 { self.m.values().sum() } }
"#;
    assert!(active("crates/platform/src/x.rs", sum).is_empty());

    // Collecting into an ordered container within the same statement
    // restores determinism (the `BTreeSet` names the order).
    let resorted = r#"
struct S { m: std::collections::HashMap<u32, u64> }
impl S {
    fn ordered(&self) -> Vec<u32> {
        let v: std::collections::BTreeSet<u32> = self.m.keys().copied().collect();
        v.into_iter().collect()
    }
}
"#;
    assert!(active("crates/platform/src/x.rs", resorted).is_empty());

    // Sorting in a *later* statement is beyond a line scanner: that
    // shape stays flagged and takes a waiver instead.
    let sorted_later = r#"
struct S { m: std::collections::HashMap<u32, u64> }
impl S {
    fn ordered(&self) -> Vec<u32> {
        // lint: allow(unordered-iter, collected then sorted on the next line)
        let mut v: Vec<u32> = self.m.keys().copied().collect();
        v.sort();
        v
    }
}
"#;
    let (act, wvd) = scan_text("crates/platform/src/x.rs", sorted_later);
    assert!(act.is_empty(), "{act:?}");
    assert_eq!(wvd.len(), 1);

    // Hash iteration inside #[cfg(test)] is out of scope.
    let in_test = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn f() {
        let mut m = std::collections::HashMap::new();
        m.insert(1u32, 2u32);
        for (k, v) in &m { assert!(*k < *v); }
    }
}
"#;
    assert!(active("crates/platform/src/x.rs", in_test).is_empty());
}

// ---- float-order -------------------------------------------------------

#[test]
fn float_order_fires_on_partial_cmp_call() {
    let bad = "fn f(v: &mut Vec<(u32, f32)>) {\n    v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());\n}\n";
    assert_eq!(rule_lines(&active("crates/platform/src/x.rs", bad)), [("float-order", 2)]);
}

#[test]
fn float_order_passes_total_cmp_and_impl_definitions() {
    let good = "fn f(v: &mut Vec<(u32, f32)>) {\n    v.sort_by(|a, b| a.1.total_cmp(&b.1));\n}\n";
    assert!(active("crates/platform/src/x.rs", good).is_empty());

    // A `PartialOrd` impl defines `fn partial_cmp` without calling it.
    let def = r#"
struct K(u64);
impl PartialEq for K { fn eq(&self, o: &Self) -> bool { self.0 == o.0 } }
impl Eq for K {}
impl Ord for K { fn cmp(&self, o: &Self) -> std::cmp::Ordering { self.0.cmp(&o.0) } }
impl PartialOrd for K {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
"#;
    assert!(active("crates/netsim/src/x.rs", def).is_empty());
}

// ---- stray-io ----------------------------------------------------------

#[test]
fn stray_io_fires_in_library_code() {
    let bad = "pub fn f(x: u32) {\n    println!(\"x = {x}\");\n    dbg!(x);\n}\n";
    assert_eq!(
        rule_lines(&active("crates/transport/src/x.rs", bad)),
        [("stray-io", 2), ("stray-io", 3)]
    );
}

#[test]
fn stray_io_allows_examples_bins_tests_and_fmt_writes() {
    let printing = "pub fn f(x: u32) { println!(\"{x}\"); }\n";
    assert!(active("examples/reproduce_all.rs", printing).is_empty());
    assert!(active("crates/lint/src/main.rs", printing).is_empty());
    assert!(active("crates/core/tests/x.rs", printing).is_empty());

    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"ok\"); }\n}\n";
    assert!(active("crates/core/src/x.rs", in_test).is_empty());

    let fmt = "use std::fmt::Write as _;\nfn f(out: &mut String) { let _ = writeln!(out, \"x\"); }\n";
    assert!(active("crates/core/src/x.rs", fmt).is_empty());
}

// ---- thread-spawn ------------------------------------------------------

#[test]
fn thread_spawn_fires_outside_the_pools() {
    let bad = "pub fn f() {\n    std::thread::spawn(|| {});\n}\n";
    assert_eq!(rule_lines(&active("crates/core/src/x.rs", bad)), [("thread-spawn", 2)]);

    let scope = "pub fn f() {\n    std::thread::scope(|s| { let _ = s; });\n}\n";
    assert_eq!(rule_lines(&active("crates/netsim/src/x.rs", scope)), [("thread-spawn", 2)]);
}

#[test]
fn thread_spawn_allows_pools_and_queries() {
    let scope = "pub fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
    assert!(active("crates/world/src/pool.rs", scope).is_empty());
    // The harness scheduler runs its units through the pool, so it may
    // no longer spawn threads of its own.
    assert_eq!(
        rule_lines(&active("crates/harness/src/scheduler.rs", scope)),
        [("thread-spawn", 1)]
    );

    let query = "pub fn n() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";
    assert!(active("crates/core/src/x.rs", query).is_empty());
}

// ---- unsafe-crate ------------------------------------------------------

#[test]
fn unsafe_crate_requires_forbid_at_lib_roots() {
    let bare = "pub mod x;\n";
    assert_eq!(rule_lines(&active("crates/foo/src/lib.rs", bare)), [("unsafe-crate", 1)]);
    assert_eq!(rule_lines(&active("src/lib.rs", bare)), [("unsafe-crate", 1)]);

    let forbidden = "#![forbid(unsafe_code)]\npub mod x;\n";
    assert!(active("crates/foo/src/lib.rs", forbidden).is_empty());

    // Non-root library files carry no attribute duty.
    assert!(active("crates/foo/src/util.rs", bare).is_empty());
}

// ---- waivers -----------------------------------------------------------

#[test]
fn waiver_suppresses_and_records_reason() {
    let trailing = "pub fn f() {\n    println!(\"row\"); // lint: allow(stray-io, report printing is this module's job)\n}\n";
    let (act, wvd) = scan_text("crates/bench2/src/x.rs", trailing);
    assert!(act.is_empty(), "waived hit must not stay active: {act:?}");
    assert_eq!(wvd.len(), 1);
    assert_eq!(wvd[0].diagnostic.rule, "stray-io");
    assert_eq!(wvd[0].reason, "report printing is this module's job");
}

#[test]
fn waiver_on_its_own_line_targets_next_code_line() {
    let preceding = "pub fn f() {\n    // lint: allow(stray-io, console reporter)\n    println!(\"row\");\n}\n";
    let (act, wvd) = scan_text("crates/core/src/x.rs", preceding);
    assert!(act.is_empty(), "{act:?}");
    assert_eq!(wvd.len(), 1);
    assert_eq!(wvd[0].diagnostic.line, 3);
}

#[test]
fn unused_waiver_is_rejected() {
    let unused = "pub fn f() {\n    // lint: allow(wall-clock, stale excuse)\n    let x = 1 + 1;\n    let _ = x;\n}\n";
    assert_eq!(rule_lines(&active("crates/core/src/x.rs", unused)), [("unused-waiver", 2)]);
}

#[test]
fn malformed_waivers_are_rejected() {
    // Unknown rule id.
    let unknown = "// lint: allow(no-such-rule, whatever)\npub fn f() {}\n";
    assert_eq!(rule_lines(&active("crates/core/src/x.rs", unknown)), [("waiver-syntax", 1)]);

    // Missing reason: acceptance requires every waiver to justify itself.
    let bare = "pub fn f() {\n    println!(\"x\"); // lint: allow(stray-io)\n}\n";
    let diags = active("crates/core/src/x.rs", bare);
    let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    assert!(rules.contains(&"waiver-syntax"), "{diags:?}");
    assert!(rules.contains(&"stray-io"), "unwaived hit must stay active: {diags:?}");
}

// ---- masking & determinism --------------------------------------------

#[test]
fn literals_and_comments_do_not_fire() {
    let masked = r##"
pub fn f() -> (&'static str, &'static str) {
    // Instant::now() in a comment is inert; so is println! here.
    let a = "Instant::now() and println!(\"x\") inside a string";
    let b = r#"std::thread::spawn in a raw string"#;
    (a, b)
}
"##;
    assert!(active("crates/core/src/x.rs", masked).is_empty());

    // A waiver spelled inside a string literal is not a waiver (and
    // therefore not an unused one either).
    let in_string = "pub fn f() -> &'static str {\n    \"lint: allow(stray-io, not real)\"\n}\n";
    assert!(active("crates/core/src/x.rs", in_string).is_empty());
}

#[test]
fn diagnostics_are_sorted_by_line_then_rule() {
    let multi = "use std::time::SystemTime;\npub fn f() {\n    std::thread::spawn(|| {});\n    println!(\"x\");\n}\n";
    let diags = active("crates/core/src/x.rs", multi);
    let got = rule_lines(&diags);
    assert_eq!(got, [("wall-clock", 1), ("thread-spawn", 3), ("stray-io", 4)]);
}
