//! Negative fixtures: each rule family must fire on a planted violation,
//! honor waivers, skip test code, and respect its path scope.
//!
//! The fixture files under `tests/fixtures/` are parsed, never compiled;
//! each test lints one under a synthetic workspace-relative path that puts
//! the relevant rule in scope and asserts the exact findings.

use mortar_lint::{lint_source, Finding};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("fixture lacks marker {needle:?}")) as u32
        + 1
}

fn brief(fs: &[Finding]) -> Vec<(u32, &'static str, bool)> {
    fs.iter().map(|f| (f.line, f.rule, f.waived)).collect()
}

#[test]
fn d1_fires_on_planted_violations_and_skips_test_code() {
    let src = fixture("d1_violation.rs");
    let findings = lint_source("crates/core/src/peer/mod.rs", &src);
    assert_eq!(
        brief(&findings),
        vec![
            (line_of(&src, "for (_, &t) in &self.last_seen"), "D1", false),
            (line_of(&src, "for v in seen.iter()"), "D1", false),
        ],
        "expected exactly the two planted D1 violations (and nothing from the \
         #[cfg(test)] module): {findings:#?}"
    );
}

#[test]
fn d1_respects_waivers_and_keeps_the_reason() {
    let src = fixture("d1_waived.rs");
    let findings = lint_source("crates/core/src/peer/mod.rs", &src);
    assert_eq!(
        brief(&findings),
        vec![
            (line_of(&src, "for (_, &v) in &self.by_node"), "D1", true),
            (line_of(&src, "self.by_node.retain"), "D1", true),
        ],
        "both planted sites must be found and waived: {findings:#?}"
    );
    assert_eq!(findings[0].waive_reason.as_deref(), Some("summing u64 counters is commutative"));
    assert_eq!(findings[1].waive_reason.as_deref(), Some("retain predicate is per-entry"));
}

#[test]
fn d1_is_scoped_to_determinism_critical_paths() {
    let src = fixture("d1_violation.rs");
    let findings = lint_source("crates/lang/src/compile.rs", &src);
    assert!(
        findings.is_empty(),
        "D1 must not apply outside the determinism-critical crates: {findings:#?}"
    );
}

#[test]
fn d2_fires_on_clock_sleep_and_entropy() {
    let src = fixture("d2_violation.rs");
    let findings = lint_source("crates/core/src/peer/mod.rs", &src);
    assert_eq!(
        brief(&findings),
        vec![
            (line_of(&src, "let t = std::time::Instant::now()"), "D2", false),
            (line_of(&src, "std::time::SystemTime::now()"), "D2", false),
            (line_of(&src, "std::thread::sleep"), "D2", false),
            (line_of(&src, "RandomState::new()"), "D2", false),
            (line_of(&src, "let _t = std::time::Instant::now()"), "D2", true),
        ],
        "expected the four planted D2 violations plus the waived one: {findings:#?}"
    );
}

#[test]
fn d2_is_scoped_to_sim_deterministic_crates() {
    let src = fixture("d2_violation.rs");
    let findings = lint_source("crates/bench/src/experiments/shards.rs", &src);
    assert!(
        findings.is_empty(),
        "D2 must not apply to the bench harness (true wall-clock is fine there): {findings:#?}"
    );
}

#[test]
fn h1_fires_only_inside_marked_functions() {
    let src = fixture("h1_violation.rs");
    // H1 is marker-driven, so it applies under any path.
    let findings = lint_source("crates/core/src/tslist.rs", &src);
    assert_eq!(
        brief(&findings),
        vec![
            (line_of(&src, "format!"), "H1", false),
            (line_of(&src, ".collect()"), "H1", false),
            (line_of(&src, "vec![0u64; 4]"), "H1", true),
        ],
        "expected the two unwaived allocations in marked fns, the waived scratch \
         vec, and nothing from the unmarked fn: {findings:#?}"
    );
}

#[test]
fn p1_fires_in_worker_paths_and_honors_waivers() {
    let src = fixture("p1_violation.rs");
    let findings = lint_source("crates/net/src/runtime/parallel.rs", &src);
    assert_eq!(
        brief(&findings),
        vec![
            (line_of(&src, ".unwrap()"), "P1", false),
            (line_of(&src, "panic!"), "P1", false),
            (line_of(&src, ".expect(\"nonempty\")"), "P1", true),
        ],
        "expected the planted unwrap and panic, the waived expect, and nothing \
         from the #[cfg(test)] module: {findings:#?}"
    );
}

#[test]
fn p1_is_scoped_to_the_parallel_runtime() {
    let src = fixture("p1_violation.rs");
    let findings = lint_source("crates/net/src/runtime/single.rs", &src);
    assert!(findings.is_empty(), "P1 must not apply outside the parallel runtime: {findings:#?}");
}

#[test]
fn json_report_counts_waived_and_unwaived() {
    let src = fixture("p1_violation.rs");
    let findings = lint_source("crates/net/src/runtime/parallel.rs", &src);
    let json = mortar_lint::render_json(&findings);
    assert!(json.contains("\"total\": 3"), "{json}");
    assert!(json.contains("\"unwaived\": 2"), "{json}");
    assert!(json.contains("\"rule\": \"P1\""), "{json}");
    assert!(json.contains("fixture: demonstrates a waived panic site"), "{json}");
}
