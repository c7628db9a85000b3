//! Integration tests: each rule against its fixture (hit, miss, and
//! suppression cases), plus the workspace self-check — the tree this
//! crate lives in must itself be lint-clean.

use std::path::Path;

use femcam_lint::{lint_source, lint_workspace, Finding, RULES};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Runs one fixture under a fake workspace-relative path and returns
/// findings for `rule` only (fixtures may trip other rules by design —
/// e.g. the no-panic fixture's `unwrap` lines carry no ORDERING).
fn run(rule: &str, path_label: &str, name: &str) -> Vec<Finding> {
    lint_source(path_label, &fixture(name))
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

fn lines_of(findings: &[Finding]) -> Vec<usize> {
    findings.iter().map(|f| f.line).collect()
}

#[test]
fn fl001_unsafe_needs_safety_comment() {
    let findings = run("FL001", "crates/core/src/fixture.rs", "fl001_unsafe.rs");
    // Exactly the naked block and the suppressionless string decoy is
    // not a site; the doc-contract fn and SAFETY-comment block pass.
    assert_eq!(lines_of(&findings), vec![7]);
}

#[test]
fn fl002_raw_sync_outside_wrapper() {
    let findings = run("FL002", "crates/serve/src/fixture.rs", "fl002_raw_sync.rs");
    assert_eq!(lines_of(&findings), vec![5, 9]);
    // The wrapper module itself is allow-listed wholesale.
    let wrapper = run("FL002", "crates/core/src/sync.rs", "fl002_raw_sync.rs");
    assert!(wrapper.is_empty());
}

#[test]
fn fl003_ordering_needs_justification() {
    let findings = run("FL003", "crates/serve/src/fixture.rs", "fl003_ordering.rs");
    assert_eq!(lines_of(&findings), vec![10, 30]);
    // Out of scope: test sources never carry the rule.
    let in_tests = run(
        "FL003",
        "crates/serve/tests/fixture.rs",
        "fl003_ordering.rs",
    );
    assert!(in_tests.is_empty());
}

#[test]
fn fl004_no_panic_in_serve_core() {
    let findings = run("FL004", "crates/serve/src/fixture.rs", "fl004_no_panic.rs");
    assert_eq!(lines_of(&findings), vec![7, 12, 17]);
    // Other crates are out of scope: their error style is their own.
    let data = run("FL004", "crates/data/src/fixture.rs", "fl004_no_panic.rs");
    assert!(data.is_empty());
}

#[test]
fn fl005_instant_inside_dispatch_only() {
    let findings = run("FL005", "crates/serve/src/lib.rs", "fl005_instant.rs");
    assert_eq!(lines_of(&findings), vec![16]);
    // The rule pins one file; anywhere else it is inert.
    let elsewhere = run("FL005", "crates/serve/src/nn.rs", "fl005_instant.rs");
    assert!(elsewhere.is_empty());
}

#[test]
fn fl005_fails_closed_without_a_dispatcher() {
    // A renamed dispatcher loop must not switch the gate off: the
    // missing `fn dispatch` is itself the finding.
    let findings = run(
        "FL005",
        "crates/serve/src/lib.rs",
        "fl005_missing_dispatch.rs",
    );
    assert_eq!(lines_of(&findings), vec![1]);
    assert!(findings[0].message.contains("no `fn dispatch`"));
    let elsewhere = run(
        "FL005",
        "crates/serve/src/nn.rs",
        "fl005_missing_dispatch.rs",
    );
    assert!(elsewhere.is_empty());
}

#[test]
fn findings_render_with_path_line_and_id() {
    let findings = run("FL004", "crates/serve/src/fixture.rs", "fl004_no_panic.rs");
    let shown = findings[0].to_string();
    assert!(
        shown.starts_with("crates/serve/src/fixture.rs:7: [FL004]"),
        "{shown}"
    );
}

#[test]
fn rule_table_is_stable() {
    let ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec!["FL001", "FL002", "FL003", "FL004", "FL005"]);
    let names: Vec<_> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        vec![
            "unsafe_safety",
            "raw_sync",
            "ordering_comment",
            "no_panic",
            "instant_in_dispatch",
        ]
    );
}

/// The workspace gate, as a test: the tree must be lint-clean, so a
/// plain `cargo test` catches a convention regression even when the
/// CI lint step is skipped.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf();
    let findings = lint_workspace(&root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
