//! Integration tests: every lint fires at the exact `file:line` the
//! fixture workspace plants it at, and the live workspace self-audits
//! clean.

use std::path::Path;

use adawave_audit::{audit_workspace, find_root, Finding};

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("workspace")
}

fn triples(findings: &[Finding]) -> Vec<(String, usize, &'static str)> {
    findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.lint))
        .collect()
}

#[test]
fn every_lint_fires_at_the_planted_line() {
    let findings = audit_workspace(&fixture_root(), None).expect("fixture workspace parses");
    let expected: Vec<(String, usize, &'static str)> = vec![
        ("grid/src/bad_clock.rs".into(), 2, "wall-clock"),
        ("grid/src/bad_env.rs".into(), 2, "env-read"),
        ("grid/src/bad_escape.rs".into(), 1, "audit-escape"),
        ("grid/src/bad_escape.rs".into(), 3, "raw-thread"),
        ("grid/src/bad_escape.rs".into(), 6, "audit-escape"),
        ("grid/src/bad_float.rs".into(), 2, "float-sort-unwrap"),
        (
            "grid/src/bad_iter.rs".into(),
            4,
            "nondeterministic-iteration",
        ),
        ("grid/src/bad_temp.rs".into(), 6, "temp-path"),
        ("grid/src/bad_thread.rs".into(), 2, "raw-thread"),
        ("grid/tests/bad_temp.rs".into(), 5, "temp-path"),
        ("serve/src/json.rs".into(), 2, "panic-in-request-path"),
        ("serve/src/lib.rs".into(), 1, "crate-hygiene"),
        ("serve/src/lib.rs".into(), 1, "crate-hygiene"),
    ];
    assert_eq!(triples(&findings), expected, "{findings:#?}");
}

#[test]
fn escape_diagnostics_carry_the_right_messages() {
    let findings = audit_workspace(&fixture_root(), None).unwrap();
    let escapes: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file == "grid/src/bad_escape.rs")
        .collect();
    assert!(escapes[0].message.contains("needs a reason"), "{escapes:?}");
    assert!(escapes[2].message.contains("unused escape"), "{escapes:?}");
}

#[test]
fn lint_filter_restricts_the_pass() {
    let only_clock =
        audit_workspace(&fixture_root(), Some(&["wall-clock"])).expect("filtered audit runs");
    let lints: Vec<&str> = only_clock.iter().map(|f| f.lint).collect();
    // The named lint plus escape hygiene (the unused allow no longer has
    // its raw-thread finding suppressed -- escape diagnostics always run).
    assert!(lints.contains(&"wall-clock"), "{lints:?}");
    assert!(!lints.contains(&"float-sort-unwrap"), "{lints:?}");
}

#[test]
fn rendered_findings_use_the_diagnostic_format() {
    let findings = audit_workspace(&fixture_root(), None).unwrap();
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("grid/src/bad_clock.rs:2: wall-clock: "),
        "{rendered}"
    );
}

#[test]
fn the_live_workspace_self_audits_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_root(here).expect("audit crate lives in the adawave workspace");
    let findings = audit_workspace(&root, None).expect("live workspace parses");
    assert!(
        findings.is_empty(),
        "the workspace must self-audit clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
