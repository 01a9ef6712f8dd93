//! `adawave-audit` — a dependency-free static-analysis pass over the
//! AdaWave workspace.
//!
//! The repository's headline guarantees — bit-identical clustering results
//! across thread counts, batch partitions, and shards; the serve daemon's
//! no-panic request path; hex-float persistence — are pinned by test
//! suites but were historically easy to break at the source level: a new
//! `partial_cmp().unwrap()` or a hash-order `HashMap` iteration compiles
//! clean and only fails later, probabilistically. This crate makes those
//! contracts machine-checked at the source level.
//!
//! The pass is three small layers:
//!
//! * [`lexer`] — a minimal Rust lexer that blanks comments and
//!   string/char literals (preserving byte offsets and line structure) so
//!   lints never fire inside either, and that marks `#[cfg(test)]` items
//!   so test code is exempt.
//! * [`workspace`] — a `Cargo.toml` member walker that enumerates the
//!   non-vendor crates, their `src/` sources and their test-only sources.
//! * [`lints`] — the lint table and per-file checks, plus the
//!   `// audit:allow(lint-name) <reason>` escape mechanism (itself
//!   linted: reasons are mandatory and unused allows are reported).
//!
//! Run it as `adawave audit` or the standalone `adawave-audit` binary.
//! Exit codes follow the workspace convention: `0` clean, `1` findings
//! (or an I/O failure), `2` usage error.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod lints;
pub mod workspace;

pub use lexer::LexedFile;
pub use lints::{audit_file, lint_by_name, unknown_lint_hint, Finding, Lint, ESCAPE_LINT, LINTS};
pub use workspace::{find_root, members, Crate};

use std::path::Path;

/// Audit every member of the workspace rooted at `root`.
///
/// `filter` restricts the pass to the named lints (`None` runs all).
/// Findings come back sorted by file, line, then lint name, ready to
/// print. Fails only on I/O or manifest-shape problems.
pub fn audit_workspace(root: &Path, filter: Option<&[&str]>) -> Result<Vec<Finding>, String> {
    // Test-only sources get the test-isolation lints only (narrowed
    // further by the caller's filter).
    let test_filter: Vec<&str> = lints::TEST_CODE_LINTS
        .iter()
        .copied()
        .filter(|l| filter.is_none_or(|f| f.contains(l)))
        .collect();
    let mut findings = Vec::new();
    for member in members(root)? {
        let scoped = member.sources.iter().map(|s| (s, filter)).chain(
            member
                .test_sources
                .iter()
                .map(|s| (s, Some(&test_filter[..]))),
        );
        for (source, filter) in scoped {
            let path = root.join(source);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel_to_member = source
                .strip_prefix(&member.rel_dir)
                .unwrap_or(source)
                .to_path_buf();
            let display = source.to_string_lossy().replace('\\', "/");
            findings.extend(audit_file(
                &member.name,
                &rel_to_member,
                &display,
                &text,
                filter,
            ));
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}

/// The `--list` output: every lint with its summary and the contract it
/// enforces.
pub fn list_text() -> String {
    let mut out = String::from("lints enforced by adawave-audit:\n");
    for lint in LINTS {
        out.push_str(&format!("  {:26} {}\n", lint.name, lint.summary));
        out.push_str(&format!("  {:26}   contract: {}\n", "", lint.contract));
    }
    out.push_str(&format!(
        "  {:26} escape hygiene: audit:allow needs a real lint name and a reason, \
         and must suppress something\n",
        ESCAPE_LINT
    ));
    out.push_str(
        "\nescape syntax: // audit:allow(lint-name) <reason> — on the offending \
         line or alone on the line above\nexit codes: 0 clean, 1 findings, 2 usage\n",
    );
    out
}

/// Validate a user-supplied list of lint names, returning them with
/// `'static` lifetimes, or a usage message with a did-you-mean hint.
pub fn resolve_lint_names(names: &[String]) -> Result<Vec<&'static str>, String> {
    let mut resolved = Vec::with_capacity(names.len());
    for name in names {
        match lint_by_name(name) {
            Some(lint) => resolved.push(lint.name),
            None => {
                return Err(format!(
                    "unknown lint '{name}'{} (try --list)",
                    unknown_lint_hint(name)
                ))
            }
        }
    }
    Ok(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_lint_names_accepts_known_and_hints_unknown() {
        let ok = resolve_lint_names(&["wall-clock".into(), "env-read".into()]).unwrap();
        assert_eq!(ok, vec!["wall-clock", "env-read"]);
        let err = resolve_lint_names(&["wall-clok".into()]).unwrap_err();
        assert!(err.contains("wall-clock"), "{err}");
    }

    #[test]
    fn list_text_names_every_lint() {
        let text = list_text();
        for lint in LINTS {
            assert!(text.contains(lint.name));
        }
        assert!(text.contains("audit:allow"));
    }
}
