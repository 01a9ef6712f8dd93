//! The lint table and the per-file checking pass.
//!
//! Every lint enforces one of the repository's machine-checked contracts
//! (bit-identical results across thread counts and shard partitions, the
//! serve daemon's no-panic request path, hex-float persistence). The
//! checks are textual pattern matches over [lexed](crate::lexer) source —
//! comments and string literals never fire — with a name-based heuristic
//! for hash-container iteration. A site that is genuinely safe carries an
//! inline escape:
//!
//! ```text
//! // audit:allow(lint-name) reason why this site cannot break the contract
//! ```
//!
//! placed on the offending line or on its own line directly above. The
//! escape is itself linted: the reason is mandatory, the lint name must
//! exist, and an allow that suppresses nothing is reported as unused.

use std::path::Path;

use crate::lexer::LexedFile;
use adawave_api::closest_matches;

/// Crates whose output is part of a clustering result; hash-order
/// iteration or wall-clock reads here can silently break the determinism
/// contract pinned by `tests/parallel_determinism.rs` and the golden
/// scenario corpus.
const RESULT_CRATES: &[&str] = &[
    "adawave-grid",
    "adawave-core",
    "adawave-baselines",
    "adawave-stream",
    "adawave-metrics",
    "adawave-wavelet",
];

/// Files forming the serve daemon's request path, plus the shared artifact
/// payload reader every deserialization funnels through: a panic in any of
/// them turns a bad request or a corrupt artifact into a dropped
/// connection instead of a typed error.
const REQUEST_PATH: &[(&str, &str)] = &[
    ("adawave-serve", "src/http.rs"),
    ("adawave-serve", "src/json.rs"),
    ("adawave-serve", "src/server.rs"),
    ("adawave-serve", "src/store.rs"),
    ("adawave-api", "src/artifact.rs"),
];

/// The one module allowed to call `temp_dir()`: the shared
/// [`ScratchDir`](adawave_api::ScratchDir) helper every other site uses.
const SCRATCH_MODULE: (&str, &str) = ("adawave-api", "src/scratch.rs");

/// Lints that also run over test-only sources (`tests/`, `examples/`,
/// `benches/`) and inside `#[cfg(test)]` items: the contracts they
/// enforce are about test isolation, not shipped behaviour.
pub const TEST_CODE_LINTS: &[&str] = &["temp-path"];

/// The name findings about the escape mechanism itself are filed under.
pub const ESCAPE_LINT: &str = "audit-escape";

/// One entry of the lint table.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Lint name as used in diagnostics and `audit:allow(..)`.
    pub name: &'static str,
    /// One-line description for `--list`.
    pub summary: &'static str,
    /// The repository contract the lint enforces.
    pub contract: &'static str,
}

/// Every lint the audit knows, in diagnostic order.
pub const LINTS: &[Lint] = &[
    Lint {
        name: "float-sort-unwrap",
        summary: "partial_cmp(..).unwrap()/.expect(..) in comparator position",
        contract: "float discipline: comparators must use f64::total_cmp, which is total and \
                   panic-free, instead of panicking on NaN mid-sort",
    },
    Lint {
        name: "nondeterministic-iteration",
        summary: "iterating a HashMap/HashSet in a result-producing crate",
        contract: "determinism: hash iteration order is random-seeded per process, so anything \
                   order-sensitive (float sums, first-match scans, id assignment) diverges \
                   between runs",
    },
    Lint {
        name: "raw-thread",
        summary: "std::thread::{spawn,scope,Builder} outside adawave-runtime",
        contract: "determinism: all result-producing parallelism must go through the Runtime's \
                   fixed-chunk primitives so chunk boundaries never depend on thread count",
    },
    Lint {
        name: "panic-in-request-path",
        summary: "unwrap/expect/panic!/unreachable! in the serve request path",
        contract: "panic safety: the daemon's request path and the artifact PayloadReader must \
                   return typed errors; catch_unwind is a backstop, not a license",
    },
    Lint {
        name: "env-read",
        summary: "std::env::var outside adawave-runtime",
        contract: "determinism: environment configuration is read once by the Runtime \
                   (ADAWAVE_THREADS); ad-hoc env reads make results depend on ambient state",
    },
    Lint {
        name: "wall-clock",
        summary: "Instant::now/SystemTime in a result-producing crate",
        contract: "determinism: clock reads in result-producing code make output \
                   time-dependent; timing belongs in bench/cli layers",
    },
    Lint {
        name: "temp-path",
        summary: "std::env::temp_dir() outside adawave_api::ScratchDir (test code included)",
        contract: "test isolation: hand-built temp paths collide between parallel test threads \
                   and processes; ScratchDir hands every caller a unique directory and removes \
                   it on drop",
    },
    Lint {
        name: "crate-hygiene",
        summary: "crate root missing #![deny(unsafe_code)] / #![deny(missing_docs)]",
        contract: "workspace hygiene: every crate root pins the no-unsafe and \
                   all-items-documented gates the CI lint job relies on",
    },
];

/// A diagnostic: one lint firing at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name (a `LINTS` entry or [`ESCAPE_LINT`]).
    pub lint: &'static str,
    /// Human explanation of this particular site.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Look up a lint by name.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.name == name)
}

/// "did you mean ...?" suffix for an unknown lint name (empty when nothing
/// is close).
pub fn unknown_lint_hint(name: &str) -> String {
    let close = closest_matches(name, LINTS.iter().map(|l| l.name));
    match close.as_slice() {
        [] => String::new(),
        names => format!(" — did you mean {}?", names.join(" or ")),
    }
}

/// Run every applicable lint over one file and apply its escapes.
///
/// `rel_path` is the file's path relative to the *member* directory (e.g.
/// `src/json.rs`); `display_path` is what diagnostics print (usually the
/// workspace-relative path). `filter` restricts the pass to a subset of
/// lint names; escape diagnostics are always produced.
pub fn audit_file(
    crate_name: &str,
    rel_path: &Path,
    display_path: &str,
    source: &str,
    filter: Option<&[&str]>,
) -> Vec<Finding> {
    let lexed = LexedFile::new(source);
    let enabled = |name: &str| filter.is_none_or(|f| f.contains(&name));

    let mut raw: Vec<Finding> = Vec::new();
    if enabled("float-sort-unwrap") {
        float_sort_unwrap(&lexed, display_path, &mut raw);
    }
    if enabled("nondeterministic-iteration") && RESULT_CRATES.contains(&crate_name) {
        nondeterministic_iteration(&lexed, display_path, &mut raw);
    }
    if enabled("raw-thread") && crate_name != "adawave-runtime" {
        pattern_lint(
            &lexed,
            display_path,
            "raw-thread",
            &["thread::spawn", "thread::scope", "thread::Builder"],
            "raw thread primitive outside adawave-runtime; use Runtime's fixed-chunk \
             par_* methods (or escape a non-result worker pool with a reason)",
            &mut raw,
        );
    }
    let in_request_path = REQUEST_PATH
        .iter()
        .any(|&(c, p)| c == crate_name && rel_path == Path::new(p));
    if enabled("panic-in-request-path") && in_request_path {
        panic_in_request_path(&lexed, display_path, &mut raw);
    }
    if enabled("env-read") && crate_name != "adawave-runtime" {
        pattern_lint(
            &lexed,
            display_path,
            "env-read",
            &["env::var"],
            "environment read outside adawave-runtime; thread configuration through \
             Runtime::from_env or explicit parameters",
            &mut raw,
        );
    }
    if enabled("wall-clock") && RESULT_CRATES.contains(&crate_name) {
        pattern_lint(
            &lexed,
            display_path,
            "wall-clock",
            &["Instant::now", "SystemTime::now", "SystemTime::UNIX_EPOCH"],
            "clock read in a result-producing crate; timing belongs in the bench/cli layers",
            &mut raw,
        );
    }
    if enabled("temp-path")
        && (crate_name, rel_path) != (SCRATCH_MODULE.0, Path::new(SCRATCH_MODULE.1))
    {
        temp_path(&lexed, display_path, &mut raw);
    }
    if enabled("crate-hygiene") && rel_path == Path::new("src/lib.rs") {
        for attr in ["#![deny(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !lexed.stripped.contains(attr) {
                raw.push(Finding {
                    file: display_path.to_string(),
                    line: 1,
                    lint: "crate-hygiene",
                    message: format!("crate root does not carry {attr}"),
                });
            }
        }
    }

    // Lints never fire inside #[cfg(test)] items: test code legitimately
    // unwraps, spawns threads, and reads clocks. The test-isolation lints
    // are the exception — test code is what they are about.
    raw.retain(|f| TEST_CODE_LINTS.contains(&f.lint) || !lexed.is_test_line(f.line));

    apply_escapes(&lexed, display_path, raw)
}

// ---------------------------------------------------------------------------
// escapes
// ---------------------------------------------------------------------------

struct Allow {
    comment_line: usize,
    bound_line: usize,
    lint: String,
    reason_given: bool,
    used: bool,
}

/// Parse `audit:allow(..)` escapes and use them to suppress findings;
/// report malformed and unused escapes as [`ESCAPE_LINT`] findings.
fn apply_escapes(lexed: &LexedFile, display_path: &str, raw: Vec<Finding>) -> Vec<Finding> {
    let code_lines: Vec<&str> = lexed.stripped.lines().collect();
    let has_code = |line_1: usize| {
        code_lines
            .get(line_1 - 1)
            .is_some_and(|l| !l.trim().is_empty())
    };

    let mut allows: Vec<Allow> = Vec::new();
    let mut escape_findings: Vec<Finding> = Vec::new();
    for (line, text) in &lexed.comments {
        if lexed.is_test_line(*line) {
            continue;
        }
        // Escapes live in plain comments only; doc comments may *describe*
        // the escape syntax without arming it.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| text.starts_with(p) && !text.starts_with("/**/"));
        if is_doc {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("audit:allow(") {
            rest = &rest[pos + "audit:allow(".len()..];
            let Some(close) = rest.find(')') else {
                escape_findings.push(Finding {
                    file: display_path.to_string(),
                    line: *line,
                    lint: ESCAPE_LINT,
                    message: "malformed escape: missing ')' after audit:allow(".to_string(),
                });
                break;
            };
            let name = rest[..close].trim().to_string();
            let reason = rest[close + 1..].trim_start_matches([':', '-', ' ']).trim();
            // The reason ends at the next escape in the same comment, if any.
            let reason = reason.split("audit:allow(").next().unwrap_or("").trim();
            if lint_by_name(&name).is_none() {
                escape_findings.push(Finding {
                    file: display_path.to_string(),
                    line: *line,
                    lint: ESCAPE_LINT,
                    message: format!(
                        "escape names unknown lint '{name}'{}",
                        unknown_lint_hint(&name)
                    ),
                });
                rest = &rest[close + 1..];
                continue;
            }
            // A trailing comment binds to its own line; a comment-only
            // line binds to the next line that has code.
            let bound_line = if has_code(*line) {
                *line
            } else {
                (*line + 1..=code_lines.len())
                    .find(|&l| has_code(l))
                    .unwrap_or(*line)
            };
            allows.push(Allow {
                comment_line: *line,
                bound_line,
                lint: name,
                reason_given: !reason.is_empty(),
                used: false,
            });
            rest = &rest[close + 1..];
        }
    }

    let mut kept: Vec<Finding> = Vec::new();
    for finding in raw {
        let suppressed = allows.iter_mut().any(|a| {
            let hit = a.lint == finding.lint && a.bound_line == finding.line;
            if hit {
                a.used = true;
            }
            hit
        });
        if !suppressed {
            kept.push(finding);
        }
    }
    for allow in &allows {
        if !allow.reason_given {
            kept.push(Finding {
                file: display_path.to_string(),
                line: allow.comment_line,
                lint: ESCAPE_LINT,
                message: format!(
                    "audit:allow({}) needs a reason after the closing parenthesis",
                    allow.lint
                ),
            });
        } else if !allow.used {
            kept.push(Finding {
                file: display_path.to_string(),
                line: allow.comment_line,
                lint: ESCAPE_LINT,
                message: format!(
                    "unused escape: no {} finding on line {} to suppress",
                    allow.lint, allow.bound_line
                ),
            });
        }
    }
    kept.extend(escape_findings);
    kept.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    kept
}

// ---------------------------------------------------------------------------
// individual checks
// ---------------------------------------------------------------------------

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether the occurrence of `needle` at `pos` is token-bounded (not part
/// of a longer identifier/path segment).
fn word_bounded(text: &[u8], pos: usize, len: usize) -> bool {
    let before_ok = pos == 0 || !is_ident(text[pos - 1]);
    let after_ok = pos + len >= text.len() || !is_ident(text[pos + len]);
    before_ok && after_ok
}

/// Byte index after skipping whitespace (newlines included) from `i`.
fn skip_ws(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && text[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Byte index just past a balanced `( .. )` group starting at `open`.
fn skip_parens(text: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < text.len() {
        match text[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// `partial_cmp( .. )` immediately followed by `.unwrap()` or `.expect(`.
fn float_sort_unwrap(lexed: &LexedFile, display_path: &str, out: &mut Vec<Finding>) {
    let text = lexed.stripped.as_bytes();
    let mut search = 0usize;
    while let Some(pos) = lexed.stripped[search..].find("partial_cmp") {
        let pos = search + pos;
        search = pos + "partial_cmp".len();
        if !word_bounded(text, pos, "partial_cmp".len()) {
            continue;
        }
        let after = skip_ws(text, pos + "partial_cmp".len());
        if text.get(after) != Some(&b'(') {
            continue;
        }
        let next = skip_ws(text, skip_parens(text, after));
        let tail = &lexed.stripped[next.min(lexed.stripped.len())..];
        if tail.starts_with(".unwrap") || tail.starts_with(".expect") {
            out.push(Finding {
                file: display_path.to_string(),
                line: lexed.line_of(pos),
                lint: "float-sort-unwrap",
                message: "partial_cmp(..).unwrap() panics on NaN and is not a total order; \
                          use f64::total_cmp (or escape with a finite-input argument)"
                    .to_string(),
            });
        }
    }
}

/// Flag token occurrences from `patterns` anywhere in the file.
fn pattern_lint(
    lexed: &LexedFile,
    display_path: &str,
    lint: &'static str,
    patterns: &[&str],
    message: &str,
    out: &mut Vec<Finding>,
) {
    let text = lexed.stripped.as_bytes();
    for pattern in patterns {
        let mut search = 0usize;
        while let Some(pos) = lexed.stripped[search..].find(pattern) {
            let pos = search + pos;
            search = pos + pattern.len();
            if word_bounded(text, pos, pattern.len()) {
                out.push(Finding {
                    file: display_path.to_string(),
                    line: lexed.line_of(pos),
                    lint,
                    message: message.to_string(),
                });
            }
        }
    }
}

/// A call of `temp_dir` (`std::env::temp_dir()`, `env::temp_dir ()`, or
/// an imported `temp_dir()`).
fn temp_path(lexed: &LexedFile, display_path: &str, out: &mut Vec<Finding>) {
    let text = lexed.stripped.as_bytes();
    let mut search = 0usize;
    while let Some(pos) = lexed.stripped[search..].find("temp_dir") {
        let pos = search + pos;
        search = pos + "temp_dir".len();
        if word_bounded(text, pos, "temp_dir".len())
            && text.get(skip_ws(text, search)) == Some(&b'(')
        {
            out.push(Finding {
                file: display_path.to_string(),
                line: lexed.line_of(pos),
                lint: "temp-path",
                message: "hand-built temp path; use adawave_api::ScratchDir, whose directory \
                          is unique per process and per call and is removed on drop"
                    .to_string(),
            });
        }
    }
}

/// `.unwrap()` / `.expect(` / panic-family macros in the request path.
fn panic_in_request_path(lexed: &LexedFile, display_path: &str, out: &mut Vec<Finding>) {
    let text = lexed.stripped.as_bytes();
    for (pattern, what) in [
        (".unwrap()", "unwrap"),
        (".expect(", "expect"),
        ("panic!", "panic!"),
        ("unreachable!", "unreachable!"),
        ("todo!", "todo!"),
        ("unimplemented!", "unimplemented!"),
    ] {
        let mut search = 0usize;
        while let Some(pos) = lexed.stripped[search..].find(pattern) {
            let pos = search + pos;
            search = pos + pattern.len();
            // `.unwrap()` must not also match `.unwrap_or()` (the pattern
            // ends in '('/')' so word-bounding applies to macro names).
            let name_start = pos + usize::from(pattern.starts_with('.'));
            let name_len = what.trim_end_matches('!').len();
            if !word_bounded(text, name_start, name_len) {
                continue;
            }
            out.push(Finding {
                file: display_path.to_string(),
                line: lexed.line_of(pos),
                lint: "panic-in-request-path",
                message: format!(
                    "{what} in the serve request path; return a typed error instead \
                     (catch_unwind is a backstop, not a license)"
                ),
            });
        }
    }
}

/// Hash-container iteration, via a name-based heuristic.
///
/// Names are considered hash-typed when they are annotated `: HashMap<..>`
/// / `: HashSet<..>` (fields, lets, params — through `&`/`mut` and the
/// `std::collections::` prefix) or initialized from `HashMap::..` /
/// `HashSet::..` constructors. Occurrences of a tracked name followed by
/// an iteration method, or iterated by a `for` loop, are flagged. The
/// heuristic is deliberately name-based — it cannot see through Vec
/// indexing or function returns — so keep hash containers behind
/// deterministic (sorted) accessors at module boundaries.
fn nondeterministic_iteration(lexed: &LexedFile, display_path: &str, out: &mut Vec<Finding>) {
    let text = lexed.stripped.as_bytes();
    let stripped = &lexed.stripped;

    // Pass 1: collect hash-typed names.
    let mut names: Vec<String> = Vec::new();
    for ty in ["HashMap", "HashSet"] {
        let mut search = 0usize;
        while let Some(pos) = stripped[search..].find(ty) {
            let pos = search + pos;
            search = pos + ty.len();
            if !word_bounded(text, pos, ty.len()) {
                continue;
            }
            // Walk back over an optional `std::collections::` path.
            let mut back = pos;
            for prefix in ["collections::", "std::"] {
                if stripped[..back].ends_with(prefix) {
                    back -= prefix.len();
                }
            }
            if let Some(name) = annotated_name(text, stripped, back) {
                names.push(name);
            } else if stripped[pos + ty.len()..].starts_with("::") {
                if let Some(name) = initialized_name(text, stripped, back) {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();

    // Pass 2: flag iteration-shaped uses of the tracked names.
    const ITER_METHODS: &[&str] = &[
        ".iter()",
        ".iter_mut()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_iter()",
        ".into_keys()",
        ".into_values()",
        ".drain(",
    ];
    for name in &names {
        let mut search = 0usize;
        while let Some(pos) = stripped[search..].find(name.as_str()) {
            let pos = search + pos;
            search = pos + name.len();
            if !word_bounded(text, pos, name.len()) {
                continue;
            }
            let after = skip_ws(text, pos + name.len());
            let tail = &stripped[after.min(stripped.len())..];
            let method_iteration = tail.starts_with('.')
                && ITER_METHODS.iter().any(|m| {
                    // Allow the chain to wrap: `.cells\n.iter()`.
                    let t = tail.trim_start_matches('.').trim_start();
                    m.strip_prefix('.').is_some_and(|m| t.starts_with(m))
                });
            let for_iteration = tail.starts_with('{') && for_loop_receiver(text, stripped, pos);
            if method_iteration || for_iteration {
                out.push(Finding {
                    file: display_path.to_string(),
                    line: lexed.line_of(pos),
                    lint: "nondeterministic-iteration",
                    message: format!(
                        "iteration over hash container `{name}`: order is random-seeded per \
                         process; sort before use (or BTreeMap/BTreeSet), or escape with an \
                         order-insensitivity argument"
                    ),
                });
            }
        }
    }
}

/// If the text right before `type_pos` is `name: [&][mut ]`, return `name`.
fn annotated_name(text: &[u8], stripped: &str, type_pos: usize) -> Option<String> {
    let mut i = type_pos;
    while i > 0 && text[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // Through reference sigils and `mut`.
    loop {
        if i > 0 && text[i - 1] == b'&' {
            i -= 1;
            continue;
        }
        if stripped[..i].ends_with("mut ") {
            i -= 4;
            continue;
        }
        while i > 0 && text[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        break;
    }
    // A single annotation colon (not a `::` path).
    if i == 0 || text[i - 1] != b':' || (i >= 2 && text[i - 2] == b':') {
        return None;
    }
    i -= 1;
    while i > 0 && text[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    ident_ending_at(text, stripped, i)
}

/// If the text right before `type_pos` is `name = `, return `name`.
fn initialized_name(text: &[u8], stripped: &str, type_pos: usize) -> Option<String> {
    let mut i = type_pos;
    while i > 0 && text[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 || text[i - 1] != b'=' {
        return None;
    }
    i -= 1;
    // Reject `==`, `+=`, `>=`, ...
    if i > 0
        && matches!(
            text[i - 1],
            b'=' | b'+' | b'-' | b'*' | b'/' | b'<' | b'>' | b'!'
        )
    {
        return None;
    }
    while i > 0 && text[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    ident_ending_at(text, stripped, i)
}

fn ident_ending_at(text: &[u8], stripped: &str, end: usize) -> Option<String> {
    let mut start = end;
    while start > 0 && is_ident(text[start - 1]) {
        start -= 1;
    }
    let name = &stripped[start..end];
    (!name.is_empty() && !name.as_bytes()[0].is_ascii_digit()).then(|| name.to_string())
}

/// Whether the name occurrence ending a `&other.name`-style chain at `pos`
/// is the subject of a `for .. in` loop.
fn for_loop_receiver(text: &[u8], stripped: &str, name_pos: usize) -> bool {
    // Walk back over the `a.b.name` receiver chain.
    let mut i = name_pos;
    while i > 0 && (is_ident(text[i - 1]) || text[i - 1] == b'.') {
        i -= 1;
    }
    // Then over reference sigils and `mut`, whitespace-separated.
    loop {
        let trimmed = stripped[..i].trim_end();
        if trimmed.ends_with('&') {
            i = trimmed.len() - 1;
        } else if trimmed.ends_with("mut")
            && (trimmed.len() == 3 || !is_ident(text[trimmed.len() - 4]))
        {
            i = trimmed.len() - 3;
        } else {
            break;
        }
    }
    let before = stripped[..i].trim_end();
    before.ends_with("in") && (before.len() == 2 || !is_ident(text[before.len() - 3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(crate_name: &str, rel: &str, src: &str) -> Vec<Finding> {
        audit_file(crate_name, Path::new(rel), rel, src, None)
    }

    #[test]
    fn float_sort_unwrap_fires_across_lines_and_not_in_comments() {
        let src = "fn f(v: &mut Vec<f64>) {\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   // a.partial_cmp(b).unwrap() in a comment is fine\n\
                   v.sort_by(|a, b| {\n\
                   a.partial_cmp(&(b + 1.0))\n\
                   .unwrap()\n\
                   });\n\
                   let ordering = a.partial_cmp(b); // no unwrap: fine\n\
                   }\n";
        let f = findings("adawave-grid", "src/x.rs", src);
        let lines: Vec<usize> = f
            .iter()
            .filter(|f| f.lint == "float-sort-unwrap")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![2, 5]);
    }

    #[test]
    fn hash_iteration_is_flagged_only_in_result_crates() {
        let src = "use std::collections::HashMap;\n\
                   struct S { cells: HashMap<u64, f64> }\n\
                   impl S {\n\
                   fn sum(&self) -> f64 { self.cells.values().sum() }\n\
                   fn get(&self, k: u64) -> Option<&f64> { self.cells.get(&k) }\n\
                   }\n";
        let in_grid = findings("adawave-grid", "src/x.rs", src);
        assert_eq!(
            in_grid
                .iter()
                .filter(|f| f.lint == "nondeterministic-iteration")
                .map(|f| f.line)
                .collect::<Vec<_>>(),
            vec![4]
        );
        let in_cli = findings("adawave-cli", "src/x.rs", src);
        assert!(in_cli
            .iter()
            .all(|f| f.lint != "nondeterministic-iteration"));
    }

    #[test]
    fn for_loops_and_constructor_bindings_are_tracked() {
        let src = "fn f() {\n\
                   let mut seen = std::collections::HashSet::new();\n\
                   seen.insert(1);\n\
                   for x in &seen { use_it(x); }\n\
                   }\n";
        let f = findings("adawave-core", "src/x.rs", src);
        assert_eq!(
            f.iter().map(|f| (f.line, f.lint)).collect::<Vec<_>>(),
            vec![(4, "nondeterministic-iteration")]
        );
    }

    #[test]
    fn allows_suppress_and_unused_allows_are_reported() {
        let src = "struct S { cells: std::collections::HashMap<u64, f64> }\n\
                   impl S {\n\
                   fn dump(&self) -> Vec<(u64, f64)> {\n\
                   // audit:allow(nondeterministic-iteration) collected then sorted by caller\n\
                   let v: Vec<_> = self.cells.iter().map(|(&k, &v)| (k, v)).collect();\n\
                   v\n\
                   }\n\
                   }\n\
                   // audit:allow(nondeterministic-iteration) nothing here\n\
                   fn unrelated() {}\n";
        let f = findings("adawave-grid", "src/x.rs", src);
        assert!(f.iter().all(|f| f.lint != "nondeterministic-iteration"));
        let unused: Vec<_> = f.iter().filter(|f| f.lint == ESCAPE_LINT).collect();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 9);
        assert!(unused[0].message.contains("unused escape"));
    }

    #[test]
    fn allow_without_reason_and_unknown_lint_are_findings() {
        let src = "fn f(v: &mut Vec<f64>) {\n\
                   // audit:allow(float-sort-unwrap)\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   // audit:allow(flaot-sort-unwrap) typo\n\
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   }\n";
        let f = findings("adawave-cli", "src/x.rs", src);
        assert!(
            f.iter()
                .any(|f| f.lint == ESCAPE_LINT && f.message.contains("needs a reason")),
            "{f:?}"
        );
        assert!(
            f.iter().any(|f| f.lint == ESCAPE_LINT
                && f.message.contains("unknown lint")
                && f.message.contains("float-sort-unwrap")),
            "{f:?}"
        );
        // The typo'd allow suppresses nothing: line 5 still fires.
        assert!(f
            .iter()
            .any(|f| f.lint == "float-sort-unwrap" && f.line == 5));
    }

    #[test]
    fn request_path_scope_and_unwrap_or_is_clean() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   let a = x.unwrap_or(0);\n\
                   let b = x.unwrap();\n\
                   let c = x.expect(\"boom\");\n\
                   a + b + c\n\
                   }\n";
        let in_path = findings("adawave-serve", "src/json.rs", src);
        assert_eq!(
            in_path
                .iter()
                .filter(|f| f.lint == "panic-in-request-path")
                .map(|f| f.line)
                .collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The same code outside the request path is not this lint's business.
        let outside = findings("adawave-serve", "src/client.rs", src);
        assert!(outside.iter().all(|f| f.lint != "panic-in-request-path"));
    }

    #[test]
    fn raw_thread_env_and_clock_lints_respect_crate_scope() {
        let src = "fn f() {\n\
                   std::thread::spawn(|| {});\n\
                   let t = std::env::var(\"X\");\n\
                   let now = std::time::Instant::now();\n\
                   }\n";
        let in_runtime = findings("adawave-runtime", "src/lib2.rs", src);
        assert!(in_runtime.iter().all(|f| f.lint != "raw-thread"));
        assert!(in_runtime.iter().all(|f| f.lint != "env-read"));
        let in_grid = findings("adawave-grid", "src/x.rs", src);
        assert!(in_grid
            .iter()
            .any(|f| f.lint == "raw-thread" && f.line == 2));
        assert!(in_grid.iter().any(|f| f.lint == "env-read" && f.line == 3));
        assert!(in_grid
            .iter()
            .any(|f| f.lint == "wall-clock" && f.line == 4));
        // CLI may read the clock (progress timing) but not spawn threads.
        let in_cli = findings("adawave-cli", "src/x.rs", src);
        assert!(in_cli.iter().all(|f| f.lint != "wall-clock"));
        assert!(in_cli.iter().any(|f| f.lint == "raw-thread"));
    }

    #[test]
    fn crate_hygiene_checks_lib_roots_only() {
        let src = "//! Docs.\n#![deny(missing_docs)]\nfn f() {}\n";
        let f = findings("adawave-grid", "src/lib.rs", src);
        assert_eq!(
            f.iter().map(|f| (f.line, f.lint)).collect::<Vec<_>>(),
            vec![(1, "crate-hygiene")]
        );
        assert!(f[0].message.contains("unsafe_code"));
        assert!(findings("adawave-grid", "src/other.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                   }\n";
        assert!(findings("adawave-grid", "src/x.rs", src).is_empty());
    }

    #[test]
    fn unknown_lint_hint_suggests_names() {
        assert!(unknown_lint_hint("float-sort-unwrp").contains("float-sort-unwrap"));
        assert_eq!(unknown_lint_hint("zzzzzzzzzzzz"), "");
    }
}
