//! `feataug-lint`: a dependency-free invariant checker for this workspace.
//!
//! PRs 6–7 made the serving stack survivable by *convention*: worker closures
//! run under `catch_unwind`, lock access is poison-tolerant, the warm lookup
//! path never allocates, failpoint names stay in sync with the chaos suite,
//! and serving-reachable code returns `EngineResult` instead of panicking.
//! This crate turns those conventions into static analysis that CI gates on
//! (the `invariants` job runs `cargo run -p feataug-lint -- --deny`).
//!
//! The lints, the suppression grammar, and the invariant each lint encodes are
//! documented in `crates/lint/README.md`. Diagnostics are machine-readable:
//! `file:line: lint-name: message`.

pub mod json;
pub mod lexer;
pub mod lints;
pub mod scope;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lints::{aliases, known_allow_names, Finding};
use scope::FileModel;

/// One reported problem, formatted as `file:line: lint-name: message`.
#[derive(Debug)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Serving-reachable modules: a panic anywhere here can surface inside a
/// `ServingHandle::lookup` or tier worker, so panic-discipline applies.
pub const SERVING_MODULES: &[&str] = &[
    "crates/feataug/src/exec.rs",
    "crates/feataug/src/serving.rs",
    "crates/feataug/src/serving/shard.rs",
    "crates/feataug/src/serving/tier.rs",
    "crates/feataug/src/query.rs",
    "crates/feataug/src/multi.rs",
    "crates/feataug/src/schema.rs",
    "crates/feataug/src/schema/graph.rs",
    "crates/feataug/src/schema/path.rs",
    "crates/feataug/src/schema/compile.rs",
    "crates/feataug/src/schema/fit.rs",
];

/// Where the failpoint name registry lives, relative to the workspace root.
pub const FAILPOINT_REGISTRY_PATH: &str = "crates/feataug/failpoints.txt";

/// The chaos suite that must arm every registered failpoint.
pub const CHAOS_SUITE_PATH: &str = "tests/chaos.rs";

/// How one file participates in the lint pass, derived from its path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// panic-discipline applies (serving-reachable module).
    pub serving_module: bool,
    /// catch-unwind-workers applies (`crates/feataug/src`).
    pub feataug_src: bool,
    /// String literals feed the failpoint arm scan (`tests/chaos.rs`).
    pub chaos_suite: bool,
}

/// Classify a workspace-relative path (`/`-separated).
pub fn classify(rel_path: &str) -> FileClass {
    FileClass {
        serving_module: SERVING_MODULES.contains(&rel_path),
        feataug_src: rel_path.starts_with("crates/feataug/src/"),
        chaos_suite: rel_path == CHAOS_SUITE_PATH,
    }
}

/// Lint one file's source. Applies the `allow(...)` suppression grammar; also
/// reports malformed or unknown-name directives.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let class = classify(rel_path);
    let model = FileModel::parse(src);
    let mut findings: Vec<Finding> = Vec::new();

    if class.serving_module {
        findings.extend(lints::panic_discipline(&model));
    }
    findings.extend(lints::lock_discipline(&model));
    findings.extend(lints::lock_order(&model));
    findings.extend(lints::alloc_free_hot_path(&model));
    if class.feataug_src {
        findings.extend(lints::catch_unwind_workers(&model));
    }

    let mut out: Vec<Diagnostic> = findings
        .into_iter()
        .filter(|f| !model.suppressed(f.lint, aliases(f.lint), f.line))
        .map(|f| Diagnostic {
            file: rel_path.to_string(),
            line: f.line,
            lint: f.lint,
            message: f.message,
        })
        .collect();

    // Directive hygiene: a malformed suppression must be a finding, not a
    // silent no-op, or a typo would quietly disable a lint.
    for (line, message) in &model.directive_errors {
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: *line,
            lint: lints::DIRECTIVE,
            message: message.clone(),
        });
    }
    let known = known_allow_names();
    for allow in &model.allows {
        if !known.contains(&allow.name.as_str()) {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: allow.line,
                lint: lints::DIRECTIVE,
                message: format!("unknown lint `{}` in allow(...)", allow.name),
            });
        }
    }
    out
}

/// Result of a whole-workspace run.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub failpoint_sites: Vec<(String, String, u32)>, // (name, file, line)
}

/// Lint every `.rs` file under `root` and cross-check the failpoint registry.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = WorkspaceReport::default();
    let mut chaos_literals: Vec<String> = Vec::new();

    for rel in &files {
        let src = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.diagnostics.extend(lint_source(&rel_str, &src));
        report.files_scanned += 1;

        let class = classify(&rel_str);
        let model = FileModel::parse(&src);
        for (name, line) in lints::failpoint_sites(&model) {
            report.failpoint_sites.push((name, rel_str.clone(), line));
        }
        if class.chaos_suite {
            chaos_literals = lints::string_literals(&model);
        }
    }

    check_failpoint_registry(
        root,
        &report.failpoint_sites,
        &chaos_literals,
        &mut report.diagnostics,
    );

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Three-way failpoint cross-check: `fail_point!` sites ↔ the checked-in
/// registry ↔ chaos-suite arms. No dead names in any direction.
fn check_failpoint_registry(
    root: &Path,
    sites: &[(String, String, u32)],
    chaos_literals: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let registry_path = root.join(FAILPOINT_REGISTRY_PATH);
    let registry_src = match fs::read_to_string(&registry_path) {
        Ok(s) => s,
        Err(_) => {
            out.push(Diagnostic {
                file: FAILPOINT_REGISTRY_PATH.to_string(),
                line: 1,
                lint: lints::FAILPOINT_REGISTRY,
                message: "registry file missing; every fail_point! name must be checked in here"
                    .to_string(),
            });
            return;
        }
    };
    let mut registry: Vec<(String, u32)> = Vec::new();
    for (i, raw) in registry_src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        registry.push((line.to_string(), i as u32 + 1));
    }

    for (name, file, line) in sites {
        if !registry.iter().any(|(r, _)| r == name) {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                lint: lints::FAILPOINT_REGISTRY,
                message: format!("fail_point!(\"{name}\") is not in {FAILPOINT_REGISTRY_PATH}"),
            });
        }
    }
    for (name, reg_line) in &registry {
        if !sites.iter().any(|(s, _, _)| s == name) {
            out.push(Diagnostic {
                file: FAILPOINT_REGISTRY_PATH.to_string(),
                line: *reg_line,
                lint: lints::FAILPOINT_REGISTRY,
                message: format!("registered failpoint `{name}` has no fail_point! site"),
            });
        }
        if !chaos_literals.iter().any(|l| l == name) {
            out.push(Diagnostic {
                file: FAILPOINT_REGISTRY_PATH.to_string(),
                line: *reg_line,
                lint: lints::FAILPOINT_REGISTRY,
                message: format!(
                    "registered failpoint `{name}` is never armed by {CHAOS_SUITE_PATH}"
                ),
            });
        }
    }
}

/// Recursively collect `.rs` files, skipping build output, VCS metadata, the
/// vendored support stubs (which mirror external crates and are not held to
/// the engine's conventions), and `perfbench/` (a separate cargo package with
/// its own `[workspace]`: the `pub(crate)` helpers the lints point to, such as
/// `lock_recover`, are not reachable from it).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | ".github") {
                continue;
            }
            if path
                .strip_prefix(root)
                .is_ok_and(|r| r == Path::new("crates/support") || r == Path::new("perfbench"))
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_paths() {
        assert!(classify("crates/feataug/src/exec.rs").serving_module);
        assert!(classify("crates/feataug/src/serving/tier.rs").serving_module);
        assert!(classify("crates/feataug/src/serving/shard.rs").serving_module);
        assert!(classify("crates/feataug/src/schema.rs").serving_module);
        assert!(classify("crates/feataug/src/schema/compile.rs").serving_module);
        assert!(!classify("crates/feataug/src/pipeline.rs").serving_module);
        assert!(classify("crates/feataug/src/pipeline.rs").feataug_src);
        assert!(classify("tests/chaos.rs").chaos_suite);
    }

    #[test]
    fn suppression_applies_same_line_and_above() {
        let src =
            "fn f(x: Option<u8>) {\n    // lint: allow(panic): seeded above\n    x.unwrap();\n}\n";
        let diags = lint_source("crates/feataug/src/exec.rs", src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn unknown_allow_name_is_reported() {
        let src = "// lint: allow(speling): because\nfn f() {}\n";
        let diags = lint_source("crates/feataug/src/pipeline.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].lint, lints::DIRECTIVE);
    }
}
