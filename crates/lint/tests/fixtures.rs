//! Fixture suite: every lint fires on a known-bad snippet at the expected
//! line, and an `allow(...)` directive with a reason suppresses it. The last
//! tests lint the real workspace and require it clean — the same gate CI runs.

use std::fs;
use std::path::Path;

use feataug_lint::{lint_source, lint_workspace, lints};

/// Diagnostics for `src` treated as the named workspace-relative file.
fn diags(rel_path: &str, src: &str) -> Vec<(u32, &'static str)> {
    lint_source(rel_path, src)
        .into_iter()
        .map(|d| (d.line, d.lint))
        .collect()
}

const SERVING: &str = "crates/feataug/src/serving.rs";

// ---------------------------------------------------------------- panic-discipline

#[test]
fn panic_discipline_fires_on_unwrap_at_line() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert_eq!(diags(SERVING, src), vec![(2, lints::PANIC_DISCIPLINE)]);
}

#[test]
fn panic_discipline_fires_on_expect_and_macros() {
    let src = "fn f(x: Option<u8>) {\n    x.expect(\"oops\");\n    panic!(\"boom\");\n    unreachable!();\n    assert!(true);\n}\n";
    let got = diags(SERVING, src);
    assert_eq!(
        got,
        vec![
            (2, lints::PANIC_DISCIPLINE),
            (3, lints::PANIC_DISCIPLINE),
            (4, lints::PANIC_DISCIPLINE),
            (5, lints::PANIC_DISCIPLINE),
        ]
    );
}

#[test]
fn panic_discipline_skips_non_serving_modules_and_tests() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert!(diags("crates/feataug/src/template.rs", src).is_empty());

    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    assert!(diags(SERVING, test_src).is_empty());
}

#[test]
fn panic_discipline_allow_suppresses() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(panic): seeded two lines up, key always present\n    x.unwrap()\n}\n";
    assert!(diags(SERVING, src).is_empty());
    // Full lint name works as well as the alias.
    let src2 = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(panic-discipline): seeded above\n    x.unwrap()\n}\n";
    assert!(diags(SERVING, src2).is_empty());
}

#[test]
fn panic_discipline_allow_without_reason_is_rejected() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(panic)\n    x.unwrap()\n}\n";
    let got = diags(SERVING, src);
    // The finding stays AND the malformed directive is itself reported.
    assert!(got.contains(&(3, lints::PANIC_DISCIPLINE)), "{got:?}");
    assert!(got.contains(&(2, lints::DIRECTIVE)), "{got:?}");
}

// ---------------------------------------------------------------- lock-discipline

#[test]
fn lock_discipline_fires_on_bare_lock_unwrap() {
    let src = "fn f(&self) {\n    let g = self.inner.lock().unwrap();\n    let r = self.inner.read().expect(\"poisoned\");\n    let w = self.inner.write().unwrap();\n}\n";
    let got = diags("crates/feataug/src/encoding.rs", src);
    assert_eq!(
        got,
        vec![
            (2, lints::LOCK_DISCIPLINE),
            (3, lints::LOCK_DISCIPLINE),
            (4, lints::LOCK_DISCIPLINE),
        ]
    );
}

#[test]
fn lock_discipline_fires_on_order_inversion() {
    let src = "fn f(&self) {\n    let v = write_recover(&self.shared.views);\n    let g = lock_recover(&self.shared.ingest);\n}\n";
    assert_eq!(
        diags("crates/feataug/src/exec.rs", src),
        vec![(3, lints::LOCK_DISCIPLINE)]
    );
}

#[test]
fn lock_discipline_declared_order_is_clean() {
    let src = "fn f(&self) {\n    let g = lock_recover(&self.shared.ingest);\n    let c = lock_recover(&self.current);\n    let v = write_recover(&self.shared.views);\n}\n";
    assert!(diags("crates/feataug/src/exec.rs", src).is_empty());
}

#[test]
fn lock_discipline_allow_suppresses() {
    let src = "fn f(&self) {\n    // lint: allow(lock): startup-only init, no serving reader yet\n    let g = self.inner.lock().unwrap();\n}\n";
    assert!(diags("crates/feataug/src/encoding.rs", src).is_empty());
}

// ---------------------------------------------------------------- alloc-free-hot-path

#[test]
fn alloc_fires_only_in_hot_path_fns() {
    let src = "// lint: hot-path\nfn lookup(&self) -> String {\n    self.name.to_string()\n}\n\nfn cold(&self) -> String {\n    self.name.to_string()\n}\n";
    assert_eq!(
        diags("crates/feataug/src/serving.rs", src),
        vec![(3, lints::ALLOC_FREE_HOT_PATH)]
    );
}

#[test]
fn alloc_fires_on_macros_ctors_and_turbofish_collect() {
    let src = "// lint: hot-path\nfn lookup(&self) {\n    let v = Vec::new();\n    let s = format!(\"x\");\n    let c = self.xs.iter().collect::<Vec<_>>();\n}\n";
    let got = diags("crates/feataug/src/serving.rs", src);
    assert_eq!(
        got,
        vec![
            (3, lints::ALLOC_FREE_HOT_PATH),
            (4, lints::ALLOC_FREE_HOT_PATH),
            (5, lints::ALLOC_FREE_HOT_PATH),
        ]
    );
}

#[test]
fn alloc_allow_suppresses() {
    let src = "// lint: hot-path\nfn lookup(&self) {\n    // lint: allow(alloc): cold error branch, never taken on the warm path\n    let s = format!(\"x\");\n}\n";
    assert!(diags("crates/feataug/src/serving.rs", src).is_empty());
}

// ---------------------------------------------------------------- catch-unwind-workers

#[test]
fn catch_unwind_fires_on_unguarded_scope() {
    let src =
        "fn run(&self) {\n    std::thread::scope(|s| {\n        s.spawn(|| work());\n    });\n}\n";
    assert_eq!(
        diags("crates/feataug/src/exec.rs", src),
        vec![(2, lints::CATCH_UNWIND_WORKERS)]
    );
}

#[test]
fn catch_unwind_guarded_scope_is_clean() {
    let src = "fn run(&self) {\n    std::thread::scope(|s| {\n        s.spawn(|| catch_unwind(std::panic::AssertUnwindSafe(|| work())));\n    });\n}\n";
    assert!(diags("crates/feataug/src/exec.rs", src).is_empty());
}

#[test]
fn catch_unwind_only_applies_inside_feataug_src() {
    let src = "fn run() {\n    std::thread::scope(|s| {\n        s.spawn(|| work());\n    });\n}\n";
    assert!(diags("crates/bench/src/bin/bench_exec.rs", src).is_empty());
}

#[test]
fn catch_unwind_allow_suppresses() {
    let src = "fn run(&self) {\n    // lint: allow(catch-unwind): workers are infallible index copies\n    std::thread::scope(|s| {\n        s.spawn(|| work());\n    });\n}\n";
    assert!(diags("crates/feataug/src/exec.rs", src).is_empty());
}

// ---------------------------------------------------------------- failpoint-registry

/// Build a miniature workspace on disk and run the full `lint_workspace`
/// cross-check against it.
fn fixture_workspace(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("reset fixture dir");
    }
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("create fixture dirs");
        fs::write(&path, contents).expect("write fixture file");
    }
    root
}

#[test]
fn failpoint_registry_flags_all_three_directions() {
    let root = fixture_workspace(
        "fp-three-way",
        &[
            (
                "crates/feataug/src/exec.rs",
                "fn f() {\n    fail_point!(\"exec.gather\");\n    fail_point!(\"exec.unregistered\");\n}\n",
            ),
            (
                "crates/feataug/failpoints.txt",
                "# registry\nexec.gather\nexec.ghost\n",
            ),
            // Arms exec.gather only; exec.ghost is registered but never armed.
            (
                "tests/chaos.rs",
                "#[test]\nfn t() {\n    set(\"exec.gather\");\n}\n",
            ),
        ],
    );
    let report = lint_workspace(&root).expect("lint fixture workspace");
    let fp: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == lints::FAILPOINT_REGISTRY)
        .map(|d| d.message.clone())
        .collect();
    assert!(
        fp.iter()
            .any(|m| m.contains("exec.unregistered") && m.contains("not in")),
        "{fp:?}"
    );
    assert!(
        fp.iter()
            .any(|m| m.contains("exec.ghost") && m.contains("no fail_point! site")),
        "{fp:?}"
    );
    assert!(
        fp.iter()
            .any(|m| m.contains("exec.ghost") && m.contains("never armed")),
        "{fp:?}"
    );
    // exec.gather is a site, registered, and armed: no diagnostic mentions it.
    assert!(!fp.iter().any(|m| m.contains("`exec.gather`")), "{fp:?}");
}

#[test]
fn failpoint_registry_in_sync_is_clean() {
    let root = fixture_workspace(
        "fp-in-sync",
        &[
            (
                "crates/feataug/src/exec.rs",
                "fn f() {\n    fail_point!(\"exec.gather\");\n}\n",
            ),
            ("crates/feataug/failpoints.txt", "exec.gather\n"),
            (
                "tests/chaos.rs",
                "#[test]\nfn t() {\n    set(\"exec.gather\");\n}\n",
            ),
        ],
    );
    let report = lint_workspace(&root).expect("lint fixture workspace");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    assert_eq!(report.failpoint_sites.len(), 1);
}

#[test]
fn failpoint_registry_missing_file_is_fatal() {
    let root = fixture_workspace(
        "fp-no-registry",
        &[(
            "crates/feataug/src/exec.rs",
            "fn f() {\n    fail_point!(\"exec.gather\");\n}\n",
        )],
    );
    let report = lint_workspace(&root).expect("lint fixture workspace");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == lints::FAILPOINT_REGISTRY
                && d.message.contains("registry file missing")),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn workspace_walk_skips_perfbench() {
    // perfbench is its own cargo package and cannot reach the engine's
    // `pub(crate)` lock helpers, so the walk leaves it out; the same bare
    // lock under the engine's sources is still reported.
    let line = "fn f(m: &std::sync::Mutex<u8>) {\n    let g = m.lock().expect(\"poisoned\");\n}\n";
    let root = fixture_workspace(
        "walk-skips-perfbench",
        &[
            ("perfbench/src/reference.rs", line),
            ("crates/feataug/src/encoding.rs", line),
            ("crates/feataug/failpoints.txt", ""),
        ],
    );
    let report = lint_workspace(&root).expect("lint fixture workspace");
    let found: Vec<(&str, u32, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.lint))
        .collect();
    assert_eq!(
        found,
        vec![("crates/feataug/src/encoding.rs", 2, lints::LOCK_DISCIPLINE)]
    );
    assert_eq!(report.files_scanned, 1);
}

// ---------------------------------------------------------------- the real workspace

/// The gate CI runs: the workspace itself must lint clean. Any new unwrap in a
/// serving module, unregistered failpoint, or allocation in a hot-path fn
/// fails this test before it ever reaches the CI job.
#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("lint the real workspace");
    assert!(
        report.files_scanned > 50,
        "walk looks broken: {} files",
        report.files_scanned
    );
    assert!(
        !report.failpoint_sites.is_empty(),
        "failpoint site scan found nothing — pattern or walk regressed"
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}
