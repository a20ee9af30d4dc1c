//! `fastlive-lint` — the workspace's source gates as one
//! zero-dependency binary (`cargo run -p fastlive-lint`).
//!
//! These checks used to live as four `grep` pipelines in the CI
//! workflow; encoding them as a token scanner makes them runnable
//! locally, unit-testable against seeded violations, and honest about
//! their exemptions (each rule carries its allowlist as data, not as
//! `grep -v` incantations).
//!
//! The rules:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `lock_recover` | `crates/engine/src/` | locks recover from poisoning via `lock_recover`, never `.lock().unwrap()` / `.expect()` |
//! | `vfs_isolation` | `crates/engine/src/` | `std::fs` only inside `vfs.rs` — everything else goes through the `Vfs` seam |
//! | `print_discipline` | `src/`, `crates/*/src/` | library crates never print; observability goes through the `Recorder` seam |
//! | `bitset_clippy` | `crates/bitset/src/` | no clippy suppressions in the hot kernels |
//! | `bitset_unsafe` | `crates/bitset/src/` | `#![forbid(unsafe_code)]` stays, and any future `unsafe` carries a `// SAFETY:` line |
//! | `facade_only_examples` | `examples/` | examples demonstrate the facade, not the internals |
//! | `baseline_fence` | `src/`, `crates/*/src/` | only `fastlive_core::baseline` itself and the bench runner name the paper-reproduction code |
//!
//! Test modules are exempt where the rule says so: the scanner treats
//! everything at or below the first `#[cfg(test)]` line as test code
//! (the workspace convention keeps test modules at the bottom of the
//! file). Comment lines are exempt from token rules — prose about
//! `std::fs` is not a call to it.

use std::fmt;

/// One rule violation at one source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// A source file presented to the rules: a workspace-relative path
/// (always `/`-separated) plus its full text. Tests construct these
/// directly; the binary reads them off disk.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

impl SourceFile {
    /// A file from its path and text.
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// One named gate: a scope filter and a per-file check.
pub struct Rule {
    /// Stable rule name (shown in reports and used in tests).
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// The per-file check; returns every violation in the file.
    pub check: fn(&SourceFile) -> Vec<Violation>,
}

/// Every gate, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "lock_recover",
        summary: "engine locks recover from poisoning instead of unwrapping it",
        check: check_lock_recover,
    },
    Rule {
        name: "vfs_isolation",
        summary: "engine filesystem access goes through the Vfs seam (vfs.rs), not std::fs",
        check: check_vfs_isolation,
    },
    Rule {
        name: "print_discipline",
        summary: "library crates observe via the Recorder seam, never print",
        check: check_print_discipline,
    },
    Rule {
        name: "bitset_clippy",
        summary: "no clippy suppressions in the bitset kernels",
        check: check_bitset_clippy,
    },
    Rule {
        name: "bitset_unsafe",
        summary: "bitset keeps #![forbid(unsafe_code)]; any unsafe needs a // SAFETY: line",
        check: check_bitset_unsafe,
    },
    Rule {
        name: "facade_only_examples",
        summary: "examples import the fastlive facade, not fastlive_engine/fastlive_core",
        check: check_facade_only_examples,
    },
    Rule {
        name: "baseline_fence",
        summary: "library code never reaches into the paper-reproduction baseline module",
        check: check_baseline_fence,
    },
];

/// 0-indexed line where the file's test region starts (`usize::MAX`
/// when it has none). Everything at or after the first `#[cfg(test)]`
/// is test code by workspace convention.
fn test_region_start(text: &str) -> usize {
    text.lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX)
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Boundary-checked token search: the characters immediately before
/// and after a match must not be identifier characters, so `println!`
/// never matches inside `eprintln!` and `unsafe` never matches inside
/// `unsafe_code`.
fn has_token(line: &str, token: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let at = start + pos;
        let before_ok = line[..at].chars().next_back().is_none_or(|c| !ident(c));
        let after_ok = line[at + token.len()..]
            .chars()
            .next()
            .is_none_or(|c| !ident(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// `true` if `line` names a path through the module `name`: the
/// token `name` (no identifier character before it) followed by `::`,
/// spaces allowed.
fn names_path_through(line: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(name).any(|(at, _)| {
        line[..at].chars().next_back().is_none_or(|c| !ident(c))
            && line[at + name.len()..].trim_start().starts_with("::")
    })
}

/// The line with all whitespace squeezed out — how rules match
/// multi-token patterns (`.lock() . unwrap(`) insensitively to
/// formatting.
fn squashed(line: &str) -> String {
    line.chars().filter(|c| !c.is_whitespace()).collect()
}

fn violation(rule: &'static str, file: &SourceFile, idx: usize, line: &str) -> Violation {
    Violation {
        rule,
        file: file.path.clone(),
        line: idx + 1,
        excerpt: line.trim().to_string(),
    }
}

/// Scans non-comment, non-test lines of `file` with `hit`, collecting
/// a violation per matching line.
fn scan_lines(
    rule: &'static str,
    file: &SourceFile,
    exempt_tests: bool,
    hit: impl Fn(&str) -> bool,
) -> Vec<Violation> {
    let cutoff = if exempt_tests {
        test_region_start(&file.text)
    } else {
        usize::MAX
    };
    file.text
        .lines()
        .enumerate()
        .take_while(|(i, _)| *i < cutoff)
        .filter(|(_, l)| !is_comment(l) && hit(l))
        .map(|(i, l)| violation(rule, file, i, l))
        .collect()
}

/// `lock_recover`: a panicking precomputation poisons whatever mutex
/// it held; `.lock().unwrap()` / `.lock().expect(..)` turns that one
/// panic into contagion for every later caller. Engine sources go
/// through `lock_recover` (crates/engine/src/vfs.rs). Test modules are
/// exempt — a test may assert however it likes.
pub fn check_lock_recover(file: &SourceFile) -> Vec<Violation> {
    if !file.path.starts_with("crates/engine/src/") {
        return Vec::new();
    }
    scan_lines("lock_recover", file, true, |l| {
        let s = squashed(l);
        s.contains(".lock().unwrap(") || s.contains(".lock().expect(")
    })
}

/// `vfs_isolation`: every filesystem touch in the engine goes through
/// the `Vfs` trait so fault injection and the breaker see it; a direct
/// `std::fs` call is invisible to both. Only `vfs.rs` (the seam
/// itself) may name `std::fs`; test modules are exempt.
pub fn check_vfs_isolation(file: &SourceFile) -> Vec<Violation> {
    if !file.path.starts_with("crates/engine/src/") || file.path == "crates/engine/src/vfs.rs" {
        return Vec::new();
    }
    scan_lines("vfs_isolation", file, true, |l| has_token(l, "std::fs"))
}

/// Paths exempt from `print_discipline`: printing is these binaries'
/// job.
pub const PRINT_ALLOWLIST: &[&str] = &[
    "crates/bench/src/",
    "crates/fuzz/src/main.rs",
    "crates/lint/src/",
];

/// `print_discipline`: a stray `println!` in a library crate is
/// invisible to the telemetry snapshot, unconditionally on, and
/// corrupts consumers' stdout. Bench/report binaries, the fuzz
/// campaign binary, this linter, and test modules are exempt.
pub fn check_print_discipline(file: &SourceFile) -> Vec<Violation> {
    let scanned = file.path.starts_with("src/")
        || (file.path.starts_with("crates/") && file.path.contains("/src/"));
    if !scanned || PRINT_ALLOWLIST.iter().any(|a| file.path.starts_with(a)) {
        return Vec::new();
    }
    scan_lines("print_discipline", file, true, |l| {
        ["println!", "eprintln!", "print!", "eprint!"]
            .iter()
            .any(|t| has_token(l, t))
    })
}

/// `bitset_clippy`: the wide kernels are the hottest code in the
/// repo; a lint suppression there hides exactly the kind of subtle
/// indexing or cast bug the differential suite exists to catch. Fix
/// the lint, don't silence it — in tests too.
pub fn check_bitset_clippy(file: &SourceFile) -> Vec<Violation> {
    if !file.path.starts_with("crates/bitset/src/") {
        return Vec::new();
    }
    scan_lines("bitset_clippy", file, false, |l| {
        squashed(l).contains("#[allow(clippy::")
    })
}

/// `bitset_unsafe`: the crate declares `#![forbid(unsafe_code)]` and
/// the padded arena keeps cache-line alignment without a single unsafe
/// block. Dropping the forbid counts as introducing unsafe; any future
/// unsafe must carry a `// SAFETY:` justification on the preceding
/// line.
pub fn check_bitset_unsafe(file: &SourceFile) -> Vec<Violation> {
    if !file.path.starts_with("crates/bitset/src/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    if file.path == "crates/bitset/src/lib.rs" && !file.text.contains("forbid(unsafe_code)") {
        out.push(Violation {
            rule: "bitset_unsafe",
            file: file.path.clone(),
            line: 1,
            excerpt: "crates/bitset dropped #![forbid(unsafe_code)]".to_string(),
        });
    }
    let lines: Vec<&str> = file.text.lines().collect();
    for (i, l) in lines.iter().enumerate() {
        if is_comment(l) || squashed(l).contains("forbid(unsafe_code)") || !has_token(l, "unsafe") {
            continue;
        }
        let justified = i > 0 && lines[i - 1].contains("// SAFETY:");
        if !justified {
            out.push(violation("bitset_unsafe", file, i, l));
        }
    }
    out
}

/// `facade_only_examples`: examples are the doorstep of the repo —
/// they must demonstrate the one front door, not reach around it.
/// Low-level layers (graph/cfg/ir/workload/...) stay fair game; the
/// analysis surfaces must come from `fastlive` itself. Comments count
/// too: an example teaching readers to name the internals is the same
/// problem.
pub fn check_facade_only_examples(file: &SourceFile) -> Vec<Violation> {
    if !file.path.starts_with("examples/") {
        return Vec::new();
    }
    let cutoff = usize::MAX; // no test-region exemption in examples
    file.text
        .lines()
        .enumerate()
        .take_while(|(i, _)| *i < cutoff)
        .filter(|(_, l)| {
            ["fastlive_engine", "fastlive_core"]
                .iter()
                .any(|t| has_token(l, t))
                || l.contains("fastlive::engine::")
                || l.contains("fastlive::core::")
        })
        .map(|(i, l)| violation("facade_only_examples", file, i, l))
        .collect()
}

/// Paths exempt from `baseline_fence`: the module itself and the
/// bench runner, whose reproduction suites are its reason to exist.
pub const BASELINE_ALLOWLIST: &[&str] = &["crates/core/src/baseline", "crates/bench/src/"];

/// `baseline_fence`: `fastlive_core::baseline` holds the §6
/// evaluation devices and the executable specifications (sorted-array
/// and loop-forest checkers, the scalar twins of the fused queries).
/// They answer like the production path, only slower, so a library
/// that calls one silently ships the slow path. Library sources may
/// not name a `baseline::` path outside test modules; tests, the
/// module itself and the bench runner may.
pub fn check_baseline_fence(file: &SourceFile) -> Vec<Violation> {
    let scanned = file.path.starts_with("src/")
        || (file.path.starts_with("crates/") && file.path.contains("/src/"));
    if !scanned || BASELINE_ALLOWLIST.iter().any(|a| file.path.starts_with(a)) {
        return Vec::new();
    }
    scan_lines("baseline_fence", file, true, |l| {
        names_path_through(l, "baseline")
    })
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    RULES.iter().flat_map(|r| (r.check)(file)).collect()
}

/// Runs every rule over every `.rs` file under the workspace root's
/// scanned directories (`src/`, `crates/`, `examples/`), in path
/// order.
pub fn run_workspace(root: &std::path::Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for dir in ["src", "crates", "examples"] {
        collect_rs_files(root, &root.join(dir), &mut files)?;
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files.iter().flat_map(check_file).collect())
}

fn collect_rs_files(
    root: &std::path::Path,
    dir: &std::path::Path,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::new(rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn lock_recover_catches_unwrapped_locks_and_spares_tests() {
        let bad = SourceFile::new(
            "crates/engine/src/engine.rs",
            "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap();\n    let h = m.lock() . expect(\"x\");\n}",
        );
        let got = check_lock_recover(&bad);
        assert_eq!(names(&got), ["lock_recover", "lock_recover"]);
        assert_eq!(got[0].line, 2);

        // Test modules assert however they like.
        let test_only = SourceFile::new(
            "crates/engine/src/engine.rs",
            "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn t(m: &std::sync::Mutex<u32>) { m.lock().unwrap(); }\n}",
        );
        assert!(check_lock_recover(&test_only).is_empty());

        // Out of scope: the facade may do what it wants.
        let elsewhere = SourceFile::new("src/backend.rs", "m.lock().unwrap();");
        assert!(check_lock_recover(&elsewhere).is_empty());
    }

    #[test]
    fn vfs_isolation_confines_std_fs_to_the_seam() {
        let bad = SourceFile::new(
            "crates/engine/src/persist.rs",
            "fn save() {\n    std::fs::write(\"x\", b\"y\").ok();\n}",
        );
        assert_eq!(names(&check_vfs_isolation(&bad)), ["vfs_isolation"]);

        // The seam itself, comments, and test modules are exempt.
        let seam = SourceFile::new("crates/engine/src/vfs.rs", "std::fs::write(\"x\", b\"y\");");
        assert!(check_vfs_isolation(&seam).is_empty());
        let comment = SourceFile::new(
            "crates/engine/src/persist.rs",
            "/// cleanup: `std::fs::remove_dir_all(&dir).ok();`\nfn f() {}",
        );
        assert!(check_vfs_isolation(&comment).is_empty());
        let test_only = SourceFile::new(
            "crates/engine/src/persist.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(\"x\", b\"y\").ok(); }\n}",
        );
        assert!(check_vfs_isolation(&test_only).is_empty());
    }

    #[test]
    fn print_discipline_flags_library_prints_and_honors_the_allowlist() {
        let bad = SourceFile::new(
            "crates/core/src/nullness.rs",
            "fn f() {\n    println!(\"dbg\");\n    eprint!(\"dbg\");\n}",
        );
        assert_eq!(
            names(&check_print_discipline(&bad)),
            ["print_discipline", "print_discipline"]
        );

        for allowed in [
            "crates/bench/src/main.rs",
            "crates/fuzz/src/main.rs",
            "crates/lint/src/main.rs",
        ] {
            let f = SourceFile::new(allowed, "fn f() { println!(\"report\"); }");
            assert!(check_print_discipline(&f).is_empty(), "{allowed}");
        }

        // A token inside a longer macro name is not a match.
        let near_miss = SourceFile::new(
            "crates/core/src/lib.rs",
            "fn f() { my_println!(\"not std\"); }",
        );
        assert!(check_print_discipline(&near_miss).is_empty());
    }

    #[test]
    fn bitset_clippy_suppressions_are_flagged_even_in_tests() {
        let bad = SourceFile::new(
            "crates/bitset/src/kernels.rs",
            "#[cfg(test)]\nmod tests {\n    #[allow(clippy::needless_range_loop)]\n    fn t() {}\n}",
        );
        assert_eq!(names(&check_bitset_clippy(&bad)), ["bitset_clippy"]);
        let elsewhere = SourceFile::new(
            "crates/core/src/lib.rs",
            "#[allow(clippy::too_many_arguments)]\nfn f() {}",
        );
        assert!(check_bitset_clippy(&elsewhere).is_empty());
    }

    #[test]
    fn bitset_unsafe_needs_forbid_and_safety_lines() {
        let dropped = SourceFile::new("crates/bitset/src/lib.rs", "pub fn f() {}");
        assert_eq!(names(&check_bitset_unsafe(&dropped)), ["bitset_unsafe"]);

        let kept = SourceFile::new(
            "crates/bitset/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        );
        assert!(check_bitset_unsafe(&kept).is_empty());

        let naked = SourceFile::new(
            "crates/bitset/src/arena.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}",
        );
        assert_eq!(names(&check_bitset_unsafe(&naked)), ["bitset_unsafe"]);

        let justified = SourceFile::new(
            "crates/bitset/src/arena.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}",
        );
        assert!(check_bitset_unsafe(&justified).is_empty());

        // Prose about unsafety is not unsafety.
        let comment = SourceFile::new(
            "crates/bitset/src/arena.rs",
            "// no unsafe here\nfn unsafe_free() {}",
        );
        assert!(check_bitset_unsafe(&comment).is_empty());
    }

    #[test]
    fn examples_must_stay_facade_only() {
        let bad = SourceFile::new(
            "examples/quickstart.rs",
            "use fastlive_engine::AnalysisEngine;\nlet s = fastlive::core::Precomputation::default();",
        );
        let got = check_facade_only_examples(&bad);
        assert_eq!(
            names(&got),
            ["facade_only_examples", "facade_only_examples"]
        );

        // The facade and the low-level utility crates are fair game.
        let ok = SourceFile::new(
            "examples/quickstart.rs",
            "use fastlive::{Fastlive, Query};\nuse fastlive_ir::parse_module;",
        );
        assert!(check_facade_only_examples(&ok).is_empty());
    }

    #[test]
    fn baseline_fence_keeps_reproduction_code_out_of_libraries() {
        let bad = SourceFile::new(
            "crates/engine/src/session.rs",
            "use fastlive_core::baseline::SortedLivenessChecker;\nfn f() { baseline :: is_live_in_scalar(); }",
        );
        assert_eq!(
            names(&check_baseline_fence(&bad)),
            ["baseline_fence", "baseline_fence"]
        );

        // The module itself, the bench runner, comments, test modules
        // and look-alike identifiers are exempt.
        for allowed in [
            "crates/core/src/baseline/mod.rs",
            "crates/core/src/baseline.rs",
            "crates/bench/src/suites/ablation.rs",
        ] {
            let f = SourceFile::new(allowed, "use fastlive_core::baseline::candidates;");
            assert!(check_baseline_fence(&f).is_empty(), "{allowed}");
        }
        let exempt = SourceFile::new(
            "crates/core/src/checker.rs",
            "/// see [`crate::baseline::candidates`]\nfn f() { my_baseline::g(); }\n\
             #[cfg(test)]\nmod tests {\n    use crate::baseline::candidates;\n}",
        );
        assert!(check_baseline_fence(&exempt).is_empty());
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The gates run in CI as `cargo run -p fastlive-lint`; running
        // them here too means `cargo test` catches a violation before
        // any workflow does.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root");
        let violations = run_workspace(&root).expect("scan succeeds");
        assert!(
            violations.is_empty(),
            "workspace violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
