//! `usj-tidy` — workspace static-analysis pass (rustc-`tidy` style).
//!
//! The join's correctness rests on invariants the type system cannot see:
//! probabilities stay in `[0, 1]`, funnel counters are thread-count
//! invariant, the sharded driver's atomics keep output deterministic, and
//! the obs snapshot schema stays stable for downstream tooling. This crate
//! machine-checks the *project policies* that protect those invariants
//! across refactors:
//!
//! | lint | enforces |
//! |------|----------|
//! | `no-unwrap` | no `unwrap()`/`expect()`/`unwrap_unchecked()`/`panic!` in hot-path modules |
//! | `ordering-comment` | every atomic `Ordering::…` carries an `// ordering:` justification |
//! | `unsafe-safety` | every `unsafe` block carries a `// safety:` justification (declarations exempt) |
//! | `metrics-registered` | every recorded `Counter`/`Gauge` is a row of the metric table, and every row's name is pinned by the golden schema test |
//! | `dep-allowlist` | no registry dependencies: every dependency is a path crate in the repository |
//! | `doc-drift` | `DESIGN.md` inventories every crate and names no missing one; `CHANGES.md` has one consecutive `- PR n:` line per PR |
//! | `socket-timeout` | no blocking socket read in `crates/serve/src/` without a prior `set_read_timeout` |
//! | `durable-write` | no raw `File::create`/`fs::write` in `crates/{core,serve,cli}/src/` outside the `durable_atomic_write` helpers |
//! | `span-paired` | every manual `enter_phase` in `crates/{core,serve}/src/` is exited in-file, with no early `return`/`?` while open (RAII `PhaseGuard` is exempt) |
//! | `budget-loop` | every loop in a probe/search fn (budget-scoped files) consults a budget/deadline/cancel word in its body |
//! | `failpoint-coverage` | every `catch_unwind` carries a named failpoint in-extent; fault-plan names resolve; every failpoint is test-exercised |
//! | `lock-discipline` | no lock guard stays live across `catch_unwind`, a failpoint, blocking I/O, or `sleep` |
//!
//! Since PR 8 the engine is token-aware: a string/char/raw-string/comment
//! tokenizer ([`tokenizer`]) feeds a brace-tree of fn/impl/mod/test
//! extents ([`extent`]) and a workspace failpoint symbol table
//! ([`symbols`]); the line lints consume masked per-line views
//! ([`source`]) derived from the same stream, so neither granularity can
//! be fooled by literals, comments, or multi-line constructs.
//!
//! Exceptions live in `tidy.allow` at the workspace root — line-granular,
//! content-matched, and reason-bearing (see [`allow`]). Unused entries are
//! themselves diagnostics, so the allowlist can only shrink.
//!
//! Run as `cargo run -p usj-tidy`; exits non-zero with `file:line: lint:
//! message` diagnostics on any violation (`--emit=json` for the
//! machine-readable stream, see [`emit`]). Like `usj-obs`, this crate is
//! **std-only by design** — it must build where crates.io is unreachable.

#![warn(missing_docs)]

pub mod allow;
pub mod emit;
pub mod extent;
pub mod lints;
pub mod source;
pub mod symbols;
pub mod tokenizer;

use std::path::{Path, PathBuf};

use allow::AllowList;
use source::SourceFile;

/// Every lint name, for allowlist validation and `--help` output.
pub const LINT_NAMES: [&str; 12] = [
    "no-unwrap",
    "ordering-comment",
    "unsafe-safety",
    "metrics-registered",
    "dep-allowlist",
    "doc-drift",
    "socket-timeout",
    "durable-write",
    "span-paired",
    "budget-loop",
    "failpoint-coverage",
    "lock-discipline",
];

/// Directory names never walked: build artifacts, VCS state, experiment
/// outputs, and lint-test fixture trees (which contain violations *on
/// purpose*).
const SKIP_DIRS: [&str; 4] = ["target", ".git", "results", "fixtures"];

/// One tidy finding, printed as `file:line: lint: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Lint name (one of [`LINT_NAMES`], or `allow-syntax`/`unused-allow`
    /// for problems in `tidy.allow` itself).
    pub lint: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A non-Rust file tidy inspects verbatim (manifests).
#[derive(Debug)]
pub struct RawFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Entire file contents.
    pub text: String,
}

/// Everything the lints look at, loaded in one walk.
#[derive(Debug)]
pub struct Workspace {
    /// All `.rs` files (classified), sorted by path.
    pub rust_files: Vec<SourceFile>,
    /// All `Cargo.toml` manifests, sorted by path.
    pub manifests: Vec<RawFile>,
    /// Names of directories under `crates/` that contain a `Cargo.toml`.
    pub crate_dirs: Vec<String>,
    /// `DESIGN.md` contents, if present.
    pub design_md: Option<String>,
    /// `CHANGES.md` contents, if present.
    pub changes_md: Option<String>,
}

impl Workspace {
    /// Walks `root`, loading every file the lints need. IO errors on
    /// individual files are skipped (a vanishing file is the build's
    /// problem, not tidy's).
    pub fn load(root: &Path) -> Workspace {
        let mut rust_files = Vec::new();
        let mut manifests = Vec::new();
        walk(root, root, &mut rust_files, &mut manifests);
        rust_files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        manifests.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

        let mut crate_dirs = Vec::new();
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() && path.join("Cargo.toml").is_file() {
                    if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                        crate_dirs.push(name.to_string());
                    }
                }
            }
        }
        crate_dirs.sort();

        Workspace {
            rust_files,
            manifests,
            crate_dirs,
            design_md: std::fs::read_to_string(root.join("DESIGN.md")).ok(),
            changes_md: std::fs::read_to_string(root.join("CHANGES.md")).ok(),
        }
    }
}

fn walk(root: &Path, dir: &Path, rust: &mut Vec<SourceFile>, manifests: &mut Vec<RawFile>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                walk(root, &path, rust, manifests);
            }
            continue;
        }
        let is_rust = name.ends_with(".rs");
        let is_manifest = name == "Cargo.toml";
        if !is_rust && !is_manifest {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = rel_path(root, &path);
        if is_rust {
            rust.push(SourceFile::parse(&rel, &text));
        } else {
            manifests.push(RawFile {
                rel_path: rel,
                text,
            });
        }
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every lint over the workspace at `root`, filters through
/// `tidy.allow`, and returns the surviving diagnostics sorted by
/// `(file, line, lint)`. Empty result = clean workspace.
pub fn run_tidy(root: &Path) -> Vec<Diagnostic> {
    let ws = Workspace::load(root);
    let mut allow = AllowList::load(root);

    let mut raw: Vec<Diagnostic> = Vec::new();
    raw.extend(lints::no_unwrap(&ws.rust_files));
    raw.extend(lints::ordering_comment(&ws.rust_files));
    raw.extend(lints::unsafe_safety(&ws.rust_files));
    raw.extend(lints::metrics_registered(&ws));
    raw.extend(lints::dep_allowlist(&ws));
    raw.extend(lints::doc_drift(&ws));
    raw.extend(lints::socket_timeout(&ws.rust_files));
    raw.extend(lints::durable_write(&ws.rust_files));
    raw.extend(lints::span_paired(&ws.rust_files));
    raw.extend(lints::budget_loop(&ws.rust_files));
    raw.extend(lints::failpoint_coverage(&ws));
    raw.extend(lints::lock_discipline(&ws.rust_files));

    let mut diags: Vec<Diagnostic> = Vec::new();
    for diag in raw {
        let line_text = source_line(&ws, &diag);
        if allow.allows(&diag.lint, &diag.file, line_text) {
            continue;
        }
        diags.push(diag);
    }
    diags.extend(allow.parse_diags.iter().cloned());
    diags.extend(allow.unused_entries(&ws));
    diags.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
    // One diagnostic per (file, line, lint): a line tripping several
    // patterns of the same lint reads as noise, not signal. Sorting
    // first makes the survivor (smallest message) deterministic.
    diags.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.lint == b.lint);
    diags
}

/// The text of the line a diagnostic points at (for allowlist matching).
fn source_line<'a>(ws: &'a Workspace, diag: &Diagnostic) -> &'a str {
    if let Some(f) = ws.rust_files.iter().find(|f| f.rel_path == diag.file) {
        if let Some(line) = f.lines.get(diag.line.wrapping_sub(1)) {
            return &line.text;
        }
    }
    if let Some(m) = ws.manifests.iter().find(|m| m.rel_path == diag.file) {
        if let Some(line) = m.text.lines().nth(diag.line.wrapping_sub(1)) {
            return line;
        }
    }
    ""
}
