//! The project-specific lints.
//!
//! Each lint is a plain function from workspace state to diagnostics; the
//! driver in [`crate::run_tidy`] filters the results through `tidy.allow`.
//! All lints are textual: they never fail on unparseable code, they just
//! stop matching — the compiler is the authority on syntax, tidy is the
//! authority on project policy.
//!
//! Two granularities coexist deliberately:
//!
//! * **token lints** match sequences in the trivia-free token stream
//!   (`no-unwrap`, `ordering-comment`, `unsafe-safety`, and the three
//!   extent lints) — multi-line constructs, comments, and string
//!   literals cannot fool them;
//! * **line lints** keep per-line state machines over the masked code
//!   view (`socket-timeout`, `span-paired`, `metrics-registered`) where
//!   "earlier in this file" is the natural unit of reasoning.

use std::collections::BTreeMap;

use crate::extent::ExtentKind;
use crate::source::SourceFile;
use crate::symbols::{self, is_failpoint_name, str_content};
use crate::tokenizer::Kind;
use crate::{Diagnostic, Workspace};

/// Files where panicking combinators are forbidden outside test code:
/// the join hot path (driver, parallel driver, index, per-probe
/// verifier), the two filter kernels whose per-candidate cost dominates
/// runs, and the exact verifiers, which take most of a protein join.
const HOT_PATH_FILES: [&str; 4] = [
    "crates/core/src/join.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/index.rs",
    "crates/core/src/verifier.rs",
];
const HOT_PATH_DIRS: [&str; 3] = ["crates/cdf/src/", "crates/qgram/src/", "crates/verify/src/"];

fn is_hot_path(rel_path: &str) -> bool {
    HOT_PATH_FILES.contains(&rel_path) || HOT_PATH_DIRS.iter().any(|d| rel_path.starts_with(d))
}

/// Is a `needle` justification present on the site token `ti`'s line or
/// within the `reach` **code** lines above it? Blank, comment-only, and
/// attribute lines are checked but never consume the budget — a
/// justification does not fall out of reach because prose, spacing, or an
/// attribute sits under it. The walk is scoped to the site's enclosing
/// `fn` extent: a code line with no token of that extent ends it, so a
/// comment inside the *previous* function can never justify this site.
fn justified_within(file: &SourceFile, ti: usize, reach: usize, needle: &str) -> bool {
    let i = file.toks[ti].line - 1;
    if file.lines[i].text.contains(needle) {
        return true;
    }
    let site_fn = file.extents.enclosing_fn(ti);
    let mut same_fn = vec![false; i];
    if site_fn.is_some() {
        for (k, t) in file.toks.iter().enumerate() {
            let ln = t.line - 1;
            if ln < i && !t.is_trivia() && file.extents.enclosing_fn(k) == site_fn {
                same_fn[ln] = true;
            }
        }
    }
    let mut budget = reach;
    for j in (0..i).rev() {
        let line = &file.lines[j];
        if line.text.contains(needle) {
            return true;
        }
        if line.comment_only || line.text.trim_start().starts_with("#[") {
            continue;
        }
        if site_fn.is_some() && !same_fn[j] {
            return false;
        }
        budget -= 1;
        if budget == 0 {
            return false;
        }
    }
    false
}

/// `no-unwrap`: `.unwrap()` / `.expect(` / `.unwrap_unchecked(` /
/// `panic!` in hot-path modules.
///
/// A panic inside the probe loop aborts the whole join (and under the
/// parallel driver, poisons shared state for every worker). Hot-path code
/// must either handle the case or carry an allowlisted, reason-bearing
/// `expect` documenting why the invariant cannot fail. Matching is
/// token-sequence based, so a chain split across lines
/// (`.foo()\n    .unwrap()`) is caught at the `unwrap` token's line.
pub fn no_unwrap(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        if !is_hot_path(&file.rel_path) {
            continue;
        }
        let m = file.meaningful();
        for w in 0..m.len() {
            let ti = m[w];
            if file.toks[ti].kind != Kind::Word {
                continue;
            }
            let text = |k: usize| m.get(k).map(|&t| file.tok_text(t)).unwrap_or("");
            let after_dot = w > 0 && text(w - 1) == ".";
            let pattern = match file.tok_text(ti) {
                "unwrap" if after_dot && text(w + 1) == "(" && text(w + 2) == ")" => ".unwrap()",
                "expect" if after_dot && text(w + 1) == "(" => ".expect(",
                "unwrap_unchecked" if after_dot && text(w + 1) == "(" => ".unwrap_unchecked(",
                "panic" if text(w + 1) == "!" => "panic!",
                _ => continue,
            };
            if file.tok_in_test(ti) {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.toks[ti].line,
                lint: "no-unwrap".to_string(),
                message: format!(
                    "`{pattern}` in hot-path module — handle the error or allowlist \
                     with a reason in tidy.allow"
                ),
            });
        }
    }
    diags
}

/// Atomic memory-ordering names (`std::sync::atomic::Ordering`). The
/// `std::cmp::Ordering` variants (`Less`/`Equal`/`Greater`) are exempt —
/// comparison results need no fence justification.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How many **code** lines above an atomic-ordering use may carry its
/// justification comment (blank/comment lines don't count).
const ORDERING_COMMENT_REACH: usize = 4;

/// `ordering-comment`: every atomic `Ordering::…` use must carry an
/// `ordering:` justification on the same line or within the preceding
/// four code lines (`ORDERING_COMMENT_REACH`).
///
/// Memory orderings encode a proof obligation the type system cannot see
/// (what happens-before edge makes this access sound?). PR 2's
/// determinism guarantees rest on exactly these justifications.
pub fn ordering_comment(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        let m = file.meaningful();
        for w in 0..m.len() {
            let ti = m[w];
            let text = |k: usize| m.get(k).map(|&t| file.tok_text(t)).unwrap_or("");
            if file.toks[ti].kind != Kind::Word
                || file.tok_text(ti) != "Ordering"
                || text(w + 1) != ":"
                || text(w + 2) != ":"
                || !ATOMIC_ORDERINGS.contains(&text(w + 3))
            {
                continue;
            }
            if justified_within(file, ti, ORDERING_COMMENT_REACH, "ordering:") {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.toks[ti].line,
                lint: "ordering-comment".to_string(),
                message: "atomic Ordering use without an `// ordering:` justification \
                          comment on this line or the lines above"
                    .to_string(),
            });
        }
    }
    diags
}

/// How many **code** lines above an `unsafe` block may carry its
/// justification comment (mirrors [`ORDERING_COMMENT_REACH`]).
const SAFETY_COMMENT_REACH: usize = 4;

/// `unsafe-safety`: every `unsafe` block must carry a `safety:`
/// justification on the same line or within the preceding
/// four code lines (`SAFETY_COMMENT_REACH`).
///
/// An `unsafe` block is a claim that some obligation the compiler cannot
/// check (bounds, feature availability, aliasing) has been discharged by
/// hand — the comment is where that proof lives, and tests only cover
/// the cases the proof describes. `crates/*/src` holds no `unsafe`
/// today; the lint keeps any future block honest. `unsafe fn`/`unsafe impl`/`unsafe trait` declarations are
/// exempt: they *impose* an obligation rather than discharge one, and the
/// call site (an `unsafe` block) is where this lint demands the argument.
pub fn unsafe_safety(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        let m = file.meaningful();
        for w in 0..m.len() {
            let ti = m[w];
            if file.toks[ti].kind != Kind::Word || file.tok_text(ti) != "unsafe" {
                continue;
            }
            // Only `unsafe {` opens a *block*; `unsafe fn` / `unsafe impl`
            // / `unsafe trait` / `unsafe extern` declare.
            let next = m.get(w + 1).map(|&t| file.tok_text(t)).unwrap_or("");
            if next != "{" {
                continue;
            }
            if file.tok_in_test(ti) {
                continue;
            }
            if justified_within(file, ti, SAFETY_COMMENT_REACH, "safety:") {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.toks[ti].line,
                lint: "unsafe-safety".to_string(),
                message: "`unsafe` block without a `// safety:` justification comment \
                          on this line or the lines above"
                    .to_string(),
            });
        }
    }
    diags
}

/// Blocking socket-read method calls. Each stalls a server worker thread
/// for as long as the peer cares to keep the connection open unless the
/// stream carries a read timeout.
const BLOCKING_READS: [&str; 5] = [
    ".read_line(",
    ".read_to_string(",
    ".read_exact(",
    ".read_to_end(",
    ".read(",
];

/// A socket read always fills a caller-supplied buffer, so an
/// argument-less `.read()` is the `RwLock` guard shape, not I/O.
fn has_blocking_read(code: &str) -> bool {
    BLOCKING_READS.iter().any(|p| {
        code.match_indices(p)
            .any(|(i, _)| !code[i + p.len()..].starts_with(')'))
    })
}

/// `socket-timeout`: in `crates/serve/src/` (the only crate that owns
/// sockets), every blocking read must come after a `set_read_timeout`
/// call earlier in the same file.
///
/// A worker that blocks forever on a slow-loris peer is a capacity leak
/// the admission controller cannot see: the queue stays short while every
/// worker is wedged. `usj-serve`'s overload guarantees assume all socket
/// IO is bounded, so the timeout must be installed before the first read
/// on every code path.
pub fn socket_timeout(files: &[SourceFile]) -> Vec<Diagnostic> {
    const SERVE_SRC: &str = "crates/serve/src/";
    let mut diags = Vec::new();
    for file in files {
        if !file.rel_path.starts_with(SERVE_SRC) {
            continue;
        }
        // First line (0-based) of non-test code that installs a read
        // timeout; reads on later lines are considered bounded.
        let timeout_at = file
            .lines
            .iter()
            .position(|l| !l.comment_only && !l.in_test && l.code().contains("set_read_timeout"));
        for (i, line) in file.lines.iter().enumerate() {
            if line.comment_only || line.in_test {
                continue;
            }
            let code = line.code();
            if !has_blocking_read(code) {
                continue;
            }
            if timeout_at.is_some_and(|t| t < i) {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: line.number,
                lint: "socket-timeout".to_string(),
                message: "blocking read without a `set_read_timeout` earlier in this file — \
                          a slow peer would wedge the worker and starve the admission queue"
                    .to_string(),
            });
        }
    }
    diags
}

/// Crates whose non-test code must not write files with the raw
/// std APIs: every on-disk artifact they produce (datasets, checkpoints,
/// snapshots, traces) is something a restart reads back,
/// so a crash mid-write must never leave a torn file in place.
const DURABLE_WRITE_DIRS: [&str; 3] = ["crates/core/src/", "crates/serve/src/", "crates/cli/src/"];

/// `durable-write`: in the durable-artifact crates, non-test code must
/// not call `File::create(` / `File::create_new(` / `fs::write(`
/// directly — the `durable_atomic_write` helpers (write a temporary,
/// fsync, atomically rename) are the only path to disk.
///
/// The snapshot and checkpoint recovery ladders assume every committed
/// file is either the old image or the new one, never a prefix. A raw
/// write that the reviewer believes is "not durable state" still needs
/// that argument recorded: implement it via the helper, or allowlist it
/// with the reason. The helper's own body is exempt — it is where the
/// raw calls are supposed to live.
pub fn durable_write(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        if !DURABLE_WRITE_DIRS
            .iter()
            .any(|d| file.rel_path.starts_with(d))
        {
            continue;
        }
        let m = file.meaningful();
        for w in 0..m.len() {
            let ti = m[w];
            if file.toks[ti].kind != Kind::Word {
                continue;
            }
            let text = |k: usize| m.get(k).map(|&t| file.tok_text(t)).unwrap_or("");
            // Token shapes: `File :: create (` / `fs :: write (` — the
            // `::` qualifier distinguishes them from `.write()` lock
            // guards and from the helper's own name.
            let qualified =
                |q: &str| w >= 3 && text(w - 1) == ":" && text(w - 2) == ":" && text(w - 3) == q;
            let pattern = match file.tok_text(ti) {
                "create" if text(w + 1) == "(" && qualified("File") => "File::create(",
                "create_new" if text(w + 1) == "(" && qualified("File") => "File::create_new(",
                "write" if text(w + 1) == "(" && qualified("fs") => "fs::write(",
                _ => continue,
            };
            if file.tok_in_test(ti) {
                continue;
            }
            let in_helper = file.extents.enclosing_fn(ti).is_some_and(|e| {
                file.extents.extents[e]
                    .name
                    .starts_with("durable_atomic_write")
            });
            if in_helper {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: file.toks[ti].line,
                lint: "durable-write".to_string(),
                message: format!(
                    "raw file write (`{pattern}`) outside the durable helper — a crash \
                     mid-write leaves a torn file; route it through \
                     `usj_core::durable_atomic_write`, or allowlist with the reason it \
                     need not be atomic"
                ),
            });
        }
    }
    diags
}

/// The metric table of `Kind` in `crates/obs/src/lib.rs`: the rows
/// `Variant => "snake_name",` inside its `enum Kind { … }` block of the
/// `metric_table!` invocation, as `variant -> (snake name, row line)`.
/// The macro derives `ALL` and `name()` from these rows, so a declared
/// variant is always listed and named.
fn parse_taxonomy(lib: &SourceFile, kind: &str) -> BTreeMap<String, (String, usize)> {
    let mut rows = BTreeMap::new();
    let enum_header = format!("enum {kind} {{");
    let mut in_enum = false;
    for line in &lib.lines {
        // String contents stay visible here: each row maps its variant to
        // a quoted snake_name.
        let code = line.code_with_strings();
        let trimmed = code.trim();
        if trimmed.ends_with(&enum_header) {
            in_enum = true;
            continue;
        }
        if !in_enum {
            continue;
        }
        if trimmed.starts_with('}') {
            break;
        }
        let Some((variant, name)) = trimmed.split_once("=>") else {
            continue;
        };
        let variant = variant.trim();
        let name = name.trim().trim_end_matches(',').trim_matches('"');
        if variant.chars().all(|c| c.is_ascii_alphanumeric()) && !variant.is_empty() {
            rows.insert(variant.to_string(), (name.to_string(), line.number));
        }
    }
    rows
}

/// `metrics-registered`: every `Counter::X` / `Gauge::X` the workspace
/// records must be a row of the metric table in `crates/obs/src/lib.rs`,
/// and every row's name must appear in the golden schema test of
/// `crates/obs/src/collect.rs`. The table itself derives `ALL` and
/// `name()`, so a row can be neither missing from one nor unnamed.
///
/// The obs snapshot is schema-stable by contract (downstream tooling keys
/// on it); an unregistered metric would silently vanish from snapshots.
pub fn metrics_registered(ws: &Workspace) -> Vec<Diagnostic> {
    const OBS_LIB: &str = "crates/obs/src/lib.rs";
    const OBS_GOLDEN: &str = "crates/obs/src/collect.rs";
    let mut diags = Vec::new();

    let mut uses: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for file in &ws.rust_files {
        if file.rel_path == OBS_LIB {
            continue;
        }
        for line in &file.lines {
            if line.comment_only {
                continue;
            }
            let code = line.code();
            for kind in ["Counter", "Gauge"] {
                let prefix = format!("{kind}::");
                for (at, _) in code.match_indices(&prefix) {
                    let rest = &code[at + prefix.len()..];
                    let ident: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric())
                        .collect();
                    if ident.is_empty() || ident == "ALL" {
                        continue;
                    }
                    uses.entry((kind.to_string(), ident))
                        .or_insert_with(|| (file.rel_path.clone(), line.number));
                }
            }
        }
    }
    if uses.is_empty() {
        return diags;
    }

    let Some(lib) = ws.rust_files.iter().find(|f| f.rel_path == OBS_LIB) else {
        let ((_, ident), (file, line)) = uses.iter().next().expect("uses is non-empty");
        diags.push(Diagnostic {
            file: file.clone(),
            line: *line,
            lint: "metrics-registered".to_string(),
            message: format!(
                "metric `{ident}` recorded but {OBS_LIB} is missing — cannot resolve the taxonomy"
            ),
        });
        return diags;
    };
    // The golden check scans the file's full text on purpose: the golden
    // snapshot lives inside a raw string, and pinned keys may also appear
    // in commentary.
    let golden = ws
        .rust_files
        .iter()
        .find(|f| f.rel_path == OBS_GOLDEN)
        .map(|f| f.text.clone())
        .unwrap_or_default();

    for kind in ["Counter", "Gauge"] {
        let rows = parse_taxonomy(lib, kind);
        // Every recorded variant must be declared.
        for ((k, ident), (file, line)) in &uses {
            if k == kind && !rows.contains_key(ident) {
                diags.push(Diagnostic {
                    file: file.clone(),
                    line: *line,
                    lint: "metrics-registered".to_string(),
                    message: format!("`{kind}::{ident}` is not a declared {kind} row in {OBS_LIB}"),
                });
            }
        }
        // Every declared row must be pinned by the golden schema test.
        for (name, row_line) in rows.values() {
            if !golden.contains(&format!("\"{name}\"")) {
                diags.push(Diagnostic {
                    file: OBS_LIB.to_string(),
                    line: *row_line,
                    lint: "metrics-registered".to_string(),
                    message: format!(
                        "metric key \"{name}\" is absent from the golden schema test in \
                         {OBS_GOLDEN} — register it in the expected snapshot"
                    ),
                });
            }
        }
    }
    diags
}

/// Directories where phase spans must stay balanced: the join drivers and
/// the query service — the two places whose spans feed the Chrome trace
/// and the Prometheus phase series.
const SPAN_PAIRED_DIRS: [&str; 2] = ["crates/core/src/", "crates/serve/src/"];

/// A `?` acting as the try operator (as opposed to `{x:?}` debug formats,
/// which the masked code view hides along with every other string
/// interior): previous char closes an expression, next non-space char
/// ends one.
fn has_try_operator(code: &str) -> bool {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'?' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(prev == ')'
            || prev == ']'
            || prev == '}'
            || prev.is_ascii_alphanumeric()
            || prev == '_')
        {
            continue;
        }
        let next = code[i + 1..].trim_start().chars().next();
        if matches!(next, None | Some(';' | '.' | ')' | ',' | '}')) {
            return true;
        }
    }
    false
}

/// `span-paired`: in the span-bearing directories, every manual
/// `.enter_phase(` must be closed by an `.exit_phase(` in the same file,
/// with no early exit (`return` or `?`) while a span is open.
///
/// An unexited span skews `usj_phase_ns_total`, leaves its Chrome trace
/// event unclosed, and (under the tuple recorders) desynchronises the
/// span stack for every later phase. The RAII `usj_obs::PhaseGuard`
/// closes on every path — code with nontrivial control flow should use it
/// instead of the raw pair.
pub fn span_paired(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        if !SPAN_PAIRED_DIRS
            .iter()
            .any(|d| file.rel_path.starts_with(d))
        {
            continue;
        }
        // Line numbers of enter_phase calls not yet matched by an exit.
        let mut open: Vec<usize> = Vec::new();
        for line in &file.lines {
            if line.comment_only || line.in_test {
                continue;
            }
            let code = line.code();
            if !open.is_empty()
                && (code.contains("return") || has_try_operator(code))
                && !code.contains(".exit_phase(")
            {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: line.number,
                    lint: "span-paired".to_string(),
                    message: format!(
                        "early exit while the phase span opened on line {} is still open — \
                         the span would leak; close it first or use `usj_obs::PhaseGuard`",
                        open[open.len() - 1]
                    ),
                });
            }
            for _ in code.match_indices(".enter_phase(") {
                open.push(line.number);
            }
            for _ in code.match_indices(".exit_phase(") {
                if open.pop().is_none() {
                    diags.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: line.number,
                        lint: "span-paired".to_string(),
                        message: "`.exit_phase(` without a matching `.enter_phase(` earlier \
                                  in this file"
                            .to_string(),
                    });
                }
            }
        }
        for opened_at in open {
            diags.push(Diagnostic {
                file: file.rel_path.clone(),
                line: opened_at,
                lint: "span-paired".to_string(),
                message: "`.enter_phase(` never matched by an `.exit_phase(` in this file — \
                          the span leaks; pair it or use `usj_obs::PhaseGuard`"
                    .to_string(),
            });
        }
    }
    diags
}

/// `dep-allowlist`: no registry dependencies. Every dependency line in
/// every manifest must resolve to a crate in this repository — a `path`
/// entry, or a `workspace = true` reference into `[workspace.dependencies]`
/// (whose own lines are checked the same way). The workspace builds and
/// tests with `--offline` from an empty cargo home; a crates.io
/// dependency breaks that.
pub fn dep_allowlist(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for manifest in &ws.manifests {
        let mut in_dep_section = false;
        for (i, raw) in manifest.text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_dep_section = line.ends_with("dependencies]");
                continue;
            }
            if !in_dep_section || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some(eq) = line.find('=') else { continue };
            let key = line[..eq].trim().trim_matches('"');
            let value = line[eq + 1..].replace(' ', "");
            let in_repo = key.ends_with(".workspace")
                || value.contains("path=")
                || value.contains("workspace=true");
            if !in_repo {
                diags.push(Diagnostic {
                    file: manifest.rel_path.clone(),
                    line: i + 1,
                    lint: "dep-allowlist".to_string(),
                    message: format!(
                        "registry dependency `{key}` — every dependency must be a path \
                         crate in this repository so the workspace builds offline; move \
                         the code in-repo or drop it"
                    ),
                });
            }
        }
    }
    diags
}

/// `doc-drift`: the docs the next session navigates by must track the
/// code. Two checks:
///
/// * every crate directory under `crates/` is mentioned in `DESIGN.md`
///   (as `crates/<name>` or `usj-<name>`), and every backticked
///   `crates/<name>` in `DESIGN.md` names an existing crate directory;
/// * `CHANGES.md` carries one `- PR <n>:` line per PR, numbered
///   consecutively from 1.
pub fn doc_drift(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Some(design) = &ws.design_md {
        for name in &ws.crate_dirs {
            if !design.contains(&format!("crates/{name}"))
                && !design.contains(&format!("usj-{name}"))
            {
                diags.push(Diagnostic {
                    file: "DESIGN.md".to_string(),
                    line: 1,
                    lint: "doc-drift".to_string(),
                    message: format!(
                        "crate `crates/{name}` is absent from DESIGN.md — add it to the \
                         system inventory"
                    ),
                });
            }
        }
        for (i, line) in design.lines().enumerate() {
            // Odd pieces of a backtick split are the code spans.
            for span in line.split('`').skip(1).step_by(2) {
                let Some(rest) = span.strip_prefix("crates/") else {
                    continue;
                };
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !name.is_empty() && !ws.crate_dirs.contains(&name) {
                    diags.push(Diagnostic {
                        file: "DESIGN.md".to_string(),
                        line: i + 1,
                        lint: "doc-drift".to_string(),
                        message: format!("`crates/{name}` names no crate directory"),
                    });
                }
            }
        }
    }
    if let Some(changes) = &ws.changes_md {
        let mut expected = 1u64;
        for (i, raw) in changes.lines().enumerate() {
            let Some(rest) = raw.strip_prefix("- PR ") else {
                continue;
            };
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            let tail = &rest[digits.len()..];
            let parsed: Option<u64> = digits.parse().ok();
            match parsed {
                Some(n) if tail.starts_with(':') => {
                    if n != expected {
                        diags.push(Diagnostic {
                            file: "CHANGES.md".to_string(),
                            line: i + 1,
                            lint: "doc-drift".to_string(),
                            message: format!(
                                "PR lines must be consecutive: expected `- PR {expected}:`, \
                                 found `- PR {n}:`"
                            ),
                        });
                    }
                    expected = n + 1;
                }
                _ => diags.push(Diagnostic {
                    file: "CHANGES.md".to_string(),
                    line: i + 1,
                    lint: "doc-drift".to_string(),
                    message: "malformed PR line — expected `- PR <n>: <summary>`".to_string(),
                }),
            }
        }
    }
    diags
}

/// The files whose probe/search extents must keep their loops budgeted
/// (plus everything under `crates/serve/src/`).
const BUDGET_FILES: [&str; 4] = [
    "crates/core/src/collection.rs",
    "crates/core/src/index.rs",
    "crates/core/src/join.rs",
    "crates/core/src/parallel.rs",
];

/// A loop body "consults the budget" when it mentions one of these words
/// (a `budget` value, a `deadline` argument, `check_deadline`, `cancel`
/// flags all contain one).
const BUDGET_WORDS: [&str; 3] = ["budget", "deadline", "cancel"];

fn in_budget_scope(rel_path: &str) -> bool {
    BUDGET_FILES.contains(&rel_path) || rel_path.starts_with("crates/serve/src/")
}

/// `budget-loop`: every `loop` / `while` / `for` inside a probe/search
/// function in the budget-scoped files must consult its budget /
/// deadline / cancellation within its body.
///
/// The (k,τ) probe loops are where a request spends unbounded time; the
/// serve deadline ladder and the parallel driver's per-batch deadline
/// checks only work if every such loop re-checks its budget. A loop
/// that cannot check in-body (e.g. because per-item checks would break
/// bit-identity with the sequential driver) must name the mechanism that
/// bounds it in a tidy.allow reason.
pub fn budget_loop(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        if !in_budget_scope(&file.rel_path) {
            continue;
        }
        let m = file.meaningful();
        for e in &file.extents.extents {
            if e.kind != ExtentKind::Fn || e.is_test {
                continue;
            }
            let lname = e.name.to_lowercase();
            if !lname.contains("probe") && !lname.contains("search") {
                continue;
            }
            // Meaningful-token positions inside the extent body.
            let start = m.partition_point(|&t| t < e.body.0);
            let end = m.partition_point(|&t| t <= e.body.1);
            let mut w = start;
            while w < end {
                let ti = m[w];
                let kw = file.tok_text(ti);
                let is_loop_kw =
                    file.toks[ti].kind == Kind::Word && matches!(kw, "loop" | "while" | "for");
                if !is_loop_kw {
                    w += 1;
                    continue;
                }
                // `for<'a>` higher-ranked bounds are not loops.
                if kw == "for" && m.get(w + 1).is_some_and(|&t| file.tok_text(t) == "<") {
                    w += 1;
                    continue;
                }
                let Some((_open, close)) = loop_body(file, &m, w, end) else {
                    w += 1;
                    continue;
                };
                // Scan from the keyword so a `while !budget.done()`
                // condition counts as consulting, not just the body.
                let consults = (w..=close).any(|k| {
                    let t = m[k];
                    file.toks[t].kind == Kind::Word
                        && BUDGET_WORDS
                            .iter()
                            .any(|b| file.tok_text(t).to_lowercase().contains(b))
                });
                if !consults {
                    diags.push(Diagnostic {
                        file: file.rel_path.clone(),
                        line: file.toks[ti].line,
                        lint: "budget-loop".to_string(),
                        message: format!(
                            "`{kw}` loop in probe/search fn `{}` never consults its \
                             budget/deadline — probe loops must stay cancellable; \
                             check the budget in-body or allowlist with the bounding \
                             mechanism as the reason",
                            e.name
                        ),
                    });
                }
                // Continue scanning *inside* the body too (nested loops
                // each need their own consult or inherit via contains).
                w += 1;
            }
        }
    }
    diags
}

/// Finds the `{ … }` body of the loop keyword at meaningful-position
/// `w`: the first `{` at paren/bracket depth 0 after the keyword, and
/// its matching `}`. Returns meaningful-positions `(open, close)`.
fn loop_body(file: &SourceFile, m: &[usize], w: usize, limit: usize) -> Option<(usize, usize)> {
    let mut j = w + 1;
    let mut depth = 0i64;
    let open = loop {
        if j >= limit {
            return None;
        }
        match file.tok_text(m[j]) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break j,
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let mut braces = 0i64;
    for (k, &tok) in m.iter().enumerate().take(limit).skip(open) {
        match file.tok_text(tok) {
            "{" => braces += 1,
            "}" => {
                braces -= 1;
                if braces == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    Some((open, limit.saturating_sub(1)))
}

/// `failpoint-coverage`: the failpoint economy must balance, in both
/// directions, across the whole workspace:
///
/// 1. every non-test `catch_unwind` recovery site carries a named
///    failpoint in the same fn extent (directly, or one call away via a
///    helper that fires) — otherwise the fault suites cannot exercise
///    the recovery path;
/// 2. every failpoint name referenced by a fault-plan spec or arming
///    call resolves to a defined point (a typo'd name silently never
///    fires);
/// 3. every defined failpoint is referenced by at least one test-side
///    string (a point no suite arms is dead weight).
pub fn failpoint_coverage(ws: &Workspace) -> Vec<Diagnostic> {
    let table = symbols::failpoints(&ws.rust_files);
    let mut diags = Vec::new();

    // (1) catch_unwind sites.
    for file in &ws.rust_files {
        let m = file.meaningful();
        for w in 0..m.len() {
            let ti = m[w];
            if file.toks[ti].kind != Kind::Word
                || file.tok_text(ti) != "catch_unwind"
                || m.get(w + 1).map(|&t| file.tok_text(t)) != Some("(")
                || file.tok_in_test(ti)
            {
                continue;
            }
            let Some(e) = file.extents.enclosing_fn(ti) else {
                continue;
            };
            let ext = &file.extents.extents[e];
            let start = m.partition_point(|&t| t < ext.body.0);
            let end = m.partition_point(|&t| t <= ext.body.1);
            let covered = (start..end).any(|k| {
                let t = m[k];
                match file.toks[t].kind {
                    // A named failpoint in the extent (as a carrier
                    // argument or a forwarded name).
                    Kind::Str => is_failpoint_name(str_content(file.tok_text(t))),
                    // A call to a helper that fires directly.
                    Kind::Word => {
                        table.fn_fires.contains(file.tok_text(t))
                            && m.get(k + 1).map(|&n| file.tok_text(n)) == Some("(")
                    }
                    _ => false,
                }
            });
            if !covered {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: file.toks[ti].line,
                    lint: "failpoint-coverage".to_string(),
                    message: format!(
                        "`catch_unwind` in fn `{}` without a named failpoint in the same \
                         extent — fault-injection tests cannot reach this recovery path; \
                         add a `fail_point!` or allowlist naming where the coverage lives",
                        ext.name
                    ),
                });
            }
        }
    }

    // (2) strict references resolve.
    for (name, file, line) in &table.strict_refs {
        if !table.defined.contains_key(name) && !table.defined_test.contains(name) {
            diags.push(Diagnostic {
                file: file.clone(),
                line: *line,
                lint: "failpoint-coverage".to_string(),
                message: format!(
                    "fault plan references failpoint `{name}`, which is defined nowhere \
                     in source — the injection would silently never fire"
                ),
            });
        }
    }

    // (3) every defined point is exercised.
    for (name, def) in &table.defined {
        if !table.test_literals.iter().any(|l| l.contains(name)) {
            diags.push(Diagnostic {
                file: def.file.clone(),
                line: def.line,
                lint: "failpoint-coverage".to_string(),
                message: format!(
                    "failpoint `{name}` is never referenced by any test or fault plan — \
                     add a fault-suite case or remove the dead injection point"
                ),
            });
        }
    }
    diags
}

/// Directories where lock guards must not outlive hazards.
const LOCK_DIRS: [&str; 2] = ["crates/core/src/", "crates/serve/src/"];

/// Method calls that block on a peer (or the clock) indefinitely from a
/// guard's point of view.
const GUARD_BLOCKING: [&str; 6] = [
    "read_line",
    "read_to_string",
    "read_exact",
    "read_to_end",
    "accept",
    "connect",
];

/// `lock-discipline`: no `Mutex`/`RwLock` guard binding may stay live
/// across a `catch_unwind`, a failpoint, a blocking I/O call, or a sleep
/// within its extent.
///
/// A panic caught while a guard is held poisons the lock for every other
/// worker; a failpoint is *by design* a place where tests inject panics
/// and delays; a blocking read holds the lock for as long as the peer
/// stalls. The fix is always the same: narrow the guard's scope (block
/// or `drop(guard)`) before the hazard.
pub fn lock_discipline(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in files {
        if !LOCK_DIRS.iter().any(|d| file.rel_path.starts_with(d)) {
            continue;
        }
        let m = file.meaningful();
        let text = |k: usize| m.get(k).map(|&t| file.tok_text(t)).unwrap_or("");
        let mut guards: Vec<GuardInfo> = Vec::new();
        let mut depth = 0i64;
        for w in 0..m.len() {
            let ti = m[w];
            let tok = file.tok_text(ti);
            match tok {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                "drop" if text(w + 1) == "(" && text(w + 3) == ")" => {
                    let dropped = text(w + 2).to_string();
                    guards.retain(|g| g.name != dropped);
                }
                "let" => {
                    if let Some(g) = guard_binding(file, &m, w, depth) {
                        if !file.tok_in_test(ti) {
                            guards.push(g);
                        }
                    }
                }
                _ => {}
            }
            if guards.iter().all(|g| g.live_from > w) {
                continue;
            }
            if file.tok_in_test(ti) || file.toks[ti].kind != Kind::Word {
                continue;
            }
            let hazard = match tok {
                "catch_unwind" if text(w + 1) == "(" => Some("catch_unwind"),
                "fail_point" if text(w + 1) == "!" => Some("fail_point!"),
                "fire" | "fire_err" if text(w + 1) == "(" => Some("a failpoint"),
                "sleep" if text(w + 1) == "(" => Some("sleep"),
                b if GUARD_BLOCKING.contains(&b)
                    && text(w + 1) == "("
                    && w > 0
                    && text(w - 1) == "." =>
                {
                    Some("blocking I/O")
                }
                _ => None,
            };
            let Some(hazard) = hazard else { continue };
            for g in guards.iter().filter(|g| g.live_from <= w) {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: file.toks[ti].line,
                    lint: "lock-discipline".to_string(),
                    message: format!(
                        "lock guard `{}` (acquired on line {}) is live across {hazard} \
                         (`{tok}`) — a panic or stall here holds the lock; drop or \
                         re-scope the guard first",
                        g.name, g.line
                    ),
                });
            }
        }
    }
    diags
}

/// Parses a `let [mut] name [: Type] = init;` at meaningful-position `w`
/// and decides whether `init`/`Type` acquires a lock guard: a `.lock(`
/// call, a guard type name, or an argument-less `.read()` / `.write()`
/// (the `RwLock` shape — I/O reads and writes always take arguments).
fn guard_binding(file: &SourceFile, m: &[usize], w: usize, depth: i64) -> Option<GuardInfo> {
    let text = |k: usize| m.get(k).map(|&t| file.tok_text(t)).unwrap_or("");
    let mut j = w + 1;
    if text(j) == "mut" {
        j += 1;
    }
    let name_ti = *m.get(j)?;
    if file.toks[name_ti].kind != Kind::Word {
        return None;
    }
    let name = file.tok_text(name_ti).to_string();
    if !matches!(text(j + 1), "=" | ":") {
        return None; // destructuring / pattern bindings: out of scope
    }
    // Scan the initializer (and annotation) to the terminating `;` at
    // bracket depth 0, looking for the guard shapes.
    let mut k = j + 1;
    let mut inner = 0i64;
    let mut is_guard = false;
    while k < m.len() {
        match text(k) {
            "(" | "[" | "{" => inner += 1,
            ")" | "]" | "}" => inner -= 1,
            ";" if inner == 0 => break,
            "lock" if text(k - 1) == "." && text(k + 1) == "(" => is_guard = true,
            "read" | "write" if text(k - 1) == "." && text(k + 1) == "(" && text(k + 2) == ")" => {
                is_guard = true
            }
            "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard" => is_guard = true,
            _ => {}
        }
        k += 1;
    }
    if !is_guard {
        return None;
    }
    Some(GuardInfo {
        name,
        depth,
        line: file.toks[name_ti].line,
        live_from: k,
    })
}

/// A live lock-guard binding (see [`lock_discipline`]).
struct GuardInfo {
    /// Binding name (what `drop(name)` releases).
    name: String,
    /// Brace depth at the binding — the guard dies when its block closes.
    depth: i64,
    /// 1-based line of the binding.
    line: usize,
    /// Meaningful-token position of the terminating `;`: the guard is
    /// only live *after* its initializer completes.
    live_from: usize,
}
