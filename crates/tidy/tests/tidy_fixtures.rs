//! Fixture-tree tests: each tree under `tests/fixtures/` seeds known
//! violations; we assert the exact `(file, line, lint)` diagnostics so a
//! lint that drifts (wrong line, wrong file, extra noise) fails loudly.

use std::path::PathBuf;

use usj_tidy::run_tidy;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs tidy on a fixture tree and returns `(file, line, lint)` triples.
fn triples(name: &str) -> Vec<(String, usize, String)> {
    run_tidy(&fixture(name))
        .into_iter()
        .map(|d| (d.file, d.line, d.lint))
        .collect()
}

fn t(file: &str, line: usize, lint: &str) -> (String, usize, String) {
    (file.to_string(), line, lint.to_string())
}

#[test]
fn unwrap_fixture_flags_hot_path_panics_only() {
    assert_eq!(
        triples("unwrap"),
        vec![
            // Doc-comment unwrap (line 2) and #[cfg(test)] unwrap (line 11)
            // must NOT appear; crates/model is not hot-path.
            t("crates/core/src/parallel.rs", 4, "no-unwrap"),
            t("crates/core/src/parallel.rs", 5, "no-unwrap"),
            t("crates/core/src/verifier.rs", 2, "no-unwrap"),
            t("crates/qgram/src/alpha.rs", 3, "no-unwrap"),
            t("crates/verify/src/lib.rs", 2, "no-unwrap"),
        ]
    );
}

#[test]
fn ordering_fixture_flags_unjustified_atomics_only() {
    assert_eq!(
        triples("ordering"),
        // The Relaxed load is justified by a comment within reach; the
        // std::cmp::Ordering match is exempt; only the Acquire load fires.
        vec![t("crates/core/src/parallel.rs", 10, "ordering-comment")]
    );
}

#[test]
fn unsafesafety_fixture_flags_unjustified_blocks_only() {
    assert_eq!(
        triples("unsafesafety"),
        vec![
            // The justified block, the `unsafe fn` declaration, the prose
            // mention, and the #[cfg(test)] block all stay silent; the
            // bare block and the out-of-reach comment fire.
            t("crates/simd/src/kernels.rs", 8, "unsafe-safety"),
            t("crates/simd/src/kernels.rs", 21, "unsafe-safety"),
        ]
    );
}

#[test]
fn metrics_fixture_flags_each_registration_gap() {
    assert_eq!(
        triples("metrics"),
        vec![
            // Counter::Gamma recorded but never declared. Alpha and
            // Bytes are fully registered (a table row whose name the
            // golden fixture pins) and must stay silent.
            t("crates/core/src/join.rs", 3, "metrics-registered"),
            // Delta is a table row, so it is in ALL and named, but
            // "delta_total" never made it into the golden schema.
            t("crates/obs/src/lib.rs", 4, "metrics-registered"),
        ]
    );
}

#[test]
fn socket_fixture_flags_reads_before_the_timeout_only() {
    assert_eq!(
        triples("socket"),
        // server.rs: the argless RwLock `.read()` (line 4) is not
        // socket IO; the line-9 read precedes set_read_timeout (line
        // 10) and fires; the line-11 read is bounded. client.rs
        // installs the timeout first (its comment mention and
        // #[cfg(test)] read are exempt), and crates/core is out of the
        // lint's scope entirely.
        vec![t("crates/serve/src/server.rs", 9, "socket-timeout")]
    );
}

#[test]
fn durable_fixture_flags_raw_writes_outside_the_helper() {
    assert_eq!(
        triples("durable"),
        vec![
            // The helper's own File::create/fs::write, the comment
            // mention, the #[cfg(test)] writes, and crates/verify (out
            // of scope) all stay silent; the three raw call sites fire.
            t("crates/core/src/persist.rs", 5, "durable-write"),
            t("crates/core/src/persist.rs", 9, "durable-write"),
            t("crates/core/src/persist.rs", 13, "durable-write"),
        ]
    );
}

#[test]
fn durable_clean_fixture_produces_no_diagnostics() {
    let diags = run_tidy(&fixture("durable_clean"));
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn durable_allow_fixture_suppresses_only_the_reasoned_entry() {
    assert_eq!(
        // The tidy.allow entry excuses the scratch spill (and is
        // therefore not unused); the second raw write still fires.
        triples("durable_allow"),
        vec![t("crates/cli/src/report.rs", 7, "durable-write")]
    );
}

#[test]
fn span_fixture_flags_early_exits_leaks_and_stray_exits() {
    assert_eq!(
        triples("span"),
        vec![
            // The `?` (line 6) and `return` (line 8) fire while the
            // line-5 span is open; the balanced pair, the comment
            // mention, the PhaseGuard fn (its `?` runs under RAII), and
            // the #[cfg(test)] span stay silent.
            t("crates/core/src/driver.rs", 6, "span-paired"),
            t("crates/core/src/driver.rs", 8, "span-paired"),
            // enter_phase never exited before EOF.
            t("crates/core/src/driver.rs", 27, "span-paired"),
            // exit_phase with no open span; crates/verify is out of scope.
            t("crates/serve/src/worker.rs", 4, "span-paired"),
        ]
    );
}

#[test]
fn deps_fixture_flags_unvetted_external_deps() {
    assert_eq!(
        triples("deps"),
        vec![
            // Every registry dependency is flagged; path deps are internal.
            t("Cargo.toml", 5, "dep-allowlist"),
            t("Cargo.toml", 6, "dep-allowlist"),
            t("crates/extra/Cargo.toml", 5, "dep-allowlist"),
            t("crates/extra/Cargo.toml", 9, "dep-allowlist"),
        ]
    );
}

#[test]
fn docdrift_fixture_flags_inventory_and_changelog() {
    assert_eq!(
        triples("docdrift"),
        vec![
            // `- PR 3:` after `- PR 1:` breaks consecutive numbering, and
            // `- PR four:` does not parse at all.
            t("CHANGES.md", 3, "doc-drift"),
            t("CHANGES.md", 4, "doc-drift"),
            // crates/ghost exists on disk but not in DESIGN.md.
            t("DESIGN.md", 1, "doc-drift"),
            // DESIGN.md names `crates/gone`, which does not exist.
            t("DESIGN.md", 3, "doc-drift"),
        ]
    );
}

#[test]
fn allowlist_fixture_suppresses_matches_and_reports_stale_entries() {
    assert_eq!(
        triples("allowlist"),
        vec![
            // The cdf expect is suppressed by entry 2; entry 3 matches
            // nothing and entry 4 is malformed.
            t("tidy.allow", 3, "unused-allow"),
            t("tidy.allow", 4, "allow-syntax"),
        ]
    );
}

#[test]
fn unwrap_multiline_fixture_catches_split_chains_and_dedups() {
    assert_eq!(
        triples("unwrap_multiline"),
        vec![
            // The chain split across lines fires at the `.unwrap()` line;
            // `.unwrap_unchecked(` counts; the two unwraps sharing line 14
            // collapse to one diagnostic; the multi-line `.expect(` fires
            // at the `expect` token's line.
            t("crates/core/src/parallel.rs", 5, "no-unwrap"),
            t("crates/core/src/parallel.rs", 10, "no-unwrap"),
            t("crates/core/src/parallel.rs", 14, "no-unwrap"),
            t("crates/core/src/parallel.rs", 19, "no-unwrap"),
        ]
    );
}

#[test]
fn ordering_reach_fixture_counts_code_lines_only() {
    assert_eq!(
        triples("ordering_reach"),
        vec![
            // stamp(): blank/comment lines between the justification and
            // its sites are free — the old line-counted window flagged
            // line 9 falsely. stale(): four code lines exhaust the reach.
            // leaky(): the previous fn's comment cannot leak across the
            // extent boundary.
            t("crates/obs/src/cells.rs", 20, "ordering-comment"),
            t("crates/obs/src/cells.rs", 29, "ordering-comment"),
        ]
    );
}

#[test]
fn budget_fixture_flags_unconsulting_probe_loops_only() {
    assert_eq!(
        triples("budget"),
        vec![
            // The `for` consulting in-body and the `loop` consulting a
            // deadline variable stay silent; `for<'a>` is not a loop;
            // build fns and #[cfg(test)] loops are out of scope.
            t("crates/core/src/index.rs", 10, "budget-loop"),
            t("crates/serve/src/worker.rs", 4, "budget-loop"),
        ]
    );
}

#[test]
fn budget_clean_fixture_accepts_condition_consults() {
    let diags = run_tidy(&fixture("budget_clean"));
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn failpoint_fixture_balances_the_economy_both_ways() {
    assert_eq!(
        triples("failpoint"),
        vec![
            // covered_step carries its own failpoint and wrapped_step is
            // one call from a firing helper: both silent. bare_shield has
            // no coverage; core.orphan is never test-referenced; the plan
            // spec names ghost.point, which nothing defines.
            t("crates/core/src/recover.rs", 16, "failpoint-coverage"),
            t("crates/core/src/recover.rs", 20, "failpoint-coverage"),
            t("crates/core/tests/ft.rs", 5, "failpoint-coverage"),
        ]
    );
}

#[test]
fn failpoint_clean_fixture_produces_no_diagnostics() {
    let diags = run_tidy(&fixture("failpoint_clean"));
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn lockguard_fixture_flags_guards_live_across_hazards() {
    assert_eq!(
        triples("lockguard"),
        vec![
            // flush_held sleeps while the mutex guard is live; reader_held
            // blocks on read_line while the RwLock read guard is live. The
            // re-scoped and drop()-ed guards stay silent.
            t("crates/core/src/state.rs", 4, "lock-discipline"),
            t("crates/core/src/state.rs", 25, "lock-discipline"),
        ]
    );
}

#[test]
fn lockguard_clean_fixture_produces_no_diagnostics() {
    let diags = run_tidy(&fixture("lockguard_clean"));
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn clean_fixture_produces_no_diagnostics() {
    let diags = run_tidy(&fixture("clean"));
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

#[test]
fn diagnostics_render_as_file_line_lint_message() {
    let diags = run_tidy(&fixture("unwrap"));
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/parallel.rs:4: no-unwrap: "),
        "unexpected rendering: {rendered}"
    );
}
