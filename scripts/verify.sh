#!/usr/bin/env bash
# Full verification gate: lints, build, test, clippy, rustdoc, format.
#
# Every cargo call that resolves dependencies runs with --offline: the
# workspace has no registry dependencies, so a reintroduced one fails
# here instead of being fetched.

set -euo pipefail
cd "$(dirname "$0")/.."

# Project-policy lints first (hot-path panic freedom, ordering
# justifications, metric registration, budget loops, failpoint coverage,
# lock discipline, dep allowlist, doc drift) — see crates/tidy. Tidy
# builds in seconds and catches most policy mistakes, so it fails the
# gate before the full-workspace build spends minutes.
cargo run -q --offline -p usj-tidy
cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
cargo fmt --check
