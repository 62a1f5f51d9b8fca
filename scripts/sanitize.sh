#!/usr/bin/env bash
# Dynamic-analysis gate for the probability and concurrency kernels.
#
#  * Miri (nightly) interprets the unit tests of the index-arithmetic-heavy
#    probability kernels — usj-cdf (banded DP over flattened rows),
#    usj-qgram (equivalent-set construction and the Poisson-binomial
#    row kernel), usj-editdist (banded / bit-parallel DPs and the affix
#    scans) — and catches undefined behaviour that no normal test run
#    can see.
#  * ThreadSanitizer (nightly, -Zbuild-std) runs the parallel driver's
#    differential tests and catches data races that the Relaxed-ordering
#    batch cursor or a future refactor could introduce; the tests also
#    re-assert byte-identical output under TSan's altered interleavings.
#    The concurrent-probes suite drives the shared segment interner from
#    many reader threads (the interner is frozen after build; TSan would
#    flag any write slipping into the probe path). The same
#    instrumentation covers usj-serve's overload and fault-plan server
#    tests (accept/worker/client threads over one shared index).
#
# Both halves need rustup pieces that may be missing locally (a nightly
# toolchain, the miri and rust-src components). The script only checks
# for them and never installs anything: each CI job that runs it installs
# them first. By default a missing prerequisite SKIPs that half with a
# clear notice and the script still exits 0, so it is safe to run on any
# machine, offline included; CI sets SANITIZE_STRICT=1 to make missing
# prerequisites fatal there.
#
# Usage: sanitize.sh [all|kernels|serve|coord|persist] — `all` (default)
# runs every check; `kernels` runs Miri plus the parallel-driver TSan
# blocks; `serve` runs the single-node usj-serve TSan block; `coord`
# runs the coordinator/shard-fleet TSan block; and `persist` runs Miri
# over the snapshot and checkpoint container suites and TSan over the
# recovery-ladder suites. The sanitize,
# serve (both `serve` and `coord`), and persist CI jobs use their
# matching targets so no suite is instrumented twice.

set -uo pipefail
cd "$(dirname "$0")/.."

ONLY="${1:-all}"
case "$ONLY" in
    all | kernels | serve | coord | persist) ;;
    *)
        printf 'usage: %s [all|kernels|serve|coord|persist]\n' "$0" >&2
        exit 2
        ;;
esac

STRICT="${SANITIZE_STRICT:-0}"
FAILED=0
SKIPPED=0
HOST=""

note() { printf '==> %s\n' "$*"; }

skip_or_die() {
    if [ "$STRICT" = "1" ]; then
        note "FATAL (SANITIZE_STRICT=1): $*"
        exit 1
    fi
    note "SKIP: $*"
    SKIPPED=1
}

have_nightly() {
    rustup toolchain list 2>/dev/null | grep -q '^nightly'
}

have_component() {
    rustup component list --toolchain nightly --installed 2>/dev/null | grep -q "^$1"
}

# ---- Miri over the probability kernels ----------------------------------
run_miri() {
    if ! have_nightly; then
        skip_or_die "no nightly toolchain installed (Miri not run)"
        return
    fi
    if ! have_component miri; then
        skip_or_die "miri component not installed for nightly (Miri not run)"
        return
    fi
    note "Miri: usj-cdf / usj-qgram / usj-editdist unit tests"
    if ! cargo +nightly miri test -p usj-cdf -p usj-qgram -p usj-editdist --lib; then
        note "FAIL: Miri found a problem"
        FAILED=1
    fi
}

# ---- ThreadSanitizer prerequisites (shared by both TSan blocks) ---------
tsan_prereqs() {
    HOST="$(rustc -vV | sed -n 's/^host: //p')"
    case "$HOST" in
        *-linux-*) ;;
        *)
            skip_or_die "ThreadSanitizer needs a Linux target (host: $HOST)"
            return 1
            ;;
    esac
    if ! have_nightly; then
        skip_or_die "no nightly toolchain installed (TSan not run)"
        return 1
    fi
    if ! have_component rust-src; then
        skip_or_die "rust-src component not installed for nightly (TSan not run)"
        return 1
    fi
}

# ---- ThreadSanitizer over the parallel driver ---------------------------
run_tsan() {
    tsan_prereqs || return 0
    note "TSan: parallel driver differential tests (-Zsanitizer=thread)"
    # -Zbuild-std rebuilds std with TSan instrumentation so std::thread's
    # own synchronisation is visible to the race detector.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-core --test differential -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem"
        FAILED=1
    fi
    note "TSan: panic isolation / checkpoint-resume tests (-Zsanitizer=thread)"
    # The fault-tolerant driver unwinds worker panics across the
    # work-stealing cursor; TSan checks that the recovery paths (batch
    # retry, quarantine, workers stopping on the deadline) are as
    # race-free as the happy path. Single-threaded test order because the
    # injection plans are process-global.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-core --test fault_tolerance -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem in the fault paths"
        FAILED=1
    fi
    note "TSan: concurrent probes through the shared segment interner"
    # Many reader threads resolve interned segment ids while others run
    # full cached probes against the same frozen index; any write into
    # the interner after build would be a race TSan can see.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-core --test concurrent_probes -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem in the concurrent probe path"
        FAILED=1
    fi
}

# ---- ThreadSanitizer over the query server ------------------------------
run_tsan_serve() {
    tsan_prereqs || return 0
    note "TSan: usj-serve overload / fault-plan server tests (-Zsanitizer=thread)"
    # The server shares one immutable index across accept, worker, and
    # client threads, and the degradation controller's mutexed latency
    # ring across workers; re-run the whole overload suite (shedding,
    # injected panics, deadline aborts, wire-driven drain) under TSan's
    # altered interleavings. Single-threaded test order because the fault
    # injection plans are process-global.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-serve --lib --test overload --test metrics_roundtrip \
        -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem in usj-serve"
        FAILED=1
    fi
}

# ---- Miri + TSan over the snapshot / recovery-ladder suites -------------
run_persist() {
    if have_nightly && have_component miri; then
        note "Miri: container encode/decode + corruption corpus (snapshots and checkpoints)"
        # The persistence container is where snapshots and checkpoints
        # are decoded from raw little-endian bytes; Miri checks every
        # decode path of both file kinds — including the salvage walk
        # and the checkpoint refusals over deliberately corrupted
        # images — for UB. -Zmiri-disable-isolation because the suites
        # exercise real tempfile writes, fsyncs, and renames.
        if ! MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo +nightly miri test -p usj-core \
            --test snapshot_persistence --test checkpoint_corruption; then
            note "FAIL: Miri found a problem in the container codec"
            FAILED=1
        fi
    else
        skip_or_die "nightly+miri not installed (snapshot Miri leg not run)"
    fi
    tsan_prereqs || return 0
    note "TSan: warm-restart serving and background refresh (-Zsanitizer=thread)"
    # serve_from_snapshot's worker threads answer probes from the loaded
    # collection while a background thread re-writes the snapshot from
    # that same collection; TSan checks the shared reads under altered
    # interleavings. Single-threaded test order because failpoint plans
    # are process-global.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-serve --test warm_restart -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem in warm-restart serving"
        FAILED=1
    fi
}

# ---- ThreadSanitizer over the scatter-gather coordinator ----------------
run_tsan_coord() {
    tsan_prereqs || return 0
    note "TSan: coordinator scatter-gather / kill-a-shard tests (-Zsanitizer=thread)"
    # The coordinator crosses more threads than the single-node server:
    # gather loops receive from the pooled dispatch threads through mpsc
    # channels while hedges race the primary attempt, idle dispatch
    # threads wait on the pool's condvar, health tracking
    # mixes a mutexed table with the stop flag, and the soak test kills a
    # live proxy mid-probe. Single-threaded test order because the fault
    # injection plans are process-global.
    if ! RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$HOST" \
        -p usj-serve --test coordinator --test proto_malformed \
        -- --test-threads 1; then
        note "FAIL: ThreadSanitizer found a problem in the coordinator"
        FAILED=1
    fi
}

if [ "$ONLY" = "all" ] || [ "$ONLY" = "kernels" ]; then
    run_miri
    run_tsan
fi
if [ "$ONLY" = "all" ] || [ "$ONLY" = "serve" ]; then
    run_tsan_serve
fi
if [ "$ONLY" = "all" ] || [ "$ONLY" = "coord" ]; then
    run_tsan_coord
fi
if [ "$ONLY" = "all" ] || [ "$ONLY" = "persist" ]; then
    run_persist
fi

if [ "$FAILED" = "1" ]; then
    note "sanitize: FAILED"
    exit 1
fi
if [ "$SKIPPED" = "1" ]; then
    note "sanitize: passed (with skips — set SANITIZE_STRICT=1 to forbid)"
else
    note "sanitize: all checks passed"
fi
