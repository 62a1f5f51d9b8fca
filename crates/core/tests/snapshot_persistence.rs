//! Crash-safety sweep for the snapshot I/O path: a fault injected at
//! *any* of the five `snapshot.*` failpoints — panic (process death) or
//! error (ENOSPC, EIO) — must leave a state from which the next start
//! either loads a verified snapshot or falls down the recovery ladder
//! to a correct rebuild. The post-restart index is proven bit-identical
//! to a never-crashed build via [`snapshot::collection_digest`] and
//! probe-level answer comparison.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use usj_core::snapshot::{self, LoadRung, SalvageMode};
use usj_core::{IndexedCollection, JoinConfig};
use usj_fault::{shield, FaultAction, FaultPlan};
use usj_model::{Alphabet, UncertainString};

/// Serialise with the rest of the fault suite: `usj-fault` plans are
/// process-global.
fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    shield::install();
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dna(text: &str) -> UncertainString {
    UncertainString::parse(text, &Alphabet::dna()).unwrap()
}

/// A small collection spanning several length bands, with certain and
/// uncertain strings in each.
fn strings() -> Vec<UncertainString> {
    let mut v = Vec::new();
    for len in 4..=8usize {
        let base: String = "ACGT".chars().cycle().take(len).collect();
        v.push(dna(&base));
        let mut subst = base.clone();
        subst.replace_range(1..2, "G");
        v.push(dna(&subst));
        let uncertain = format!("{}{}", &base[..len - 1], "{(A,0.6),(T,0.4)}");
        v.push(dna(&uncertain));
    }
    v
}

fn config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only needs uniqueness.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("usj-snap-ft-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One "process lifetime": write a snapshot of a freshly built index,
/// then restart from it. Panics injected anywhere inside are the
/// simulated crash.
fn write_then_load(path: &Path) {
    let cold = IndexedCollection::build(config(), 4, strings());
    let _ = snapshot::write(path, &cold);
    let _ = snapshot::load(path, &config(), 4, strings(), SalvageMode::Strict);
}

/// Every injected fault at every `snapshot.*` point, as both a panic
/// (process death mid-syscall) and an error (ENOSPC/EIO surfaced by the
/// OS): the follow-up start must recover an index bit-identical to a
/// never-crashed build, and its answers must match probe-for-probe.
#[test]
fn kill_at_every_snapshot_failpoint_recovers_bit_identically() {
    let _g = lock();
    let cold = IndexedCollection::build(config(), 4, strings());
    let want = snapshot::collection_digest(&cold);
    let probes = ["ACGTAC", "ACGTACGT", "GGGG{(A,0.5),(C,0.5)}G"];
    let points = [
        "snapshot.write",
        "snapshot.fsync",
        "snapshot.rename",
        "snapshot.read",
        "snapshot.salvage",
    ];
    for point in points {
        for action in [
            FaultAction::Panic,
            FaultAction::Error("no space left on device".to_string()),
        ] {
            let dir = scratch("sweep");
            let path = dir.join("index.snap");
            // First process: crash (or hit an I/O error) at the armed
            // point somewhere inside write-then-load.
            {
                let _guard = FaultPlan::new().fail_at(point, 0, action.clone()).arm();
                let _ = catch_unwind(AssertUnwindSafe(|| write_then_load(&path)));
            }
            // Restart with no faults: whatever the crash left behind —
            // old snapshot, new snapshot, tmp residue, or nothing — the
            // ladder must land on a bit-identical index.
            let loaded = snapshot::load(&path, &config(), 4, strings(), SalvageMode::Strict)
                .unwrap_or_else(|e| panic!("{point}/{action:?}: restart refused: {e}"));
            assert_eq!(
                snapshot::collection_digest(&loaded.collection),
                want,
                "{point}/{action:?}: post-restart index diverged (rung {:?}, reason {:?})",
                loaded.report.rung,
                loaded.report.reason
            );
            for probe in probes {
                let probe = dna(probe);
                assert_eq!(
                    loaded.collection.search(&probe),
                    cold.search(&probe),
                    "{point}/{action:?}: answers diverged"
                );
            }
            // No temp-file residue may survive the write path's cleanup
            // on the error leg (a panic legitimately strands the temp
            // file; the next durable write simply overwrites it).
            if matches!(action, FaultAction::Error(_)) {
                let tmp = dir.join("index.snap.tmp");
                assert!(!tmp.exists(), "{point}: temp residue after error fault");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// ENOSPC mid-write (an `error:` plan, as an operator would arm it via
/// `USJ_FAULT_PLAN`) must leave a previously committed snapshot intact
/// and loadable — the atomic-rename window never exposes a torn file.
#[test]
fn write_error_preserves_the_previous_snapshot() {
    let _g = lock();
    let dir = scratch("enospc");
    let path = dir.join("index.snap");
    let cold = IndexedCollection::build(config(), 4, strings());
    snapshot::write(&path, &cold).expect("first write commits");
    let committed = std::fs::read(&path).unwrap();
    {
        let _guard = FaultPlan::parse("snapshot.write#0=error:no space left on device")
            .expect("plan parses")
            .arm();
        let err = snapshot::write(&path, &cold).expect_err("injected ENOSPC must surface");
        assert!(err.to_string().contains("no space"), "{err}");
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        committed,
        "failed write must not touch the committed snapshot"
    );
    let loaded = snapshot::load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
    assert_eq!(loaded.report.rung, LoadRung::Verified);
    assert_eq!(
        snapshot::collection_digest(&loaded.collection),
        snapshot::collection_digest(&cold)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A band that fails salvage under [`SalvageMode::Degraded`] is left
/// out and reported — the benchmark's snapshot reload is that mode's
/// one caller — while [`SalvageMode::Strict`], the mode servers and
/// shards boot on, rebuilds it inline and stays bit-identical.
#[test]
fn failed_salvage_degrades_or_rebuilds_by_mode() {
    let _g = lock();
    let dir = scratch("salvage");
    let path = dir.join("index.snap");
    let cold = IndexedCollection::build(config(), 4, strings());
    snapshot::write(&path, &cold).unwrap();

    // Strict: the failed band is rebuilt from source, bit-identically.
    {
        let _guard = FaultPlan::new()
            .fail_at(
                "snapshot.salvage",
                1,
                FaultAction::Error("salvage refused".into()),
            )
            .arm();
        let loaded = snapshot::load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Salvaged);
        assert_eq!(loaded.report.bands_rebuilt, 1);
        assert!(loaded.report.degraded_bands.is_empty());
        assert_eq!(
            snapshot::collection_digest(&loaded.collection),
            snapshot::collection_digest(&cold)
        );
    }

    // Degraded: the failed band is reported, not silently repaired.
    {
        let _guard = FaultPlan::new()
            .fail_at(
                "snapshot.salvage",
                1,
                FaultAction::Error("salvage refused".into()),
            )
            .arm();
        let loaded = snapshot::load(&path, &config(), 4, strings(), SalvageMode::Degraded).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Salvaged);
        assert_eq!(loaded.report.degraded_bands.len(), 1);
        assert_eq!(loaded.report.bands_rebuilt, 0);
        // The degraded band answers nothing through the q-gram index;
        // every other band still answers bit-identically.
        let degraded = loaded.report.degraded_bands[0];
        for probe in strings() {
            if probe.len().abs_diff(degraded) > config().k {
                assert_eq!(
                    loaded.collection.search(&probe),
                    cold.search(&probe),
                    "band {degraded} degradation leaked into unrelated lengths"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected read fault (short read / EIO) drops to the rebuild rung
/// — never a partial decode.
#[test]
fn read_fault_falls_to_full_rebuild() {
    let _g = lock();
    let dir = scratch("read");
    let path = dir.join("index.snap");
    let cold = IndexedCollection::build(config(), 4, strings());
    snapshot::write(&path, &cold).unwrap();
    let _guard = FaultPlan::new()
        .fail_at(
            "snapshot.read",
            0,
            FaultAction::Error("injected short read".into()),
        )
        .arm();
    let loaded = snapshot::load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
    assert_eq!(loaded.report.rung, LoadRung::Rebuilt);
    assert!(!loaded.report.warm);
    assert!(
        loaded.report.reason.contains("injected"),
        "{}",
        loaded.report.reason
    );
    assert_eq!(
        snapshot::collection_digest(&loaded.collection),
        snapshot::collection_digest(&cold)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
