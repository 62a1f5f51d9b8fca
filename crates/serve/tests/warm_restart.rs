//! Warm-restart fault suite: servers booted through the snapshot
//! recovery ladder under injected salvage failures, fingerprint
//! mismatches, and cold misses.
//!
//! The behaviours pinned here:
//! * a band that fails salvage is rebuilt inside the load, so a server
//!   or shard booted from the image still starts warm and answers its
//!   first probe exactly, with the cold build's hits;
//! * a snapshot written for a different run configuration refuses to
//!   boot, with the diagnosis in the error;
//! * a cold miss rebuilds, re-writes the snapshot in the background,
//!   and makes the *next* restart warm.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use usj_core::{snapshot, IndexedCollection, JoinConfig, LoadRung, SnapshotReport};
use usj_fault::{shield, FaultAction, FaultPlan};
use usj_model::{Alphabet, UncertainString};
use usj_serve::{
    serve_from_snapshot, serve_shard_from_snapshot, shard_partition, shard_snapshot_path, Client,
    ClientConfig, ProbeOutcome, ServeConfig, ServerHandle,
};

const K: usize = 1;
const TAU: f64 = 0.3;

/// Serialise with the rest of the fault suite: `usj-fault` plans are
/// process-global.
fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    shield::install();
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn strings() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    [
        "ACGTAC",
        "ACGTAT",
        "ACG{(T,0.9),(G,0.1)}AC",
        "TTTTTT",
        "ACGACG",
        "GGGCCC",
        "ACGTACGT",
        "ACGTACGG",
    ]
    .iter()
    .map(|t| UncertainString::parse(t, &alpha).unwrap())
    .collect()
}

fn config() -> JoinConfig {
    JoinConfig::new(K, TAU)
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only needs uniqueness.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("usj-warm-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Exact hit ids for `probe` against a never-persisted build — the
/// ground truth every served answer is checked against.
fn exact_ids(coll: &IndexedCollection, probe: &str) -> Vec<u32> {
    let probe = UncertainString::parse(probe, &Alphabet::dna()).unwrap();
    coll.search(&probe).into_iter().map(|h| h.id).collect()
}

/// Boots a server through `boot` with the first `snapshot.salvage` fire
/// (the length-6 band) failing. The load rebuilds that band itself, so
/// the boot is warm and complete: the first answer to each of `probes`
/// is exact and equals `cold`'s hits among the collection-global `ids`
/// the server holds.
fn salvaged_boot_answers_exactly(
    cold: &IndexedCollection,
    ids: &[u32],
    probes: &[&str],
    boot: impl FnOnce() -> std::io::Result<(ServerHandle, SnapshotReport)>,
) {
    let (handle, report) = {
        // The guard spans only the boot, so the refresh write passes.
        let _guard = FaultPlan::new()
            .fail_at(
                "snapshot.salvage",
                0,
                FaultAction::Error("salvage refused".into()),
            )
            .arm();
        boot().expect("boot survives a failed salvage")
    };
    assert_eq!(report.rung, LoadRung::Salvaged, "{report:?}");
    assert!(report.warm, "salvaged boot is still warm: {report:?}");
    assert_eq!(report.bands_rebuilt, 1, "failed band rebuilt: {report:?}");
    assert!(report.degraded_bands.is_empty(), "{report:?}");

    let mut c = Client::new(handle.addr().to_string(), ClientConfig::default());
    for probe in probes {
        let want: Vec<u32> = exact_ids(cold, probe)
            .into_iter()
            .filter(|id| ids.contains(id))
            .collect();
        assert!(!want.is_empty(), "{probe} has no hit on this server");
        match c.probe(K, TAU, probe).expect("probe") {
            ProbeOutcome::Exact(hits) => {
                let got: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
                assert_eq!(got, want, "salvaged answers to {probe} diverged");
            }
            other => panic!("first answer to {probe} was not exact: {other:?}"),
        }
    }
    assert_eq!(c.health_report().expect("HEALTH").warm, Some(true));
    let text = handle.metrics_text();
    assert!(
        text.contains("\nusj_snapshot_bands_rebuilt_total 1\n"),
        "rebuilt band not counted:\n{text}"
    );
    assert!(text.contains("\nusj_warm_restarts_total 1\n"));
    handle.shutdown();
}

/// A band that fails salvage at boot is rebuilt before the server binds,
/// for a single node and for one shard of a fleet alike: no answer is
/// ever a superset, and the index never changes after boot.
#[test]
fn failed_salvage_band_is_rebuilt_before_serving() {
    let _g = lock();
    let dir = scratch("salvage");
    let base = dir.join("index.snap");
    let all = strings();
    let cold = IndexedCollection::build(config(), 4, all.clone());

    snapshot::write(&base, &cold).expect("snapshot commits");
    let every: Vec<u32> = (0..all.len() as u32).collect();
    salvaged_boot_answers_exactly(&cold, &every, &["ACGTAC", "ACGTACGT"], || {
        serve_from_snapshot(
            &base,
            config(),
            strings(),
            Alphabet::dna(),
            ServeConfig::default(),
        )
    });

    // Shard 1 of 2 holds global ids 4..=7, in a length-6 and a length-8
    // band; its hits must come back as those global ids.
    let partition = shard_partition(&all, 2);
    let slice = &partition.shards[1];
    let subset = slice.ids.iter().map(|&id| all[id as usize].clone());
    let shard = IndexedCollection::build(config(), 4, subset.collect());
    snapshot::write(&shard_snapshot_path(&base, 1), &shard).expect("shard snapshot commits");
    salvaged_boot_answers_exactly(&cold, &slice.ids, &["ACGACG", "ACGTACGT"], || {
        serve_shard_from_snapshot(
            &base,
            config(),
            Alphabet::dna(),
            &all,
            &partition,
            1,
            ServeConfig::default(),
        )
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written under a different run configuration refuses to
/// boot — rung 3 of the ladder surfaces the diagnosis instead of
/// silently serving the wrong index.
#[test]
fn fingerprint_mismatch_refuses_to_boot() {
    let _g = lock();
    let dir = scratch("refuse");
    let path = dir.join("index.snap");
    let other = IndexedCollection::build(JoinConfig::new(2, 0.5), 4, strings());
    snapshot::write(&path, &other).expect("snapshot commits");
    let msg = match serve_from_snapshot(
        &path,
        config(),
        strings(),
        Alphabet::dna(),
        ServeConfig::default(),
    ) {
        Err(err) => err.to_string(),
        Ok(_) => panic!("mismatched fingerprint was served"),
    };
    assert!(msg.contains("fingerprint"), "no diagnosis in {msg:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold miss (no snapshot on disk) rebuilds and re-writes the image
/// in the background, so the next restart of the same server is warm.
#[test]
fn cold_miss_writes_the_snapshot_that_warms_the_next_restart() {
    let _g = lock();
    let dir = scratch("coldwarm");
    let path = dir.join("index.snap");
    let (first, report) = serve_from_snapshot(
        &path,
        config(),
        strings(),
        Alphabet::dna(),
        ServeConfig::default(),
    )
    .expect("cold boot");
    assert!(!report.warm, "missing snapshot cannot be warm");
    let mut c = Client::new(first.addr().to_string(), ClientConfig::default());
    let health = c.health_report().expect("HEALTH");
    assert_eq!(health.warm, Some(false));
    // The refresh runs in the background; wait for the durable rename.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !path.exists() {
        assert!(Instant::now() < deadline, "snapshot refresh never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
    first.shutdown();

    let (second, report) = serve_from_snapshot(
        &path,
        config(),
        strings(),
        Alphabet::dna(),
        ServeConfig::default(),
    )
    .expect("second boot");
    assert!(report.warm, "refreshed snapshot must boot warm: {report:?}");
    let cold = IndexedCollection::build(config(), 4, strings());
    let mut c = Client::new(second.addr().to_string(), ClientConfig::default());
    for probe in ["ACGTAC", "ACGTACGT", "TTTTTT"] {
        match c.probe(K, TAU, probe).expect("probe") {
            ProbeOutcome::Exact(hits) => {
                let ids: Vec<u32> = hits.into_iter().map(|(id, _)| id).collect();
                assert_eq!(ids, exact_ids(&cold, probe), "warm answers diverged");
            }
            other => panic!("unexpected degraded answer {other:?}"),
        }
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
