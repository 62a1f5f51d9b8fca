//! Fault-injection differential suite for the self-join driver: every
//! registered failpoint is killed deterministically, and
//! the join must either complete bit-identically (recovered) or fail
//! cleanly with a checkpoint from which `resume` reproduces the
//! uninterrupted run — pairs *and* funnel counters.
//!
//! All tests serialise on a file-local mutex: `usj-fault` plans are
//! process-global, so a concurrently running test would consume another
//! plan's scheduled hits.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use usj_core::obs::NoopRecorder;
use usj_core::{
    par_self_join, run_self_join, Checkpoint, CheckpointError, FaultReport, JoinConfig, JoinError,
    JoinResult, RunOptions, SimilarityJoin,
};
use usj_fault::{shield, FaultAction, FaultPlan};
use usj_model::{Alphabet, UncertainString};

fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    shield::install();
    // A poisoned lock only means an earlier test failed; the guard
    // protects no data.
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// 15 strings over 5 length groups (4..=8), so `shard_band = 1` yields a
/// 5-wave plan with matches inside and across adjacent waves.
fn collection() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    let base = "ACGTACGTACGT";
    let mut out = Vec::new();
    for len in 4usize..=8 {
        let prefix = &base[..len];
        out.push(UncertainString::parse(prefix, &alpha).unwrap());
        // One substitution away from the prefix.
        let mut t: Vec<char> = prefix.chars().collect();
        t[len - 2] = 'T';
        let sub: String = t.iter().collect();
        out.push(UncertainString::parse(&sub, &alpha).unwrap());
        // An uncertain variant of the prefix.
        let uncertain = format!("{}{{(A,0.6),(C,0.4)}}{}", &prefix[..1], &prefix[2..]);
        out.push(UncertainString::parse(&uncertain, &alpha).unwrap());
    }
    out
}

fn config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
        .with_shard_band(1)
        .with_batch_range(1, 2)
}

/// Thread counts the recovery paths are checked at.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Run options on `threads` workers, checkpointing into `dir` (if any)
/// and resuming from it when `resume`.
fn opts_on(threads: usize, dir: Option<&PathBuf>, resume: bool) -> RunOptions {
    RunOptions {
        threads,
        checkpoint_dir: dir.cloned(),
        resume,
    }
}

fn run_ft(
    config: &JoinConfig,
    strings: &[UncertainString],
    opts: &RunOptions,
) -> Result<(JoinResult, FaultReport, NoopRecorder), JoinError> {
    run_self_join(config.clone(), 4, strings, opts, || NoopRecorder)
}

fn pairs_key(r: &JoinResult) -> Vec<(u32, u32, u64)> {
    r.pairs
        .iter()
        .map(|p| (p.left, p.right, p.prob.to_bits()))
        .collect()
}

/// The funnel counters that must be invariant under faults the run
/// survived or resumed across.
fn funnel(r: &JoinResult) -> [u64; 13] {
    let s = &r.stats;
    [
        s.pairs_in_scope,
        s.qgram_survivors,
        s.qgram_pruned_count,
        s.qgram_pruned_bound,
        s.freq_survivors,
        s.freq_pruned_lower,
        s.freq_pruned_chebyshev,
        s.cdf_accepted,
        s.cdf_rejected,
        s.cdf_undecided,
        s.verified_similar,
        s.verified_dissimilar,
        s.output_pairs,
    ]
}

fn ckdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // ordering: Relaxed — only uniqueness matters.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("usj-ft-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn error_checkpoint(e: &JoinError) -> Option<PathBuf> {
    match e {
        JoinError::Deadline { checkpoint, .. } | JoinError::Faulted { checkpoint, .. } => {
            checkpoint.clone()
        }
        JoinError::Checkpoint(_) => None,
    }
}

#[test]
fn ft_without_faults_matches_classic_driver_and_commits_checkpoints() {
    let _g = lock();
    let strings = collection();
    let baseline = SimilarityJoin::new(config(), 4).self_join(&strings);
    assert!(
        !baseline.pairs.is_empty(),
        "test collection must produce pairs"
    );

    for (i, threads) in THREADS.into_iter().enumerate() {
        let dir = ckdir("clean");
        let opts = opts_on(threads, Some(&dir), false);
        let (result, report, _rec) = run_ft(&config(), &strings, &opts).unwrap();
        assert_eq!(
            pairs_key(&result),
            pairs_key(&baseline),
            "threads={threads}"
        );
        assert_eq!(funnel(&result), funnel(&baseline), "threads={threads}");
        assert_eq!(report.quarantined, Vec::<u32>::new());
        assert_eq!(report.batches_retried, 0);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.waves_resumed, 0);

        // The final checkpoint covers the whole run.
        let ck = Checkpoint::load(&dir).unwrap();
        assert_eq!(report.checkpoint, Some(Checkpoint::path_in(&dir)));
        assert_eq!(ck.pairs.len(), result.pairs.len());

        // Resuming a *finished* run replays nothing and probes nothing
        // new, on any thread count: an explicit shard band fixes the
        // wave plan.
        let other = THREADS[(i + 1) % THREADS.len()];
        let resumed = run_ft(&config(), &strings, &opts_on(other, Some(&dir), true));
        let (res2, rep2, _) = resumed.unwrap();
        assert_eq!(pairs_key(&res2), pairs_key(&baseline));
        assert_eq!(funnel(&res2), funnel(&baseline));
        assert!(rep2.waves_resumed > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn deadlines_fail_cleanly_at_batch_granularity() {
    let _g = lock();
    let strings = collection();

    // An already-expired deadline dies before wave 0 with no partial junk.
    let cfg = config().with_deadline(Some(Duration::ZERO));
    for threads in THREADS {
        let err = run_ft(&cfg, &strings, &opts_on(threads, None, false)).unwrap_err();
        match &err {
            JoinError::Deadline {
                completed_waves,
                checkpoint,
                ..
            } => {
                assert_eq!(*completed_waves, 0);
                assert_eq!(*checkpoint, None);
            }
            other => panic!("expected Deadline, got {other}"),
        }
        assert!(err.to_string().contains("deadline exceeded"));
    }

    // A delay fault longer than the deadline trips the in-wave check.
    let cfg = config().with_deadline(Some(Duration::from_millis(10)));
    let _armed = FaultPlan::new()
        .fail_at(
            "parallel.batch",
            0,
            FaultAction::Delay(Duration::from_millis(100)),
        )
        .arm();
    let err = run_ft(&cfg, &strings, &opts_on(3, None, false)).unwrap_err();
    assert!(
        matches!(
            err,
            JoinError::Deadline {
                completed_waves: 0,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn tight_deadline_aborts_sequential_and_parallel_drivers_identically() {
    let _g = lock();
    let strings = collection();
    let cfg = config().with_deadline(Some(Duration::ZERO));

    // Same deadline, one thread and three: both must refuse with the same
    // error shape — a Deadline with zero committed waves and no
    // checkpoint — and the same leading error text.
    let seq_err = run_ft(&cfg, &strings, &opts_on(1, None, false)).unwrap_err();
    let par_err = run_ft(&cfg, &strings, &opts_on(3, None, false)).unwrap_err();
    for err in [&seq_err, &par_err] {
        match err {
            JoinError::Deadline {
                completed_waves,
                checkpoint,
                ..
            } => {
                assert_eq!(*completed_waves, 0);
                assert_eq!(*checkpoint, None);
            }
            other => panic!("expected Deadline, got {other}"),
        }
        assert!(err.to_string().contains("deadline exceeded"), "{err}");
        assert!(err.to_string().contains("0 wave(s) completed"), "{err}");
    }
}

#[test]
fn recovered_batch_panic_is_bit_identical() {
    let _g = lock();
    let strings = collection();
    let baseline = par_self_join(config(), 4, &strings, 3);

    for threads in THREADS {
        let armed = FaultPlan::one_shot_panic("parallel.batch").arm();
        let (result, report, _rec) =
            run_ft(&config(), &strings, &opts_on(threads, None, false)).unwrap();
        drop(armed);

        assert_eq!(
            pairs_key(&result),
            pairs_key(&baseline),
            "threads={threads}"
        );
        assert_eq!(funnel(&result), funnel(&baseline), "threads={threads}");
        assert_eq!(report.batches_retried, 1);
        assert_eq!(report.faults_injected, 1);
        assert!(report.quarantined.is_empty());
        assert_eq!(result.stats.batches_retried, 1);
        assert_eq!(result.stats.probes_quarantined, 0);
    }
}

#[test]
fn persistent_probe_panic_is_quarantined_not_fatal() {
    let _g = lock();
    let strings = collection();
    // One probe per batch, so the isolation retry replays exactly the
    // probe that failed.
    let cfg = config().with_batch_range(1, 1);
    let baseline = par_self_join(cfg.clone(), 4, &strings, 3);

    // Fire on the batch run *and* on its isolation retry: the probe under
    // the first verification consult is poison. `parallel.isolate` is
    // crossed only by that retry, so no other worker can take the second
    // hit.
    let armed = FaultPlan::new()
        .fail_at("parallel.verify", 0, FaultAction::Panic)
        .fail_at("parallel.isolate", 0, FaultAction::Panic)
        .arm();
    let (result, report, _rec) = run_ft(&cfg, &strings, &opts_on(3, None, false)).unwrap();
    drop(armed);

    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(result.stats.probes_quarantined, 1);
    assert!(report.batches_retried >= 1);
    assert_eq!(report.faults_injected, 2);
    let q = report.quarantined[0];

    // The output is exactly the baseline minus pairs the quarantined
    // probe was responsible for deciding.
    let got = pairs_key(&result);
    let want = pairs_key(&baseline);
    assert!(got.iter().all(|p| want.contains(p)));
    let missing: Vec<_> = want.iter().filter(|p| !got.contains(p)).collect();
    assert!(
        missing.iter().all(|p| p.0 == q || p.1 == q),
        "missing pairs {missing:?} must all involve quarantined probe {q}"
    );
}

/// The classic wrappers have no fault report to carry a quarantine, so
/// they must refuse to return the incomplete answer: both panic, naming
/// the quarantined probe.
#[test]
fn classic_wrappers_panic_rather_than_drop_a_quarantined_probe() {
    let _g = lock();
    let strings = collection();
    let cfg = config().with_batch_range(1, 1);
    let wrappers: [(&str, &dyn Fn() -> JoinResult); 2] = [
        ("par_self_join", &|| {
            par_self_join(cfg.clone(), 4, &strings, 3)
        }),
        ("self_join", &|| {
            SimilarityJoin::new(cfg.clone(), 4).self_join(&strings)
        }),
    ];
    for (name, wrapper) in wrappers {
        // The persistent plan of the quarantine test above.
        let armed = FaultPlan::new()
            .fail_at("parallel.verify", 0, FaultAction::Panic)
            .fail_at("parallel.isolate", 0, FaultAction::Panic)
            .arm();
        let outcome = shield::shielded(|| std::panic::catch_unwind(AssertUnwindSafe(wrapper)));
        drop(armed);
        let payload = outcome.expect_err(name);
        let message = payload
            .downcast_ref::<String>()
            .unwrap_or_else(|| panic!("{name}: panic payload is not a message"));
        assert!(message.contains("probe(s) ["), "{name}: {message}");
        assert!(
            message.contains("panicked even when retried alone"),
            "{name}: {message}"
        );
    }
}

#[test]
fn delay_faults_are_survived_and_counted() {
    let _g = lock();
    let strings = collection();
    let baseline = par_self_join(config(), 4, &strings, 3);

    let tick = Duration::from_millis(1);
    let armed = FaultPlan::new()
        .fail_at("parallel.verify", 0, FaultAction::Delay(tick))
        .fail_at("parallel.evict", 0, FaultAction::Delay(tick))
        // index.build delays are deliberately uncounted (see the failpoint
        // comment in index.rs): the total below must stay 2.
        .fail_at("index.build", 0, FaultAction::Delay(tick))
        .arm();
    let (result, report, _rec) = run_ft(&config(), &strings, &opts_on(3, None, false)).unwrap();
    drop(armed);

    assert_eq!(pairs_key(&result), pairs_key(&baseline));
    assert_eq!(funnel(&result), funnel(&baseline));
    assert_eq!(report.faults_injected, 2);
    assert_eq!(report.batches_retried, 0);
    assert!(report.quarantined.is_empty());
}

#[test]
fn kill_at_every_failpoint_completes_or_resumes_bit_identically() {
    let _g = lock();
    let strings = collection();
    let baseline = par_self_join(config(), 4, &strings, 3);

    let points = [
        "parallel.evict",
        "parallel.batch",
        "parallel.verify",
        "index.build",
        "checkpoint.write",
    ];
    for threads in THREADS {
        for point in points {
            for nth in [0u64, 1, 2] {
                let dir = ckdir("sweep");
                let opts = opts_on(threads, Some(&dir), false);
                let armed = FaultPlan::new()
                    .fail_at(point, nth, FaultAction::Panic)
                    .arm();
                let outcome = run_ft(&config(), &strings, &opts);
                drop(armed);

                let final_result = match outcome {
                    // Recovered in-run (batch retry absorbed the panic).
                    Ok((result, _report, _rec)) => result,
                    Err(e) => {
                        // Fatal: must be a structured error, and resume (or a
                        // fresh run, if the fault struck before any wave
                        // committed) must reproduce the uninterrupted output.
                        let resume_from = error_checkpoint(&e);
                        match &e {
                            JoinError::Faulted { message, .. } => {
                                assert!(
                                    message.contains(point),
                                    "{point}#{nth} threads={threads}: fault message {message:?} should name the failpoint"
                                );
                            }
                            JoinError::Checkpoint(CheckpointError::Io(_)) => {
                                assert_eq!(point, "checkpoint.write");
                            }
                            other => {
                                panic!("{point}#{nth} threads={threads}: unexpected error {other}")
                            }
                        }
                        let opts = opts_on(threads, Some(&dir), resume_from.is_some());
                        let (result, report, _rec) = run_ft(&config(), &strings, &opts)
                            .unwrap_or_else(|e| {
                                panic!("{point}#{nth} threads={threads}: resume failed: {e}")
                            });
                        if resume_from.is_some() {
                            assert!(report.waves_resumed > 0, "{point}#{nth} threads={threads}");
                        }
                        result
                    }
                };
                assert_eq!(
                    pairs_key(&final_result),
                    pairs_key(&baseline),
                    "{point}#{nth} threads={threads}: pairs must match the uninterrupted run"
                );
                assert_eq!(
                    funnel(&final_result),
                    funnel(&baseline),
                    "{point}#{nth} threads={threads}: funnel counters must match the uninterrupted run"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn resume_after_fatal_mid_join_fault_reproduces_everything() {
    let _g = lock();
    let strings = collection();
    let baseline = par_self_join(config(), 4, &strings, 3);
    let dir = ckdir("resume");
    let opts = opts_on(3, Some(&dir), false);

    // Kill the build of wave 2: waves 0 and 1 are committed.
    let armed = FaultPlan::new()
        .fail_at("parallel.evict", 2, FaultAction::Panic)
        .arm();
    let err = run_ft(&config(), &strings, &opts).unwrap_err();
    drop(armed);
    let ck_path = match &err {
        JoinError::Faulted {
            wave,
            completed_waves,
            checkpoint,
            ..
        } => {
            assert_eq!(*wave, 2);
            assert_eq!(*completed_waves, 2);
            checkpoint
                .clone()
                .expect("two waves committed a checkpoint")
        }
        other => panic!("expected Faulted, got {other}"),
    };
    assert!(ck_path.exists());

    let (result, report, _rec) =
        run_ft(&config(), &strings, &opts_on(3, Some(&dir), true)).unwrap();
    assert_eq!(report.waves_resumed, 2);
    assert_eq!(result.stats.waves_resumed, 2);
    assert_eq!(pairs_key(&result), pairs_key(&baseline));
    assert_eq!(funnel(&result), funnel(&baseline));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_defects_are_rejected_cleanly() {
    let _g = lock();
    let strings = collection();
    let dir = ckdir("defects");
    let opts = opts_on(3, Some(&dir), false);

    // Manufacture a valid one-wave checkpoint via a fatal wave-1 fault.
    let armed = FaultPlan::new()
        .fail_at("parallel.evict", 1, FaultAction::Panic)
        .arm();
    let err = run_ft(&config(), &strings, &opts).unwrap_err();
    drop(armed);
    let ck_path = error_checkpoint(&err).expect("wave 0 committed a checkpoint");
    let resume = opts_on(3, Some(&dir), true);

    // A different config (tau) is a fingerprint mismatch.
    let other_cfg = JoinConfig::new(1, 0.5)
        .with_shard_band(1)
        .with_batch_range(1, 2);
    let err = run_ft(&other_cfg, &strings, &resume).unwrap_err();
    assert!(
        matches!(
            err,
            JoinError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ),
        "{err}"
    );
    // ... and so is a different input collection.
    let mut fewer = strings.clone();
    fewer.pop();
    let err = run_ft(&config(), &fewer, &resume).unwrap_err();
    assert!(
        matches!(
            err,
            JoinError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ),
        "{err}"
    );

    // Truncation and corruption are rejected, not resumed.
    let intact = std::fs::read(&ck_path).unwrap();
    std::fs::write(&ck_path, &intact[..intact.len() / 2]).unwrap();
    let err = run_ft(&config(), &strings, &resume).unwrap_err();
    assert!(
        matches!(err, JoinError::Checkpoint(CheckpointError::Corrupt(_))),
        "{err}"
    );
    let mut flipped = intact.clone();
    flipped[intact.len() / 3] ^= 0x20;
    std::fs::write(&ck_path, flipped).unwrap();
    let err = run_ft(&config(), &strings, &resume).unwrap_err();
    assert!(
        matches!(err, JoinError::Checkpoint(CheckpointError::Corrupt(_))),
        "{err}"
    );

    // A missing file and a missing directory are distinct, clean errors.
    std::fs::remove_file(&ck_path).unwrap();
    let err = run_ft(&config(), &strings, &resume).unwrap_err();
    assert!(
        matches!(err, JoinError::Checkpoint(CheckpointError::Missing(_))),
        "{err}"
    );
    let err = run_ft(&config(), &strings, &opts_on(3, None, true)).unwrap_err();
    assert!(
        matches!(err, JoinError::Checkpoint(CheckpointError::Io(_))),
        "{err}"
    );

    // An injected *error* (not panic) on the checkpoint write surfaces as
    // a checkpoint I/O error naming the injected message.
    let armed = FaultPlan::new()
        .fail_at(
            "checkpoint.write",
            0,
            FaultAction::Error("disk full".to_string()),
        )
        .arm();
    let err = run_ft(&config(), &strings, &opts).unwrap_err();
    drop(armed);
    match &err {
        JoinError::Checkpoint(CheckpointError::Io(msg)) => {
            assert!(msg.contains("disk full"), "{msg}");
        }
        other => panic!("expected Checkpoint(Io), got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
