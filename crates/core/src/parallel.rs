//! The self-join driver (paper §4's query algorithm), run as
//! length-banded waves on any number of threads.
//!
//! Strings are visited in ascending `(length, id)` order. A probe of
//! length `l` queries the resident index of lengths `[l − k, l]` and
//! admits only visit-order-earlier candidates (every shorter string, and
//! ids below its own at equal length), so each unordered pair is decided
//! exactly once, in one fixed probe→candidate direction. The output —
//! pairs, probabilities and funnel counters — is therefore the same at
//! every thread count; `threads = 1` is the classic sequential join.
//!
//! A probe is a search of the strings visited before it: it runs the
//! probe funnel of `crate::collection` (q-gram candidates, frequency
//! filter, CDF bounds, verification) that every
//! [`IndexedCollection`](crate::IndexedCollection) search runs. This
//! driver supplies the length window, the same-length id limit and the
//! wave's frequency profiles; the window table is the probing thread's.
//!
//! * Strings are grouped by length into *shards*; consecutive length
//!   groups form a *wave* ([`JoinConfig::shard_band`] lengths per wave,
//!   `0` = sized automatically so a wave feeds every worker).
//! * Waves run in ascending length order. Before a wave for lengths
//!   `[lo, hi]`, shards below `lo − k` are evicted together with their
//!   frequency profiles (no remaining probe can reach them), then the
//!   wave's own shards are built. Only lengths in `[lo − k, hi]` are ever
//!   resident, reported via [`Gauge::ResidentShards`] and
//!   [`Gauge::PeakResidentBytes`].
//! * Within a wave, workers claim probes in adaptive work-stealing
//!   batches ([`JoinConfig::batch_min`]`..=`[`JoinConfig::batch_max`],
//!   shrinking near the tail where self-join probes are most expensive),
//!   counted by [`Counter::StealBatches`]. The calling thread is one of
//!   the workers, so a one-thread run spawns no thread.
//! * A same-length probe walks each posting run only up to its own id
//!   (runs are id-sorted), so it touches exactly the postings indexed
//!   before it in visit order.
//!
//! # Fault tolerance
//!
//! Each work-stealing batch runs against **fresh scratch** (pairs, stats,
//! recorder) inside `catch_unwind`: a panicking batch discards its
//! scratch wholesale — no half-counted funnel counters — and is retried
//! probe-by-probe; a probe that panics even in isolation is
//! **quarantined** ([`Counter::ProbesQuarantined`]) and the run continues
//! without its pairs. A wall-clock [`JoinConfig::deadline`] is checked
//! between waves and by every worker before each batch it claims, ending
//! a stuck run with a clean [`JoinError::Deadline`]. With a checkpoint directory
//! ([`RunOptions::checkpoint_dir`]), every completed wave atomically
//! commits a [`Checkpoint`] (pairs, funnel counters, config/input
//! fingerprint), and [`RunOptions::resume`] replays index construction
//! for committed waves while skipping their probes — the resumed output
//! is bit-identical to an uninterrupted run. Failpoints (`parallel.evict`,
//! `parallel.batch`, `parallel.isolate`, `parallel.verify`,
//! `index.build`, `checkpoint.write`) let tests inject each failure
//! deterministically (see `usj-fault`).

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use usj_fault::{panic_message, shield, InjectedFault};
use usj_freq::{FreqFilter, FreqProfile};
use usj_model::UncertainString;
use usj_obs::{Counter, Gauge, MergeRecorder, NoopRecorder, Phase, PhaseGuard, Recorder};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::collection::{check, Expired, Funnel, Probe};
use crate::config::JoinConfig;
use crate::container::{fold_config, fold_string, fold_u64, FNV_SEED};
use crate::index::SegmentIndex;
use crate::join::{JoinResult, SimilarPair};
use crate::stats::JoinStats;

/// How [`run_self_join`] runs; the deadline is
/// [`JoinConfig::deadline`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Worker threads, the calling thread included (0 = one per
    /// available core).
    pub threads: usize,
    /// Directory to commit a checkpoint into after every completed wave
    /// (created if absent). `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the checkpoint in `checkpoint_dir`: committed waves
    /// replay index construction but skip probing. Requires a matching
    /// config/input fingerprint and a valid checkpoint file.
    pub resume: bool,
}

/// What the fault-tolerance layer observed during a successful run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Probes whose pairs are missing from the output because they
    /// panicked even when retried in isolation (ascending ids).
    pub quarantined: Vec<u32>,
    /// Waves skipped because a checkpoint already covered them.
    pub waves_resumed: u64,
    /// Batches that panicked and were re-run probe-by-probe.
    pub batches_retried: u64,
    /// Injected faults the run survived (delays + recovered panics).
    pub faults_injected: u64,
    /// The last committed checkpoint, if checkpointing was on.
    pub checkpoint: Option<PathBuf>,
}

/// Why a self-join ended without a complete result.
#[derive(Debug)]
pub enum JoinError {
    /// The wall-clock deadline expired. Committed waves (and their
    /// checkpoint, when enabled) survive; resume to finish the rest.
    Deadline {
        /// Wall-clock time elapsed when the run gave up.
        elapsed: Duration,
        /// Waves fully processed before the deadline hit.
        completed_waves: usize,
        /// The last committed checkpoint, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
    /// A panic outside the per-batch recovery perimeter (index build,
    /// shard eviction, or checkpoint serialisation) aborted the run.
    Faulted {
        /// The panic message.
        message: String,
        /// The wave being processed when the panic struck.
        wave: usize,
        /// Waves fully committed before the fault.
        completed_waves: usize,
        /// The last committed checkpoint, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
    /// Checkpointing or resuming failed (missing/corrupt file, fingerprint
    /// mismatch, or an I/O error writing the checkpoint).
    Checkpoint(CheckpointError),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Deadline {
                elapsed,
                completed_waves,
                checkpoint,
            } => {
                write!(
                    f,
                    "deadline exceeded after {elapsed:.2?}; {completed_waves} wave(s) completed"
                )?;
                if let Some(path) = checkpoint {
                    write!(f, "; checkpoint at {}", path.display())?;
                }
                Ok(())
            }
            JoinError::Faulted {
                message,
                wave,
                completed_waves,
                checkpoint,
            } => {
                write!(
                    f,
                    "join faulted in wave {wave} ({completed_waves} committed): {message}"
                )?;
                if let Some(path) = checkpoint {
                    write!(f, "; checkpoint at {}", path.display())?;
                }
                Ok(())
            }
            JoinError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Runs the self-join on `threads` worker threads (0 = one per available
/// core). Pairs, probabilities and funnel counters are the same at every
/// thread count.
///
/// This classic API has no error channel: it never checkpoints, ignores
/// any configured deadline, and never returns an incomplete answer. An
/// unrecovered driver-level panic is re-raised as the panic it was, and
/// a probe quarantined by batch-level recovery (it panicked even when
/// retried alone, so its pairs are missing) panics naming the probe ids.
pub fn par_self_join(
    config: JoinConfig,
    sigma: usize,
    strings: &[UncertainString],
    threads: usize,
) -> JoinResult {
    let mut config = config;
    config.deadline = None;
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    match run_self_join(config, sigma, strings, &opts, || NoopRecorder) {
        Ok((result, report, _)) if report.quarantined.is_empty() => result,
        Ok((_, report, _)) => panic!(
            "self-join incomplete: probe(s) {:?} panicked even when retried alone",
            report.quarantined
        ),
        Err(e) => panic!("{e}"),
    }
}

/// The self-join (see the module docs). `make_recorder` builds one
/// recorder per worker per wave (plus one per batch of scratch), so the
/// hot probe loop stays lock-free — no shared sink, no atomics. Worker
/// recorders are folded into one via [`MergeRecorder::absorb`] and
/// returned next to the result; driver-level events (shard builds,
/// residency gauges, wall-clock total) land on the merged recorder.
///
/// On success returns the result (the same at every thread count
/// whenever nothing was quarantined), the [`FaultReport`], and the merged
/// recorder; on deadline/fault/checkpoint failure returns a structured
/// [`JoinError`] that names what survives.
pub fn run_self_join<R, F>(
    config: JoinConfig,
    sigma: usize,
    strings: &[UncertainString],
    opts: &RunOptions,
    make_recorder: F,
) -> Result<(JoinResult, FaultReport, R), JoinError>
where
    R: MergeRecorder + Send,
    F: Fn() -> R + Sync,
{
    assert!(sigma >= 1, "alphabet must be non-empty");
    let total_start = Instant::now();
    // A deadline too far off to represent never passes.
    let deadline = config.deadline.and_then(|d| total_start.checked_add(d));
    let threads = resolve_threads(opts.threads, strings.len());
    let mut merged = make_recorder();
    if opts.resume && opts.checkpoint_dir.is_none() {
        return Err(JoinError::Checkpoint(CheckpointError::Io(
            "resume requires a checkpoint directory".to_string(),
        )));
    }

    let batch_min = config.batch_min.max(1);
    let batch_max = config.batch_max.max(batch_min);
    let plan = plan_waves(strings, &config, threads);
    let WavePlan {
        order,
        groups,
        waves,
    } = &plan;
    // Only checkpoints carry the fingerprint, and it hashes every input
    // probability, so runs without one skip it.
    let run_fp = match opts.checkpoint_dir {
        Some(_) => run_fingerprint(&config, sigma, strings, &plan),
        None => 0,
    };

    let freq_filter = FreqFilter::new(config.k, config.tau, sigma);

    let mut stats = JoinStats {
        num_strings: strings.len(),
        ..Default::default()
    };
    let mut pairs: Vec<SimilarPair> = Vec::new();
    let mut quarantined: Vec<u32> = Vec::new();
    // Resident shard state, rebuilt band by band.
    let mut index = SegmentIndex::new();
    let mut visited: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut profiles: Vec<Option<FreqProfile>> = vec![None; strings.len()];

    // ---- Resume: adopt the committed prefix ---------------------------
    let mut resumed_waves = 0usize;
    let mut last_checkpoint: Option<PathBuf> = None;
    if opts.resume {
        if let Some(dir) = &opts.checkpoint_dir {
            let ck = Checkpoint::load(dir).map_err(JoinError::Checkpoint)?;
            if ck.fingerprint != run_fp {
                return Err(JoinError::Checkpoint(
                    CheckpointError::FingerprintMismatch {
                        checkpoint: ck.fingerprint,
                        run: run_fp,
                    },
                ));
            }
            if ck.completed_waves > waves.len() {
                return Err(JoinError::Checkpoint(CheckpointError::Corrupt(format!(
                    "checkpoint claims {} completed wave(s) but the plan has {}",
                    ck.completed_waves,
                    waves.len()
                ))));
            }
            resumed_waves = ck.completed_waves;
            stats.absorb(&ck.funnel);
            pairs = ck.pairs;
            last_checkpoint = Some(Checkpoint::path_in(dir));
            (&mut stats, &mut merged).counter(Counter::WavesResumed, resumed_waves as u64);
        }
    }

    let mut completed_waves = resumed_waves;
    for (wave_idx, wave) in waves.iter().enumerate() {
        let wave_groups = &groups[wave.clone()];
        let wave_lo = wave_groups[0].0;
        let reach_lo = wave_lo.saturating_sub(config.k);
        let probe_range = wave_groups[0].1.start..wave_groups[wave_groups.len() - 1].1.end;

        // Deadline check between waves (workers re-check per batch below).
        if let Err(Expired) = check(deadline) {
            return Err(JoinError::Deadline {
                elapsed: total_start.elapsed(),
                completed_waves,
                checkpoint: last_checkpoint,
            });
        }

        // ---- Evict shards no remaining probe can reach, then build ----
        // Runs for resumed waves too: later probes need their index,
        // profiles, and visited sets resident. A panic in here (including
        // the `parallel.evict` / `index.build` failpoints) cannot be
        // isolated to one probe, so it aborts the run as a clean
        // `Faulted` error pointing at the last committed checkpoint.
        let build = catching(|| {
            let mut rec = (&mut stats, &mut merged);
            let mut index_span = PhaseGuard::enter(&mut rec, Phase::Index);
            // Failpoint: a crash in shard eviction; a delay that fires is
            // a survived fault.
            if usj_fault::fail_point!("parallel.evict") {
                index_span.rec().counter(Counter::FaultsInjected, 1);
            }
            if config.pipeline.uses_qgram() {
                index.evict_below(reach_lo);
            }
            while let Some(entry) = visited.first_entry() {
                if *entry.key() >= reach_lo {
                    break;
                }
                for id in entry.remove() {
                    profiles[id as usize] = None;
                }
            }
            if config.pipeline.uses_qgram() {
                // The wave's lengths are all new: every resident band is
                // shorter (waves ascend by length and never repeat one).
                let members = wave_groups
                    .iter()
                    .flat_map(|(_, range)| &order[range.clone()])
                    .map(|&id| (id, &strings[id as usize]));
                index.build_bands(members, &config, &mut *index_span.rec().1);
            }
            for (len, range) in wave_groups {
                visited
                    .entry(*len)
                    .or_default()
                    .extend_from_slice(&order[range.clone()]);
            }
            drop(index_span);
            if config.pipeline.uses_freq() {
                let _freq_span = PhaseGuard::enter(&mut rec, Phase::Freq);
                for (_, range) in wave_groups {
                    for &id in &order[range.clone()] {
                        let profile = freq_filter.profile(&strings[id as usize]);
                        profiles[id as usize] = Some(profile);
                    }
                }
            }
            rec.gauge(Gauge::ResidentShards, index.lengths().len() as u64);
            rec.gauge(Gauge::IndexBytes, index.estimated_bytes() as u64);
            rec.gauge(Gauge::PeakIndexBytes, index.peak_bytes() as u64);
            rec.gauge(Gauge::PeakResidentBytes, index.peak_bytes() as u64);
        });
        if let Err(message) = build {
            return Err(JoinError::Faulted {
                message,
                wave: wave_idx,
                completed_waves,
                checkpoint: last_checkpoint,
            });
        }

        // A committed wave's probes are already in `pairs` — only its
        // index state (rebuilt above) was needed.
        if wave_idx < resumed_waves {
            continue;
        }

        // ---- Probe the wave with adaptive work-stealing batches -------
        let probes = &order[probe_range];
        let next = AtomicUsize::new(0);
        let profile_of = |id: u32| {
            profiles[id as usize]
                .as_ref()
                .expect("resident strings have profiles")
        };
        let ctx = WaveCtx {
            funnel: Funnel {
                config: &config,
                strings,
                index: &index,
                by_len: &visited,
                profile_of: &profile_of,
                freq_filter: freq_filter.clone(),
            },
            probes,
            workers: threads.min(probes.len()).max(1),
            batch_min,
            batch_max,
            next: &next,
            deadline,
        };
        let outs: Vec<WorkerOut<R>> = std::thread::scope(|scope| {
            let (ctx, make_recorder) = (&ctx, &make_recorder);
            let spawned: Vec<_> = (1..ctx.workers)
                .map(|_| scope.spawn(move || run_worker(ctx, make_recorder)))
                .collect();
            let mut outs = vec![run_worker(ctx, make_recorder)];
            for handle in spawned {
                outs.push(
                    handle
                        .join()
                        .unwrap_or_else(|payload| resume_unwind(payload)),
                );
            }
            outs
        });
        if outs.iter().any(|out| out.expired) {
            // The wave is incomplete; its partial results are discarded —
            // a resume re-runs the whole wave from the last checkpoint.
            return Err(JoinError::Deadline {
                elapsed: total_start.elapsed(),
                completed_waves,
                checkpoint: last_checkpoint,
            });
        }
        for out in outs {
            pairs.extend(out.pairs);
            let (worker_stats, worker_recorder) = out.rec;
            stats.absorb(&worker_stats);
            quarantined.extend(out.quarantined);
            merged.absorb(worker_recorder);
        }
        completed_waves = wave_idx + 1;

        // ---- Commit the completed prefix ------------------------------
        if let Some(dir) = &opts.checkpoint_dir {
            // Canonical order makes checkpoint bytes independent of
            // worker scheduling (the digest is reproducible).
            pairs.sort_unstable_by_key(|p| (p.left, p.right));
            let ck = Checkpoint {
                fingerprint: run_fp,
                completed_waves,
                funnel: stats.clone(),
                pairs: pairs.clone(),
            };
            match catching(|| ck.save(dir)) {
                Ok(Ok(path)) => last_checkpoint = Some(path),
                Ok(Err(e)) => return Err(JoinError::Checkpoint(e)),
                Err(message) => {
                    // The wave ran but its checkpoint never committed:
                    // report the previous wave count so a resume replays
                    // this wave from the surviving checkpoint.
                    return Err(JoinError::Faulted {
                        message,
                        wave: wave_idx,
                        completed_waves: completed_waves - 1,
                        checkpoint: last_checkpoint,
                    });
                }
            }
        }
    }

    pairs.sort_unstable_by_key(|p| (p.left, p.right));
    quarantined.sort_unstable();
    stats.num_strings = strings.len();
    // The merged recorder already saw one OutputPairs event per probe and
    // each unordered pair surfaced exactly once, so their sum is exactly
    // this count; only the stats view needs the authoritative value.
    stats.output_pairs = pairs.len() as u64;
    let mut rec = (&mut stats, &mut merged);
    rec.gauge(Gauge::IndexBytes, index.estimated_bytes() as u64);
    rec.gauge(Gauge::PeakIndexBytes, index.peak_bytes() as u64);
    rec.gauge(Gauge::PeakResidentBytes, index.peak_bytes() as u64);
    rec.gauge(Gauge::NumStrings, strings.len() as u64);
    // The merged stats carry aggregate work time in `total`; the run
    // reports its wall-clock instead, and the recorder sees one span.
    let elapsed = total_start.elapsed();
    stats.timings.total = elapsed;
    merged.enter_phase(Phase::Total);
    merged.exit_phase(Phase::Total, elapsed);
    let report = FaultReport {
        quarantined,
        waves_resumed: stats.waves_resumed,
        batches_retried: stats.batches_retried,
        faults_injected: stats.faults_injected,
        checkpoint: last_checkpoint,
    };
    Ok((JoinResult { pairs, stats }, report, merged))
}

/// The order a self-join visits strings in and how it cuts them into
/// waves.
struct WavePlan {
    /// String ids in ascending `(length, id)` order.
    order: Vec<u32>,
    /// Length groups (shards-to-be): `(length, range of order)` for each
    /// run of equal length. A group is never split across waves, so a
    /// probe's same-length shard is always fully resident when it runs.
    groups: Vec<(usize, Range<usize>)>,
    /// Each wave as a range of `groups`.
    waves: Vec<Range<usize>>,
}

/// Plans the waves: [`JoinConfig::shard_band`] length groups per wave;
/// 0 = grow each wave until it holds enough probes to hand each of
/// `threads` workers a full batch.
fn plan_waves(strings: &[UncertainString], config: &JoinConfig, threads: usize) -> WavePlan {
    let mut order: Vec<u32> = (0..strings.len() as u32).collect();
    order.sort_by_key(|&i| (strings[i as usize].len(), i));
    let len_at = |i: usize| strings[order[i] as usize].len();
    let mut groups: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = 0usize;
    for i in 1..=order.len() {
        if i == order.len() || len_at(i) != len_at(start) {
            groups.push((len_at(start), start..i));
            start = i;
        }
    }

    let auto_target = threads * config.batch_max.max(config.batch_min).max(1);
    let mut waves: Vec<Range<usize>> = Vec::new();
    let mut g = 0usize;
    while g < groups.len() {
        let mut end = g + 1;
        if config.shard_band == 0 {
            let mut probes = groups[g].1.len();
            while end < groups.len() && probes < auto_target {
                probes += groups[end].1.len();
                end += 1;
            }
        } else {
            end = (g + config.shard_band).min(groups.len());
        }
        waves.push(g..end);
        g = end;
    }
    WavePlan {
        order,
        groups,
        waves,
    }
}

/// One wave's shared state: the read-only shards its probes run against,
/// the work-stealing cursor its workers share and the run's deadline.
struct WaveCtx<'a> {
    /// The resident shards and profiles (each probe's own included), with
    /// the visited ids as the FCT scope.
    funnel: Funnel<'a>,
    /// The wave's probe ids in visit order.
    probes: &'a [u32],
    workers: usize,
    batch_min: usize,
    batch_max: usize,
    next: &'a AtomicUsize,
    deadline: Option<Instant>,
}

/// One batch's scratch: its pairs and its `(stats, recorder)` pair.
type BatchScratch<R> = (Vec<SimilarPair>, (JoinStats, R));

/// What one worker produced in one wave: its pairs, its
/// `(stats, recorder)` pair, the probes it quarantined and whether it
/// stopped on the deadline.
struct WorkerOut<R> {
    pairs: Vec<SimilarPair>,
    rec: (JoinStats, R),
    quarantined: Vec<u32>,
    expired: bool,
}

impl<R: MergeRecorder> WorkerOut<R> {
    /// Adopts the scratch of a batch that completed.
    fn absorb(&mut self, (mut pairs, rec): BatchScratch<R>) {
        self.pairs.append(&mut pairs);
        self.rec.absorb(rec);
    }

    /// Counts a caught panic under `counter`, and as a survived fault when
    /// a failpoint injected it.
    fn count_panic(&mut self, counter: Counter, payload: &(dyn Any + Send)) {
        self.rec.counter(counter, 1);
        if payload.downcast_ref::<InjectedFault>().is_some() {
            self.rec.counter(Counter::FaultsInjected, 1);
        }
    }
}

/// One wave worker: claims batches off the shared cursor until the wave
/// is drained or the deadline trips. A batch that panics is replayed
/// probe by probe so one poisonous probe cannot take its batchmates down
/// with it; a probe that panics alone is quarantined.
fn run_worker<R, F>(ctx: &WaveCtx<'_>, make_recorder: &F) -> WorkerOut<R>
where
    R: MergeRecorder + Send,
    F: Fn() -> R + Sync,
{
    let mut out = WorkerOut {
        pairs: Vec::new(),
        rec: (JoinStats::default(), make_recorder()),
        quarantined: Vec::new(),
        expired: false,
    };
    loop {
        if let Err(Expired) = check(ctx.deadline) {
            out.expired = true;
            break;
        }
        let Some(batch) = grab_batch(
            ctx.next,
            ctx.probes.len(),
            ctx.workers,
            ctx.batch_min,
            ctx.batch_max,
        ) else {
            break;
        };
        out.rec.counter(Counter::StealBatches, 1);
        let ids = &ctx.probes[batch];
        match run_batch_caught(ids, false, ctx, make_recorder) {
            Ok(scratch) => out.absorb(scratch),
            Err(payload) => {
                out.count_panic(Counter::BatchesRetried, &*payload);
                for &id in ids {
                    match run_batch_caught(&[id], true, ctx, make_recorder) {
                        Ok(scratch) => out.absorb(scratch),
                        Err(payload) => {
                            out.count_panic(Counter::ProbesQuarantined, &*payload);
                            out.quarantined.push(id);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Runs `f` with panics caught (hook-silenced via the fault shield) and
/// converted to their message — the driver-level recovery primitive for
/// sections that cannot be isolated per probe.
fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    // AssertUnwindSafe: every caller aborts the run (or discards the
    // scratch wholesale) on Err, so no broken invariant is ever reused.
    shield::shielded(|| catch_unwind(AssertUnwindSafe(f))).map_err(|p| panic_message(&*p))
}

/// Runs one batch of probes against **fresh scratch** (pairs, stats,
/// recorder), returning the scratch on success. On a panic anywhere in
/// the batch the scratch is discarded wholesale — no half-counted funnel
/// counters, no partial pairs — and the payload is returned for the
/// caller to triage (retry, quarantine, count injected faults).
/// `isolated` marks the probe-by-probe retry of a failed batch.
///
/// Each probe runs the wave's [`Funnel`] over lengths `[l − k, l]`, at
/// its own length against lower ids only, and with no deadline: the
/// worker checks [`JoinConfig::deadline`] before every batch, so a
/// probe stays atomic and its counters match at every thread count.
fn run_batch_caught<R, F>(
    ids: &[u32],
    isolated: bool,
    ctx: &WaveCtx<'_>,
    make_recorder: &F,
) -> Result<BatchScratch<R>, Box<dyn Any + Send>>
where
    R: MergeRecorder + Send,
    F: Fn() -> R + Sync,
{
    // AssertUnwindSafe: the closure only reads the shared wave state and
    // writes the scratch it returns; a panic drops the scratch entirely,
    // and one mid-lookup drops the thread's window table with it.
    shield::shielded(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut pairs = Vec::new();
            let mut rec = (JoinStats::default(), make_recorder());
            // Failpoint: a crash taking down a whole batch; a delay that
            // fires is a survived fault.
            if usj_fault::fail_point!("parallel.batch") {
                rec.counter(Counter::FaultsInjected, 1);
            }
            // Failpoint: a probe that fails again when retried alone. Only
            // the retry of a failed batch crosses it, so a plan can poison
            // exactly that batch's probe, whichever worker ran it.
            if isolated && usj_fault::fail_point!("parallel.isolate") {
                rec.counter(Counter::FaultsInjected, 1);
            }
            let funnel = &ctx.funnel;
            let uses_freq = funnel.config.pipeline.uses_freq();
            let mut hits = Vec::new();
            for &probe_id in ids {
                let string = &funnel.strings[probe_id as usize];
                let probe = Probe {
                    string,
                    lengths: string.len().saturating_sub(funnel.config.k)..=string.len(),
                    below: Some(probe_id),
                    // The probe's own profile was computed when its wave
                    // was built.
                    profile: uses_freq.then(|| (funnel.profile_of)(probe_id)),
                };
                rec.probe_start(probe_id);
                // Failpoint: a stuck or crashing probe; a delay that fires
                // is a survived fault.
                if usj_fault::fail_point!("parallel.verify") {
                    rec.counter(Counter::FaultsInjected, 1);
                }
                let out = funnel.probe(&probe, |_| true, Some(&mut hits), None, &mut rec);
                if let Err(Expired) = out {
                    unreachable!("a probe without a deadline expired");
                }
                pairs.extend(hits.drain(..).map(|hit| SimilarPair {
                    left: probe_id.min(hit.id),
                    right: probe_id.max(hit.id),
                    prob: hit.prob,
                }));
                rec.probe_end(probe_id);
            }
            (pairs, rec)
        }))
    })
}

/// Fingerprint of everything that determines the join's output and its
/// wave decomposition: the output-affecting configuration, the alphabet
/// size, the input collection (in visit order), and the wave boundaries.
/// Scheduling knobs (thread count, batch sizes, deadline) are excluded —
/// except insofar as they shaped the wave plan, which is hashed directly,
/// so a resume with an incompatible plan is refused.
fn run_fingerprint(
    config: &JoinConfig,
    sigma: usize,
    strings: &[UncertainString],
    plan: &WavePlan,
) -> u64 {
    let mut h = fold_config(FNV_SEED, config, sigma, strings.len());
    for &id in &plan.order {
        h = fold_string(h, id, &strings[id as usize]);
    }
    h = fold_u64(h, plan.waves.len() as u64);
    for w in &plan.waves {
        h = fold_u64(h, plan.groups[w.start].1.start as u64);
        h = fold_u64(h, plan.groups[w.end - 1].1.end as u64);
    }
    h
}

fn resolve_threads(threads: usize, num_strings: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    // Never spawn more workers than there are probes.
    t.min(num_strings.max(1))
}

/// The batch a worker claims when `remaining` probes are left: a quarter
/// of an even per-worker share, clamped to the configured range. Sizes
/// shrink toward `batch_min` near the tail, where self-join probes are the
/// most expensive (later probes admit strictly more candidates), so no
/// worker is left dragging a large final batch alone.
fn batch_size(remaining: usize, workers: usize, batch_min: usize, batch_max: usize) -> usize {
    (remaining / (workers * 4))
        .clamp(batch_min, batch_max)
        .min(remaining)
}

/// Claims the next batch `[start, end)` off the shared cursor. Batch
/// boundaries depend only on the cursor value — never on which worker
/// claims — so a wave's partition into batches is deterministic and
/// [`Counter::StealBatches`] totals are reproducible across runs.
fn grab_batch(
    next: &AtomicUsize,
    total: usize,
    workers: usize,
    batch_min: usize,
    batch_max: usize,
) -> Option<Range<usize>> {
    // ordering: Relaxed is enough for the cursor — workers communicate
    // only through the claimed ranges themselves (disjoint by CAS), and
    // all result publication happens-before the scope join via the
    // Mutex/spawn edges, not through this atomic.
    let mut cur = next.load(Ordering::Relaxed);
    loop {
        if cur >= total {
            return None;
        }
        let size = batch_size(total - cur, workers, batch_min, batch_max);
        // ordering: same argument as the load above; the CAS only needs
        // atomicity of the claim, not ordering of other memory.
        match next.compare_exchange_weak(cur, cur + size, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(cur..cur + size),
            Err(observed) => cur = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::IndexedCollection;
    use crate::config::Pipeline;
    use crate::join::SimilarityJoin;
    use crate::oracle::oracle_self_join;
    use usj_model::Alphabet;
    use usj_obs::CollectingRecorder;

    /// A checkpoint-free run on `threads` threads with its merged recorder.
    fn run<R, F>(
        config: &JoinConfig,
        strings: &[UncertainString],
        threads: usize,
        make: F,
    ) -> (JoinResult, R)
    where
        R: MergeRecorder + Send,
        F: Fn() -> R + Sync,
    {
        let opts = RunOptions {
            threads,
            ..RunOptions::default()
        };
        let (result, _, recorder) = run_self_join(config.clone(), 4, strings, &opts, make).unwrap();
        (result, recorder)
    }

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn collection() -> Vec<UncertainString> {
        vec![
            dna("ACGTACGT"),
            dna("ACG{(T,0.9),(G,0.1)}ACGT"),
            dna("TTTTTTTT"),
            dna("ACGTACG"),
            dna("{(A,0.6),(C,0.4)}CGTACGT"),
            dna("GGGGGGGG"),
            dna("ACGT"),
            dna("ACGTA"),
        ]
    }

    /// Pairs *and* probabilities must agree to the last bit — the driver's
    /// output contract across thread counts.
    fn assert_bit_identical(a: &JoinResult, b: &JoinResult) {
        let key = |r: &JoinResult| {
            r.pairs
                .iter()
                .map(|p| (p.left, p.right, p.prob.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(a), key(b));
    }

    /// The counters `JoinStats` tracks — the funnel and fault counts that
    /// must be invariant under thread count and wave plan.
    fn counters(s: &JoinStats) -> Vec<u64> {
        Counter::ALL
            .iter()
            .filter_map(|&c| s.counter_value(c))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let strings = collection();
        for pipeline in Pipeline::all() {
            for early_stop in [false, true] {
                let config = JoinConfig::new(2, 0.5)
                    .with_pipeline(pipeline)
                    .with_early_stop(early_stop)
                    .with_batch_range(1, 2);
                let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
                for threads in [2, 3, 8] {
                    let par = par_self_join(config.clone(), 4, &strings, threads);
                    assert_bit_identical(&par, &seq);
                    assert_eq!(
                        counters(&par.stats),
                        counters(&seq.stats),
                        "{pipeline:?} early_stop={early_stop} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_single_and_one_thread_runs() {
        let config = JoinConfig::new(1, 0.4);
        let (res, rec) = run(&config, &[], 4, CollectingRecorder::new);
        assert!(res.pairs.is_empty());
        assert_eq!(res.stats.num_strings, 0);
        assert_eq!(rec.probes(), 0);

        let single = vec![dna("ACGT")];
        let res = par_self_join(config.clone(), 4, &single, 4);
        assert!(res.pairs.is_empty());
        assert_eq!(res.stats.num_strings, 1);

        // The one-thread classic wrapper and a one-thread run agree on
        // output *and* counters.
        let strings = collection();
        let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
        let par = par_self_join(config.clone(), 4, &strings, 1);
        assert_bit_identical(&par, &seq);
        assert_eq!(counters(&par.stats), counters(&seq.stats));

        // threads = 0 resolves to the machine's parallelism.
        let par = par_self_join(config, 4, &strings, 0);
        assert_bit_identical(&par, &seq);
    }

    #[test]
    fn more_threads_than_strings() {
        let strings = vec![dna("ACGT"), dna("ACGA"), dna("ACG")];
        let config = JoinConfig::new(1, 0.4);
        let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
        let par = par_self_join(config, 4, &strings, 16);
        assert_bit_identical(&par, &seq);
    }

    #[test]
    fn batch_partition_is_deterministic_and_adaptive() {
        // Drain a 100-probe wave single-threadedly: the partition the CAS
        // loop produces depends only on the cursor, so this simulation is
        // exactly what any worker interleaving produces.
        let next = AtomicUsize::new(0);
        let mut covered = Vec::new();
        let mut sizes = Vec::new();
        while let Some(batch) = grab_batch(&next, 100, 4, 1, 8) {
            sizes.push(batch.len());
            covered.extend(batch);
        }
        // Disjoint, complete, in order.
        assert_eq!(covered, (0..100).collect::<Vec<_>>());
        assert!(sizes.iter().all(|&s| (1..=8).contains(&s)), "{sizes:?}");
        // Adaptive: large batches up front, batch_min at the tail.
        assert!(sizes[0] > *sizes.last().unwrap(), "{sizes:?}");
        assert_eq!(*sizes.last().unwrap(), 1);

        // batch_size respects its bounds and never overshoots the end.
        assert_eq!(batch_size(100, 2, 1, 8), 8);
        assert_eq!(batch_size(3, 4, 1, 8), 1);
        assert_eq!(batch_size(5, 100, 4, 8), 4);
        assert_eq!(batch_size(2, 1, 4, 8), 2);
    }

    /// Per-worker recorder used by the load-balance regression test: the
    /// driver absorbs one of these per batch of scratch and per worker,
    /// so only the *totals* are meaningful — which is exactly what the
    /// test pins.
    #[derive(Default)]
    struct WorkerLog {
        probes: u64,
        batches: u64,
    }

    impl Recorder for WorkerLog {
        fn probe_start(&mut self, _probe_id: u32) {
            self.probes += 1;
        }
        fn counter(&mut self, counter: Counter, delta: u64) {
            if counter == Counter::StealBatches {
                self.batches += delta;
            }
        }
    }

    impl MergeRecorder for WorkerLog {
        fn absorb(&mut self, other: Self) {
            self.probes += other.probes;
            self.batches += other.batches;
        }
    }

    #[test]
    fn work_stealing_covers_every_probe_with_expected_batches() {
        // 24 strings of one length: a single group, hence a single wave,
        // so the batch partition is the one simulated below.
        let syms = ['A', 'C', 'G', 'T'];
        let strings: Vec<UncertainString> = (0..24)
            .map(|i| {
                let text: String = (0..6).map(|j| syms[(i + j) % 4]).collect();
                dna(&text)
            })
            .collect();
        let threads = 3;
        let config = JoinConfig::new(1, 0.5)
            .with_batch_range(1, 2)
            .with_shard_band(1);
        let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
        let (par, log) = run(&config, &strings, threads, WorkerLog::default);
        assert_bit_identical(&par, &seq);

        // Every probe ran exactly once, across all workers combined.
        assert_eq!(log.probes, 24);

        // The batch count is deterministic: replay the cursor arithmetic.
        let next = AtomicUsize::new(0);
        let mut expected = 0u64;
        while grab_batch(&next, 24, threads, 1, 2).is_some() {
            expected += 1;
        }
        assert_eq!(log.batches, expected);
        assert!(
            expected >= threads as u64,
            "enough batches to feed every worker: {expected}"
        );
    }

    #[test]
    fn banded_waves_bound_resident_index_memory() {
        // Strings spread over lengths 4..=16 so the full index dwarfs the
        // [l-k, l] band a wave keeps resident.
        let syms = ['A', 'C', 'G', 'T'];
        let mut strings = Vec::new();
        for len in 4usize..=16 {
            for copy in 0..3 {
                let text: String = (0..len).map(|i| syms[(i + copy) % 4]).collect();
                strings.push(dna(&text));
            }
        }
        let config = JoinConfig::new(1, 0.3).with_shard_band(1);
        let full = IndexedCollection::build(config.clone(), 4, strings.clone()).index_bytes();
        let (par, sink) = run(&config, &strings, 2, CollectingRecorder::new);
        let peak = sink.gauge_max(Gauge::PeakResidentBytes) as usize;
        assert!(peak > 0);
        assert!(
            peak < full,
            "peak resident bytes ({peak}) must undercut the full index ({full})"
        );
        // A band of one length plus its k-reach keeps at most 2 shards.
        assert!(sink.gauge_max(Gauge::ResidentShards) <= 2);

        // With shard_band = 1 the wave plan, and so every eviction point,
        // is the same at one thread, so the peaks agree exactly.
        let seq = SimilarityJoin::new(config, 4).self_join(&strings);
        assert_bit_identical(&par, &seq);
        assert_eq!(par.stats.peak_index_bytes, seq.stats.peak_index_bytes);
        assert_eq!(peak, par.stats.peak_index_bytes);

        // The merged recorder and the stats view tell one story.
        assert_eq!(sink.probes(), 39);
        assert_eq!(
            sink.counter_total(Counter::OutputPairs),
            par.stats.output_pairs
        );
    }

    #[test]
    fn empty_strings_surface_in_every_pipeline_and_driver() {
        let strings = vec![
            UncertainString::empty(),
            dna("A"),
            UncertainString::empty(),
            dna("AC"),
            dna("ACG"),
        ];
        for k in [0usize, 1] {
            let oracle = oracle_self_join(&strings, k, 0.3);
            let opairs: Vec<(u32, u32)> = oracle.iter().map(|p| (p.left, p.right)).collect();
            assert!(opairs.contains(&(0, 2)), "k={k}: empty/empty pair expected");
            for pipeline in Pipeline::all() {
                let config = JoinConfig::new(k, 0.3).with_pipeline(pipeline);
                let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
                let spairs: Vec<(u32, u32)> = seq.pairs.iter().map(|p| (p.left, p.right)).collect();
                assert_eq!(spairs, opairs, "{pipeline:?} k={k}");
                let par = par_self_join(config, 4, &strings, 2);
                assert_bit_identical(&par, &seq);
            }
        }
    }

    #[test]
    fn fingerprint_separates_config_input_and_plan() {
        let strings = collection();
        let fp = |config: &JoinConfig, strings: &[UncertainString], threads: usize| {
            run_fingerprint(config, 4, strings, &plan_waves(strings, config, threads))
        };
        let base = JoinConfig::new(2, 0.5).with_shard_band(1);
        let a = fp(&base, &strings, 2);
        // Deterministic.
        assert_eq!(a, fp(&base, &strings, 2));
        // Output-affecting knobs move it.
        assert_ne!(
            a,
            fp(&JoinConfig::new(1, 0.5).with_shard_band(1), &strings, 2)
        );
        assert_ne!(a, fp(&base.clone().with_early_stop(false), &strings, 2));
        // The input moves it.
        let mut fewer = strings.clone();
        fewer.pop();
        assert_ne!(a, fp(&base, &fewer, 2));
        // The wave plan moves it.
        assert_ne!(a, fp(&base.clone().with_shard_band(2), &strings, 2));
        // Pure scheduling knobs do not.
        assert_eq!(a, fp(&base.clone().with_batch_range(4, 64), &strings, 2));
        assert_eq!(
            a,
            fp(
                &base.clone().with_deadline(Some(Duration::from_secs(5))),
                &strings,
                2
            )
        );
    }

    /// A later same-length string that overflows the instance cap must
    /// not mark the segment incomplete for earlier probes: TTTTTT shares
    /// no segment with ACGTAC, so the count condition prunes it.
    #[test]
    fn later_over_cap_string_does_not_widen_earlier_probes() {
        let strings = vec![
            dna("TTTTTT"),
            dna("ACGTAC"),
            dna("{(A,0.3),(C,0.3),(G,0.4)}{(A,0.5),(C,0.5)}GTAC"),
        ];
        let mut config = JoinConfig::new(1, 0.3);
        config.max_segment_instances = 2;
        for threads in [1, 2, 3] {
            let (res, _) = run(&config, &strings, threads, || NoopRecorder);
            let s = &res.stats;
            assert_eq!(
                [s.pairs_in_scope, s.qgram_survivors, s.qgram_pruned_count],
                [3, 2, 1],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn randomized_differential_with_segment_over_cap() {
        for seed in [7u64, 99] {
            // 32 strings of length 0..=8 over sigma = 4.
            let mut rng = usj_model::rng::Rng::new(seed);
            let strings: Vec<UncertainString> = (0..32)
                .map(|_| usj_model::rng::random_string(&mut rng, 4, 0..9, 2))
                .collect();
            let oracle = oracle_self_join(&strings, 2, 0.3);
            let opairs: Vec<(u32, u32)> = oracle.iter().map(|p| (p.left, p.right)).collect();
            for pipeline in Pipeline::all() {
                for early_stop in [false, true] {
                    let mut config = JoinConfig::new(2, 0.3)
                        .with_pipeline(pipeline)
                        .with_early_stop(early_stop)
                        .with_batch_range(1, 2);
                    // Tiny cap: probes with uncertain positions overflow
                    // their segment equivalent sets, exercising the
                    // incomplete (conservative surfacing) path.
                    config.max_segment_instances = 2;
                    let seq = SimilarityJoin::new(config.clone(), 4).self_join(&strings);
                    let spairs: Vec<(u32, u32)> =
                        seq.pairs.iter().map(|p| (p.left, p.right)).collect();
                    assert_eq!(spairs, opairs, "seed={seed} {pipeline:?}");
                    if !early_stop {
                        // Exact mode reports exact probabilities.
                        for (s, o) in seq.pairs.iter().zip(&oracle) {
                            assert!((s.prob - o.prob).abs() < 1e-9);
                        }
                    }
                    let mut seen = Vec::new();
                    for threads in [2, 3] {
                        let par = par_self_join(config.clone(), 4, &strings, threads);
                        assert_bit_identical(&par, &seq);
                        seen.push(counters(&par.stats));
                    }
                    // Funnel counters are thread-count invariant.
                    assert_eq!(seen[0], seen[1]);
                    assert_eq!(seen[0], counters(&seq.stats));
                }
            }
        }
    }
}
