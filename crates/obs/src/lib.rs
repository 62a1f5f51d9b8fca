//! `usj-obs` — dependency-free tracing & metrics for the join pipeline.
//!
//! Every figure of the paper is a plot of *internal* pipeline quantities
//! (per-phase survivors, per-phase wall-clock, verification cost, peak
//! index memory). This crate is the single instrumentation substrate those
//! numbers flow through:
//!
//! * [`Recorder`] — the event sink trait. Drivers emit **spans**
//!   ([`Recorder::enter_phase`] / [`Recorder::exit_phase`]), **counters**
//!   ([`Recorder::counter`]) and **gauges** ([`Recorder::gauge`]), bracketed
//!   per probe by [`Recorder::probe_start`] / [`Recorder::probe_end`].
//!   Dispatch is static: generic drivers monomorphise per recorder type, so
//!   the default [`NoopRecorder`] compiles to nothing on the hot path.
//! * [`CollectingRecorder`] — aggregates events into log₂-bucketed
//!   per-probe latency and candidate-count histograms (p50/p90/p99/max per
//!   phase) plus per-phase prune-attribution counters, and serialises the
//!   snapshot as schema-stable JSON ([`CollectingRecorder::to_json`]) with
//!   no serde. It is the sink for one run, and for each request of a service.
//! * [`TraceRecorder`] — one event line per probe to any `io::Write`
//!   (the CLI's `--trace` wires it to stderr).
//! * [`ChromeTraceRecorder`] — the same event stream rendered as Chrome
//!   trace-event JSON ([`SpanId`]/parent-id causal tree, loadable in
//!   Perfetto or `chrome://tracing`).
//! * [`MetricsRegistry`] — a long-running service's one aggregate
//!   (`usj-serve`): the folded request recorders plus the per-length-band
//!   candidate funnel, rendered both as the golden-schema JSON and in
//!   Prometheus text exposition format.
//! * [`json`] — the workspace's JSON writer and parser.
//!
//! Recorders compose: a 2-tuple of recorders is itself a recorder, so
//! `(CollectingRecorder, TraceRecorder)` collects and traces in one pass.
//! [`MergeRecorder`] supports the lock-free parallel join: one recorder per
//! worker, absorbed into a single snapshot at the end.
//!
//! # Trace ids and span nesting
//!
//! An end-to-end **trace id** (a nonzero `u64`, minted by the serve
//! client and carried over the wire as 16 lowercase hex digits) names one
//! request across process boundaries. [`Recorder::set_trace_id`] stamps
//! it on a sink; sinks that render causal output ([`TraceRecorder`],
//! [`ChromeTraceRecorder`]) attach it to every line/span they emit.
//! Within a trace, spans form a tree of [`SpanId`]s: each probe span is
//! the parent of the phase spans opened while it is active, so a slow
//! PROBE can be followed from the client call down to the exact CDF-bound
//! DP that ate the deadline.
//!
//! This crate is **std-only by design** — the build environment cannot
//! reach crates.io, and nothing here needs more than the standard library.

#![warn(missing_docs)]

mod chrome;
mod collect;
mod histogram;
pub mod json;
mod registry;
mod trace;

pub use chrome::ChromeTraceRecorder;
pub use collect::CollectingRecorder;
pub use histogram::Log2Histogram;
pub use json::JsonWriter;
pub use registry::{band_label, band_of, MetricsRegistry, FUNNEL_BANDS, FUNNEL_STAGES};
pub use trace::TraceRecorder;

use std::time::{Duration, Instant};

/// Identifies one span within a trace. Span ids are allocated per sink
/// (high bits: sink/thread lane, low bits: a monotonic counter) so spans
/// from parallel workers never collide after a [`MergeRecorder::absorb`].
/// [`SpanId::ROOT`] (zero) is the parent of top-level spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The implicit parent of top-level spans; never allocated to a span.
    pub const ROOT: SpanId = SpanId(0);
}

/// Declares the event taxonomy. Each enum below is one table, and each row
/// declares one event kind once: its doc comment, its variant and its
/// stable snake_case name. The macro derives the enum, `ALL` (every
/// variant, in serialisation order), `index()` and `name()` from the rows,
/// so a row's position is its dense index and its place in every JSON
/// snapshot and Prometheus scrape.
macro_rules! metric_table {
    ($(
        $(#[$meta:meta])*
        pub enum $kind:ident {
            $($(#[$row_meta:meta])* $variant:ident => $name:literal,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $kind {
            $($(#[$row_meta])* $variant,)*
        }

        impl $kind {
            /// Every variant, in serialisation order.
            pub const ALL: [$kind; [$($name),*].len()] = [$($kind::$variant),*];

            /// Dense index into per-variant arrays.
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name used in JSON snapshots and trace lines.
            pub const fn name(self) -> &'static str {
                match self {
                    $($kind::$variant => $name,)*
                }
            }
        }
    )*};
}

metric_table! {
    /// Pipeline phases, mirroring `PhaseTimings` in `usj-core`.
    pub enum Phase {
        /// Segment inverted-index querying + Lemma 5 / Theorem 2 pruning.
        Qgram => "qgram",
        /// Frequency-distance filtering (Lemma 6 + Theorem 3).
        Freq => "freq",
        /// CDF-bound DP (Theorem 4).
        Cdf => "cdf",
        /// Exact verification (trie / naive).
        Verify => "verify",
        /// Inserting probes into the segment index.
        Index => "index",
        /// The whole driver run (join, or one search when probing a standing
        /// collection).
        Total => "total",
    }

    /// Monotone event counters. `JoinStats` in `usj-core` tracks 17 of
    /// them: the 13 funnel counters (`PairsInScope` through `OutputPairs`)
    /// and the 4 fault counters (`FaultsInjected` through `WavesResumed`).
    /// The rest (index, scheduler, serve and snapshot internals) only
    /// richer recorders keep.
    pub enum Counter {
        /// Length-compatible pairs considered at all (the FCT pool).
        PairsInScope => "pairs_in_scope",
        /// Pairs surviving q-gram filtering.
        QgramSurvivors => "qgram_survivors",
        /// Pairs pruned by the Lemma 5 count condition.
        QgramPrunedCount => "qgram_pruned_count",
        /// Pairs pruned by the Theorem 2 probabilistic upper bound.
        QgramPrunedBound => "qgram_pruned_bound",
        /// Pairs surviving frequency-distance filtering.
        FreqSurvivors => "freq_survivors",
        /// Pairs pruned by the Lemma 6 lower bound.
        FreqPrunedLower => "freq_pruned_lower",
        /// Pairs pruned by the Theorem 3 Chebyshev bound.
        FreqPrunedChebyshev => "freq_pruned_chebyshev",
        /// Pairs accepted outright by the CDF lower bound.
        CdfAccepted => "cdf_accepted",
        /// Pairs rejected by the CDF upper bound.
        CdfRejected => "cdf_rejected",
        /// Pairs the CDF bounds left undecided (sent to verification).
        CdfUndecided => "cdf_undecided",
        /// Verified pairs found similar.
        VerifiedSimilar => "verified_similar",
        /// Verified pairs found dissimilar.
        VerifiedDissimilar => "verified_dissimilar",
        /// Output pairs reported.
        OutputPairs => "output_pairs",
        /// Strings inserted into the segment inverted indices.
        IndexInsertions => "index_insertions",
        /// Postings `(id, Pr)` touched while merging posting lists.
        IndexPostingsScanned => "index_postings_scanned",
        /// Candidate α-vectors surfaced by posting-list merges. Under the
        /// q-gram stage's Lemma 5 walk, only ids touched in segments
        /// `0..=k` get a row (all admitted ids when a segment is over cap).
        IndexCandidatesSurfaced => "index_candidates_surfaced",
        /// Probe-side q-gram window worlds enumerated (each window once per
        /// probe and index, and only for segments a query walks).
        QgramWindowWorlds => "qgram_window_worlds",
        /// Enumerated window worlds whose instance had an interned id (the
        /// rest can match no posting and are dropped).
        QgramInstancesResolved => "qgram_instances_resolved",
        /// Posting-run lookups, hits and misses: one per segment walked
        /// and resolved world of that segment's windows.
        IndexRunLookups => "index_run_lookups",
        /// Per-probe verifier constructions.
        VerifierBuilds => "verifier_builds",
        /// Verified pairs accepted on their single most probable world
        /// pair, before any trie walk (early stop only).
        VerifyTopPairAccepts => "verify_top_pair_accepts",
        /// Work-stealing batches grabbed by parallel workers (one per
        /// successful cursor advance, so totals reflect scheduler granularity).
        StealBatches => "steal_batches",
        /// Injected faults the run survived (delays absorbed plus panics
        /// recovered by batch isolation); faults that abort the run are
        /// reported through the error path, not counted here.
        FaultsInjected => "faults_injected",
        /// Work-stealing batches that panicked and were re-run probe-by-probe.
        BatchesRetried => "batches_retried",
        /// Probes quarantined after panicking even in isolated retry.
        ProbesQuarantined => "probes_quarantined",
        /// Length-band waves skipped on `--resume` because a checkpoint
        /// already covered them.
        WavesResumed => "waves_resumed",
        /// Connections admitted into the query server's bounded queue.
        ServeAccepted => "serve_accepted",
        /// Probe requests answered through the full exact pipeline.
        ServeFull => "serve_full",
        /// Probe requests answered in degraded (filter-only) mode: the
        /// q-gram + frequency-distance funnel without CDF/verification, a
        /// sound superset of the exact answer flagged `DEGRADED` on the wire.
        ServeDegraded => "serve_degraded",
        /// Requests shed with `BUSY` (admission queue full).
        ServeShed => "serve_shed",
        /// Probe requests refused because their per-request deadline expired
        /// mid-pipeline (partial results are discarded, never served).
        ServeDeadline => "serve_deadline",
        /// Worker panics isolated by the server's `catch_unwind` perimeter;
        /// the poisoned request gets `ERR`, the listener survives.
        ServePanics => "serve_panics",
        /// Hedged second requests the coordinator dispatched after a shard
        /// stayed silent past the p99-based hedge delay.
        HedgesSent => "hedges_sent",
        /// Hedged requests that answered before the primary (first answer
        /// wins; the loser's connection is dropped).
        HedgesWon => "hedges_won",
        /// Shard quarantine transitions (consecutive-failure threshold hit);
        /// readmissions after half-open recovery do not decrement.
        ShardsQuarantined => "shards_quarantined",
        /// Scatter-gather responses served from a subset of the relevant
        /// shards (degraded mode only; strict mode refuses instead).
        PartialResponses => "partial_responses",
        /// Length bands admitted straight from an on-disk snapshot during a
        /// salvage load (rung 2 of the recovery ladder); a fully verified
        /// load counts zero.
        SnapshotBandsSalvaged => "snapshot_bands_salvaged",
        /// Length bands rebuilt from source records because their snapshot
        /// section was corrupt, missing, or failed salvage (rungs 2 and 4).
        SnapshotBandsRebuilt => "snapshot_bands_rebuilt",
        /// Checksum/structure defects detected while loading a snapshot
        /// (bit flips, truncations, garbage sections).
        SnapshotCorruptionsDetected => "snapshot_corruptions_detected",
        /// Server starts that answered from a snapshot (verified or
        /// salvaged) instead of a cold rebuild.
        WarmRestarts => "warm_restarts",
    }

    /// Point-in-time measurements; aggregation over a run takes the maximum.
    pub enum Gauge {
        /// Estimated current segment-index footprint in bytes.
        IndexBytes => "index_bytes",
        /// Peak estimated segment-index footprint in bytes (the Fig 7 metric).
        PeakIndexBytes => "peak_index_bytes",
        /// Strings in the collection(s) under join.
        NumStrings => "num_strings",
        /// Length shards currently resident in the sharded parallel driver.
        ResidentShards => "resident_shards",
        /// Peak bytes of simultaneously-resident shard indices (the sharded
        /// driver's analogue of [`Gauge::PeakIndexBytes`]).
        PeakResidentBytes => "peak_resident_bytes",
        /// Peak depth of the query server's bounded admission queue.
        ServeQueueDepth => "serve_queue_depth",
        /// Healthy (non-quarantined) shards behind the coordinator. Folded
        /// with max semantics like every gauge, so a snapshot reports the
        /// peak healthy count; the live per-shard view is the `SHARDS` verb.
        ShardHealthy => "shard_healthy",
        /// Age in seconds of the snapshot the server started from (mtime at
        /// load), or absent after a cold start.
        SnapshotAgeSeconds => "snapshot_age_seconds",
    }
}

/// Sink for pipeline events. All methods default to no-ops so sinks only
/// implement what they consume; dispatch is static (generic, not `dyn`),
/// so a no-op sink costs nothing after inlining.
pub trait Recorder {
    /// A probe's work begins (one probe = one string queried against the
    /// index). Events until the matching [`Recorder::probe_end`] belong to
    /// this probe.
    fn probe_start(&mut self, probe_id: u32) {
        let _ = probe_id;
    }

    /// The probe's work is complete; per-probe aggregates may be flushed.
    fn probe_end(&mut self, probe_id: u32) {
        let _ = probe_id;
    }

    /// A phase span opens. Spans of the same phase may open several times
    /// within one probe (e.g. one CDF evaluation per candidate); sinks
    /// aggregate per probe.
    fn enter_phase(&mut self, phase: Phase) {
        let _ = phase;
    }

    /// A phase span closes after `elapsed`. Always paired with
    /// [`Recorder::enter_phase`]; the driver measures the duration so
    /// deterministic tests can replay fixed timings.
    fn exit_phase(&mut self, phase: Phase, elapsed: Duration) {
        let _ = (phase, elapsed);
    }

    /// `counter` increased by `delta` (possibly 0 — a zero delta still
    /// marks the counter as observed for per-probe histograms).
    fn counter(&mut self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// `gauge` measured at `value`.
    fn gauge(&mut self, gauge: Gauge, value: u64) {
        let _ = (gauge, value);
    }

    /// Associates subsequent events with an end-to-end trace id (see the
    /// crate docs). Zero means "untraced" and is the default; sinks that
    /// do not render causal output ignore this.
    fn set_trace_id(&mut self, trace_id: u64) {
        let _ = trace_id;
    }
}

/// RAII phase span: opens `phase` on construction, closes it (with the
/// measured wall-clock) when dropped — on *every* path out of the scope,
/// including early `return` and `?`. The `span-paired` tidy lint flags
/// manual [`Recorder::enter_phase`]/[`Recorder::exit_phase`] pairs with
/// early exits between them; this guard is the sanctioned fix.
#[derive(Debug)]
pub struct PhaseGuard<'a, R: Recorder> {
    rec: &'a mut R,
    phase: Phase,
    start: Instant,
}

impl<'a, R: Recorder> PhaseGuard<'a, R> {
    /// Opens a `phase` span on `rec`.
    pub fn enter(rec: &'a mut R, phase: Phase) -> Self {
        rec.enter_phase(phase);
        PhaseGuard {
            rec,
            phase,
            start: Instant::now(),
        }
    }

    /// The guarded recorder, for events emitted inside the span.
    pub fn rec(&mut self) -> &mut R {
        self.rec
    }
}

impl<R: Recorder> Drop for PhaseGuard<'_, R> {
    fn drop(&mut self) {
        self.rec.exit_phase(self.phase, self.start.elapsed());
    }
}

/// The default sink: discards everything. With this recorder the
/// instrumented drivers compile to exactly their un-instrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

impl MergeRecorder for NoopRecorder {
    fn absorb(&mut self, _other: Self) {}
}

/// A recorder whose per-worker instances can be folded into one — the
/// parallel join gives each worker its own recorder (keeping the hot loop
/// lock-free) and absorbs them after the scope joins.
pub trait MergeRecorder: Recorder {
    /// Folds `other`'s observations into `self`.
    fn absorb(&mut self, other: Self);
}

/// Recorders compose by tupling: every event is forwarded to both halves
/// (e.g. collect a snapshot *and* trace to stderr in one pass).
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    fn probe_start(&mut self, probe_id: u32) {
        self.0.probe_start(probe_id);
        self.1.probe_start(probe_id);
    }

    fn probe_end(&mut self, probe_id: u32) {
        self.0.probe_end(probe_id);
        self.1.probe_end(probe_id);
    }

    fn enter_phase(&mut self, phase: Phase) {
        self.0.enter_phase(phase);
        self.1.enter_phase(phase);
    }

    fn exit_phase(&mut self, phase: Phase, elapsed: Duration) {
        self.0.exit_phase(phase, elapsed);
        self.1.exit_phase(phase, elapsed);
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        self.0.counter(counter, delta);
        self.1.counter(counter, delta);
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        self.0.gauge(gauge, value);
        self.1.gauge(gauge, value);
    }

    fn set_trace_id(&mut self, trace_id: u64) {
        self.0.set_trace_id(trace_id);
        self.1.set_trace_id(trace_id);
    }
}

impl<A: MergeRecorder, B: MergeRecorder> MergeRecorder for (A, B) {
    fn absorb(&mut self, other: Self) {
        self.0.absorb(other.0);
        self.1.absorb(other.1);
    }
}

/// `&mut R` forwards to `R`, so drivers can hand a reborrowed recorder to
/// helpers without consuming it.
impl<R: Recorder> Recorder for &mut R {
    fn probe_start(&mut self, probe_id: u32) {
        (**self).probe_start(probe_id);
    }

    fn probe_end(&mut self, probe_id: u32) {
        (**self).probe_end(probe_id);
    }

    fn enter_phase(&mut self, phase: Phase) {
        (**self).enter_phase(phase);
    }

    fn exit_phase(&mut self, phase: Phase, elapsed: Duration) {
        (**self).exit_phase(phase, elapsed);
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        (**self).counter(counter, delta);
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        (**self).gauge(gauge, value);
    }

    fn set_trace_id(&mut self, trace_id: u64) {
        (**self).set_trace_id(trace_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_indices_are_dense_and_names_unique() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len(), "{names:?}");
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let mut r = NoopRecorder;
        r.probe_start(0);
        r.enter_phase(Phase::Qgram);
        r.exit_phase(Phase::Qgram, Duration::from_nanos(5));
        r.counter(Counter::PairsInScope, 3);
        r.gauge(Gauge::IndexBytes, 100);
        r.probe_end(0);
        let mut copy = r;
        copy.absorb(r);
    }

    #[test]
    fn tuple_recorder_forwards_to_both() {
        let mut pair = (CollectingRecorder::new(), CollectingRecorder::new());
        pair.probe_start(1);
        pair.counter(Counter::OutputPairs, 2);
        pair.probe_end(1);
        assert_eq!(pair.0.counter_total(Counter::OutputPairs), 2);
        assert_eq!(pair.1.counter_total(Counter::OutputPairs), 2);
        assert_eq!(pair.0.probes(), 1);
        assert_eq!(pair.1.probes(), 1);
    }

    #[test]
    fn phase_guard_closes_span_on_early_return() {
        fn body(rec: &mut CollectingRecorder, bail: bool) -> Option<u32> {
            let mut guard = PhaseGuard::enter(rec, Phase::Cdf);
            guard.rec().counter(Counter::CdfUndecided, 1);
            if bail {
                return None; // guard still exits the phase
            }
            Some(7)
        }
        let mut rec = CollectingRecorder::new();
        assert_eq!(body(&mut rec, true), None);
        assert_eq!(body(&mut rec, false), Some(7));
        assert_eq!(rec.phase_histogram(Phase::Cdf).count(), 2);
        assert_eq!(rec.counter_total(Counter::CdfUndecided), 2);
    }

    #[test]
    fn mut_ref_forwards() {
        // Generic over R so the call monomorphises against the blanket
        // `impl Recorder for &mut R` rather than auto-dereferencing.
        fn feed<R: Recorder>(mut r: R) {
            r.counter(Counter::CdfAccepted, 7);
            r.gauge(Gauge::NumStrings, 4);
        }
        let mut c = CollectingRecorder::new();
        feed(&mut c);
        assert_eq!(c.counter_total(Counter::CdfAccepted), 7);
        assert_eq!(c.gauge_max(Gauge::NumStrings), 4);
    }
}
