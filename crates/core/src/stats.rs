//! Per-phase statistics collected while answering a join query.
//!
//! The paper's figures plot exactly these quantities: candidates surviving
//! each filter (Fig 2, Fig 5), per-phase filtering time vs total time
//! (Fig 2, Fig 3), verification time (Fig 8), and peak index memory
//! (Fig 7).
//!
//! Since the observability refactor, `JoinStats` is a **view over
//! recorded events**: the drivers emit every counter, gauge, and phase
//! span through [`crate::record::Recording`], which applies each event to
//! this struct ([`JoinStats::apply_counter`], [`JoinStats::apply_gauge`],
//! [`PhaseTimings::add`]) and forwards it to the attached
//! [`usj_obs::Recorder`]. Nothing updates these fields directly anymore,
//! so the self-join and search paths cannot drift apart in their
//! bookkeeping.

use std::time::Duration;

use usj_obs::{Counter, Gauge, Phase};

/// Wall-clock time spent in each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Querying the segment inverted indices (window enumeration, set
    /// assembly, posting walks) + the Lemma 5 count and Theorem 2 bound.
    /// Building the indices is `index`.
    pub qgram: Duration,
    /// Frequency-distance filtering: building the frequency profiles,
    /// then Lemma 6 + Theorem 3 per candidate.
    pub freq: Duration,
    /// CDF-bound DP.
    pub cdf: Duration,
    /// Exact verification.
    pub verify: Duration,
    /// Inserting strings into the segment index and evicting the bands
    /// no later probe reaches (part of filtering overhead).
    pub index: Duration,
    /// Whole join. For a single driver run this is wall-clock; when stats
    /// are merged ([`JoinStats::absorb`]) it is the *sum* of the parts'
    /// totals (aggregate work time), and the driver overwrites it with
    /// the true wall-clock before returning.
    pub total: Duration,
}

impl PhaseTimings {
    /// Total filtering time (everything except verification).
    pub fn filtering(&self) -> Duration {
        self.qgram + self.freq + self.cdf + self.index
    }

    /// Adds `elapsed` to the slot for `phase` (the event-application hook
    /// used by [`crate::record::Recording`]).
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        match phase {
            Phase::Qgram => self.qgram += elapsed,
            Phase::Freq => self.freq += elapsed,
            Phase::Cdf => self.cdf += elapsed,
            Phase::Verify => self.verify += elapsed,
            Phase::Index => self.index += elapsed,
            Phase::Total => self.total += elapsed,
        }
    }

    /// The slot for `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        match phase {
            Phase::Qgram => self.qgram,
            Phase::Freq => self.freq,
            Phase::Cdf => self.cdf,
            Phase::Verify => self.verify,
            Phase::Index => self.index,
            Phase::Total => self.total,
        }
    }
}

/// Counters and timings for one join (or search) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinStats {
    /// Strings in the collection.
    pub num_strings: usize,
    /// Length-compatible pairs the join had to consider at all
    /// (`Σ_R |{S visited : ||R|−|S|| ≤ k}|`); the FCT candidate pool.
    pub pairs_in_scope: u64,
    /// Pairs surviving q-gram filtering (Lemma 5 count condition and
    /// Theorem 2 bound); equals `pairs_in_scope` when q-grams are off.
    pub qgram_survivors: u64,
    /// Pairs pruned by the Lemma 5 count condition (insufficient matching
    /// segments / never surfaced by the index).
    pub qgram_pruned_count: u64,
    /// Pairs pruned by the Theorem 2 probabilistic upper bound.
    pub qgram_pruned_bound: u64,
    /// Pairs surviving frequency-distance filtering.
    pub freq_survivors: u64,
    /// Pairs pruned by Lemma 6 (fd lower bound > k).
    pub freq_pruned_lower: u64,
    /// Pairs pruned by Theorem 3 (Chebyshev bound ≤ τ).
    pub freq_pruned_chebyshev: u64,
    /// Pairs accepted outright by the CDF lower bound (no verification).
    pub cdf_accepted: u64,
    /// Pairs rejected by the CDF upper bound.
    pub cdf_rejected: u64,
    /// Pairs left undecided by the CDF bounds (sent to verification).
    pub cdf_undecided: u64,
    /// Verified pairs found similar.
    pub verified_similar: u64,
    /// Verified pairs found dissimilar (the verification false-positive
    /// count the paper tracks in §7.2).
    pub verified_dissimilar: u64,
    /// Total output pairs.
    pub output_pairs: u64,
    /// Injected faults the run survived (delays absorbed + panics
    /// recovered by batch isolation); faults that abort the run surface
    /// through the error path instead.
    pub faults_injected: u64,
    /// Work-stealing batches that panicked and were re-run probe-by-probe
    /// by the fault-tolerant driver.
    pub batches_retried: u64,
    /// Probes quarantined after panicking even in isolated retry (their
    /// pairs are absent from the output).
    pub probes_quarantined: u64,
    /// Length-band waves skipped on resume because a checkpoint already
    /// covered them.
    pub waves_resumed: u64,
    /// Estimated current index size in bytes at the end of the run.
    pub index_bytes: usize,
    /// Peak estimated index size (the paper's Fig 7 memory metric; expired
    /// lengths are dropped as the scan advances).
    pub peak_index_bytes: usize,
    /// Wall-clock breakdown.
    pub timings: PhaseTimings,
}

impl JoinStats {
    /// Candidates that reached exact verification.
    pub fn verified_pairs(&self) -> u64 {
        self.verified_similar + self.verified_dissimilar
    }

    /// Applies one counter event (the [`crate::record::Recording`] hook).
    /// Counters outside the `JoinStats` vocabulary (index/verifier
    /// internals tracked only by richer recorders) are ignored.
    pub fn apply_counter(&mut self, counter: Counter, delta: u64) {
        if let Some(field) = self.counter_mut(counter) {
            *field += delta;
        }
    }

    /// The field `counter` events land in, if `JoinStats` tracks it.
    pub(crate) fn counter_mut(&mut self, counter: Counter) -> Option<&mut u64> {
        Some(match counter {
            Counter::PairsInScope => &mut self.pairs_in_scope,
            Counter::QgramSurvivors => &mut self.qgram_survivors,
            Counter::QgramPrunedCount => &mut self.qgram_pruned_count,
            Counter::QgramPrunedBound => &mut self.qgram_pruned_bound,
            Counter::FreqSurvivors => &mut self.freq_survivors,
            Counter::FreqPrunedLower => &mut self.freq_pruned_lower,
            Counter::FreqPrunedChebyshev => &mut self.freq_pruned_chebyshev,
            Counter::CdfAccepted => &mut self.cdf_accepted,
            Counter::CdfRejected => &mut self.cdf_rejected,
            Counter::CdfUndecided => &mut self.cdf_undecided,
            Counter::VerifiedSimilar => &mut self.verified_similar,
            Counter::VerifiedDissimilar => &mut self.verified_dissimilar,
            Counter::OutputPairs => &mut self.output_pairs,
            Counter::FaultsInjected => &mut self.faults_injected,
            Counter::BatchesRetried => &mut self.batches_retried,
            Counter::ProbesQuarantined => &mut self.probes_quarantined,
            Counter::WavesResumed => &mut self.waves_resumed,
            Counter::IndexInsertions
            | Counter::IndexPostingsScanned
            | Counter::IndexCandidatesSurfaced
            | Counter::QgramWindowWorlds
            | Counter::QgramInstancesResolved
            | Counter::IndexRunLookups
            | Counter::VerifierBuilds
            | Counter::StealBatches
            | Counter::ServeAccepted
            | Counter::ServeFull
            | Counter::ServeDegraded
            | Counter::ServeShed
            | Counter::ServeDeadline
            | Counter::ServePanics
            | Counter::HedgesSent
            | Counter::HedgesWon
            | Counter::ShardsQuarantined
            | Counter::PartialResponses
            | Counter::SnapshotBandsSalvaged
            | Counter::SnapshotBandsRebuilt
            | Counter::SnapshotCorruptionsDetected
            | Counter::WarmRestarts => return None,
        })
    }

    /// Applies one gauge event (the [`crate::record::Recording`] hook).
    pub fn apply_gauge(&mut self, gauge: Gauge, value: u64) {
        match gauge {
            Gauge::IndexBytes => self.index_bytes = value as usize,
            Gauge::PeakIndexBytes => {
                self.peak_index_bytes = self.peak_index_bytes.max(value as usize)
            }
            Gauge::NumStrings => self.num_strings = value as usize,
            // Sharded-driver residency and server queue gauges live only
            // in richer recorders; the flat view keeps the classic
            // memory fields.
            Gauge::ResidentShards
            | Gauge::PeakResidentBytes
            | Gauge::ServeQueueDepth
            | Gauge::ShardHealthy
            | Gauge::SnapshotAgeSeconds => {}
        }
    }

    /// Accumulates another run's counters and timings into this one, used
    /// when a join is a sequence of searches (the cross-collection join)
    /// or a merge of per-worker partial runs (the parallel join).
    ///
    /// Merge rules:
    /// * counters and per-phase timings **sum** (they measure work done);
    /// * `timings.total` also **sums** — the merged value is aggregate
    ///   work time, which the driver overwrites with wall-clock before
    ///   returning (so a caller-visible `total` is always wall-clock);
    /// * the memory gauges `index_bytes`/`peak_index_bytes` take the
    ///   **max** (parallel workers observe the same shared index; a
    ///   sequence of searches reports its high-water mark);
    /// * `output_pairs` sums (each search reports its own hits); drivers
    ///   overwrite it with the final deduplicated count;
    /// * `num_strings` is left to the caller, which knows the collection.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.output_pairs += other.output_pairs;
        self.pairs_in_scope += other.pairs_in_scope;
        self.qgram_survivors += other.qgram_survivors;
        self.qgram_pruned_count += other.qgram_pruned_count;
        self.qgram_pruned_bound += other.qgram_pruned_bound;
        self.freq_survivors += other.freq_survivors;
        self.freq_pruned_lower += other.freq_pruned_lower;
        self.freq_pruned_chebyshev += other.freq_pruned_chebyshev;
        self.cdf_accepted += other.cdf_accepted;
        self.cdf_rejected += other.cdf_rejected;
        self.cdf_undecided += other.cdf_undecided;
        self.verified_similar += other.verified_similar;
        self.verified_dissimilar += other.verified_dissimilar;
        self.faults_injected += other.faults_injected;
        self.batches_retried += other.batches_retried;
        self.probes_quarantined += other.probes_quarantined;
        self.waves_resumed += other.waves_resumed;
        self.index_bytes = self.index_bytes.max(other.index_bytes);
        self.peak_index_bytes = self.peak_index_bytes.max(other.peak_index_bytes);
        self.timings.qgram += other.timings.qgram;
        self.timings.freq += other.timings.freq;
        self.timings.cdf += other.timings.cdf;
        self.timings.verify += other.timings.verify;
        self.timings.index += other.timings.index;
        self.timings.total += other.timings.total;
    }

    /// One-line human-readable summary (used by the experiment harness).
    pub fn summary(&self) -> String {
        format!(
            "n={} scope={} qgram→{} freq→{} cdf(acc={}, rej={}, und={}) verify(sim={}, dis={}) out={} [filter {:.1?}, verify {:.1?}, total {:.1?}]",
            self.num_strings,
            self.pairs_in_scope,
            self.qgram_survivors,
            self.freq_survivors,
            self.cdf_accepted,
            self.cdf_rejected,
            self.cdf_undecided,
            self.verified_similar,
            self.verified_dissimilar,
            self.output_pairs,
            self.timings.filtering(),
            self.timings.verify,
            self.timings.total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_time_is_sum_of_phases() {
        let t = PhaseTimings {
            qgram: Duration::from_millis(5),
            freq: Duration::from_millis(3),
            cdf: Duration::from_millis(2),
            verify: Duration::from_millis(100),
            index: Duration::from_millis(1),
            total: Duration::from_millis(111),
        };
        assert_eq!(t.filtering(), Duration::from_millis(11));
    }

    #[test]
    fn summary_mentions_counts() {
        let stats = JoinStats {
            num_strings: 7,
            output_pairs: 3,
            ..Default::default()
        };
        let s = stats.summary();
        assert!(s.contains("n=7"));
        assert!(s.contains("out=3"));
    }

    #[test]
    fn phase_add_and_get_round_trip() {
        let mut t = PhaseTimings::default();
        for (i, p) in Phase::ALL.iter().enumerate() {
            t.add(*p, Duration::from_millis(1 + i as u64));
            t.add(*p, Duration::from_millis(1));
            assert_eq!(t.get(*p), Duration::from_millis(2 + i as u64));
        }
    }

    #[test]
    fn counter_events_update_matching_fields() {
        let mut s = JoinStats::default();
        s.apply_counter(Counter::PairsInScope, 10);
        s.apply_counter(Counter::PairsInScope, 5);
        s.apply_counter(Counter::CdfRejected, 2);
        s.apply_counter(Counter::OutputPairs, 1);
        // Obs-only counters leave JoinStats untouched.
        s.apply_counter(Counter::IndexPostingsScanned, 99);
        s.apply_counter(Counter::VerifierBuilds, 99);
        assert_eq!(s.pairs_in_scope, 15);
        assert_eq!(s.cdf_rejected, 2);
        assert_eq!(s.output_pairs, 1);
        assert_eq!(
            s,
            JoinStats {
                pairs_in_scope: 15,
                cdf_rejected: 2,
                output_pairs: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn gauge_events_set_and_peak() {
        let mut s = JoinStats::default();
        s.apply_gauge(Gauge::IndexBytes, 100);
        s.apply_gauge(Gauge::PeakIndexBytes, 120);
        s.apply_gauge(Gauge::IndexBytes, 40);
        s.apply_gauge(Gauge::PeakIndexBytes, 90); // peak never regresses
        s.apply_gauge(Gauge::NumStrings, 7);
        assert_eq!(s.index_bytes, 40);
        assert_eq!(s.peak_index_bytes, 120);
        assert_eq!(s.num_strings, 7);
    }

    #[test]
    fn absorb_sums_work_and_maxes_memory() {
        let mut a = JoinStats {
            pairs_in_scope: 10,
            cdf_undecided: 2,
            index_bytes: 100,
            peak_index_bytes: 150,
            timings: PhaseTimings {
                qgram: Duration::from_millis(3),
                total: Duration::from_millis(10),
                ..Default::default()
            },
            ..Default::default()
        };
        let b = JoinStats {
            pairs_in_scope: 5,
            cdf_undecided: 1,
            index_bytes: 120,
            peak_index_bytes: 130,
            timings: PhaseTimings {
                qgram: Duration::from_millis(2),
                total: Duration::from_millis(4),
                ..Default::default()
            },
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.pairs_in_scope, 15);
        assert_eq!(a.cdf_undecided, 3);
        // Memory gauges take the max, not the sum (workers share one index).
        assert_eq!(a.index_bytes, 120);
        assert_eq!(a.peak_index_bytes, 150);
        // Work timings sum, including total (aggregate work time).
        assert_eq!(a.timings.qgram, Duration::from_millis(5));
        assert_eq!(a.timings.total, Duration::from_millis(14));
    }
}
