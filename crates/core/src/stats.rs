//! Per-phase statistics collected while answering a join query.
//!
//! The paper's figures plot exactly these quantities: candidates surviving
//! each filter (Fig 2, Fig 5), per-phase filtering time vs total time
//! (Fig 2, Fig 3), verification time (Fig 8), and peak index memory
//! (Fig 7).
//!
//! `JoinStats` is itself a [`Recorder`]: a **view over recorded events**.
//! The drivers emit every counter, gauge and phase span onto the pair
//! `(stats, recorder)`, which forwards each event to both halves. A
//! tracked counter lands in its field through one map (`tracked_counters!`
//! below), a gauge sets a memory or size field, and a closed span adds to
//! its [`PhaseTimings`] slot. Beside that stream the drivers only assign
//! what a merge of events cannot get right: the deduplicated
//! `output_pairs`, the wall-clock `timings.total` and a search's static
//! index sizes. So the self-join and search paths cannot drift apart in
//! their bookkeeping.

use std::time::Duration;

use usj_obs::{Counter, Gauge, MergeRecorder, Phase, Recorder};

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

    /// Adds `elapsed` to the slot for `phase` (where a closed span lands).
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

/// The counters `JoinStats` tracks, each with the field its events land
/// in: the one map behind [`JoinStats::counter_value`], the recorder's
/// counter events and [`JoinStats::absorb`]. Every other [`Counter`] is
/// ignored.
macro_rules! tracked_counters {
    ($($counter:ident => $field:ident,)*) => {
        impl JoinStats {
            /// The value of `counter`, if `JoinStats` tracks it.
            pub(crate) fn counter_value(&self, counter: Counter) -> Option<u64> {
                match counter {
                    $(Counter::$counter => Some(self.$field),)*
                    _ => None,
                }
            }

            /// The field `counter` events land in, if `JoinStats` tracks it.
            fn counter_mut(&mut self, counter: Counter) -> Option<&mut u64> {
                match counter {
                    $(Counter::$counter => Some(&mut self.$field),)*
                    _ => None,
                }
            }
        }
    };
}

tracked_counters! {
    PairsInScope => pairs_in_scope,
    QgramSurvivors => qgram_survivors,
    QgramPrunedCount => qgram_pruned_count,
    QgramPrunedBound => qgram_pruned_bound,
    FreqSurvivors => freq_survivors,
    FreqPrunedLower => freq_pruned_lower,
    FreqPrunedChebyshev => freq_pruned_chebyshev,
    CdfAccepted => cdf_accepted,
    CdfRejected => cdf_rejected,
    CdfUndecided => cdf_undecided,
    VerifiedSimilar => verified_similar,
    VerifiedDissimilar => verified_dissimilar,
    OutputPairs => output_pairs,
    FaultsInjected => faults_injected,
    BatchesRetried => batches_retried,
    ProbesQuarantined => probes_quarantined,
    WavesResumed => waves_resumed,
}

impl JoinStats {
    /// Candidates that reached exact verification.
    pub fn verified_pairs(&self) -> u64 {
        self.verified_similar + self.verified_dissimilar
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
        for counter in Counter::ALL {
            if let Some(value) = other.counter_value(counter) {
                self.counter(counter, value);
            }
        }
        self.index_bytes = self.index_bytes.max(other.index_bytes);
        self.peak_index_bytes = self.peak_index_bytes.max(other.peak_index_bytes);
        for phase in Phase::ALL {
            self.timings.add(phase, other.timings.get(phase));
        }
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

/// `JoinStats` as an event sink: tracked counters add to their fields,
/// closed spans add to their phase slot, and gauges set the memory and
/// size fields. The peak index gauge never regresses; the residency,
/// queue, shard and snapshot gauges live only in richer recorders.
impl Recorder for JoinStats {
    fn exit_phase(&mut self, phase: Phase, elapsed: Duration) {
        self.timings.add(phase, elapsed);
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        if let Some(field) = self.counter_mut(counter) {
            *field += delta;
        }
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        match gauge {
            Gauge::IndexBytes => self.index_bytes = value as usize,
            Gauge::PeakIndexBytes => {
                self.peak_index_bytes = self.peak_index_bytes.max(value as usize)
            }
            Gauge::NumStrings => self.num_strings = value as usize,
            Gauge::ResidentShards
            | Gauge::PeakResidentBytes
            | Gauge::ServeQueueDepth
            | Gauge::ShardHealthy
            | Gauge::SnapshotAgeSeconds => {}
        }
    }
}

impl MergeRecorder for JoinStats {
    fn absorb(&mut self, other: Self) {
        JoinStats::absorb(self, &other);
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
        s.counter(Counter::PairsInScope, 10);
        s.counter(Counter::PairsInScope, 5);
        s.counter(Counter::CdfRejected, 2);
        s.counter(Counter::OutputPairs, 1);
        // Obs-only counters leave JoinStats untouched.
        s.counter(Counter::IndexPostingsScanned, 99);
        s.counter(Counter::VerifierBuilds, 99);
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
        s.gauge(Gauge::IndexBytes, 100);
        s.gauge(Gauge::PeakIndexBytes, 120);
        s.gauge(Gauge::IndexBytes, 40);
        s.gauge(Gauge::PeakIndexBytes, 90); // peak never regresses
        s.gauge(Gauge::NumStrings, 7);
        assert_eq!(s.index_bytes, 40);
        assert_eq!(s.peak_index_bytes, 120);
        assert_eq!(s.num_strings, 7);
    }

    /// The drivers' event pattern on a `(stats, recorder)` pair: both
    /// views see the same tracked counters and phase spans, `JoinStats`
    /// ignores what it does not track, the peak gauge never regresses, and
    /// the driver's final wall-clock assignment replaces the merged
    /// aggregate `total` while the recorder sees one `total` span.
    #[test]
    fn events_update_stats_and_recorder_in_lockstep() {
        use usj_obs::{CollectingRecorder, PhaseGuard};
        let mut rec = (JoinStats::default(), CollectingRecorder::new());
        rec.probe_start(0);
        {
            let mut span = PhaseGuard::enter(&mut rec, Phase::Qgram);
            span.rec().counter(Counter::PairsInScope, 4);
            span.rec().counter(Counter::QgramSurvivors, 2);
            span.rec().counter(Counter::IndexPostingsScanned, 9);
        }
        rec.counter(Counter::FaultsInjected, 1);
        rec.counter(Counter::StealBatches, 3);
        rec.probe_end(0);
        rec.gauge(Gauge::PeakIndexBytes, 512);
        rec.gauge(Gauge::PeakIndexBytes, 100);
        rec.gauge(Gauge::ResidentShards, 7);

        let (mut stats, mut sink) = rec;
        let mut tracked = 0;
        for counter in Counter::ALL {
            if let Some(value) = stats.counter_value(counter) {
                assert_eq!(value, sink.counter_total(counter), "{counter:?}");
                tracked += 1;
            }
        }
        assert_eq!(tracked, 17);
        // Untracked counters and gauges reach only the recorder.
        assert_eq!(sink.counter_total(Counter::IndexPostingsScanned), 9);
        assert_eq!(sink.counter_total(Counter::StealBatches), 3);
        assert_eq!(sink.gauge_max(Gauge::ResidentShards), 7);
        assert_eq!(
            stats,
            JoinStats {
                pairs_in_scope: 4,
                qgram_survivors: 2,
                faults_injected: 1,
                peak_index_bytes: 512,
                timings: stats.timings,
                ..Default::default()
            }
        );
        assert_eq!(
            stats.timings.qgram.as_nanos() as u64,
            sink.phase_total_ns(Phase::Qgram)
        );
        assert_eq!(sink.probes(), 1);

        // A merged part carries aggregate work time in `total`; the
        // driver assigns the wall-clock over it.
        stats.absorb(&JoinStats {
            timings: PhaseTimings {
                total: Duration::from_secs(99),
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(stats.timings.total, Duration::from_secs(99));
        let wall = Duration::from_millis(5);
        stats.timings.total = wall;
        sink.enter_phase(Phase::Total);
        sink.exit_phase(Phase::Total, wall);
        assert_eq!(stats.timings.total, wall);
        assert_eq!(sink.phase_total_ns(Phase::Total), 5_000_000);
    }

    #[test]
    fn absorb_sums_work_and_maxes_memory() {
        let mut a = JoinStats {
            pairs_in_scope: 10,
            cdf_undecided: 2,
            batches_retried: 1,
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
            batches_retried: 2,
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
        assert_eq!(a.batches_retried, 3);
        // Memory gauges take the max, not the sum (workers share one index).
        assert_eq!(a.index_bytes, 120);
        assert_eq!(a.peak_index_bytes, 150);
        // Work timings sum, including total (aggregate work time).
        assert_eq!(a.timings.qgram, Duration::from_millis(5));
        assert_eq!(a.timings.total, Duration::from_millis(14));
    }
}
