//! Aggregating recorder: per-probe histograms + run-level counters.

use std::time::Duration;

use crate::histogram::Log2Histogram;
use crate::json::JsonWriter;
use crate::{Counter, Gauge, MergeRecorder, Phase, Recorder};

const NUM_PHASES: usize = Phase::ALL.len();
const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_GAUGES: usize = Gauge::ALL.len();

/// Schema version stamped into every snapshot; bump when the JSON layout
/// changes shape (key renames/removals — pure additions keep the version).
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// Aggregates pipeline events into a queryable, serialisable snapshot:
///
/// * run-level totals for every [`Counter`] (prune attribution per phase)
///   and max for every [`Gauge`];
/// * per-probe **latency histograms** per phase (all spans of a phase
///   within one probe sum to one sample, log₂-bucketed);
/// * per-probe **magnitude histograms** per counter (e.g. candidates in
///   scope per probe), so the snapshot answers "how skewed are probes?"
///   and not just "how much total work?".
///
/// Spans observed outside a probe bracket (e.g. the driver's whole-run
/// `total` span) contribute one sample directly.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectingRecorder {
    probes: u64,
    counters: [u64; NUM_COUNTERS],
    gauges: [u64; NUM_GAUGES],
    phase_total_ns: [u64; NUM_PHASES],
    phase_hist: [Log2Histogram; NUM_PHASES],
    counter_hist: [Log2Histogram; NUM_COUNTERS],
    // Scratch for the probe currently in flight.
    in_probe: bool,
    cur_phase_ns: [u64; NUM_PHASES],
    cur_phase_seen: [bool; NUM_PHASES],
    cur_counter: [u64; NUM_COUNTERS],
    cur_counter_seen: [bool; NUM_COUNTERS],
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        CollectingRecorder {
            probes: 0,
            counters: [0; NUM_COUNTERS],
            gauges: [0; NUM_GAUGES],
            phase_total_ns: [0; NUM_PHASES],
            phase_hist: std::array::from_fn(|_| Log2Histogram::new()),
            counter_hist: std::array::from_fn(|_| Log2Histogram::new()),
            in_probe: false,
            cur_phase_ns: [0; NUM_PHASES],
            cur_phase_seen: [false; NUM_PHASES],
            cur_counter: [0; NUM_COUNTERS],
            cur_counter_seen: [false; NUM_COUNTERS],
        }
    }
}

impl CollectingRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        CollectingRecorder::default()
    }

    /// Probes observed (`probe_start`/`probe_end` brackets).
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Run-level total for one counter.
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Largest value observed for one gauge.
    pub fn gauge_max(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.index()]
    }

    /// Total nanoseconds spent in one phase across the run.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.phase_total_ns[phase.index()]
    }

    /// Per-probe latency histogram for one phase.
    pub fn phase_histogram(&self, phase: Phase) -> &Log2Histogram {
        &self.phase_hist[phase.index()]
    }

    /// Per-probe magnitude histogram for one counter.
    pub fn counter_histogram(&self, counter: Counter) -> &Log2Histogram {
        &self.counter_hist[counter.index()]
    }

    /// Serialises the snapshot as pretty-printed JSON. The layout is
    /// schema-stable (fixed keys, fixed order — pinned by a golden test):
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "probes": <u64>,
    ///   "counters": { "<counter>": <u64>, … },
    ///   "gauges": { "<gauge>": <u64>, … },
    ///   "phases": {
    ///     "<phase>": { "probes", "total_ns", "p50_ns", "p90_ns",
    ///                   "p99_ns", "max_ns" }, …
    ///   },
    ///   "per_probe": {
    ///     "<counter>": { "probes", "sum", "p50", "p90", "p99", "max" }, …
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.field_u64("schema_version", SNAPSHOT_SCHEMA_VERSION);
        w.field_u64("probes", self.probes);
        w.begin_object("counters");
        for c in Counter::ALL {
            w.field_u64(c.name(), self.counters[c.index()]);
        }
        w.end_object();
        w.begin_object("gauges");
        for g in Gauge::ALL {
            w.field_u64(g.name(), self.gauges[g.index()]);
        }
        w.end_object();
        w.begin_object("phases");
        for p in Phase::ALL {
            let h = &self.phase_hist[p.index()];
            w.begin_object(p.name());
            w.field_u64("probes", h.count());
            w.field_u64("total_ns", self.phase_total_ns[p.index()]);
            w.field_u64("p50_ns", h.quantile(0.50));
            w.field_u64("p90_ns", h.quantile(0.90));
            w.field_u64("p99_ns", h.quantile(0.99));
            w.field_u64("max_ns", h.max());
            w.end_object();
        }
        w.end_object();
        w.begin_object("per_probe");
        for c in Counter::ALL {
            let h = &self.counter_hist[c.index()];
            w.begin_object(c.name());
            w.field_u64("probes", h.count());
            w.field_u64("sum", h.sum());
            w.field_u64("p50", h.quantile(0.50));
            w.field_u64("p90", h.quantile(0.90));
            w.field_u64("p99", h.quantile(0.99));
            w.field_u64("max", h.max());
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    fn flush_probe(&mut self) {
        for i in 0..NUM_PHASES {
            if self.cur_phase_seen[i] {
                self.phase_hist[i].record(self.cur_phase_ns[i]);
            }
            self.cur_phase_ns[i] = 0;
            self.cur_phase_seen[i] = false;
        }
        for i in 0..NUM_COUNTERS {
            if self.cur_counter_seen[i] {
                self.counter_hist[i].record(self.cur_counter[i]);
            }
            self.cur_counter[i] = 0;
            self.cur_counter_seen[i] = false;
        }
    }
}

impl Recorder for CollectingRecorder {
    fn probe_start(&mut self, _probe_id: u32) {
        // A dangling open probe (driver bailed early) is flushed rather
        // than leaked into the next probe's scratch.
        if self.in_probe {
            self.flush_probe();
            self.probes += 1;
        }
        self.in_probe = true;
    }

    fn probe_end(&mut self, _probe_id: u32) {
        if self.in_probe {
            self.flush_probe();
            self.probes += 1;
            self.in_probe = false;
        }
    }

    fn exit_phase(&mut self, phase: Phase, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let i = phase.index();
        self.phase_total_ns[i] = self.phase_total_ns[i].saturating_add(ns);
        if self.in_probe {
            self.cur_phase_ns[i] = self.cur_phase_ns[i].saturating_add(ns);
            self.cur_phase_seen[i] = true;
        } else {
            self.phase_hist[i].record(ns);
        }
    }

    fn counter(&mut self, counter: Counter, delta: u64) {
        let i = counter.index();
        // Saturating, like the phase totals: an absurd delta must not
        // panic (debug) or wrap (release) the snapshot.
        self.counters[i] = self.counters[i].saturating_add(delta);
        if self.in_probe {
            self.cur_counter[i] = self.cur_counter[i].saturating_add(delta);
            self.cur_counter_seen[i] = true;
        } else {
            self.counter_hist[i].record(delta);
        }
    }

    fn gauge(&mut self, gauge: Gauge, value: u64) {
        let i = gauge.index();
        self.gauges[i] = self.gauges[i].max(value);
    }
}

impl MergeRecorder for CollectingRecorder {
    fn absorb(&mut self, mut other: Self) {
        if other.in_probe {
            other.flush_probe();
            other.probes += 1;
        }
        self.probes += other.probes;
        for i in 0..NUM_COUNTERS {
            self.counters[i] = self.counters[i].saturating_add(other.counters[i]);
            self.counter_hist[i].merge(&other.counter_hist[i]);
        }
        for i in 0..NUM_GAUGES {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
        for i in 0..NUM_PHASES {
            self.phase_total_ns[i] = self.phase_total_ns[i].saturating_add(other.phase_total_ns[i]);
            self.phase_hist[i].merge(&other.phase_hist[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic event sequence: two probes plus one out-of-probe
    /// total span, with fixed durations.
    fn scripted() -> CollectingRecorder {
        let mut r = CollectingRecorder::new();
        r.probe_start(0);
        r.enter_phase(Phase::Qgram);
        r.exit_phase(Phase::Qgram, Duration::from_nanos(100));
        r.counter(Counter::PairsInScope, 4);
        r.counter(Counter::QgramSurvivors, 2);
        r.counter(Counter::CdfUndecided, 2);
        r.enter_phase(Phase::Verify);
        r.exit_phase(Phase::Verify, Duration::from_nanos(700));
        r.enter_phase(Phase::Verify);
        r.exit_phase(Phase::Verify, Duration::from_nanos(300));
        r.counter(Counter::VerifiedSimilar, 1);
        r.counter(Counter::VerifiedDissimilar, 1);
        r.probe_end(0);
        r.probe_start(1);
        r.counter(Counter::PairsInScope, 0);
        r.enter_phase(Phase::Qgram);
        r.exit_phase(Phase::Qgram, Duration::from_nanos(50));
        r.probe_end(1);
        r.gauge(Gauge::IndexBytes, 1000);
        r.gauge(Gauge::IndexBytes, 400);
        r.gauge(Gauge::PeakIndexBytes, 1200);
        r.exit_phase(Phase::Total, Duration::from_nanos(2000));
        r
    }

    #[test]
    fn per_probe_spans_aggregate_within_probe() {
        let r = scripted();
        assert_eq!(r.probes(), 2);
        // The two verify spans of probe 0 fused into one 1000ns sample.
        let verify = r.phase_histogram(Phase::Verify);
        assert_eq!(verify.count(), 1);
        assert_eq!(verify.max(), 1000);
        assert_eq!(r.phase_total_ns(Phase::Verify), 1000);
        // Qgram was seen by both probes.
        assert_eq!(r.phase_histogram(Phase::Qgram).count(), 2);
        assert_eq!(r.phase_total_ns(Phase::Qgram), 150);
        // The out-of-probe total span became a direct sample.
        assert_eq!(r.phase_histogram(Phase::Total).count(), 1);
        assert_eq!(r.phase_histogram(Phase::Total).max(), 2000);
    }

    #[test]
    fn counters_total_and_per_probe() {
        let r = scripted();
        assert_eq!(r.counter_total(Counter::PairsInScope), 4);
        let h = r.counter_histogram(Counter::PairsInScope);
        // Probe 0 saw 4, probe 1 saw an explicit 0.
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 4);
        assert_eq!(h.quantile(0.5), 0);
        // A counter never touched has no per-probe samples.
        assert_eq!(r.counter_histogram(Counter::CdfRejected).count(), 0);
    }

    #[test]
    fn gauges_keep_max() {
        let r = scripted();
        assert_eq!(r.gauge_max(Gauge::IndexBytes), 1000);
        assert_eq!(r.gauge_max(Gauge::PeakIndexBytes), 1200);
        assert_eq!(r.gauge_max(Gauge::NumStrings), 0);
    }

    #[test]
    fn absorb_merges_workers() {
        let mut a = scripted();
        let b = scripted();
        a.absorb(b);
        assert_eq!(a.probes(), 4);
        assert_eq!(a.counter_total(Counter::PairsInScope), 8);
        assert_eq!(a.phase_total_ns(Phase::Verify), 2000);
        assert_eq!(a.phase_histogram(Phase::Verify).count(), 2);
        assert_eq!(a.gauge_max(Gauge::IndexBytes), 1000);
    }

    #[test]
    fn absorb_flushes_dangling_probe() {
        let mut a = CollectingRecorder::new();
        let mut b = CollectingRecorder::new();
        b.probe_start(9);
        b.counter(Counter::OutputPairs, 3);
        a.absorb(b);
        assert_eq!(a.probes(), 1);
        assert_eq!(a.counter_histogram(Counter::OutputPairs).count(), 1);
    }

    /// Golden test: the snapshot serialisation of a fixed event script is
    /// pinned byte-for-byte. If this test fails you changed the snapshot
    /// schema — bump [`SNAPSHOT_SCHEMA_VERSION`] and update the golden
    /// text deliberately.
    #[test]
    fn golden_snapshot_json() {
        let got = scripted().to_json();
        let want = r#"{
  "schema_version": 1,
  "probes": 2,
  "counters": {
    "pairs_in_scope": 4,
    "qgram_survivors": 2,
    "qgram_pruned_count": 0,
    "qgram_pruned_bound": 0,
    "freq_survivors": 0,
    "freq_pruned_lower": 0,
    "freq_pruned_chebyshev": 0,
    "cdf_accepted": 0,
    "cdf_rejected": 0,
    "cdf_undecided": 2,
    "verified_similar": 1,
    "verified_dissimilar": 1,
    "output_pairs": 0,
    "index_insertions": 0,
    "index_postings_scanned": 0,
    "index_candidates_surfaced": 0,
    "qgram_window_worlds": 0,
    "qgram_instances_resolved": 0,
    "index_run_lookups": 0,
    "verifier_builds": 0,
    "verify_top_pair_accepts": 0,
    "steal_batches": 0,
    "faults_injected": 0,
    "batches_retried": 0,
    "probes_quarantined": 0,
    "waves_resumed": 0,
    "serve_accepted": 0,
    "serve_full": 0,
    "serve_degraded": 0,
    "serve_shed": 0,
    "serve_deadline": 0,
    "serve_panics": 0,
    "hedges_sent": 0,
    "hedges_won": 0,
    "shards_quarantined": 0,
    "partial_responses": 0,
    "snapshot_bands_salvaged": 0,
    "snapshot_bands_rebuilt": 0,
    "snapshot_corruptions_detected": 0,
    "warm_restarts": 0
  },
  "gauges": {
    "index_bytes": 1000,
    "peak_index_bytes": 1200,
    "num_strings": 0,
    "resident_shards": 0,
    "peak_resident_bytes": 0,
    "serve_queue_depth": 0,
    "shard_healthy": 0,
    "snapshot_age_seconds": 0
  },
  "phases": {
    "qgram": {
      "probes": 2,
      "total_ns": 150,
      "p50_ns": 63,
      "p90_ns": 100,
      "p99_ns": 100,
      "max_ns": 100
    },
    "freq": {
      "probes": 0,
      "total_ns": 0,
      "p50_ns": 0,
      "p90_ns": 0,
      "p99_ns": 0,
      "max_ns": 0
    },
    "cdf": {
      "probes": 0,
      "total_ns": 0,
      "p50_ns": 0,
      "p90_ns": 0,
      "p99_ns": 0,
      "max_ns": 0
    },
    "verify": {
      "probes": 1,
      "total_ns": 1000,
      "p50_ns": 1000,
      "p90_ns": 1000,
      "p99_ns": 1000,
      "max_ns": 1000
    },
    "index": {
      "probes": 0,
      "total_ns": 0,
      "p50_ns": 0,
      "p90_ns": 0,
      "p99_ns": 0,
      "max_ns": 0
    },
    "total": {
      "probes": 1,
      "total_ns": 2000,
      "p50_ns": 2000,
      "p90_ns": 2000,
      "p99_ns": 2000,
      "max_ns": 2000
    }
  },
  "per_probe": {
    "pairs_in_scope": {
      "probes": 2,
      "sum": 4,
      "p50": 0,
      "p90": 4,
      "p99": 4,
      "max": 4
    },
    "qgram_survivors": {
      "probes": 1,
      "sum": 2,
      "p50": 2,
      "p90": 2,
      "p99": 2,
      "max": 2
    },
    "qgram_pruned_count": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "qgram_pruned_bound": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "freq_survivors": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "freq_pruned_lower": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "freq_pruned_chebyshev": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "cdf_accepted": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "cdf_rejected": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "cdf_undecided": {
      "probes": 1,
      "sum": 2,
      "p50": 2,
      "p90": 2,
      "p99": 2,
      "max": 2
    },
    "verified_similar": {
      "probes": 1,
      "sum": 1,
      "p50": 1,
      "p90": 1,
      "p99": 1,
      "max": 1
    },
    "verified_dissimilar": {
      "probes": 1,
      "sum": 1,
      "p50": 1,
      "p90": 1,
      "p99": 1,
      "max": 1
    },
    "output_pairs": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "index_insertions": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "index_postings_scanned": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "index_candidates_surfaced": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "qgram_window_worlds": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "qgram_instances_resolved": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "index_run_lookups": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "verifier_builds": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "verify_top_pair_accepts": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "steal_batches": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "faults_injected": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "batches_retried": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "probes_quarantined": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "waves_resumed": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_accepted": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_full": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_degraded": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_shed": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_deadline": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "serve_panics": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "hedges_sent": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "hedges_won": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "shards_quarantined": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "partial_responses": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "snapshot_bands_salvaged": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "snapshot_bands_rebuilt": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "snapshot_corruptions_detected": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    },
    "warm_restarts": {
      "probes": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    }
  }
}
"#;
        assert_eq!(got, want);
    }
}
