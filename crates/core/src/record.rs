//! Glue between [`JoinStats`] (the flat per-run view) and a
//! [`usj_obs::Recorder`] (the event sink).
//!
//! The drivers never touch `JoinStats` fields directly: every counter,
//! gauge, and phase span goes through a [`Recording`], which applies the
//! event to the stats struct **and** forwards it to the recorder. That
//! makes `JoinStats` a view over the recorded event stream — one source of
//! truth, no way for the self-join and search paths to drift — while
//! a [`usj_obs::NoopRecorder`] monomorphises the forwarding away entirely.

use std::time::{Duration, Instant};

use usj_obs::{Counter, Gauge, Phase, Recorder};

use crate::stats::JoinStats;

/// An open phase span; produced by [`Recording::begin`] and consumed by
/// [`Recording::end`]. Carrying the start instant in a value (instead of
/// recorder state) keeps spans re-entrant: a driver may hold a `Qgram`
/// span while emitting counters, or open many short `Cdf` spans per probe.
#[must_use = "a span only measures time when passed back to Recording::end"]
#[derive(Debug)]
pub struct PhaseSpan {
    phase: Phase,
    start: Instant,
}

/// Applies pipeline events to a [`JoinStats`] and forwards them to a
/// [`Recorder`].
#[derive(Debug)]
pub struct Recording<'a, R: Recorder> {
    stats: &'a mut JoinStats,
    recorder: &'a mut R,
}

impl<'a, R: Recorder> Recording<'a, R> {
    /// Ties `stats` to `recorder` for the duration of a driver run.
    pub fn new(stats: &'a mut JoinStats, recorder: &'a mut R) -> Self {
        Recording { stats, recorder }
    }

    /// Marks the start of one probe's work.
    pub fn probe_start(&mut self, probe_id: u32) {
        self.recorder.probe_start(probe_id);
    }

    /// Marks the end of one probe's work.
    pub fn probe_end(&mut self, probe_id: u32) {
        self.recorder.probe_end(probe_id);
    }

    /// Opens a phase span.
    pub fn begin(&mut self, phase: Phase) -> PhaseSpan {
        self.recorder.enter_phase(phase);
        PhaseSpan {
            phase,
            start: Instant::now(),
        }
    }

    /// Closes a span: adds its elapsed time to the stats' phase slot and
    /// emits `exit_phase`.
    pub fn end(&mut self, span: PhaseSpan) {
        let elapsed = span.start.elapsed();
        self.stats.timings.add(span.phase, elapsed);
        self.recorder.exit_phase(span.phase, elapsed);
    }

    /// Records the run's wall-clock total. Unlike [`Recording::end`] this
    /// *overwrites* `timings.total` — merged stats carry aggregate work
    /// time there ([`JoinStats::absorb`]) which the driver replaces with
    /// the true wall-clock as its final event.
    pub fn set_total(&mut self, elapsed: Duration) {
        self.stats.timings.total = elapsed;
        self.recorder.enter_phase(Phase::Total);
        self.recorder.exit_phase(Phase::Total, elapsed);
    }

    /// Runs `f` inside a `phase` span — [`Recording::begin`]/
    /// [`Recording::end`] without the caller threading the
    /// [`PhaseSpan`] value through its control flow.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.begin(phase);
        let out = f(self);
        self.end(span);
        out
    }

    /// Increments a counter (a zero `delta` still marks it observed).
    pub fn count(&mut self, counter: Counter, delta: u64) {
        self.stats.apply_counter(counter, delta);
        self.recorder.counter(counter, delta);
    }

    /// Records a gauge measurement.
    pub fn gauge(&mut self, gauge: Gauge, value: u64) {
        self.stats.apply_gauge(gauge, value);
        self.recorder.gauge(gauge, value);
    }

    /// The underlying recorder, for helpers that emit events without
    /// touching `JoinStats` (index internals, verifier builds).
    pub fn recorder(&mut self) -> &mut R {
        self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_obs::CollectingRecorder;

    #[test]
    fn events_update_stats_and_recorder_in_lockstep() {
        let mut stats = JoinStats::default();
        let mut sink = CollectingRecorder::new();
        let mut rec = Recording::new(&mut stats, &mut sink);
        rec.probe_start(0);
        let span = rec.begin(Phase::Qgram);
        rec.count(Counter::PairsInScope, 4);
        rec.count(Counter::QgramSurvivors, 2);
        rec.end(span);
        rec.probe_end(0);
        rec.gauge(Gauge::PeakIndexBytes, 512);
        rec.set_total(Duration::from_micros(3));
        assert_eq!(stats.pairs_in_scope, 4);
        assert_eq!(stats.qgram_survivors, 2);
        assert_eq!(stats.peak_index_bytes, 512);
        assert!(stats.timings.qgram > Duration::ZERO);
        assert_eq!(stats.timings.total, Duration::from_micros(3));
        assert_eq!(sink.probes(), 1);
        assert_eq!(sink.counter_total(Counter::PairsInScope), 4);
        assert_eq!(sink.gauge_max(Gauge::PeakIndexBytes), 512);
    }

    #[test]
    fn time_brackets_closure_in_span() {
        let mut stats = JoinStats::default();
        let mut sink = CollectingRecorder::new();
        let mut rec = Recording::new(&mut stats, &mut sink);
        let out = rec.time(Phase::Freq, |rec| {
            rec.count(Counter::FreqSurvivors, 3);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(stats.freq_survivors, 3);
        assert!(stats.timings.freq > Duration::ZERO);
        assert_eq!(sink.phase_histogram(Phase::Freq).count(), 1);
    }

    #[test]
    fn set_total_overwrites_merged_totals() {
        let mut stats = JoinStats::default();
        stats.timings.total = Duration::from_secs(99); // aggregate work time
        let mut sink = usj_obs::NoopRecorder;
        let mut rec = Recording::new(&mut stats, &mut sink);
        rec.set_total(Duration::from_millis(5));
        assert_eq!(stats.timings.total, Duration::from_millis(5));
    }
}
