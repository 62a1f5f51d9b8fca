//! The two-level degradation ladder.
//!
//! Overload is answered in stages rather than by falling over:
//!
//! | level | name | behaviour |
//! |-------|------|-----------|
//! | 0 | Full | complete q-gram → frequency → CDF → verification pipeline |
//! | 1 | Degraded | filter-only answers (q-gram + frequency-distance lower bounds), flagged `DEGRADED` — a sound superset of the exact answer at a fraction of the cost |
//!
//! The ladder never refuses work: the frame's bounded admission queue is
//! the one place a server answers `BUSY`, so every admitted request is
//! answered. The level climbs on *either* pressure signal — admission-queue
//! depth or p99 service latency over a sliding window — and is read from
//! current readings whenever a request needs it. Degraded answers are
//! cheap and each one is observed, so the window refills with fast
//! samples and the ladder comes back down once pressure clears.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// Full exact pipeline.
    Full = 0,
    /// Filter-only answers, flagged `DEGRADED`.
    Degraded = 1,
}

/// Thresholds driving the ladder.
#[derive(Debug, Clone)]
pub struct DegradeConfig {
    /// Queue depth at which answers degrade to filter-only.
    pub queue_degrade: usize,
    /// p99 service latency at which answers degrade.
    pub p99_degrade: Duration,
    /// Sliding-window size (completed requests) for the p99 estimate.
    pub window: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            queue_degrade: 4,
            p99_degrade: Duration::from_millis(250),
            window: 64,
        }
    }
}

/// Shared ladder state. All methods take `&self`.
#[derive(Debug)]
pub(crate) struct Controller {
    cfg: DegradeConfig,
    /// Recent service latencies and their p99 as of the last sample.
    window: Mutex<LatencyWindow>,
}

/// The ladder's latency window. The ring only changes in
/// [`Controller::observe`], so the p99 is computed there once and
/// [`Controller::level`] reads the cached value instead of re-sorting
/// the ring.
#[derive(Debug)]
struct LatencyWindow {
    ring: LatencyRing,
    p99: Option<Duration>,
}

/// A sliding window of the most recent latencies with a nearest-rank
/// p99: the ladder's service-latency window and the coordinator's
/// hedge-delay window.
#[derive(Debug)]
pub(crate) struct LatencyRing {
    samples: Vec<Duration>,
    next: usize,
    cap: usize,
}

impl LatencyRing {
    /// An empty window holding at most `cap` samples (at least one).
    pub(crate) fn new(cap: usize) -> LatencyRing {
        let cap = cap.max(1);
        LatencyRing {
            samples: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    /// Adds a sample, evicting the oldest once the window is full.
    pub(crate) fn push(&mut self, sample: Duration) {
        if self.samples.len() < self.cap {
            self.samples.push(sample);
        } else {
            self.samples[self.next] = sample;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Nearest-rank p99 of the window (exact; the window is tiny);
    /// `None` until any sample lands.
    pub(crate) fn p99(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        Some(sorted[rank - 1])
    }
}

impl Controller {
    /// A controller with an empty latency window.
    pub(crate) fn new(cfg: DegradeConfig) -> Controller {
        let window = Mutex::new(LatencyWindow {
            ring: LatencyRing::new(cfg.window),
            p99: None,
        });
        Controller { cfg, window }
    }

    /// The level for the current queue depth and the p99 the last
    /// [`Controller::observe`] cached; an empty window reads as a p99
    /// of zero.
    pub(crate) fn level(&self, queue_depth: usize) -> Level {
        let p99 = self.lock().p99.unwrap_or_default();
        if queue_depth >= self.cfg.queue_degrade || p99 >= self.cfg.p99_degrade {
            Level::Degraded
        } else {
            Level::Full
        }
    }

    /// Records a completed request's service latency and caches the
    /// window's new p99.
    pub(crate) fn observe(&self, latency: Duration) {
        let mut window = self.lock();
        window.ring.push(latency);
        window.p99 = window.ring.p99();
    }

    fn lock(&self) -> MutexGuard<'_, LatencyWindow> {
        // A poisoned lock only means another worker panicked while
        // recording a sample; the ring stays usable.
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DegradeConfig {
        DegradeConfig {
            queue_degrade: 2,
            p99_degrade: Duration::from_millis(10),
            window: 8,
        }
    }

    #[test]
    fn queue_depth_degrades_and_recovers() {
        let c = Controller::new(cfg());
        assert_eq!(c.level(0), Level::Full);
        assert_eq!(c.level(1), Level::Full);
        assert_eq!(c.level(2), Level::Degraded);
        assert_eq!(c.level(64), Level::Degraded);
        // Pressure clears -> back to full service.
        assert_eq!(c.level(0), Level::Full);
    }

    #[test]
    fn p99_latency_climbs_the_ladder() {
        let c = Controller::new(cfg());
        for _ in 0..8 {
            c.observe(Duration::from_millis(1));
        }
        assert_eq!(c.level(0), Level::Full);
        for _ in 0..8 {
            c.observe(Duration::from_millis(20));
        }
        assert_eq!(c.level(0), Level::Degraded);
        // Latency alone never refuses work: however slow the window,
        // the ladder stops at `Degraded`.
        for _ in 0..8 {
            c.observe(Duration::from_secs(5));
        }
        assert_eq!(c.level(0), Level::Degraded);
        // The window slides: once every slow sample is evicted, fast
        // requests recover the ladder.
        for _ in 0..7 {
            c.observe(Duration::from_micros(10));
        }
        assert_eq!(c.level(0), Level::Degraded);
        c.observe(Duration::from_micros(10));
        assert_eq!(c.level(0), Level::Full);
    }

    /// Admission reads the level from the queue depth alone, against
    /// the p99 the last `observe` cached.
    #[test]
    fn note_queue_reads_the_p99_of_the_last_observe() {
        let c = Controller::new(cfg());
        // 12 samples through an 8-slot window: the ring wraps, leaving
        // four 1 ms samples and four 20 ms ones (p99 = 20 ms).
        for ms in [200, 200, 200, 200, 1, 1, 1, 1, 20, 20, 20, 20] {
            c.observe(Duration::from_millis(ms));
        }
        assert_eq!(c.level(0), Level::Degraded);
        // One more sample evicts a 1 ms one; the p99 stays 20 ms.
        c.observe(Duration::from_millis(1));
        assert_eq!(c.level(0), Level::Degraded);
        // Once every slow sample is evicted, admission sees the recovery.
        for _ in 0..8 {
            c.observe(Duration::from_millis(1));
        }
        assert_eq!(c.level(0), Level::Full);
    }

    fn ring_of(ms: impl IntoIterator<Item = u64>, cap: usize) -> LatencyRing {
        let mut ring = LatencyRing::new(cap);
        for ms in ms {
            ring.push(Duration::from_millis(ms));
        }
        ring
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(LatencyRing::new(8).p99(), None);
        assert_eq!(ring_of([7], 8).p99(), Some(Duration::from_millis(7)));
        assert_eq!(ring_of(1..=100, 100).p99(), Some(Duration::from_millis(99)));
    }

    #[test]
    fn latency_ring_p99_is_nearest_rank_and_windowed() {
        let mut ring = ring_of([10, 20, 30, 40], 4);
        assert_eq!(ring.p99(), Some(Duration::from_millis(40)));
        // Overwrites evict the oldest sample.
        ring.push(Duration::from_millis(5));
        assert_eq!(ring.p99(), Some(Duration::from_millis(40)));
        ring.push(Duration::from_millis(6));
        ring.push(Duration::from_millis(7));
        ring.push(Duration::from_millis(8));
        assert_eq!(ring.p99(), Some(Duration::from_millis(8)));
    }
}
