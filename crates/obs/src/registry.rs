//! A shared, atomic metrics registry for long-running processes, rendered
//! in Prometheus text exposition format.
//!
//! [`crate::CollectingRecorder`] is the right sink for one run: it is
//! single-threaded, rich, and snapshotted at the end. A query server
//! needs the dual — many short requests, each recorded locally and then
//! **folded** into one process-wide registry that can be scraped at any
//! moment without locking the request path. [`MetricsRegistry`] is that
//! registry: plain `AtomicU64`s for every golden-schema counter, gauge,
//! per-phase total, and per-phase log₂ latency histogram, plus the
//! per-length-band selectivity **funnel** (candidates in/out of each
//! filter stage per band of 8 probe-text lengths), which shows where
//! each stage prunes as the probe length changes.
//!
//! [`MetricsRegistry::render_prometheus`] emits the whole registry in
//! Prometheus text exposition format (`# TYPE` headers, `_total` counter
//! suffixes, summary quantiles for latency). The series set is fixed —
//! every counter/gauge/phase/band appears even at zero — so scrapes are
//! schema-stable from the first request.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{CollectingRecorder, Counter, Gauge, Log2Histogram, Phase};

const NUM_PHASES: usize = Phase::ALL.len();
const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_GAUGES: usize = Gauge::ALL.len();

/// Number of probe-text length bands in the selectivity funnel: band `b`
/// covers lengths `[8b, 8b+7]`, the last band is open-ended.
pub const FUNNEL_BANDS: usize = 16;

/// Stages of the selectivity funnel, in pipeline order.
pub const FUNNEL_STAGES: usize = 9;

/// Funnel stages in pipeline order (candidates flowing in at the top,
/// decided pairs dropping out of each filter): each stage's Prometheus
/// `stage` label and the golden-schema counter feeding it.
const STAGES: [(&str, Counter); FUNNEL_STAGES] = [
    ("pairs_in", Counter::PairsInScope),
    ("qgram_out", Counter::QgramSurvivors),
    ("freq_out", Counter::FreqSurvivors),
    ("cdf_accepted", Counter::CdfAccepted),
    ("cdf_rejected", Counter::CdfRejected),
    ("cdf_undecided", Counter::CdfUndecided),
    ("verified_similar", Counter::VerifiedSimilar),
    ("verified_dissimilar", Counter::VerifiedDissimilar),
    ("output", Counter::OutputPairs),
];

/// The length band of a probe text: `min(len / 8, FUNNEL_BANDS - 1)`.
pub fn band_of(len: usize) -> usize {
    (len / 8).min(FUNNEL_BANDS - 1)
}

/// Human label for a band: `"0-7"`, `"8-15"`, …, `"120+"`.
pub fn band_label(band: usize) -> String {
    if band + 1 == FUNNEL_BANDS {
        format!("{}+", band * 8)
    } else {
        format!("{}-{}", band * 8, band * 8 + 7)
    }
}

/// An atomically-updatable [`Log2Histogram`]: folded into under
/// `Relaxed` ordering, snapshotted bucket-by-bucket for quantiles.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    // [AtomicU64; 65] has no derived Default (std stops at 32 elements).
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    fn fold(&self, h: &Log2Histogram) {
        // ordering: every cell is an independent monotone accumulator;
        // scrapes tolerate tearing across cells (each series is
        // monotone), so Relaxed suffices throughout the registry.
        for (cell, &n) in self.buckets.iter().zip(h.bucket_counts()) {
            if n != 0 {
                // ordering: see above — independent monotone accumulators.
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        // ordering: see above — independent monotone accumulators.
        self.count.fetch_add(h.count(), Ordering::Relaxed);
        self.sum.fetch_add(h.sum(), Ordering::Relaxed);
        self.max.fetch_max(h.max(), Ordering::Relaxed);
    }

    fn snapshot(&self) -> Log2Histogram {
        // ordering: a scrape is a statistical read; per-cell tearing is
        // acceptable, so Relaxed loads suffice.
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        Log2Histogram::from_raw(
            buckets,
            // ordering: see above.
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Process-wide atomic metrics, scraped via `METRICS` / `usj metrics`.
///
/// Request handlers record into a local [`CollectingRecorder`] (lock-free
/// for the handler) and call [`MetricsRegistry::fold`] once per request;
/// a scrape calls [`MetricsRegistry::render_prometheus`] at any time.
#[derive(Debug)]
pub struct MetricsRegistry {
    probes: AtomicU64,
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
    phase_ns: [AtomicU64; NUM_PHASES],
    phase_hist: [AtomicHistogram; NUM_PHASES],
    funnel: [[AtomicU64; FUNNEL_STAGES]; FUNNEL_BANDS],
}

impl Default for MetricsRegistry {
    // [AtomicU64; NUM_COUNTERS] has no derived Default past 32 elements.
    fn default() -> Self {
        MetricsRegistry {
            probes: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_hist: std::array::from_fn(|_| AtomicHistogram::default()),
            funnel: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Folds one request's local snapshot into the registry. `band` is
    /// the probe-text length band ([`band_of`]) and routes this request's
    /// filter-funnel counters into the per-band selectivity series; pass
    /// `None` for non-probe work (index builds, admin requests).
    pub fn fold(&self, band: Option<usize>, rec: &CollectingRecorder) {
        // ordering: monotone accumulators, see AtomicHistogram::fold.
        self.probes.fetch_add(rec.probes(), Ordering::Relaxed);
        for c in Counter::ALL {
            let total = rec.counter_total(c);
            if total != 0 {
                // ordering: monotone accumulator.
                self.counters[c.index()].fetch_add(total, Ordering::Relaxed);
            }
        }
        for g in Gauge::ALL {
            // ordering: gauges aggregate by max; monotone, Relaxed.
            self.gauges[g.index()].fetch_max(rec.gauge_max(g), Ordering::Relaxed);
        }
        for p in Phase::ALL {
            let ns = rec.phase_total_ns(p);
            if ns != 0 {
                // ordering: monotone accumulator.
                self.phase_ns[p.index()].fetch_add(ns, Ordering::Relaxed);
            }
            self.phase_hist[p.index()].fold(rec.phase_histogram(p));
        }
        if let Some(band) = band {
            let band = band.min(FUNNEL_BANDS - 1);
            for (stage, &(_, c)) in STAGES.iter().enumerate() {
                let total = rec.counter_total(c);
                if total != 0 {
                    // ordering: monotone accumulator.
                    self.funnel[band][stage].fetch_add(total, Ordering::Relaxed);
                }
            }
        }
    }

    /// Renders every series in Prometheus text exposition format. The
    /// output is schema-stable: the full golden-schema counter/gauge set,
    /// per-phase totals and latency summaries, and the complete
    /// band × stage funnel appear in fixed order even when zero.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE usj_probes_total counter\n");
        // ordering: scrape reads are statistical; Relaxed throughout.
        let probes = self.probes.load(Ordering::Relaxed);
        out.push_str(&format!("usj_probes_total {probes}\n"));
        for c in Counter::ALL {
            // ordering: statistical scrape read.
            let v = self.counters[c.index()].load(Ordering::Relaxed);
            out.push_str(&format!("# TYPE usj_{}_total counter\n", c.name()));
            out.push_str(&format!("usj_{}_total {v}\n", c.name()));
        }
        for g in Gauge::ALL {
            // ordering: statistical scrape read.
            let v = self.gauges[g.index()].load(Ordering::Relaxed);
            out.push_str(&format!("# TYPE usj_{} gauge\n", g.name()));
            out.push_str(&format!("usj_{} {v}\n", g.name()));
        }
        out.push_str("# TYPE usj_phase_ns_total counter\n");
        for p in Phase::ALL {
            // ordering: statistical scrape read.
            let ns = self.phase_ns[p.index()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "usj_phase_ns_total{{phase=\"{}\"}} {ns}\n",
                p.name()
            ));
        }
        out.push_str("# TYPE usj_phase_latency_ns summary\n");
        for p in Phase::ALL {
            let h = self.phase_hist[p.index()].snapshot();
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "usj_phase_latency_ns{{phase=\"{}\",quantile=\"{label}\"}} {}\n",
                    p.name(),
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "usj_phase_latency_ns_sum{{phase=\"{}\"}} {}\n",
                p.name(),
                h.sum()
            ));
            out.push_str(&format!(
                "usj_phase_latency_ns_count{{phase=\"{}\"}} {}\n",
                p.name(),
                h.count()
            ));
        }
        out.push_str("# TYPE usj_funnel_candidates_total counter\n");
        for band in 0..FUNNEL_BANDS {
            for (stage, (name, _)) in STAGES.iter().enumerate() {
                // ordering: statistical scrape read.
                let v = self.funnel[band][stage].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "usj_funnel_candidates_total{{band=\"{}\",stage=\"{name}\"}} {v}\n",
                    band_label(band)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::time::Duration;

    fn one_request() -> CollectingRecorder {
        let mut r = CollectingRecorder::new();
        r.probe_start(0);
        r.enter_phase(Phase::Qgram);
        r.exit_phase(Phase::Qgram, Duration::from_nanos(100));
        r.counter(Counter::PairsInScope, 10);
        r.counter(Counter::QgramSurvivors, 4);
        r.counter(Counter::OutputPairs, 1);
        r.probe_end(0);
        r.gauge(Gauge::IndexBytes, 2048);
        r
    }

    #[test]
    fn bands_partition_lengths() {
        assert_eq!(band_of(0), 0);
        assert_eq!(band_of(7), 0);
        assert_eq!(band_of(8), 1);
        assert_eq!(band_of(119), 14);
        assert_eq!(band_of(120), 15);
        assert_eq!(band_of(100_000), 15);
        assert_eq!(band_label(0), "0-7");
        assert_eq!(band_label(1), "8-15");
        assert_eq!(band_label(15), "120+");
    }

    #[test]
    fn fold_accumulates_across_requests() {
        let reg = MetricsRegistry::new();
        reg.fold(Some(band_of(10)), &one_request());
        reg.fold(Some(band_of(10)), &one_request());
        reg.fold(Some(band_of(200)), &one_request());
        let text = reg.render_prometheus();
        assert!(text.contains("usj_probes_total 3\n"));
        assert!(text.contains("usj_pairs_in_scope_total 30\n"));
        assert!(text.contains("usj_index_bytes 2048\n"));
        assert!(text.contains("usj_phase_ns_total{phase=\"qgram\"} 300\n"));
        assert!(text.contains("usj_funnel_candidates_total{band=\"8-15\",stage=\"pairs_in\"} 20\n"));
        assert!(text.contains("usj_funnel_candidates_total{band=\"120+\",stage=\"output\"} 1\n"));
    }

    #[test]
    fn schema_is_complete_even_when_empty() {
        let text = MetricsRegistry::new().render_prometheus();
        for c in Counter::ALL {
            assert!(
                text.contains(&format!("usj_{}_total 0\n", c.name())),
                "missing counter {}",
                c.name()
            );
        }
        for g in Gauge::ALL {
            assert!(
                text.contains(&format!("usj_{} 0\n", g.name())),
                "missing gauge {}",
                g.name()
            );
        }
        for p in Phase::ALL {
            assert!(text.contains(&format!("usj_phase_ns_total{{phase=\"{}\"}} 0\n", p.name())));
            assert!(text.contains(&format!(
                "usj_phase_latency_ns{{phase=\"{}\",quantile=\"0.99\"}} 0\n",
                p.name()
            )));
        }
        for band in 0..FUNNEL_BANDS {
            for (name, _) in STAGES {
                assert!(text.contains(&format!(
                    "usj_funnel_candidates_total{{band=\"{}\",stage=\"{name}\"}} 0\n",
                    band_label(band)
                )));
            }
        }
        // Exposition-format shape: every non-comment line is `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE usj_"), "bad header: {line}");
            } else {
                let (name, value) = line.rsplit_once(' ').unwrap();
                assert!(value.parse::<u64>().is_ok(), "bad value in: {line}");
                assert!(name.starts_with("usj_"), "bad series in: {line}");
            }
        }
    }

    #[test]
    fn latency_summary_reflects_folded_histograms() {
        let reg = MetricsRegistry::new();
        reg.fold(None, &one_request());
        let text = reg.render_prometheus();
        // One 100ns qgram sample: p50 = bucket upper bound clamped to max.
        assert!(text.contains("usj_phase_latency_ns{phase=\"qgram\",quantile=\"0.5\"} 100\n"));
        assert!(text.contains("usj_phase_latency_ns_count{phase=\"qgram\"} 1\n"));
        assert!(text.contains("usj_phase_latency_ns_sum{phase=\"qgram\"} 100\n"));
    }
}
