//! The metrics aggregate of a long-running service, rendered both as the
//! golden-schema JSON snapshot and in Prometheus text exposition format.
//!
//! [`crate::CollectingRecorder`] is the sink for one run. A query server
//! serves many short requests instead: each is recorded into a local
//! recorder, then **folded** into the service's one [`MetricsRegistry`].
//! The registry is that recorder aggregate (every golden-schema counter,
//! gauge, per-phase total and per-phase log₂ latency histogram) plus the
//! per-length-band selectivity **funnel** (candidates in/out of each
//! filter stage per band of 8 probe-text lengths), which shows where
//! each stage prunes as the probe length changes. The service holds it
//! behind one lock and renders both `STATS` and `METRICS` from it, so the
//! two expositions always agree.
//!
//! [`MetricsRegistry::render_prometheus`] emits the whole registry in
//! Prometheus text exposition format (`# TYPE` headers, `_total` counter
//! suffixes, summary quantiles for latency). The series set is fixed —
//! every counter/gauge/phase/band appears even at zero — so scrapes are
//! schema-stable from the first request.

use crate::{CollectingRecorder, Counter, Gauge, MergeRecorder, Phase, Recorder};

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

/// A service's metrics aggregate: every event it recorded, plus the
/// band × stage funnel. `STATS` renders it as the golden-schema JSON
/// ([`MetricsRegistry::to_json`]), `METRICS` / `usj metrics` as the
/// Prometheus exposition ([`MetricsRegistry::render_prometheus`]).
///
/// Request handlers record into a local [`CollectingRecorder`] and hand
/// it to [`MetricsRegistry::fold`] once per request; the service's own
/// events (admission, sheds, panics) go straight in through
/// [`MetricsRegistry::counter`] and [`MetricsRegistry::gauge`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    recorder: CollectingRecorder,
    funnel: [[u64; FUNNEL_STAGES]; FUNNEL_BANDS],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Folds one request's recorder into the aggregate. `band` is the
    /// probe-text length band ([`band_of`]) and routes this request's
    /// filter-funnel counters into the per-band selectivity series; pass
    /// `None` for non-probe work (index builds, admin requests).
    pub fn fold(&mut self, band: Option<usize>, rec: CollectingRecorder) {
        if let Some(band) = band {
            let row = &mut self.funnel[band.min(FUNNEL_BANDS - 1)];
            for (cell, &(_, c)) in row.iter_mut().zip(&STAGES) {
                *cell = cell.saturating_add(rec.counter_total(c));
            }
        }
        self.recorder.absorb(rec);
    }

    /// Records one service-level counter event outside any request.
    pub fn counter(&mut self, counter: Counter, delta: u64) {
        self.recorder.counter(counter, delta);
    }

    /// Records one service-level gauge reading outside any request.
    pub fn gauge(&mut self, gauge: Gauge, value: u64) {
        self.recorder.gauge(gauge, value);
    }

    /// The aggregate as golden-schema JSON ([`CollectingRecorder::to_json`]).
    pub fn to_json(&self) -> String {
        self.recorder.to_json()
    }

    /// Renders every series in Prometheus text exposition format. The
    /// output is schema-stable: the full golden-schema counter/gauge set,
    /// per-phase totals and latency summaries, and the complete
    /// band × stage funnel appear in fixed order even when zero.
    pub fn render_prometheus(&self) -> String {
        let rec = &self.recorder;
        let mut out = String::new();
        out.push_str("# TYPE usj_probes_total counter\n");
        out.push_str(&format!("usj_probes_total {}\n", rec.probes()));
        for c in Counter::ALL {
            let v = rec.counter_total(c);
            out.push_str(&format!("# TYPE usj_{}_total counter\n", c.name()));
            out.push_str(&format!("usj_{}_total {v}\n", c.name()));
        }
        for g in Gauge::ALL {
            let v = rec.gauge_max(g);
            out.push_str(&format!("# TYPE usj_{} gauge\n", g.name()));
            out.push_str(&format!("usj_{} {v}\n", g.name()));
        }
        out.push_str("# TYPE usj_phase_ns_total counter\n");
        for p in Phase::ALL {
            let ns = rec.phase_total_ns(p);
            out.push_str(&format!(
                "usj_phase_ns_total{{phase=\"{}\"}} {ns}\n",
                p.name()
            ));
        }
        out.push_str("# TYPE usj_phase_latency_ns summary\n");
        for p in Phase::ALL {
            let h = rec.phase_histogram(p);
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
            for ((name, _), v) in STAGES.iter().zip(self.funnel[band]) {
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
        let mut reg = MetricsRegistry::new();
        reg.fold(Some(band_of(10)), one_request());
        reg.fold(Some(band_of(10)), one_request());
        reg.fold(Some(band_of(200)), one_request());
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
        let mut reg = MetricsRegistry::new();
        reg.fold(None, one_request());
        let text = reg.render_prometheus();
        // One 100ns qgram sample: p50 = bucket upper bound clamped to max.
        assert!(text.contains("usj_phase_latency_ns{phase=\"qgram\",quantile=\"0.5\"} 100\n"));
        assert!(text.contains("usj_phase_latency_ns_count{phase=\"qgram\"} 1\n"));
        assert!(text.contains("usj_phase_latency_ns_sum{phase=\"qgram\"} 100\n"));
    }
}
