//! Chrome trace-event JSON output — the causal span tree of a run,
//! loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every span is emitted as a complete ("ph":"X") trace event with a
//! microsecond timestamp relative to a process-wide epoch, so events from
//! recorders absorbed across workers land on one consistent timeline.
//! Each recorder owns a *lane* (rendered as the event `tid`); span ids
//! are `lane << 32 | counter`, so ids never collide across workers.
//!
//! The causal model: a probe opens a `"probe"` span ([`SpanId`] parent
//! [`SpanId::ROOT`]); every phase span opened while the probe is active
//! becomes its child (`args.parent` = the probe's span id). Phase spans
//! opened outside a probe (index build, driver total) are top-level.
//! When a trace id is set ([`Recorder::set_trace_id`]), every event
//! carries it as `args.trace` (16 lowercase hex digits) — the same id the
//! serve wire protocol and [`crate::TraceRecorder`] lines carry, so one
//! request can be followed across client, server log, and trace viewer.
//!
//! Counters and gauges are not rendered: they are aggregate metrics, not
//! causal events, and belong to [`crate::CollectingRecorder`] /
//! [`crate::MetricsRegistry`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::{MergeRecorder, Phase, Recorder, SpanId};

/// All timestamps are measured against one process-wide instant so that
/// recorders created at different times (per-worker, per-request) share a
/// timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Lane (trace-event `tid`) allocator; lane 0 is never handed out so a
/// span id can never be zero (= [`SpanId::ROOT`]).
fn next_lane() -> u32 {
    static NEXT_LANE: AtomicU32 = AtomicU32::new(1);
    // ordering: a pure id allocator — uniqueness is all that matters.
    NEXT_LANE.fetch_add(1, Ordering::Relaxed)
}

/// Buffers the event stream as Chrome trace events; render the buffer
/// with [`ChromeTraceRecorder::render`] once the run (or request) ends.
#[derive(Debug)]
pub struct ChromeTraceRecorder {
    /// Pre-rendered JSON objects, one per completed span.
    events: Vec<String>,
    lane: u32,
    next_span: u64,
    trace_id: u64,
    enabled: bool,
    /// The open probe span: (span id, probe id, start instant).
    probe: Option<(SpanId, u32, Instant)>,
    /// Open phase spans, innermost last: (span id, phase, start instant).
    stack: Vec<(SpanId, Phase, Instant)>,
}

impl Default for ChromeTraceRecorder {
    fn default() -> Self {
        ChromeTraceRecorder::new()
    }
}

impl ChromeTraceRecorder {
    /// An enabled recorder on a fresh lane.
    pub fn new() -> Self {
        ChromeTraceRecorder {
            events: Vec::new(),
            lane: next_lane(),
            next_span: 0,
            trace_id: 0,
            enabled: true,
            probe: None,
            stack: Vec::new(),
        }
    }

    /// A disabled recorder: accepts events, buffers nothing. Lets callers
    /// keep one statically-known recorder type for traced and untraced
    /// requests (e.g. `(CollectingRecorder, ChromeTraceRecorder)`).
    pub fn silent() -> Self {
        ChromeTraceRecorder {
            enabled: false,
            ..ChromeTraceRecorder::new()
        }
    }

    /// The trace id stamped on events (0 = untraced).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn alloc_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId((u64::from(self.lane) << 32) | self.next_span)
    }

    /// Current parent for a newly-opened span: innermost open phase, else
    /// the open probe, else the root.
    fn parent(&self) -> SpanId {
        if let Some(&(span, _, _)) = self.stack.last() {
            span
        } else if let Some((span, _, _)) = self.probe {
            span
        } else {
            SpanId::ROOT
        }
    }

    fn push_event(
        &mut self,
        name: &str,
        start: Instant,
        dur_us: u64,
        span: SpanId,
        parent: SpanId,
        probe_id: Option<u32>,
    ) {
        let cat = if probe_id.is_some() { "probe" } else { "phase" };
        let ts = start.saturating_duration_since(epoch()).as_micros() as u64;
        let mut args = format!("\"span\":{},\"parent\":{}", span.0, parent.0);
        if self.trace_id != 0 {
            args.push_str(&format!(",\"trace\":\"{:016x}\"", self.trace_id));
        }
        if let Some(id) = probe_id {
            args.push_str(&format!(",\"probe\":{id}"));
        }
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{ts},\"dur\":{dur_us},\"args\":{{{args}}}}}",
            self.lane
        ));
    }

    /// Closes any spans left open (driver bailed early) so the buffer is
    /// well-formed, measuring their duration up to now.
    fn close_dangling(&mut self) {
        while let Some((span, phase, start)) = self.stack.pop() {
            let parent = self.parent();
            let dur = start.elapsed().as_micros() as u64;
            self.push_event(phase.name(), start, dur, span, parent, None);
        }
        if let Some((span, probe_id, start)) = self.probe.take() {
            let dur = start.elapsed().as_micros() as u64;
            self.push_event("probe", start, dur, span, SpanId::ROOT, Some(probe_id));
        }
    }

    /// Renders the buffered spans as one compact (single-line) Chrome
    /// trace-event JSON document. Safe to call mid-run: only completed
    /// spans are included.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e);
        }
        out.push_str("]}");
        out
    }

    /// [`ChromeTraceRecorder::render`] after closing dangling spans;
    /// consumes the recorder. Returns `None` when disabled.
    pub fn finish(mut self) -> Option<String> {
        if !self.enabled {
            return None;
        }
        self.close_dangling();
        Some(self.render())
    }
}

impl Recorder for ChromeTraceRecorder {
    fn probe_start(&mut self, probe_id: u32) {
        if !self.enabled {
            return;
        }
        self.close_dangling();
        let span = self.alloc_span();
        self.probe = Some((span, probe_id, Instant::now()));
    }

    fn probe_end(&mut self, probe_id: u32) {
        if !self.enabled {
            return;
        }
        // Phase spans still open belong to the probe; close them first so
        // the probe event is emitted last (children before parent, the
        // order Perfetto expects from flattened "X" events is free-form,
        // but containment must hold).
        while let Some((span, phase, start)) = self.stack.pop() {
            let parent = self.parent();
            let dur = start.elapsed().as_micros() as u64;
            self.push_event(phase.name(), start, dur, span, parent, None);
        }
        if let Some((span, _, start)) = self.probe.take() {
            let dur = start.elapsed().as_micros() as u64;
            self.push_event("probe", start, dur, span, SpanId::ROOT, Some(probe_id));
        }
    }

    fn enter_phase(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let span = self.alloc_span();
        self.stack.push((span, phase, Instant::now()));
    }

    fn exit_phase(&mut self, phase: Phase, elapsed: std::time::Duration) {
        if !self.enabled {
            return;
        }
        // Innermost matching span; drivers nest properly, so this is the
        // top of the stack in practice.
        let Some(pos) = self.stack.iter().rposition(|&(_, p, _)| p == phase) else {
            return;
        };
        let (span, _, start) = self.stack.remove(pos);
        let parent = self.parent();
        let dur = elapsed.as_micros() as u64;
        self.push_event(phase.name(), start, dur, span, parent, None);
    }

    fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }
}

impl MergeRecorder for ChromeTraceRecorder {
    /// Appends the other lane's completed spans (closing its dangling
    /// ones first). Lanes differ, so span ids cannot collide.
    fn absorb(&mut self, mut other: Self) {
        other.close_dangling();
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Extracts the `"key":value` number for each event in emission order.
    fn field_values(json: &str, key: &str) -> Vec<u64> {
        let pat = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = json;
        while let Some(i) = rest.find(&pat) {
            rest = &rest[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            out.push(rest[..end].parse().unwrap());
        }
        out
    }

    #[test]
    fn probe_phases_nest_under_probe_span() {
        let mut t = ChromeTraceRecorder::new();
        t.probe_start(7);
        t.enter_phase(Phase::Qgram);
        t.exit_phase(Phase::Qgram, Duration::from_micros(5));
        t.enter_phase(Phase::Cdf);
        t.exit_phase(Phase::Cdf, Duration::from_micros(3));
        t.probe_end(7);
        let json = t.finish().unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(!json.contains('\n'), "wire transport needs one line");
        assert!(json.contains("\"name\":\"qgram\""));
        assert!(json.contains("\"name\":\"cdf\""));
        assert!(json.contains("\"name\":\"probe\""));
        assert!(json.contains("\"probe\":7"));
        // Both phase spans are children of the probe span.
        let spans = field_values(&json, "span");
        let parents = field_values(&json, "parent");
        let probe_span = spans[2]; // probe event emitted last
        assert_eq!(parents[0], probe_span);
        assert_eq!(parents[1], probe_span);
        assert_eq!(parents[2], SpanId::ROOT.0);
    }

    #[test]
    fn trace_id_is_stamped_on_every_event() {
        let mut t = ChromeTraceRecorder::new();
        t.set_trace_id(0xdead_beef);
        t.probe_start(0);
        t.enter_phase(Phase::Verify);
        t.exit_phase(Phase::Verify, Duration::from_micros(1));
        t.probe_end(0);
        let json = t.finish().unwrap();
        assert_eq!(json.matches("\"trace\":\"00000000deadbeef\"").count(), 2);
    }

    #[test]
    fn out_of_probe_spans_are_top_level() {
        let mut t = ChromeTraceRecorder::new();
        t.enter_phase(Phase::Index);
        t.exit_phase(Phase::Index, Duration::from_micros(2));
        let json = t.finish().unwrap();
        assert!(json.contains("\"name\":\"index\""));
        assert_eq!(field_values(&json, "parent"), vec![SpanId::ROOT.0]);
    }

    #[test]
    fn dangling_spans_are_closed_on_finish() {
        let mut t = ChromeTraceRecorder::new();
        t.probe_start(1);
        t.enter_phase(Phase::Freq);
        let json = t.finish().unwrap();
        assert!(json.contains("\"name\":\"freq\""));
        assert!(json.contains("\"name\":\"probe\""));
    }

    #[test]
    fn silent_recorder_buffers_nothing() {
        let mut t = ChromeTraceRecorder::silent();
        t.probe_start(0);
        t.enter_phase(Phase::Qgram);
        t.exit_phase(Phase::Qgram, Duration::from_micros(1));
        t.probe_end(0);
        assert_eq!(t.events.len(), 0);
        assert!(t.finish().is_none());
    }

    #[test]
    fn absorb_appends_the_other_lane() {
        let mut a = ChromeTraceRecorder::new();
        let mut b = ChromeTraceRecorder::new();
        a.enter_phase(Phase::Total);
        a.exit_phase(Phase::Total, Duration::from_micros(9));
        b.probe_start(2);
        b.probe_end(2);
        a.absorb(b);
        assert_eq!(a.events.len(), 2);
        // Distinct lanes → distinct span ids.
        let json = a.render();
        let spans = field_values(&json, "span");
        assert_ne!(spans[0], spans[1]);
    }
}
