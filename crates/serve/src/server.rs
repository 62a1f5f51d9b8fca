//! The single-node server: one front of the service frame (`frame.rs`)
//! holding the index, the degradation ladder and the q-gram → frequency
//! → CDF → verify probe.
//!
//! The frame owns the listener, the bounded admission queue, the worker
//! pool, the panic perimeter and the drain. The server adds its
//! admission decision (shed on queue depth *or* on the [`Controller`]
//! ladder) and its answers to `HEALTH` and `PROBE`. Every stage is
//! failpoint-instrumented (`serve.accept` / `serve.parse` /
//! `serve.probe`, and `shard.accept` for a shard) so the fault suite can
//! drive injected panics and delays through the full path, and every
//! request outcome is counted into the frame's [`CollectingRecorder`]
//! using the golden `usj-obs` schema.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use usj_core::snapshot::{self, SalvageMode};
use usj_core::{IndexedCollection, JoinConfig, LoadRung, SearchAbort, SnapshotReport};
use usj_model::{Alphabet, UncertainString};
use usj_obs::{band_of, ChromeTraceRecorder, CollectingRecorder, Counter, Gauge, Phase, Recorder};

use crate::degrade::{Controller, DegradeConfig, Level};
use crate::frame::{self, Frame, Front, Handle, Limits, Reply};
use crate::proto::Response;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving popped connections.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with `BUSY`.
    pub queue_cap: usize,
    /// Socket read/write timeout — a worker must never block forever on
    /// a slow client.
    pub io_timeout: Duration,
    /// Deadline applied to probes that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Backoff hint sent with `BUSY` rejections.
    pub retry_after_ms: u64,
    /// Degradation-ladder thresholds.
    pub degrade: DegradeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            io_timeout: Duration::from_secs(5),
            default_deadline: None,
            retry_after_ms: 50,
            degrade: DegradeConfig::default(),
        }
    }
}

/// The single-node front of the service frame: the index it serves and
/// the degradation ladder. Callers reach it only through
/// [`ServerHandle`].
pub struct Server {
    /// The served index: complete when the server binds, and never
    /// changed afterwards.
    coll: IndexedCollection,
    /// Whether this server started warm (from an on-disk snapshot).
    warm: bool,
    /// Age in seconds of the snapshot a warm start loaded.
    snapshot_age_s: Option<u64>,
    alphabet: Alphabet,
    cfg: ServeConfig,
    /// `Some` when this server is one shard of a partitioned fleet:
    /// maps the local collection's dense ids to the global ids of the
    /// full collection (ascending, so the remap is monotone and served
    /// answers stay sorted by global id).
    id_map: Option<Vec<u32>>,
    probe_seq: AtomicU32,
    controller: Controller,
}

/// Handle to a running server. Dropping it does *not* stop the server;
/// call `shutdown` (or send `SHUTDOWN` on the wire and `wait`) for a
/// graceful drain.
pub type ServerHandle = Handle<Server>;

/// Binds, spawns the accept thread and worker pool, and returns
/// immediately. The collection is the single shared index all probes
/// search; `alphabet` parses incoming probe operands.
pub fn serve(
    coll: IndexedCollection,
    alphabet: Alphabet,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    serve_boot(coll, alphabet, cfg, None, None)
}

/// Warm-restart entry point: load `snapshot_path` through the recovery
/// ladder ([`usj_core::snapshot::load`], [`SalvageMode::Strict`]) and
/// start answering. A verified or salvaged image makes the start
/// *warm*; a band that fails salvage is rebuilt inside the load, so the
/// server binds with a complete index and answers exactly from its
/// first probe. A missing or unrecoverable image falls back to a cold
/// build. Any boot that was not verified re-writes the snapshot in the
/// background. A fingerprint mismatch refuses to start with the
/// diagnosis in the error.
pub fn serve_from_snapshot(
    snapshot_path: &Path,
    config: JoinConfig,
    strings: Vec<UncertainString>,
    alphabet: Alphabet,
    cfg: ServeConfig,
) -> io::Result<(ServerHandle, SnapshotReport)> {
    serve_snapshot_with_map(snapshot_path, config, strings, alphabet, cfg, None)
}

/// [`serve_from_snapshot`] with the shard id map (see [`serve_boot`]).
pub(crate) fn serve_snapshot_with_map(
    snapshot_path: &Path,
    config: JoinConfig,
    strings: Vec<UncertainString>,
    alphabet: Alphabet,
    cfg: ServeConfig,
    id_map: Option<Vec<u32>>,
) -> io::Result<(ServerHandle, SnapshotReport)> {
    let sigma = alphabet.size();
    let loaded = snapshot::load(snapshot_path, &config, sigma, strings, SalvageMode::Strict)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let report = loaded.report;
    let handle = serve_boot(
        loaded.collection,
        alphabet,
        cfg,
        id_map,
        Some((snapshot_path.to_path_buf(), report.clone())),
    )?;
    Ok((handle, report))
}

/// Binds and starts the server. `id_map` is the local→global id map of a
/// shard (`crate::shard`), whose sub-collection's dense ids must be
/// translated back to collection-global ids on the wire; `snapshot` is
/// the image a warm start loaded, with its load report.
pub(crate) fn serve_boot(
    coll: IndexedCollection,
    alphabet: Alphabet,
    cfg: ServeConfig,
    id_map: Option<Vec<u32>>,
    snapshot: Option<(PathBuf, SnapshotReport)>,
) -> io::Result<ServerHandle> {
    let (warm, snapshot_age_s) = match &snapshot {
        Some((_, report)) => (report.warm, report.age_seconds),
        None => (false, None),
    };
    let limits = Limits {
        addr: cfg.addr.clone(),
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        io_timeout: cfg.io_timeout,
        retry_after_ms: cfg.retry_after_ms,
    };
    let server = Server {
        controller: Controller::new(cfg.degrade.clone()),
        coll,
        warm,
        snapshot_age_s,
        alphabet,
        cfg,
        id_map,
        probe_seq: AtomicU32::new(0),
    };
    let mut handle = frame::start(server, limits, "serve")?;
    if let Some((path, report)) = snapshot {
        seed_snapshot_metrics(&handle.frame, &report);
        if report.rung != LoadRung::Verified {
            // Refresh the on-disk image off the serving path, so the
            // *next* restart is warm. Best-effort: a failed write (disk
            // full, injected fault) leaves the previous committed image
            // in place — the durable write never exposes a torn file.
            handle.spawn("usj-serve-snapshot".to_string(), move |frame| {
                let _ = snapshot::write(&path, &frame.front.coll);
            })?;
        }
    }
    Ok(handle)
}

/// Seeds the boot-time snapshot outcome into both metric sinks, so the
/// golden-schema counters land in `STATS` and `METRICS` from the first
/// scrape.
fn seed_snapshot_metrics(frame: &Frame<Server>, report: &SnapshotReport) {
    let mut boot = CollectingRecorder::new();
    if report.warm {
        boot.counter(Counter::WarmRestarts, 1);
    }
    if report.bands_salvaged > 0 {
        boot.counter(Counter::SnapshotBandsSalvaged, report.bands_salvaged as u64);
    }
    if report.bands_rebuilt > 0 {
        boot.counter(Counter::SnapshotBandsRebuilt, report.bands_rebuilt as u64);
    }
    if report.corruptions_detected > 0 {
        boot.counter(
            Counter::SnapshotCorruptionsDetected,
            report.corruptions_detected,
        );
    }
    if let Some(age) = report.age_seconds {
        boot.gauge(Gauge::SnapshotAgeSeconds, age);
    }
    frame.record(|r| r.fold(None, boot));
}

impl Server {
    /// Translates one local hit id to the collection-global id when this
    /// server is a shard; the identity otherwise.
    fn to_global_id(&self, id: u32) -> u32 {
        match &self.id_map {
            Some(map) => map[id as usize],
            None => id,
        }
    }

    /// Translates a sorted local id list to global ids. The map is
    /// ascending, so the remap is monotone and the output stays sorted —
    /// the coordinator's merge relies on that.
    fn to_global_ids(&self, ids: Vec<u32>) -> Vec<u32> {
        ids.into_iter().map(|id| self.to_global_id(id)).collect()
    }
}

impl Front for Server {
    fn fire_accept(&self) -> bool {
        // Shard and single-node admission are distinct failpoints so the
        // coordinator suites can kill one shard's admission path without
        // also killing the standalone differential baseline.
        if self.id_map.is_some() {
            usj_fault::fire("shard.accept")
        } else {
            usj_fault::fire("serve.accept")
        }
    }

    fn note_queue(&self, depth: usize) -> bool {
        self.controller.note_queue(depth) == Level::Shed
    }

    fn fire_request(&self) -> bool {
        usj_fault::fire("serve.parse")
    }

    fn health(&self, frame: &Frame<Self>) -> Response {
        Response::Health {
            level: self.controller.level() as u8,
            queue: frame.queue_depth(),
            inflight: frame.inflight(),
            warm: Some(self.warm),
            snapshot_age_s: self.snapshot_age_s,
        }
    }

    fn probe(
        &self,
        frame: &Frame<Self>,
        k: usize,
        tau: f64,
        deadline_ms: Option<u64>,
        trace_id: Option<u64>,
        text: &str,
    ) -> Reply {
        let started = Instant::now();
        if usj_fault::fire("serve.probe") {
            frame.record(|r| r.counter(Counter::FaultsInjected, 1));
        }
        let coll = &self.coll;
        // The index is built for one (k, τ): segment partitioning depends on
        // k, filter thresholds on τ. Serving a different pair would be
        // silently wrong, so it is an explicit protocol error instead.
        let config = coll.config();
        if k != config.k || (tau - config.tau).abs() > 1e-9 {
            return Response::Err(format!(
                "this server is indexed for k={} tau={} (got k={k} tau={tau})",
                config.k, config.tau
            ))
            .into();
        }
        let probe = match UncertainString::parse(text, &self.alphabet) {
            Ok(probe) => probe,
            Err(e) => return Response::Err(format!("bad probe: {e}")).into(),
        };
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_deadline);
        // ordering: Relaxed — the id is only a label in the event stream.
        let probe_id = self.probe_seq.fetch_add(1, Ordering::Relaxed);
        // Untraced probes pair the collector with a silent Chrome recorder,
        // so the hot path pays only a few branch checks for tracing.
        let chrome = match trace_id {
            Some(_) => ChromeTraceRecorder::new(),
            None => ChromeTraceRecorder::silent(),
        };
        let mut local = (CollectingRecorder::new(), chrome);
        if let Some(id) = trace_id {
            local.set_trace_id(id);
        }
        let level = self.controller.level();
        let response = if level == Level::Shed {
            local.counter(Counter::ServeShed, 1);
            Response::Busy {
                retry_after_ms: self.cfg.retry_after_ms,
            }
        } else if level == Level::Degraded {
            // Filter-only answer: q-gram + frequency-distance lower
            // bounds never prune a true match, so the candidate list is
            // a sound superset of the exact answer — served at a
            // fraction of the cost and flagged on the wire.
            local.probe_start(probe_id);
            let ids = coll.filter_candidates(&probe);
            local.counter(Counter::ServeDegraded, 1);
            local.enter_phase(Phase::Total);
            local.exit_phase(Phase::Total, started.elapsed());
            local.probe_end(probe_id);
            Response::Degraded {
                ids: self.to_global_ids(ids),
                shards: None,
            }
        } else {
            let deadline = deadline.and_then(|d| started.checked_add(d));
            match coll.search_budgeted_recorded(probe_id, &probe, deadline, &mut local) {
                Ok((hits, _stats)) => {
                    local.counter(Counter::ServeFull, 1);
                    Response::Ok(
                        hits.into_iter()
                            .map(|h| (self.to_global_id(h.id), h.prob))
                            .collect(),
                    )
                }
                Err(SearchAbort::Deadline { elapsed }) => {
                    local.counter(Counter::ServeDeadline, 1);
                    // The abort reports time inside the search; the wire
                    // reports the whole request (parse + queue-side stalls
                    // count against the budget too).
                    let total = started.elapsed().max(elapsed);
                    Response::Deadline {
                        elapsed_ms: total.as_millis().min(u64::MAX as u128) as u64,
                    }
                }
            }
        };
        let (collected, chrome) = local;
        // Funnel exposition buckets this probe's counters by its length band.
        frame.record(|r| r.fold(Some(band_of(probe.len())), collected));
        self.controller
            .observe(started.elapsed(), frame.queue_depth());
        let trace = trace_id
            .zip(chrome.finish())
            .map(|(trace_id, json)| Response::Trace { trace_id, json });
        Reply { trace, response }
    }
}
