//! The threaded TCP server: bounded admission, worker pool, degradation
//! ladder, panic isolation, graceful drain.
//!
//! Thread layout: one accept thread owns the listener and performs
//! admission (push into a bounded queue or reject with `BUSY`); `workers`
//! threads pop connections and serve request lines. Every stage is
//! failpoint-instrumented (`serve.accept` / `serve.parse` / `serve.probe`)
//! so the fault suite can drive injected panics and delays through the
//! full path, and every request outcome is counted into a shared
//! [`CollectingRecorder`] using the golden `usj-obs` schema.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use usj_core::snapshot::{self, SalvageMode};
use usj_core::{IndexedCollection, JoinConfig, LoadRung, ProbeBudget, SearchAbort, SnapshotReport};
use usj_fault::shield;
use usj_model::{Alphabet, UncertainString};
use usj_obs::{
    band_of, ChromeTraceRecorder, CollectingRecorder, Counter, Gauge, MergeRecorder,
    MetricsRegistry, Phase, Recorder,
};

use crate::degrade::{Controller, DegradeConfig, Level};
use crate::proto::{parse_request, Request, Response};

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

/// State shared by the accept thread, the workers, and the handle.
struct Shared {
    /// The served index. Swapped wholesale (behind the `RwLock`) when
    /// the post-boot rebuild readmits bands that failed snapshot
    /// salvage; probes clone the `Arc` once and search a consistent
    /// index for their whole lifetime.
    coll: RwLock<Arc<IndexedCollection>>,
    /// Length bands admitted in superset mode: their snapshot sections
    /// failed salvage, so their strings are absent from the index and
    /// any probe whose length window touches them is answered
    /// `DEGRADED` until the background rebuild readmits them.
    degraded_bands: Mutex<BTreeSet<usize>>,
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
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Drain flag: once set, admission stops and workers exit after the
    /// queue empties.
    stop: AtomicBool,
    inflight: AtomicUsize,
    probe_seq: AtomicU32,
    controller: Controller,
    recorder: Mutex<CollectingRecorder>,
    /// Lock-free aggregate behind the `METRICS` exposition: folded once
    /// per finished probe, keyed by the probe's length band.
    registry: MetricsRegistry,
}

/// Handle to a running server. Dropping it does *not* stop the server;
/// call [`ServerHandle::shutdown`] (or send `SHUTDOWN` on the wire and
/// [`ServerHandle::wait`]) for a graceful drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds, spawns the accept thread and worker pool, and returns
/// immediately. The collection is the single shared index all probes
/// search; `alphabet` parses incoming probe operands.
pub fn serve(
    coll: IndexedCollection,
    alphabet: Alphabet,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    serve_with_map(coll, alphabet, cfg, None)
}

/// Warm-restart entry point: load `snapshot_path` through the recovery
/// ladder ([`usj_core::snapshot::load`], [`SalvageMode::Degraded`]) and
/// start answering immediately. A verified or salvaged image makes the
/// start *warm*; bands whose sections failed salvage are served in
/// superset (`DEGRADED`) mode while a background rebuild readmits them;
/// a missing or unrecoverable image falls back to a cold build (and the
/// refreshed snapshot is re-written in the background). A fingerprint
/// mismatch refuses to start with the diagnosis in the error.
pub fn serve_from_snapshot(
    snapshot_path: &Path,
    config: JoinConfig,
    strings: Vec<UncertainString>,
    alphabet: Alphabet,
    cfg: ServeConfig,
) -> io::Result<(ServerHandle, SnapshotReport)> {
    serve_snapshot_with_map(snapshot_path, config, strings, alphabet, cfg, None)
}

/// [`serve_from_snapshot`] with the shard id map (see [`serve_with_map`]).
pub(crate) fn serve_snapshot_with_map(
    snapshot_path: &Path,
    config: JoinConfig,
    strings: Vec<UncertainString>,
    alphabet: Alphabet,
    cfg: ServeConfig,
    id_map: Option<Vec<u32>>,
) -> io::Result<(ServerHandle, SnapshotReport)> {
    let sigma = alphabet.size();
    let loaded = snapshot::load(
        snapshot_path,
        &config,
        sigma,
        strings,
        SalvageMode::Degraded,
    )
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

/// [`serve`] with an optional local→global id map: the shard entry point
/// (`crate::shard`) serves a sub-collection whose dense ids must be
/// translated back to collection-global ids on the wire.
pub(crate) fn serve_with_map(
    coll: IndexedCollection,
    alphabet: Alphabet,
    cfg: ServeConfig,
    id_map: Option<Vec<u32>>,
) -> io::Result<ServerHandle> {
    serve_boot(coll, alphabet, cfg, id_map, None)
}

fn serve_boot(
    coll: IndexedCollection,
    alphabet: Alphabet,
    cfg: ServeConfig,
    id_map: Option<Vec<u32>>,
    snapshot: Option<(PathBuf, SnapshotReport)>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let (warm, snapshot_age_s, degraded) = match &snapshot {
        Some((_, report)) => (
            report.warm,
            report.age_seconds,
            report.degraded_bands.iter().copied().collect(),
        ),
        None => (false, None, BTreeSet::new()),
    };
    let shared = Arc::new(Shared {
        controller: Controller::new(cfg.degrade.clone()),
        coll: RwLock::new(Arc::new(coll)),
        degraded_bands: Mutex::new(degraded),
        warm,
        snapshot_age_s,
        alphabet,
        cfg,
        id_map,
        addr,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        stop: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        probe_seq: AtomicU32::new(0),
        recorder: Mutex::new(CollectingRecorder::new()),
        registry: MetricsRegistry::default(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("usj-serve-accept".to_string())
            .spawn(move || accept_loop(&shared, listener))?
    };
    let mut worker_threads = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("usj-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<Vec<_>>>()?;
    if let Some((path, report)) = snapshot {
        seed_snapshot_metrics(&shared, &report);
        // Readmission and refresh run off the serving path; probes are
        // being answered (warm or superset) before the build starts.
        let maintenance = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("usj-serve-snapshot".to_string())
                .spawn(move || snapshot_maintenance(&shared, &path, &report))?
        };
        worker_threads.push(maintenance);
    }
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_threads,
    })
}

/// Seeds the boot-time snapshot outcome into both metric sinks, so the
/// golden-schema counters land in `STATS` and `METRICS` from the first
/// scrape.
fn seed_snapshot_metrics(shared: &Shared, report: &SnapshotReport) {
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
    shared.registry.fold(None, &boot);
    shared.record(|r| r.absorb(boot));
}

/// Post-boot snapshot maintenance: cold-rebuild the full index when any
/// band failed salvage (then swap it in and readmit those bands to
/// exact service), and refresh the on-disk image whenever the load was
/// not already verified — so the *next* restart is warm.
fn snapshot_maintenance(shared: &Shared, path: &Path, report: &SnapshotReport) {
    if !report.degraded_bands.is_empty() {
        let (config, sigma, strings) = {
            let coll = shared.collection();
            (coll.config().clone(), coll.sigma(), coll.strings().to_vec())
        };
        let rebuilt = Arc::new(IndexedCollection::build(config, sigma, strings));
        *shared.coll.write().unwrap_or_else(PoisonError::into_inner) = rebuilt;
        shared
            .degraded_bands
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let mut rec = CollectingRecorder::new();
        rec.counter(
            Counter::SnapshotBandsRebuilt,
            report.degraded_bands.len() as u64,
        );
        shared.registry.fold(None, &rec);
        shared.record(|r| r.absorb(rec));
    }
    if report.rung != LoadRung::Verified {
        let coll = shared.collection();
        // Best-effort: a refresh failure (disk full, injected fault)
        // leaves the previous committed image in place — the durable
        // write never exposes a torn file.
        let _ = snapshot::write(path, &coll);
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live Prometheus text exposition (what `METRICS` returns on
    /// the wire, unescaped).
    pub fn metrics_text(&self) -> String {
        self.shared.registry.render_prometheus()
    }

    /// A live observability snapshot (pretty JSON, golden schema).
    pub fn stats_json(&self) -> String {
        self.shared
            .recorder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json()
    }

    /// Graceful drain: stop accepting, let workers finish queued and
    /// in-flight requests, join every thread, and return the final
    /// flushed stats snapshot.
    pub fn shutdown(mut self) -> String {
        self.shared.begin_drain();
        self.join_all();
        self.stats_json()
    }

    /// Blocks until a wire-level `SHUTDOWN` (or an earlier
    /// [`ServerHandle::shutdown`]) drains the server, then returns the
    /// final stats snapshot. This is what `usj serve` parks on.
    pub fn wait(mut self) -> String {
        self.join_all();
        self.stats_json()
    }

    fn join_all(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Shared {
    fn record<T>(&self, f: impl FnOnce(&mut CollectingRecorder) -> T) -> T {
        // A poisoned recorder lock only means a panic elsewhere while
        // recording; the metrics stay usable.
        let mut r = self.recorder.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut r)
    }

    fn queue_depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The current index, cloned out of the swap slot in one statement
    /// so no lock guard outlives the probe.
    fn collection(&self) -> Arc<IndexedCollection> {
        self.coll
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The bands still missing from the index. Read it *before*
    /// [`Shared::collection`]: snapshot maintenance swaps the rebuilt
    /// index in before it clears this set, so an empty set guarantees
    /// the index read afterwards is complete, and a stale non-empty one
    /// only widens an answer to a sound superset.
    fn degraded_bands(&self) -> BTreeSet<usize> {
        self.degraded_bands
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn draining(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in
        // `begin_drain`, so a thread observing the flag also observes
        // everything the draining thread wrote before raising it.
        self.stop.load(Ordering::Acquire)
    }

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
        match &self.id_map {
            Some(map) => ids.into_iter().map(|id| map[id as usize]).collect(),
            None => ids,
        }
    }

    fn begin_drain(&self) {
        // ordering: Release — pairs with the Acquire loads in
        // `draining()` on the accept and worker threads.
        self.stop.store(true, Ordering::Release);
        self.queue_cv.notify_all();
        // Unblock the accept() call so the accept thread can observe the
        // flag; the woken connection is dropped unanswered.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Best-effort extraction of a panic payload's message (mirrors the CLI
/// perimeter; injected faults downcast to their Display form).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fault) = payload.downcast_ref::<usj_fault::InjectedFault>() {
        fault.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Admission runs inside the panic perimeter: a fault injected at
        // `serve.accept` (or any admission bug) drops one connection,
        // never the listener.
        let admitted =
            shield::shielded(|| catch_unwind(AssertUnwindSafe(|| admit(shared, stream))));
        if admitted.is_err() {
            shared.record(|r| r.counter(Counter::ServePanics, 1));
        }
    }
}

/// Bounded admission: reject with `BUSY` instead of queueing without
/// limit. The rejected client gets a retry-after hint and a closed
/// connection; the admitted one is queued for a worker.
fn admit(shared: &Shared, stream: TcpStream) {
    // Shard and single-node admission are distinct failpoints so the
    // coordinator suites can kill one shard's admission path without
    // also killing the standalone differential baseline.
    let injected = if shared.id_map.is_some() {
        usj_fault::fire("shard.accept")
    } else {
        usj_fault::fire("serve.accept")
    };
    if injected {
        shared.record(|r| r.counter(Counter::FaultsInjected, 1));
    }
    let depth = {
        let queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.len()
    };
    let level = shared.controller.note_queue(depth);
    if depth >= shared.cfg.queue_cap || level == Level::Shed {
        shared.record(|r| r.counter(Counter::ServeShed, 1));
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
        let busy = Response::Busy {
            retry_after_ms: shared.cfg.retry_after_ms,
        };
        let _ = stream.write_all(busy.encode().as_bytes());
        let _ = stream.write_all(b"\n");
        linger_close(stream);
        return;
    }
    let depth = {
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(stream);
        queue.len()
    };
    shared.controller.note_queue(depth);
    shared.record(|r| {
        r.counter(Counter::ServeAccepted, 1);
        r.gauge(Gauge::ServeQueueDepth, depth as u64);
    });
    shared.queue_cv.notify_one();
}

/// How long a shed connection may keep the accept thread draining it.
const SHED_LINGER: Duration = Duration::from_millis(50);

/// Closes a connection whose request was never read. Closing with
/// unread input resets the connection, and a reset can make the client's
/// kernel discard the `BUSY` line before the client reads it. So stop
/// writing, then discard input until the client closes (it does so as
/// soon as it has read the reply) or [`SHED_LINGER`] passes.
pub(crate) fn linger_close(mut stream: TcpStream) {
    let until = Instant::now() + SHED_LINGER;
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 512];
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                // Drain contract: exit only once the flag is up *and*
                // the queue is empty — queued work always completes.
                if shared.draining() {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        // ordering: Relaxed — inflight is reported in HEALTH only; no
        // other memory depends on it.
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        handle_conn(shared, stream);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one connection: line in, line out, until EOF, I/O timeout,
/// `BYE`, or drain. Each line is handled inside the panic perimeter.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    // A worker must never block forever on a slow client: both
    // directions are capped before the first read.
    if stream
        .set_read_timeout(Some(shared.cfg.io_timeout))
        .is_err()
    {
        return;
    }
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return, // timed out or reset: drop the connection
        }
        if line.trim().is_empty() {
            continue;
        }
        let outcome =
            shield::shielded(|| catch_unwind(AssertUnwindSafe(|| handle_line(shared, &line))));
        let responses = outcome.unwrap_or_else(|payload| {
            // One poisoned request gets ERR; the worker (and listener)
            // survive to serve the next one.
            shared.record(|r| r.counter(Counter::ServePanics, 1));
            vec![Response::Err(format!(
                "internal panic: {}",
                panic_message(&*payload)
            ))]
        });
        let done = responses.iter().any(|r| matches!(r, Response::Bye));
        for response in responses {
            if writer.write_all(response.encode().as_bytes()).is_err() {
                return;
            }
            if writer.write_all(b"\n").is_err() {
                return;
            }
        }
        let _ = writer.flush();
        // Draining: answer the current request, then close so the worker
        // can exit instead of idling on a held-open connection.
        if done || shared.draining() {
            return;
        }
    }
}

/// Handles one request line. Most requests yield one response line; a
/// traced probe yields its `TRACE` line followed by the result.
fn handle_line(shared: &Shared, line: &str) -> Vec<Response> {
    if usj_fault::fire("serve.parse") {
        shared.record(|r| r.counter(Counter::FaultsInjected, 1));
    }
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(msg) => return vec![Response::Err(msg)],
    };
    match request {
        Request::Health => vec![Response::Health {
            level: shared.controller.level() as u8,
            queue: shared.queue_depth(),
            // ordering: Relaxed — monitoring read, see worker_loop.
            inflight: shared.inflight.load(Ordering::Relaxed),
            warm: Some(shared.warm),
            snapshot_age_s: shared.snapshot_age_s,
        }],
        Request::Stats => {
            let json = shared.record(|r| r.to_json());
            vec![Response::Stats(compact_json(&json))]
        }
        Request::Metrics => vec![Response::Metrics(shared.registry.render_prometheus())],
        // A single server (or one shard) fronts no fleet; only the
        // coordinator answers with per-shard states.
        Request::Shards => vec![Response::Shards(Vec::new())],
        Request::Shutdown => {
            shared.begin_drain();
            vec![Response::Bye]
        }
        Request::Probe {
            k,
            tau,
            deadline_ms,
            trace_id,
            text,
        } => handle_probe(shared, k, tau, deadline_ms, trace_id, &text),
    }
}

fn handle_probe(
    shared: &Shared,
    k: usize,
    tau: f64,
    deadline_ms: Option<u64>,
    trace_id: Option<u64>,
    text: &str,
) -> Vec<Response> {
    let started = Instant::now();
    if usj_fault::fire("serve.probe") {
        shared.record(|r| r.counter(Counter::FaultsInjected, 1));
    }
    // One Arc clone up front: the probe searches a consistent index even
    // if the snapshot-maintenance thread swaps the slot mid-request. The
    // degraded set is read first (see `Shared::degraded_bands`).
    let degraded = shared.degraded_bands();
    let coll = shared.collection();
    // The index is built for one (k, τ): segment partitioning depends on
    // k, filter thresholds on τ. Serving a different pair would be
    // silently wrong, so it is an explicit protocol error instead.
    let config = coll.config();
    if k != config.k || (tau - config.tau).abs() > 1e-9 {
        return vec![Response::Err(format!(
            "this server is indexed for k={} tau={} (got k={k} tau={tau})",
            config.k, config.tau
        ))];
    }
    let probe = match UncertainString::parse(text, &shared.alphabet) {
        Ok(probe) => probe,
        Err(e) => return vec![Response::Err(format!("bad probe: {e}"))],
    };
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline);
    // ordering: Relaxed — the id is only a label in the event stream.
    let probe_id = shared.probe_seq.fetch_add(1, Ordering::Relaxed);
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
    // Bands admitted in superset mode after a failed snapshot salvage:
    // their strings are absent from the index, so any probe whose
    // length window touches one (candidates within edit distance k
    // differ by at most k in length) cannot be answered exactly until
    // the background rebuild readmits them.
    let touched: Vec<usize> = degraded
        .into_iter()
        .filter(|band| band.abs_diff(probe.len()) <= config.k)
        .collect();
    let level = shared.controller.level();
    let response = if level == Level::Shed {
        local.counter(Counter::ServeShed, 1);
        Response::Busy {
            retry_after_ms: shared.cfg.retry_after_ms,
        }
    } else if level == Level::Degraded || !touched.is_empty() {
        {
            // Filter-only answer: q-gram + frequency-distance lower
            // bounds never prune a true match, so the candidate list is
            // a sound superset of the exact answer — served at a
            // fraction of the cost and flagged on the wire. Bands still
            // missing from a salvaged index contribute *all* their ids
            // (their strings are unindexed, so the filters cannot speak
            // for them; including everything keeps the superset sound).
            local.probe_start(probe_id);
            let mut ids = coll.filter_candidates(&probe);
            if !touched.is_empty() {
                for (id, s) in coll.strings().iter().enumerate() {
                    if touched.contains(&s.len()) {
                        ids.push(id as u32);
                    }
                }
                ids.sort_unstable();
                ids.dedup();
            }
            local.counter(Counter::ServeDegraded, 1);
            local.enter_phase(Phase::Total);
            local.exit_phase(Phase::Total, started.elapsed());
            local.probe_end(probe_id);
            Response::Degraded {
                ids: shared.to_global_ids(ids),
                shards: None,
            }
        }
    } else {
        {
            let budget = ProbeBudget {
                deadline: deadline.and_then(|d| started.checked_add(d)),
                cancel: None,
            };
            match coll.search_budgeted_recorded(probe_id, &probe, |_| true, budget, &mut local) {
                Ok((hits, _stats)) => {
                    local.counter(Counter::ServeFull, 1);
                    Response::Ok(
                        hits.into_iter()
                            .map(|h| (shared.to_global_id(h.id), h.prob))
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
                Err(SearchAbort::Cancelled) => {
                    local.counter(Counter::ServeDeadline, 1);
                    Response::Err("probe cancelled".to_string())
                }
            }
        }
    };
    let (collected, chrome) = local;
    // Funnel exposition buckets this probe's counters by its length band.
    shared.registry.fold(Some(band_of(probe.len())), &collected);
    shared.record(|r| r.absorb(collected));
    shared
        .controller
        .observe(started.elapsed(), shared.queue_depth());
    let mut out = Vec::with_capacity(2);
    if let (Some(id), Some(json)) = (trace_id, chrome.finish()) {
        out.push(Response::Trace { trace_id: id, json });
    }
    out.push(response);
    out
}

/// Flattens the pretty-printed golden-schema JSON to one protocol line.
/// No string value in the schema contains a newline, so stripping
/// newlines plus indentation preserves validity.
fn compact_json(json: &str) -> String {
    json.lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_is_single_line_and_balanced() {
        let json = "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [1, 2]\n  }\n}\n";
        let flat = compact_json(json);
        assert!(!flat.contains('\n'));
        assert_eq!(flat, "{\"a\": 1,\"b\": {\"c\": [1, 2]}}");
        assert_eq!(
            flat.matches('{').count(),
            flat.matches('}').count(),
            "braces stay balanced"
        );
    }
}
