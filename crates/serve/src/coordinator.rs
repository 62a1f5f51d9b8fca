//! Scatter-gather coordinator fronting a fleet of length-band shards.
//!
//! The coordinator speaks the same wire protocol as a single server, so
//! clients cannot tell one process from a fleet — except through the
//! `SHARDS` verb and the `DEGRADED shards=<ok>/<total>` marker. Each
//! `PROBE` is scattered to the shards whose length band intersects
//! `[len(R) − k, len(R) + k]` (the paper's length filter prunes the
//! fan-out), with:
//!
//! * **per-shard deadlines** carved from the request's remaining
//!   `deadline_ms` budget at each dispatch;
//! * **hedged seconds** — a shard silent past the hedge delay
//!   (max of the observed p99 shard latency and `hedge_after`) gets a
//!   second, identical request; the first answer wins and the loser is
//!   cancelled at the protocol level (its answer is discarded and its
//!   connection dies with the worker thread);
//! * **bounded retry with jittered backoff** inside each dispatch,
//!   reusing [`Client`]'s policy (each shard client gets a
//!   deterministic per-(request, shard, hedge) jitter seed);
//! * **health tracking** — `quarantine_after` consecutive failures
//!   bench a shard for `quarantine_cooldown`; after the cooldown the
//!   next relevant probe is a half-open trial whose success readmits
//!   the shard and whose failure re-quarantines it;
//! * an explicit **partial-result policy** — when some relevant shards
//!   cannot answer, strict mode refuses the request while degraded
//!   mode serves the union of the surviving shards' answers marked
//!   `DEGRADED shards=<ok>/<total>` (a sound superset of what the
//!   surviving shards hold; never a silently truncated `OK`).
//!
//! Failure containment mirrors the single server: every request line is
//! handled inside the `usj-fault` shield + `catch_unwind` perimeter, so
//! a panic injected at `coord.dispatch` / `coord.gather` / `coord.hedge`
//! poisons one request (`ERR internal panic: …`) and never the
//! listener. Coordinator admission is deliberately panic-free plain
//! queueing — it carries no failpoint and needs no perimeter.
//!
//! Merging is bit-exact: shards own disjoint id sets and answer hits as
//! collection-global `(id, prob-bits)` pairs, so concatenating exact
//! answers and sorting by id reproduces the single-node server's answer
//! bit for bit (proven by the N-shard differential suite).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use usj_core::Partition;
use usj_fault::shield;
use usj_model::{Alphabet, UncertainString};
use usj_obs::{
    band_of, CollectingRecorder, Counter, Gauge, MergeRecorder, MetricsRegistry, Recorder,
};

use crate::client::{Client, ClientConfig, ClientError, ProbeOutcome};
use crate::proto::{parse_request, Request, Response, ShardState};
use crate::server::{linger_close, panic_message};

/// One shard as the coordinator sees it: where to reach it and which
/// length band it owns.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The shard server's address (`host:port`).
    pub addr: String,
    /// `(min_len, max_len)` of the strings the shard owns, or `None`
    /// for an empty shard (never probed).
    pub band: Option<(usize, usize)>,
}

impl ShardSpec {
    /// Pairs a partition's bands with the fleet's addresses. Errors when
    /// the counts disagree — a mis-sized fleet would silently lose data.
    pub fn from_partition(
        partition: &Partition,
        addrs: &[String],
    ) -> Result<Vec<ShardSpec>, String> {
        if partition.len() != addrs.len() {
            return Err(format!(
                "partition has {} shards but {} addresses were given",
                partition.len(),
                addrs.len()
            ));
        }
        Ok(partition
            .shards
            .iter()
            .zip(addrs)
            .map(|(slice, addr)| ShardSpec {
                addr: addr.clone(),
                band: if slice.ids.is_empty() {
                    None
                } else {
                    Some((slice.min_len, slice.max_len))
                },
            })
            .collect())
    }

    /// Can this shard hold a match for a probe of length `probe_len`
    /// under threshold `k`?
    fn relevant(&self, probe_len: usize, k: usize) -> bool {
        match self.band {
            Some((min, max)) => {
                min <= probe_len.saturating_add(k) && max.saturating_add(k) >= probe_len
            }
            None => false,
        }
    }
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving popped connections.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with `BUSY`.
    pub queue_cap: usize,
    /// Socket read/write timeout toward clients.
    pub io_timeout: Duration,
    /// Budget applied to probes that do not carry their own
    /// `deadline_ms`; per-shard deadlines are carved from what remains.
    pub default_deadline: Option<Duration>,
    /// Backoff hint sent with `BUSY` rejections.
    pub retry_after_ms: u64,
    /// The fleet's (k, τ) — every shard is indexed for this pair.
    pub k: usize,
    /// Probability threshold matching the shard indices.
    pub tau: f64,
    /// Partial-result policy: `true` refuses any request some relevant
    /// shard cannot answer; `false` serves the marked superset.
    pub strict: bool,
    /// Floor for the hedge delay (the delay is the max of this and the
    /// observed p99 shard latency).
    pub hedge_after: Duration,
    /// Consecutive failures before a shard is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined shard is benched before a half-open trial.
    pub quarantine_cooldown: Duration,
    /// Template for per-shard clients (retry budget, backoff window,
    /// base jitter seed).
    pub client: ClientConfig,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 16,
            io_timeout: Duration::from_secs(5),
            default_deadline: Some(Duration::from_secs(2)),
            retry_after_ms: 50,
            k: 1,
            tau: 0.1,
            strict: false,
            hedge_after: Duration::from_millis(20),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_millis(500),
            client: ClientConfig::default(),
        }
    }
}

/// Per-shard health record behind the coordinator's health table.
#[derive(Debug, Clone, Default)]
struct ShardHealth {
    /// Consecutive failed requests (reset by any success).
    consecutive_failures: u32,
    /// `Some(t)` while quarantined; past `t` the shard is half-open.
    quarantined_until: Option<Instant>,
}

impl ShardHealth {
    fn state(&self, now: Instant) -> ShardState {
        match self.quarantined_until {
            Some(until) if now < until => ShardState::Quarantined,
            Some(_) => ShardState::HalfOpen,
            None => ShardState::Healthy,
        }
    }
}

/// Sliding window of shard response latencies for the p99 hedge delay
/// (same nearest-rank scheme as the degradation ladder's ring).
struct LatencyRing {
    samples: Vec<Duration>,
    next: usize,
    cap: usize,
}

impl LatencyRing {
    fn new(cap: usize) -> LatencyRing {
        LatencyRing {
            samples: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    fn push(&mut self, sample: Duration) {
        if self.samples.len() < self.cap {
            self.samples.push(sample);
        } else {
            self.samples[self.next] = sample;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Nearest-rank p99 of the window; `None` until any sample lands.
    fn p99(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = (sorted.len() * 99).div_ceil(100).max(1);
        Some(sorted[rank - 1])
    }
}

/// State shared by the accept thread, the workers, and the handle.
struct Shared {
    cfg: CoordConfig,
    alphabet: Alphabet,
    shards: Vec<ShardSpec>,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    inflight: AtomicUsize,
    probe_seq: AtomicUsize,
    health: Mutex<Vec<ShardHealth>>,
    latencies: Mutex<LatencyRing>,
    recorder: Mutex<CollectingRecorder>,
    registry: MetricsRegistry,
}

/// Handle to a running coordinator (same contract as
/// [`crate::server::ServerHandle`]).
pub struct CoordinatorHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds the coordinator, spawns its accept thread and worker pool, and
/// returns immediately. `shards` is the fleet (addresses + length
/// bands); `alphabet` parses probe operands for length-filter pruning.
pub fn coordinate(
    shards: Vec<ShardSpec>,
    alphabet: Alphabet,
    cfg: CoordConfig,
) -> io::Result<CoordinatorHandle> {
    if shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a coordinator needs at least one shard",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        health: Mutex::new(vec![ShardHealth::default(); shards.len()]),
        latencies: Mutex::new(LatencyRing::new(64)),
        cfg,
        alphabet,
        shards,
        addr,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        stop: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        probe_seq: AtomicUsize::new(0),
        recorder: Mutex::new(CollectingRecorder::new()),
        registry: MetricsRegistry::default(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("usj-coord-accept".to_string())
            .spawn(move || accept_loop(&shared, listener))?
    };
    let worker_threads = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("usj-coord-worker-{i}"))
                .spawn(move || worker_loop(&shared))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(CoordinatorHandle {
        shared,
        accept: Some(accept),
        workers: worker_threads,
    })
}

impl CoordinatorHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live Prometheus exposition: the golden-schema registry plus
    /// one `usj_shard_up{shard="<i>"}` series per shard (1 healthy or
    /// half-open, 0 quarantined).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Each shard's current health-machine state.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.shared.shard_states(Instant::now())
    }

    /// A live observability snapshot (pretty JSON, golden schema).
    pub fn stats_json(&self) -> String {
        self.shared
            .recorder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .to_json()
    }

    /// Graceful drain of the coordinator itself (shards keep running;
    /// they are their own processes with their own drains).
    pub fn shutdown(mut self) -> String {
        self.shared.begin_drain();
        self.join_all();
        self.stats_json()
    }

    /// Blocks until a wire-level `SHUTDOWN` drains the coordinator.
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
        let mut r = self.recorder.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut r)
    }

    fn queue_depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn draining(&self) -> bool {
        // ordering: Acquire — pairs with the Release store in
        // `begin_drain`, so a thread observing the flag also observes
        // everything the draining thread wrote before raising it.
        self.stop.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        // ordering: Release — pairs with the Acquire loads in
        // `draining()` on the accept and worker threads.
        self.stop.store(true, Ordering::Release);
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    fn shard_states(&self, now: Instant) -> Vec<ShardState> {
        let health = self.health.lock().unwrap_or_else(PoisonError::into_inner);
        health.iter().map(|h| h.state(now)).collect()
    }

    fn healthy_count(&self, now: Instant) -> usize {
        self.shard_states(now)
            .iter()
            .filter(|s| !matches!(s, ShardState::Quarantined))
            .count()
    }

    /// A shard answered: reset its failure streak and readmit it (a
    /// half-open trial success ends the quarantine).
    fn on_shard_success(&self, idx: usize) {
        let mut health = self.health.lock().unwrap_or_else(PoisonError::into_inner);
        health[idx].consecutive_failures = 0;
        health[idx].quarantined_until = None;
    }

    /// A shard failed a request. Returns `true` when this failure
    /// *transitions* the shard into quarantine (threshold reached, or a
    /// half-open trial failed) so the caller can count it.
    fn on_shard_failure(&self, idx: usize, now: Instant) -> bool {
        let mut health = self.health.lock().unwrap_or_else(PoisonError::into_inner);
        let h = &mut health[idx];
        h.consecutive_failures += 1;
        let was_trial = matches!(h.state(now), ShardState::HalfOpen);
        if was_trial || h.consecutive_failures >= self.cfg.quarantine_after {
            h.quarantined_until = Some(now + self.cfg.quarantine_cooldown);
            return true;
        }
        false
    }

    fn hedge_delay(&self) -> Duration {
        let p99 = {
            let ring = self
                .latencies
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            ring.p99()
        };
        match p99 {
            Some(p99) => p99.max(self.cfg.hedge_after),
            None => self.cfg.hedge_after,
        }
    }

    fn note_latency(&self, sample: Duration) {
        let mut ring = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ring.push(sample);
    }

    fn metrics_text(&self) -> String {
        let mut text = self.registry.render_prometheus();
        // Live per-shard health as a labeled series, appended after the
        // schema-stable golden exposition (which stays byte-identical to
        // a single server's — dashboards work unchanged).
        text.push_str("# TYPE usj_shard_up gauge\n");
        for (idx, state) in self.shard_states(Instant::now()).iter().enumerate() {
            let up = u8::from(!matches!(state, ShardState::Quarantined));
            text.push_str(&format!("usj_shard_up{{shard=\"{idx}\"}} {up}\n"));
        }
        text
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Plain bounded queueing, deliberately panic-free (no failpoint,
        // no catch_unwind perimeter needed): shed or push, nothing else.
        admit(shared, stream);
    }
}

fn admit(shared: &Shared, stream: TcpStream) {
    let depth = shared.queue_depth();
    if depth >= shared.cfg.queue_cap {
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
    shared.record(|r| {
        r.counter(Counter::ServeAccepted, 1);
        r.gauge(Gauge::ServeQueueDepth, depth as u64);
    });
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
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

/// Serves one client connection: line in, line out, until EOF, timeout,
/// `BYE`, or drain. Each line runs inside the panic perimeter.
fn handle_conn(shared: &Shared, stream: TcpStream) {
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
            Err(_) => return,
        }
        if line.trim().is_empty() {
            continue;
        }
        let outcome =
            shield::shielded(|| catch_unwind(AssertUnwindSafe(|| handle_line(shared, &line))));
        let response = outcome.unwrap_or_else(|payload| {
            // A panic (injected at coord.dispatch/gather/hedge or
            // otherwise) poisons one request; the worker and the
            // listener survive.
            shared.record(|r| r.counter(Counter::ServePanics, 1));
            Response::Err(format!("internal panic: {}", panic_message(&*payload)))
        });
        let done = matches!(response, Response::Bye);
        if writer.write_all(response.encode().as_bytes()).is_err() {
            return;
        }
        if writer.write_all(b"\n").is_err() {
            return;
        }
        let _ = writer.flush();
        if done || shared.draining() {
            return;
        }
    }
}

/// Handles one request line. The `coord.dispatch` failpoint fires here —
/// before fan-out — so an injected panic proves the perimeter isolates
/// the whole scatter-gather path.
fn handle_line(shared: &Shared, line: &str) -> Response {
    if usj_fault::fire("coord.dispatch") {
        shared.record(|r| r.counter(Counter::FaultsInjected, 1));
    }
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(msg) => return Response::Err(msg),
    };
    match request {
        Request::Health => {
            // The coordinator's ladder level is fleet coverage: 0 all
            // shards reachable, 1 some quarantined, 2 none left.
            let healthy = shared.healthy_count(Instant::now());
            let level = if healthy == shared.shards.len() {
                0
            } else if healthy > 0 {
                1
            } else {
                2
            };
            Response::Health {
                level,
                queue: shared.queue_depth(),
                // ordering: Relaxed — monitoring read, see worker_loop.
                inflight: shared.inflight.load(Ordering::Relaxed),
                // The coordinator holds no index, so it is never warm
                // itself; per-shard warmth is visible via each shard's
                // own HEALTH endpoint.
                warm: Some(false),
                snapshot_age_s: None,
            }
        }
        Request::Stats => {
            let json = shared.record(|r| r.to_json());
            Response::Stats(json.lines().map(str::trim_start).collect())
        }
        Request::Metrics => Response::Metrics(shared.metrics_text()),
        Request::Shards => Response::Shards(shared.shard_states(Instant::now())),
        Request::Shutdown => {
            shared.begin_drain();
            Response::Bye
        }
        Request::Probe {
            k,
            tau,
            deadline_ms,
            // Trace ids are a single-server feature: a scatter-gather
            // has no one server-side trace to forward, so the option is
            // accepted and ignored (the client tolerates a missing
            // TRACE line).
            trace_id: _,
            text,
        } => handle_probe(shared, k, tau, deadline_ms, &text),
    }
}

/// One attempt's answer travelling back from a dispatch thread.
struct ShardAnswer {
    shard: usize,
    hedge: bool,
    elapsed: Duration,
    result: Result<ProbeOutcome, String>,
}

/// Book-keeping for one relevant shard during a gather.
struct Pending {
    shard: usize,
    /// Dispatches in flight (primary, plus a hedge once sent).
    outstanding: u32,
    /// Failures received so far from this shard's dispatches.
    failures: u32,
    hedged: bool,
    outcome: Option<ProbeOutcome>,
    /// Did the winning answer come from the hedge?
    won_by_hedge: bool,
}

fn handle_probe(
    shared: &Shared,
    k: usize,
    tau: f64,
    deadline_ms: Option<u64>,
    text: &str,
) -> Response {
    let started = Instant::now();
    if k != shared.cfg.k || (tau - shared.cfg.tau).abs() > 1e-9 {
        return Response::Err(format!(
            "this fleet is indexed for k={} tau={} (got k={k} tau={tau})",
            shared.cfg.k, shared.cfg.tau
        ));
    }
    // Parse locally only to learn the probe's length (for band pruning)
    // and to reject garbage before burning fleet capacity; shards parse
    // the forwarded text themselves.
    let probe = match UncertainString::parse(text, &shared.alphabet) {
        Ok(probe) => probe,
        Err(e) => return Response::Err(format!("bad probe: {e}")),
    };
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline);
    let (relevant, skipped) = select_shards(shared, probe.len(), k);
    let total = (relevant.len() + skipped) as u32;
    // ordering: Relaxed — the sequence only labels per-probe histogram
    // buckets; no other memory depends on it.
    let probe_id = shared.probe_seq.fetch_add(1, Ordering::Relaxed) as u32;
    let mut local = CollectingRecorder::new();
    local.probe_start(probe_id);
    let response = gather(
        shared, &relevant, total, k, tau, text, started, deadline, &mut local,
    );
    local.probe_end(probe_id);
    local.gauge(
        Gauge::ShardHealthy,
        shared.healthy_count(Instant::now()) as u64,
    );
    shared.registry.fold(Some(band_of(probe.len())), &local);
    shared.record(|r| r.absorb(local));
    response
}

/// The scatter set for a probe of length `probe_len`: shard indices to
/// dial, plus how many relevant shards are benched in quarantine (they
/// still count toward the total so a partial answer is visibly
/// partial). A half-open shard is dialed — that is its recovery trial.
fn select_shards(shared: &Shared, probe_len: usize, k: usize) -> (Vec<usize>, usize) {
    let now = Instant::now();
    let states = shared.shard_states(now);
    let mut relevant = Vec::new();
    let mut skipped = 0usize;
    for (idx, spec) in shared.shards.iter().enumerate() {
        if !spec.relevant(probe_len, k) {
            continue;
        }
        if matches!(states[idx], ShardState::Quarantined) {
            skipped += 1;
        } else {
            relevant.push(idx);
        }
    }
    (relevant, skipped)
}

/// Dispatches one attempt (primary or hedge) for `shard` on its own
/// thread; the result comes back over `tx`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    shared: &Shared,
    shard: usize,
    hedge: bool,
    k: usize,
    tau: f64,
    text: &str,
    started: Instant,
    deadline: Option<Duration>,
    tx: &mpsc::Sender<ShardAnswer>,
) {
    // The per-shard deadline is the *remaining* request budget at this
    // dispatch — a late hedge gets a tighter allowance than the primary.
    let remaining = deadline.map(|d| d.saturating_sub(started.elapsed()));
    let cfg = ClientConfig {
        deadline: remaining,
        // Deterministic per-(shard, hedge) schedule derived from the
        // template seed, so soak runs replay identically.
        jitter_seed: shared
            .cfg
            .client
            .jitter_seed
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(hedge)),
        ..shared.cfg.client.clone()
    };
    let addr = shared.shards[shard].addr.clone();
    let text = text.to_string();
    let tx = tx.clone();
    let dispatched = Instant::now();
    // Detached worker: if the request completes first (the other twin
    // won, or the gather deadline fired), the receiver is gone, the
    // send fails silently, and the thread exits — protocol-level
    // cancellation without tearing down sockets mid-read.
    let _ = std::thread::Builder::new()
        .name(format!("usj-coord-dispatch-{shard}"))
        .spawn(move || {
            let mut client = Client::new(addr, cfg);
            let result = client.probe(k, tau, &text).map_err(|e| classify(&e));
            let _ = tx.send(ShardAnswer {
                shard,
                hedge,
                elapsed: dispatched.elapsed(),
                result,
            });
        });
}

/// Collapses a client error to the short form the coordinator reports
/// and counts (the full error already surfaced in the client's retries).
fn classify(e: &ClientError) -> String {
    match e {
        ClientError::Busy { .. } => "busy".to_string(),
        ClientError::Deadline => "deadline".to_string(),
        ClientError::Io(_) => "io".to_string(),
        ClientError::Protocol(msg) => format!("protocol: {msg}"),
        ClientError::Server(msg) => format!("server: {msg}"),
    }
}

/// The gather loop: collects per-shard answers, hedges silent shards
/// after the hedge delay, updates shard health, and combines answers
/// under the partial-result policy.
#[allow(clippy::too_many_arguments)]
fn gather(
    shared: &Shared,
    relevant: &[usize],
    total: u32,
    k: usize,
    tau: f64,
    text: &str,
    started: Instant,
    deadline: Option<Duration>,
    local: &mut CollectingRecorder,
) -> Response {
    if usj_fault::fire("coord.gather") {
        local.counter(Counter::FaultsInjected, 1);
    }
    if total == 0 {
        // No shard's band intersects [len−k, len+k]: the exact answer
        // is empty by the length filter, no fan-out needed.
        local.counter(Counter::ServeFull, 1);
        return Response::Ok(Vec::new());
    }
    let (tx, rx) = mpsc::channel::<ShardAnswer>();
    let mut pending: Vec<Pending> = relevant
        .iter()
        .map(|&shard| {
            dispatch(shared, shard, false, k, tau, text, started, deadline, &tx);
            Pending {
                shard,
                outstanding: 1,
                failures: 0,
                hedged: false,
                outcome: None,
                won_by_hedge: false,
            }
        })
        .collect();
    let hedge_delay = shared.hedge_delay();
    let hedge_at = started + hedge_delay;
    loop {
        let unanswered = pending
            .iter()
            .filter(|p| p.outcome.is_none() && p.failures < p.outstanding.max(1))
            .count();
        let still_running = pending
            .iter()
            .any(|p| p.outcome.is_none() && p.failures < p.outstanding);
        if unanswered == 0 && !still_running {
            break;
        }
        let now = Instant::now();
        // Out of deadline budget: whatever answered is all we serve.
        let remaining = match deadline {
            Some(d) => {
                let r = d.saturating_sub(now - started);
                if r.is_zero() {
                    break;
                }
                r
            }
            None => Duration::from_secs(3600),
        };
        let until_hedge = if pending.iter().any(|p| !p.hedged && p.outcome.is_none()) {
            hedge_at.saturating_duration_since(now)
        } else {
            remaining
        };
        let wait = remaining.min(until_hedge.max(Duration::from_millis(1)));
        match rx.recv_timeout(wait) {
            Ok(answer) => {
                let Some(p) = pending.iter_mut().find(|p| p.shard == answer.shard) else {
                    continue;
                };
                if p.outcome.is_some() {
                    continue; // the twin already won
                }
                match answer.result {
                    Ok(outcome) => {
                        shared.note_latency(answer.elapsed);
                        shared.on_shard_success(answer.shard);
                        p.outcome = Some(outcome);
                        p.won_by_hedge = answer.hedge;
                        if answer.hedge {
                            local.counter(Counter::HedgesWon, 1);
                        }
                    }
                    Err(_) => {
                        p.failures += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Hedge pass: every shard still silent past the delay gets one
        // second identical dispatch (first answer wins).
        if Instant::now() >= hedge_at {
            for p in pending.iter_mut() {
                if p.hedged || p.outcome.is_some() {
                    continue;
                }
                if usj_fault::fire("coord.hedge") {
                    local.counter(Counter::FaultsInjected, 1);
                }
                dispatch(shared, p.shard, true, k, tau, text, started, deadline, &tx);
                p.hedged = true;
                p.outstanding += 1;
                local.counter(Counter::HedgesSent, 1);
            }
        }
    }
    drop(rx); // any straggler dispatch thread now exits on send
              // Health bookkeeping for shards that never answered.
    let now = Instant::now();
    for p in &pending {
        if p.outcome.is_none() && shared.on_shard_failure(p.shard, now) {
            local.counter(Counter::ShardsQuarantined, 1);
        }
    }
    combine(shared, &pending, total, started, local)
}

/// Merges per-shard answers under the partial-result policy.
fn combine(
    shared: &Shared,
    pending: &[Pending],
    total: u32,
    started: Instant,
    local: &mut CollectingRecorder,
) -> Response {
    let answered = pending.iter().filter(|p| p.outcome.is_some()).count() as u32;
    let all_exact = pending
        .iter()
        .all(|p| matches!(p.outcome, Some(ProbeOutcome::Exact(_))));
    if answered == total && all_exact {
        // Shards own disjoint id sets and answer ascending global ids:
        // merging and sorting by id reproduces the single-node answer
        // bit for bit.
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for p in pending {
            if let Some(ProbeOutcome::Exact(shard_hits)) = &p.outcome {
                hits.extend_from_slice(shard_hits);
            }
        }
        hits.sort_unstable_by_key(|&(id, _)| id);
        local.counter(Counter::ServeFull, 1);
        return Response::Ok(hits);
    }
    if answered < total && shared.cfg.strict {
        // Strict mode: a partial answer is worse than no answer.
        if started.elapsed() >= shared.cfg.default_deadline.unwrap_or(Duration::MAX) {
            local.counter(Counter::ServeDeadline, 1);
            return Response::Deadline {
                elapsed_ms: started.elapsed().as_millis().min(u64::MAX as u128) as u64,
            };
        }
        return Response::Err(format!(
            "strict partial-result policy: only {answered}/{total} shards answered"
        ));
    }
    // Degraded: the union of everything the answering shards hold is a
    // sound superset of their exact hits. The shards marker appears
    // exactly when fleet coverage was partial — a truncated answer is
    // never served as a clean OK or an unmarked DEGRADED.
    let mut ids: Vec<u32> = Vec::new();
    for p in pending {
        match &p.outcome {
            Some(ProbeOutcome::Exact(hits)) => ids.extend(hits.iter().map(|&(id, _)| id)),
            Some(ProbeOutcome::Degraded { ids: shard_ids, .. }) => ids.extend_from_slice(shard_ids),
            None => {}
        }
    }
    ids.sort_unstable();
    ids.dedup();
    local.counter(Counter::ServeDegraded, 1);
    let shards = if answered < total {
        local.counter(Counter::PartialResponses, 1);
        Some((answered, total))
    } else {
        None
    };
    Response::Degraded { ids, shards }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ring_p99_is_nearest_rank_and_windowed() {
        let mut ring = LatencyRing::new(4);
        assert_eq!(ring.p99(), None);
        for ms in [10u64, 20, 30, 40] {
            ring.push(Duration::from_millis(ms));
        }
        assert_eq!(ring.p99(), Some(Duration::from_millis(40)));
        // Overwrites evict the oldest sample.
        ring.push(Duration::from_millis(5));
        assert_eq!(ring.p99(), Some(Duration::from_millis(40)));
        ring.push(Duration::from_millis(6));
        ring.push(Duration::from_millis(7));
        ring.push(Duration::from_millis(8));
        assert_eq!(ring.p99(), Some(Duration::from_millis(8)));
    }

    #[test]
    fn shard_spec_relevance_uses_the_length_filter() {
        let spec = ShardSpec {
            addr: "x".to_string(),
            band: Some((10, 20)),
        };
        assert!(spec.relevant(10, 0));
        assert!(spec.relevant(8, 2));
        assert!(spec.relevant(22, 2));
        assert!(!spec.relevant(7, 2));
        assert!(!spec.relevant(23, 2));
        let empty = ShardSpec {
            addr: "x".to_string(),
            band: None,
        };
        assert!(!empty.relevant(10, 100));
    }

    #[test]
    fn from_partition_rejects_mismatched_fleets() {
        let p = Partition::by_length(&[3, 4, 5], 2);
        let err = ShardSpec::from_partition(&p, &["a:1".to_string()]).unwrap_err();
        assert!(err.contains("2 shards but 1 addresses"));
        let specs = ShardSpec::from_partition(&p, &["a:1".to_string(), "b:2".to_string()]).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.band.is_some()));
    }

    #[test]
    fn health_machine_quarantines_and_reopens() {
        let h = ShardHealth {
            consecutive_failures: 0,
            quarantined_until: None,
        };
        let now = Instant::now();
        assert_eq!(h.state(now), ShardState::Healthy);
        let q = ShardHealth {
            consecutive_failures: 3,
            quarantined_until: Some(now + Duration::from_millis(100)),
        };
        assert_eq!(q.state(now), ShardState::Quarantined);
        assert_eq!(
            q.state(now + Duration::from_millis(150)),
            ShardState::HalfOpen
        );
    }
}
