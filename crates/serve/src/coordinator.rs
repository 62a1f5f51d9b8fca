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
//!   cancelled at the protocol level (its answer is discarded on a
//!   dropped receiver, and its dispatch thread goes back to the pool);
//! * **bounded retry with jittered backoff** inside each dispatch,
//!   reusing [`Client`]'s policy (each shard client gets a
//!   deterministic per-(request, shard, hedge) jitter seed);
//! * **health tracking** — `quarantine_after` consecutive failures
//!   bench a shard for `quarantine_cooldown`; after the cooldown the
//!   next relevant probe is a half-open trial whose success readmits
//!   the shard and whose failure re-quarantines it;
//! * **resident dispatch threads** — each attempt (primary or hedge)
//!   runs on an idle thread of the coordinator's cached pool, and a new
//!   thread starts only when none is idle, so an attempt never waits
//!   behind a stalled one; idle threads exit after a fixed linger and
//!   once the coordinator is dropped at the end of its drain;
//! * an explicit **partial-result policy** — when some relevant shards
//!   cannot answer, strict mode refuses the request while degraded
//!   mode serves the union of the surviving shards' answers marked
//!   `DEGRADED shards=<ok>/<total>` (a sound superset of what the
//!   surviving shards hold; never a silently truncated `OK`).
//!
//! The coordinator is a front of the same service frame as the single
//! server (`frame.rs`): one accept, admission, worker and connection
//! loop. It sheds at admission on queue depth only. Admission and every
//! request line run inside the frame's `usj-fault` shield +
//! `catch_unwind` perimeter, so a panic injected at `coord.dispatch` /
//! `coord.gather` / `coord.hedge` poisons one request (`ERR internal
//! panic: …`) and never the listener.
//!
//! Merging is bit-exact: shards own disjoint id sets and answer hits as
//! collection-global `(id, prob-bits)` pairs, so concatenating exact
//! answers and sorting by id reproduces the single-node server's answer
//! bit for bit (proven by the N-shard differential suite).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use usj_core::partition::band_relevant;
use usj_core::Partition;
use usj_model::{Alphabet, UncertainString};
use usj_obs::{band_of, CollectingRecorder, Counter, Gauge, MergeRecorder, Recorder};

use crate::client::{Client, ClientConfig, ProbeOutcome};
use crate::degrade::LatencyRing;
use crate::frame::{self, Frame, Front, Handle, Limits, Reply};
use crate::proto::{Response, ShardState};

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
                band: slice.band(),
            })
            .collect())
    }

    /// Can this shard hold a match for a probe of length `probe_len`
    /// under threshold `k`?
    fn relevant(&self, probe_len: usize, k: usize) -> bool {
        band_relevant(self.band, probe_len, k)
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

/// The scatter-gather front of the service frame: the fleet, its health
/// table and the hedge-delay window. Callers reach it only through
/// [`CoordinatorHandle`].
pub struct Coordinator {
    cfg: CoordConfig,
    alphabet: Alphabet,
    shards: Vec<ShardSpec>,
    probe_seq: AtomicUsize,
    health: Mutex<Vec<ShardHealth>>,
    latencies: Mutex<LatencyRing>,
    dispatcher: Dispatcher,
}

/// Handle to a running coordinator. Dropping it does *not* stop the
/// coordinator; call `shutdown` (or send `SHUTDOWN` on the wire and
/// `wait`) for a graceful drain.
pub type CoordinatorHandle = Handle<Coordinator>;

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
    let limits = Limits {
        addr: cfg.addr.clone(),
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        io_timeout: cfg.io_timeout,
        retry_after_ms: cfg.retry_after_ms,
    };
    let coordinator = Coordinator {
        health: Mutex::new(vec![ShardHealth::default(); shards.len()]),
        latencies: Mutex::new(LatencyRing::new(64)),
        cfg,
        alphabet,
        shards,
        probe_seq: AtomicUsize::new(0),
        dispatcher: Dispatcher::default(),
    };
    frame::start(coordinator, limits, "coord")
}

impl Coordinator {
    fn healthy_count(&self) -> usize {
        self.shard_states()
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
        // An empty window falls back to the configured floor.
        p99.map_or(self.cfg.hedge_after, |p99| p99.max(self.cfg.hedge_after))
    }

    fn note_latency(&self, sample: Duration) {
        let mut ring = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ring.push(sample);
    }
}

impl Front for Coordinator {
    fn fire_request(&self) -> bool {
        // `coord.dispatch` fires before fan-out, so an injected panic
        // proves the perimeter isolates the whole scatter-gather path.
        usj_fault::fire("coord.dispatch")
    }

    fn health(&self, frame: &Frame<Self>) -> Response {
        // The coordinator's ladder level is fleet coverage: 0 all
        // shards reachable, 1 some quarantined, 2 none left.
        let healthy = self.healthy_count();
        let level = if healthy == self.shards.len() {
            0
        } else if healthy > 0 {
            1
        } else {
            2
        };
        Response::Health {
            level,
            queue: frame.queue_depth(),
            inflight: frame.inflight(),
            // The coordinator holds no index, so it is never warm
            // itself; per-shard warmth is visible via each shard's
            // own HEALTH endpoint.
            warm: Some(false),
            snapshot_age_s: None,
        }
    }

    /// The golden-schema registry plus one `usj_shard_up{shard="<i>"}`
    /// series per shard (1 healthy or half-open, 0 quarantined).
    fn metrics_text(&self, frame: &Frame<Self>) -> String {
        let mut text = frame.registry.render_prometheus();
        // Live per-shard health as a labeled series, appended after the
        // schema-stable golden exposition (which stays byte-identical to
        // a single server's — dashboards work unchanged).
        text.push_str("# TYPE usj_shard_up gauge\n");
        for (idx, state) in self.shard_states().iter().enumerate() {
            let up = u8::from(!matches!(state, ShardState::Quarantined));
            text.push_str(&format!("usj_shard_up{{shard=\"{idx}\"}} {up}\n"));
        }
        text
    }

    fn shard_states(&self) -> Vec<ShardState> {
        let now = Instant::now();
        let health = self.health.lock().unwrap_or_else(PoisonError::into_inner);
        health.iter().map(|h| h.state(now)).collect()
    }

    /// Trace ids are a single-server feature: a scatter-gather has no
    /// one server-side trace to forward, so the option is accepted and
    /// ignored (the client tolerates a missing `TRACE` line).
    fn probe(
        &self,
        frame: &Frame<Self>,
        k: usize,
        tau: f64,
        deadline_ms: Option<u64>,
        _trace_id: Option<u64>,
        text: &str,
    ) -> Reply {
        let started = Instant::now();
        if k != self.cfg.k || (tau - self.cfg.tau).abs() > 1e-9 {
            return Response::Err(format!(
                "this fleet is indexed for k={} tau={} (got k={k} tau={tau})",
                self.cfg.k, self.cfg.tau
            ))
            .into();
        }
        // Parse locally only to learn the probe's length (for band
        // pruning) and to reject garbage before burning fleet capacity;
        // shards parse the forwarded text themselves.
        let probe = match UncertainString::parse(text, &self.alphabet) {
            Ok(probe) => probe,
            Err(e) => return Response::Err(format!("bad probe: {e}")).into(),
        };
        let deadline = deadline_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_deadline);
        let (relevant, skipped) = select_shards(self, probe.len(), k);
        let total = (relevant.len() + skipped) as u32;
        // ordering: Relaxed — the sequence only labels per-probe
        // histogram buckets; no other memory depends on it.
        let probe_id = self.probe_seq.fetch_add(1, Ordering::Relaxed) as u32;
        let mut local = CollectingRecorder::new();
        local.probe_start(probe_id);
        let response = gather(
            self, &relevant, total, k, tau, text, started, deadline, &mut local,
        );
        local.probe_end(probe_id);
        local.gauge(Gauge::ShardHealthy, self.healthy_count() as u64);
        frame.registry.fold(Some(band_of(probe.len())), &local);
        frame.record(|r| r.absorb(local));
        response.into()
    }
}

/// One attempt's answer travelling back from a dispatch thread.
struct ShardAnswer {
    shard: usize,
    hedge: bool,
    elapsed: Duration,
    /// `None` when the attempt failed (the client already retried).
    outcome: Option<ProbeOutcome>,
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
}

/// The scatter set for a probe of length `probe_len`: shard indices to
/// dial, plus how many relevant shards are benched in quarantine (they
/// still count toward the total so a partial answer is visibly
/// partial). A half-open shard is dialed — that is its recovery trial.
fn select_shards(coord: &Coordinator, probe_len: usize, k: usize) -> (Vec<usize>, usize) {
    let states = coord.shard_states();
    let mut relevant = Vec::new();
    let mut skipped = 0usize;
    for (idx, spec) in coord.shards.iter().enumerate() {
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

/// How long an idle dispatch thread waits for its next attempt before
/// it exits.
const DISPATCH_LINGER: Duration = Duration::from_secs(5);

/// One shard attempt, run on a dispatch thread.
type Job = Box<dyn FnOnce() + Send>;

/// The coordinator's dispatch threads: a cached pool. A job runs on an
/// idle thread, and a new thread starts only when none is idle, so a job
/// never waits behind a stalled one. Idle threads exit after
/// [`DISPATCH_LINGER`], and every thread exits once the coordinator is
/// dropped and its current job, if any, returns. Nothing joins them.
#[derive(Default)]
struct Dispatcher {
    pool: Arc<Pool>,
}

#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    ready: Condvar,
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<Job>,
    /// Threads waiting for a job. A thread counts as idle only while it
    /// waits, so a job that panics takes its own thread down and leaves
    /// the count right.
    idle: usize,
    /// Threads started so far.
    started: usize,
    /// Set when the coordinator is dropped: waiting threads exit.
    closed: bool,
}

impl Dispatcher {
    /// Runs `job` on an idle dispatch thread, or on a new one when every
    /// thread is busy.
    fn run(&self, job: Job) {
        let start = {
            let mut state = self.pool.lock();
            state.jobs.push_back(job);
            // Each idle thread takes one queued job; the rest need a
            // thread of their own.
            if state.jobs.len() > state.idle {
                state.started += 1;
                Some(state.started)
            } else {
                self.pool.ready.notify_one();
                None
            }
        };
        if let Some(n) = start {
            let pool = Arc::clone(&self.pool);
            // A thread that fails to start leaves its job queued for the
            // next thread that finishes one.
            let _ = std::thread::Builder::new()
                .name(format!("usj-coord-dispatch-{n}"))
                .spawn(move || {
                    while let Some(job) = pool.next_job() {
                        job();
                    }
                });
        }
    }

    /// Threads started so far.
    #[cfg(test)]
    fn started(&self) -> usize {
        self.pool.lock().started
    }

    /// Threads waiting for a job.
    #[cfg(test)]
    fn idle(&self) -> usize {
        self.pool.lock().idle
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        self.pool.lock().closed = true;
        self.pool.ready.notify_all();
    }
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // No job runs under the lock, so poisoning means nothing here.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The calling thread's next job, or `None` once the pool is closed
    /// or the thread has lingered idle for [`DISPATCH_LINGER`].
    fn next_job(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            let (guard, wait) = self
                .ready
                .wait_timeout(state, DISPATCH_LINGER)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            state.idle -= 1;
            if wait.timed_out() && state.jobs.is_empty() {
                return None;
            }
        }
    }
}

/// Dispatches one attempt (primary or hedge) for `shard` on a dispatch
/// thread; the result comes back over `tx`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    coord: &Coordinator,
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
        jitter_seed: coord
            .cfg
            .client
            .jitter_seed
            .wrapping_add((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(hedge)),
        ..coord.cfg.client.clone()
    };
    let addr = coord.shards[shard].addr.clone();
    let text = text.to_string();
    let tx = tx.clone();
    let dispatched = Instant::now();
    // If the request completes first (the other twin won, or the
    // gather deadline fired), the receiver is gone, the send fails
    // silently, and the thread goes back to the pool — protocol-level
    // cancellation without tearing down sockets mid-read.
    coord.dispatcher.run(Box::new(move || {
        let mut client = Client::new(addr, cfg);
        let outcome = client.probe(k, tau, &text).ok();
        let _ = tx.send(ShardAnswer {
            shard,
            hedge,
            elapsed: dispatched.elapsed(),
            outcome,
        });
    }));
}

/// The gather loop: collects per-shard answers, hedges silent shards
/// after the hedge delay, updates shard health, and combines answers
/// under the partial-result policy.
#[allow(clippy::too_many_arguments)]
fn gather(
    coord: &Coordinator,
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
            dispatch(coord, shard, false, k, tau, text, started, deadline, &tx);
            Pending {
                shard,
                outstanding: 1,
                failures: 0,
                hedged: false,
                outcome: None,
            }
        })
        .collect();
    let hedge_delay = coord.hedge_delay();
    let hedge_at = started + hedge_delay;
    loop {
        // Done once every shard has answered or failed every dispatch
        // it was sent.
        if !pending
            .iter()
            .any(|p| p.outcome.is_none() && p.failures < p.outstanding)
        {
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
                match answer.outcome {
                    Some(outcome) => {
                        coord.note_latency(answer.elapsed);
                        coord.on_shard_success(answer.shard);
                        p.outcome = Some(outcome);
                        if answer.hedge {
                            local.counter(Counter::HedgesWon, 1);
                        }
                    }
                    None => p.failures += 1,
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
                dispatch(coord, p.shard, true, k, tau, text, started, deadline, &tx);
                p.hedged = true;
                p.outstanding += 1;
                local.counter(Counter::HedgesSent, 1);
            }
        }
    }
    // Any straggler attempt's answer is now discarded on send.
    drop(rx);
    // Health bookkeeping for shards that never answered.
    let now = Instant::now();
    for p in &pending {
        if p.outcome.is_none() && coord.on_shard_failure(p.shard, now) {
            local.counter(Counter::ShardsQuarantined, 1);
        }
    }
    combine(coord, &pending, total, started, deadline, local)
}

/// Merges per-shard answers under the partial-result policy.
fn combine(
    coord: &Coordinator,
    pending: &[Pending],
    total: u32,
    started: Instant,
    deadline: Option<Duration>,
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
    if answered < total && coord.cfg.strict {
        // Strict mode: a partial answer is worse than no answer. A
        // request whose own budget ran out is answered DEADLINE.
        if started.elapsed() >= deadline.unwrap_or(Duration::MAX) {
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
    use crate::server::ServeConfig;
    use crate::shard::{serve_shard, shard_partition};
    use usj_core::JoinConfig;

    #[test]
    fn sequential_probes_start_no_more_dispatch_threads_than_were_busy_at_once() {
        let alphabet = Alphabet::dna();
        let strings: Vec<UncertainString> = [
            "ACGT",
            "ACGTA",
            "ACGTAC",
            "ACGTACG",
            "ACGTACGT",
            "ACGTACGTA",
            "ACGTACGTAC",
            "ACGTACGTACGT",
        ]
        .iter()
        .map(|t| UncertainString::parse(t, &alphabet).unwrap())
        .collect();
        let partition = shard_partition(&strings, 3);
        let shards: Vec<_> = (0..3)
            .map(|i| {
                let cfg = JoinConfig::new(1, 0.3);
                serve_shard(
                    cfg,
                    alphabet.clone(),
                    &strings,
                    &partition,
                    i,
                    ServeConfig::default(),
                )
                .expect("bind shard")
            })
            .collect();
        let addrs: Vec<String> = shards.iter().map(|h| h.addr().to_string()).collect();
        let specs = ShardSpec::from_partition(&partition, &addrs).expect("specs");
        let probes = ["ACGTA", "ACGTACG", "ACGTACGTA", "ACGTACGTACG", "ACGTAC"];
        // Sequential probes keep at most one probe's fan-out busy at once.
        let widest = probes
            .iter()
            .map(|p| specs.iter().filter(|s| s.relevant(p.len(), 1)).count())
            .max()
            .unwrap();
        assert_eq!(
            widest, 2,
            "the length filter prunes each probe to two shards"
        );
        let cfg = CoordConfig {
            k: 1,
            tau: 0.3,
            // No hedges: each probe dispatches exactly its fan-out.
            hedge_after: Duration::from_secs(60),
            ..CoordConfig::default()
        };
        let coord = coordinate(specs, alphabet, cfg).expect("bind coordinator");
        let dispatcher = &coord.frame.front.dispatcher;
        let mut client = Client::new(coord.addr().to_string(), ClientConfig::default());
        for i in 0..50 {
            let outcome = client
                .probe(1, 0.3, probes[i % probes.len()])
                .expect("probe");
            assert!(matches!(outcome, ProbeOutcome::Exact(_)), "{outcome:?}");
            // A thread goes back to idle just after it sends its answer;
            // wait for that so the next probe finds it idle.
            let until = Instant::now() + Duration::from_secs(5);
            while dispatcher.idle() < dispatcher.started() && Instant::now() < until {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(
            (1..=widest).contains(&dispatcher.started()),
            "50 sequential probes started {} dispatch threads",
            dispatcher.started()
        );
        coord.shutdown();
        for shard in shards {
            shard.shutdown();
        }
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
