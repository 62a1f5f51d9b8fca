//! Blocking client with capped exponential backoff + jitter and
//! per-request deadline propagation.
//!
//! Each probe opens one connection (the protocol is a single
//! request/response line, and one-shot connections keep retry semantics
//! trivial: a retried request can land on any worker). On `BUSY` the
//! client backs off — at least the server's `retry_after_ms` hint,
//! jittered — and retries up to `max_retries` times. When a deadline is
//! set, the *remaining* budget is recomputed before every attempt, sent
//! to the server as `deadline_ms=`, and mirrored into the socket
//! read/write timeouts so a stalled server cannot overrun it.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use usj_model::rng::Rng;

use crate::proto::Response;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Retries after the first attempt (on `BUSY` or connect failure).
    pub max_retries: u32,
    /// First backoff step; doubles per retry up to `max_backoff`.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// End-to-end deadline across *all* attempts, propagated to the
    /// server per attempt as the remaining budget.
    pub deadline: Option<Duration>,
    /// Seed for the backoff jitter (and trace-id minting), so retry
    /// schedules are reproducible in tests and soak runs.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: None,
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// A successful probe's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// Exact `(id, Pr(ed ≤ k))` hits from the full pipeline.
    Exact(Vec<(u32, f64)>),
    /// Superset candidate ids: a single server's filter-only answer
    /// (`shards` is `None`), or a coordinator's partial scatter-gather
    /// (`shards = Some((answered, total))`).
    Degraded {
        /// Candidate ids — a sound superset of the exact hit ids.
        ids: Vec<u32>,
        /// `(answered, total)` fleet coverage, when a coordinator
        /// answered from a subset of its shards.
        shards: Option<(u32, u32)>,
    },
}

/// Everything a `HEALTH` reply reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// A server's degradation-ladder level (0 full, 1 degraded); a
    /// coordinator's fleet coverage (0 all shards, 1 some, 2 none).
    pub level: u8,
    /// Admission-queue depth at reply time.
    pub queue: usize,
    /// Requests being processed by workers at reply time.
    pub inflight: usize,
    /// Whether the server started warm from an on-disk snapshot
    /// (`None` from peers that predate the field).
    pub warm: Option<bool>,
    /// Age in seconds of the snapshot a warm server started from.
    pub snapshot_age_s: Option<u64>,
}

/// The server-side trace a traced probe came back with.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeTrace {
    /// The trace id this client minted and the server echoed.
    pub trace_id: u64,
    /// Single-line Chrome trace-event JSON (`{"traceEvents":[...]}`),
    /// loadable in Perfetto / `chrome://tracing`.
    pub json: String,
}

/// Why a probe ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt was shed with `BUSY`.
    Busy {
        /// Attempts made (initial + retries) before giving up.
        attempts: u32,
    },
    /// The deadline expired — locally between attempts or server-side
    /// (a `DEADLINE` response is not retried: the budget is gone).
    Deadline,
    /// Connection/transport failure on the final attempt.
    Io(io::Error),
    /// The server answered, but not with a line this client understands.
    Protocol(String),
    /// The server reported a request-level error (`ERR ...`).
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Busy { attempts } => {
                write!(f, "server busy after {attempts} attempt(s)")
            }
            ClientError::Deadline => write!(f, "deadline exceeded"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Blocking one-shot probe client.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    /// Jitter and trace-id stream (raw-state seeded, so a fixed
    /// `jitter_seed` replays a pinned schedule).
    rng: Rng,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn new(addr: impl Into<String>, cfg: ClientConfig) -> Client {
        let seed = cfg.jitter_seed;
        Client {
            addr: addr.into(),
            cfg,
            rng: Rng::from_state(seed),
        }
    }

    /// Issues `PROBE k tau text`, retrying on `BUSY`/transport errors
    /// with capped exponential backoff + jitter.
    pub fn probe(&mut self, k: usize, tau: f64, text: &str) -> Result<ProbeOutcome, ClientError> {
        self.probe_inner(k, tau, text, None)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`Client::probe`], but mints a trace id, sends it as
    /// `trace_id=`, and returns the server's `TRACE` line (the Chrome
    /// trace-event JSON for the request) alongside the answer. The trace
    /// is `None` only if the answer arrived without one (e.g. the probe
    /// was shed at admission, before the traced path).
    pub fn probe_traced(
        &mut self,
        k: usize,
        tau: f64,
        text: &str,
    ) -> Result<(ProbeOutcome, Option<ProbeTrace>), ClientError> {
        let trace_id = self.mint_trace_id();
        self.probe_inner(k, tau, text, Some(trace_id))
    }

    /// A fresh nonzero trace id (drawn from the jitter stream; the low
    /// bit is forced so 0 — the "untraced" sentinel — never escapes).
    fn mint_trace_id(&mut self) -> u64 {
        self.rng.next_u64() | 1
    }

    fn probe_inner(
        &mut self,
        k: usize,
        tau: f64,
        text: &str,
        trace_id: Option<u64>,
    ) -> Result<(ProbeOutcome, Option<ProbeTrace>), ClientError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        let mut saw_busy = false;
        let mut backoff_hint = 0u64;
        loop {
            attempts += 1;
            let remaining = self.remaining(started)?;
            match self.attempt(k, tau, text, trace_id, remaining) {
                Ok((trace, Response::Ok(hits))) => return Ok((ProbeOutcome::Exact(hits), trace)),
                Ok((trace, Response::Degraded { ids, shards })) => {
                    return Ok((ProbeOutcome::Degraded { ids, shards }, trace))
                }
                Ok((_, Response::Deadline { .. })) => return Err(ClientError::Deadline),
                Ok((_, Response::Busy { retry_after_ms })) => {
                    saw_busy = true;
                    backoff_hint = retry_after_ms;
                }
                Ok((_, Response::Err(msg))) => return Err(ClientError::Server(msg)),
                Ok((_, other)) => return Err(unexpected(&other)),
                Err(RetryableError::Fatal(e)) => return Err(e),
                Err(RetryableError::Transport(e)) => {
                    if attempts > self.cfg.max_retries {
                        return Err(ClientError::Io(e));
                    }
                }
            }
            if attempts > self.cfg.max_retries {
                if saw_busy {
                    return Err(ClientError::Busy { attempts });
                }
                return Err(ClientError::Deadline);
            }
            let pause = self.backoff(attempts, backoff_hint);
            if let Some(deadline) = self.cfg.deadline {
                if started.elapsed() + pause >= deadline {
                    return Err(ClientError::Deadline);
                }
            }
            std::thread::sleep(pause);
        }
    }

    /// One `HEALTH` round-trip, reduced to `(level, queue, inflight)`.
    pub fn health(&mut self) -> Result<(u8, usize, usize), ClientError> {
        let report = self.health_report()?;
        Ok((report.level, report.queue, report.inflight))
    }

    /// One `HEALTH` round-trip with every reported field, including the
    /// warm-restart markers a snapshot-booted server adds.
    pub fn health_report(&mut self) -> Result<HealthReport, ClientError> {
        self.exchange("HEALTH", |response| match response {
            Response::Health {
                level,
                queue,
                inflight,
                warm,
                snapshot_age_s,
            } => Ok(HealthReport {
                level,
                queue,
                inflight,
                warm,
                snapshot_age_s,
            }),
            other => Err(other),
        })
    }

    /// One `STATS` round-trip: the server's one-line obs JSON snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.exchange("STATS", |response| match response {
            Response::Stats(json) => Ok(json),
            other => Err(other),
        })
    }

    /// One `METRICS` round-trip: the server's live Prometheus text
    /// exposition (unescaped, multi-line).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.exchange("METRICS", |response| match response {
            Response::Metrics(text) => Ok(text),
            other => Err(other),
        })
    }

    /// One `SHARDS` round-trip: per-shard health states from a
    /// coordinator (a plain single-node server answers an empty list).
    pub fn shards(&mut self) -> Result<Vec<crate::proto::ShardState>, ClientError> {
        self.exchange("SHARDS", |response| match response {
            Response::Shards(states) => Ok(states),
            other => Err(other),
        })
    }

    /// Asks the server to drain gracefully (`SHUTDOWN` → `BYE`).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.exchange("SHUTDOWN", |response| match response {
            Response::Bye => Ok(()),
            other => Err(other),
        })
    }

    /// One connection, one request line, and the reply `expect`
    /// extracts; any other reply is a protocol error. Never retried.
    fn exchange<T>(
        &mut self,
        line: &str,
        expect: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.attempt_request(line, None) {
            Ok((_, response)) => expect(response).map_err(|other| unexpected(&other)),
            Err(RetryableError::Fatal(e)) => Err(e),
            Err(RetryableError::Transport(e)) => Err(ClientError::Io(e)),
        }
    }

    /// Remaining deadline budget, or `None` when no deadline is set.
    fn remaining(&self, started: Instant) -> Result<Option<Duration>, ClientError> {
        match self.cfg.deadline {
            None => Ok(None),
            Some(deadline) => {
                let spent = started.elapsed();
                if spent >= deadline {
                    Err(ClientError::Deadline)
                } else {
                    Ok(Some(deadline - spent))
                }
            }
        }
    }

    fn attempt(
        &mut self,
        k: usize,
        tau: f64,
        text: &str,
        trace_id: Option<u64>,
        remaining: Option<Duration>,
    ) -> Result<(Option<ProbeTrace>, Response), RetryableError> {
        let mut line = format!("PROBE {k} {tau}");
        if let Some(budget) = remaining {
            let ms = budget.as_millis().clamp(1, u64::MAX as u128) as u64;
            line.push_str(&format!(" deadline_ms={ms}"));
        }
        if let Some(id) = trace_id {
            line.push_str(&format!(" trace_id={id:016x}"));
        }
        line.push(' ');
        line.push_str(text);
        self.attempt_request(&line, remaining)
    }

    /// One connection, one request line, and the response — preceded by
    /// an optional `TRACE` line when the request was a traced probe.
    fn attempt_request(
        &mut self,
        line: &str,
        remaining: Option<Duration>,
    ) -> Result<(Option<ProbeTrace>, Response), RetryableError> {
        let addrs = self
            .addr
            .to_socket_addrs()
            .map_err(RetryableError::Transport)?
            .collect::<Vec<_>>();
        let stream = match remaining {
            // The socket timeouts mirror the deadline so a stalled
            // server cannot overrun the budget.
            Some(budget) => addrs
                .first()
                .ok_or_else(|| {
                    RetryableError::Fatal(ClientError::Protocol(format!(
                        "address {:?} resolves to nothing",
                        self.addr
                    )))
                })
                .and_then(|addr| {
                    TcpStream::connect_timeout(addr, budget).map_err(RetryableError::Transport)
                })?,
            None => TcpStream::connect(&*addrs).map_err(RetryableError::Transport)?,
        };
        // Cap even deadline-free requests: the client must never hang
        // forever on a stalled server.
        const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);
        let io_timeout = remaining.unwrap_or(DEFAULT_IO_TIMEOUT);
        stream
            .set_read_timeout(Some(io_timeout))
            .map_err(RetryableError::Transport)?;
        stream
            .set_write_timeout(Some(io_timeout))
            .map_err(RetryableError::Transport)?;
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .map_err(RetryableError::Transport)?;
        let mut reader = BufReader::new(stream);
        // A dropped connection is retryable: the server closed without
        // answering (e.g. an admission-path fault).
        let mut read_response = |closed: &str| {
            let mut reply = String::new();
            let n = reader
                .read_line(&mut reply)
                .map_err(RetryableError::Transport)?;
            if n == 0 {
                return Err(RetryableError::Transport(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed {closed}"),
                )));
            }
            Response::parse(&reply).map_err(|msg| RetryableError::Fatal(ClientError::Protocol(msg)))
        };
        let first = read_response("before a response")?;
        let Response::Trace { trace_id, json } = first else {
            return Ok((None, first));
        };
        // A TRACE line always precedes the traced probe's real answer.
        let response = read_response("after TRACE, before the answer")?;
        Ok((Some(ProbeTrace { trace_id, json }), response))
    }

    /// Capped exponential backoff with 50–100% jitter, floored at the
    /// server's `retry_after_ms` hint and never below `base_backoff`.
    fn backoff(&mut self, attempt: u32, hint_ms: u64) -> Duration {
        let exp = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.max_backoff);
        let floor = Duration::from_millis(hint_ms);
        let full = exp.max(floor);
        // Jitter in [50%, 100%] of the window spreads synchronized
        // retry storms without ever retrying *before* half the hint.
        let half = full / 2;
        let jittered =
            half + Duration::from_nanos(self.rng.next_u64() % (half.as_nanos().max(1) as u64));
        // A saturated server hints retry_after_ms=0 (and a tiny
        // max_backoff collapses the window the same way); without a
        // positive floor the retry loop hot-spins against a server that
        // just shed us. base_backoff is the client's own minimum pause.
        jittered.max(self.cfg.base_backoff)
    }
}

/// The protocol error for a reply of the wrong kind.
fn unexpected(response: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response {:?}", response.encode()))
}

enum RetryableError {
    /// Transport-level failure: worth another attempt.
    Transport(io::Error),
    /// Semantic failure: retrying cannot help.
    Fatal(ClientError),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_jittered_and_respects_hints() {
        let mut c = Client::new("127.0.0.1:1", ClientConfig::default());
        for attempt in 1..=10 {
            let pause = c.backoff(attempt, 0);
            assert!(pause <= c.cfg.max_backoff, "attempt {attempt}: {pause:?}");
            let floor_half = c.cfg.base_backoff / 2;
            assert!(pause >= floor_half, "attempt {attempt}: {pause:?}");
        }
        // A server hint larger than the exponential window becomes the
        // floor: the client never retries before half the hint.
        let pause = c.backoff(1, 800);
        assert!(pause >= Duration::from_millis(400), "{pause:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = Client::new("127.0.0.1:1", ClientConfig::default());
        let mut b = Client::new("127.0.0.1:1", ClientConfig::default());
        let seq_a: Vec<u64> = (0..4).map(|_| a.rng.next_u64()).collect();
        let seq_b: Vec<u64> = (0..4).map(|_| b.rng.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                jitter_seed: 42,
                ..ClientConfig::default()
            },
        );
        let seq_c: Vec<u64> = (0..4).map(|_| c.rng.next_u64()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn zero_retry_hint_never_collapses_the_pause_to_a_hot_spin() {
        // Regression: with the exponential window collapsed (max_backoff
        // below base) and the server hinting retry_after_ms=0, the old
        // jitter math produced ~0ns pauses — a hot spin hammering a
        // server that just shed the request.
        let mut c = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::ZERO,
                ..ClientConfig::default()
            },
        );
        for attempt in 1..=6 {
            let pause = c.backoff(attempt, 0);
            assert!(
                pause >= c.cfg.base_backoff,
                "attempt {attempt}: pause {pause:?} below base_backoff"
            );
        }
    }

    #[test]
    fn fixed_seed_yields_a_pinned_backoff_schedule() {
        // Two clients with the same jitter_seed walk identical schedules
        // (what makes the overload/soak suites reproducible); the exact
        // nanosecond values are pinned so an accidental reseeding or
        // jitter-math change fails loudly.
        let cfg = ClientConfig {
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(64),
            jitter_seed: 0xfeed_f00d,
            ..ClientConfig::default()
        };
        let schedule =
            |mut c: Client| -> Vec<u128> { (1..=5).map(|a| c.backoff(a, 0).as_nanos()).collect() };
        let a = schedule(Client::new("127.0.0.1:1", cfg.clone()));
        let b = schedule(Client::new("127.0.0.1:1", cfg.clone()));
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(
            a,
            vec![9_407_661, 18_630_908, 50_671_397, 49_045_627, 51_615_515],
            "pinned schedule for jitter_seed=0xfeed_f00d"
        );
        let reseeded = schedule(Client::new(
            "127.0.0.1:1",
            ClientConfig {
                jitter_seed: 0xfeed_f00e,
                ..cfg
            },
        ));
        assert_ne!(a, reseeded, "different seed, different schedule");
    }

    #[test]
    fn connecting_to_a_dead_port_fails_with_io_after_retries() {
        let mut client = Client::new(
            // Reserved port that nothing listens on.
            "127.0.0.1:1",
            ClientConfig {
                max_retries: 1,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        );
        match client.probe(1, 0.3, "ACGT") {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_fails_before_connecting() {
        let mut client = Client::new(
            "127.0.0.1:1",
            ClientConfig {
                deadline: Some(Duration::ZERO),
                ..ClientConfig::default()
            },
        );
        match client.probe(1, 0.3, "ACGT") {
            Err(ClientError::Deadline) => {}
            other => panic!("expected Deadline, got {other:?}"),
        }
    }
}
