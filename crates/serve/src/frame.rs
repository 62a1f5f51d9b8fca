//! The service frame both serving fronts run on.
//!
//! Thread layout: one accept thread owns the listener and performs
//! admission (push into a bounded queue or reject with `BUSY`); `workers`
//! threads pop connections and serve request lines. Admission and every
//! request line run inside the `usj-fault` shield + `catch_unwind`
//! perimeter, so a panic costs one connection or one request (`ERR
//! internal panic: …`) and never the listener. The frame answers `STATS`
//! and `SHUTDOWN` itself and owns the drain; a [`Front`] supplies what
//! differs: the single-node [`crate::server`] and the scatter-gather
//! [`crate::coordinator`].

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use usj_fault::{panic_message, shield};
use usj_obs::{Counter, Gauge, MetricsRegistry};

use crate::proto::{parse_request, Request, Response, ShardState};

/// What a serving front adds to the frame: its failpoints and its
/// answers to `HEALTH`, `METRICS`, `SHARDS` and `PROBE`. Admission is the
/// frame's alone, so every connection a front sees is answered.
pub trait Front: Sized + Send + Sync + 'static {
    /// Fires the front's admission failpoint, if it has one; `true` when
    /// a fault was injected. Runs first in each admission.
    fn fire_accept(&self) -> bool {
        false
    }

    /// Fires the front's per-request failpoint; `true` when a fault was
    /// injected. Runs before each request line is parsed.
    fn fire_request(&self) -> bool;

    /// Answers `HEALTH`.
    fn health(&self, frame: &Frame<Self>) -> Response;

    /// The Prometheus exposition `METRICS` and the handle return.
    fn metrics_text(&self, frame: &Frame<Self>) -> String {
        frame.record(|r| r.render_prometheus())
    }

    /// The per-shard states `SHARDS` reports; a single server fronts no
    /// fleet.
    fn shard_states(&self) -> Vec<ShardState> {
        Vec::new()
    }

    /// Answers `PROBE`.
    fn probe(
        &self,
        frame: &Frame<Self>,
        k: usize,
        tau: f64,
        deadline_ms: Option<u64>,
        trace_id: Option<u64>,
        text: &str,
    ) -> Reply;
}

/// One request's answer: its response line, preceded by a `TRACE` line
/// when the probe asked for a trace.
pub struct Reply {
    /// The traced probe's `TRACE` line.
    pub trace: Option<Response>,
    /// The response line.
    pub response: Response,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply {
            trace: None,
            response,
        }
    }
}

/// The values the frame reads from a front's config.
pub(crate) struct Limits {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving popped connections.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with `BUSY`.
    pub queue_cap: usize,
    /// Socket read/write timeout toward clients.
    pub io_timeout: Duration,
    /// Backoff hint sent with `BUSY` rejections.
    pub retry_after_ms: u64,
}

/// State shared by the accept thread, the workers, any front threads,
/// and the handle.
pub struct Frame<F> {
    pub(crate) front: F,
    limits: Limits,
    addr: SocketAddr,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Drain flag: once set, admission stops and workers exit after the
    /// queue empties.
    stop: AtomicBool,
    inflight: AtomicUsize,
    /// The one aggregate behind both `STATS` and `METRICS`.
    metrics: Mutex<MetricsRegistry>,
}

impl<F> Frame<F> {
    pub(crate) fn record<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        // A poisoned metrics lock only means a panic elsewhere while
        // recording; the metrics stay usable.
        let mut r = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut r)
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub(crate) fn inflight(&self) -> usize {
        // ordering: Relaxed — inflight is reported in HEALTH only; no
        // other memory depends on it.
        self.inflight.load(Ordering::Relaxed)
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
        // Unblock the accept() call so the accept thread can observe the
        // flag; the woken connection is dropped unanswered.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Handle to a running service. Dropping it does *not* stop the service;
/// call `shutdown` (or send `SHUTDOWN` on the wire and `wait`) for a
/// graceful drain.
pub struct Handle<F> {
    pub(crate) frame: Arc<Frame<F>>,
    /// The accept thread first, then the workers and any front threads:
    /// the join order.
    threads: Vec<JoinHandle<()>>,
}

/// Binds `limits.addr` and spawns the accept thread and the worker pool
/// for `front`, named `usj-<name>-accept` and `usj-<name>-worker-<i>`.
pub(crate) fn start<F: Front>(front: F, limits: Limits, name: &str) -> io::Result<Handle<F>> {
    let listener = TcpListener::bind(&limits.addr)?;
    let addr = listener.local_addr()?;
    let workers = limits.workers.max(1);
    let mut handle = Handle {
        frame: Arc::new(Frame {
            front,
            limits,
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            metrics: Mutex::new(MetricsRegistry::new()),
        }),
        threads: Vec::new(),
    };
    handle.spawn(format!("usj-{name}-accept"), move |frame| {
        accept_loop(frame, listener)
    })?;
    for i in 0..workers {
        handle.spawn(format!("usj-{name}-worker-{i}"), worker_loop)?;
    }
    Ok(handle)
}

impl<F: Front> Handle<F> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.frame.addr
    }

    /// The live Prometheus text exposition (what `METRICS` returns on
    /// the wire, unescaped).
    pub fn metrics_text(&self) -> String {
        self.frame.front.metrics_text(&self.frame)
    }

    /// A live observability snapshot (pretty JSON, golden schema).
    pub fn stats_json(&self) -> String {
        self.frame.record(|r| r.to_json())
    }

    /// Graceful drain: stop accepting, let workers finish queued and
    /// in-flight requests, join every thread, and return the final
    /// flushed stats snapshot. A coordinator's shards keep running: they
    /// have their own drains.
    pub fn shutdown(mut self) -> String {
        self.frame.begin_drain();
        self.join_all();
        self.stats_json()
    }

    /// Blocks until a wire-level `SHUTDOWN` (or an earlier `shutdown`)
    /// drains the service, then returns the final stats snapshot. This is
    /// what `usj serve` and `usj coord` park on.
    pub fn wait(mut self) -> String {
        self.join_all();
        self.stats_json()
    }

    fn join_all(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Spawns a thread that runs `f` on the frame; `shutdown` and `wait`
    /// join it after the workers.
    pub(crate) fn spawn(
        &mut self,
        name: String,
        f: impl FnOnce(&Frame<F>) + Send + 'static,
    ) -> io::Result<()> {
        let frame = Arc::clone(&self.frame);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || f(&frame))?;
        self.threads.push(thread);
        Ok(())
    }
}

fn accept_loop<F: Front>(frame: &Frame<F>, listener: TcpListener) {
    for stream in listener.incoming() {
        if frame.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Admission runs inside the panic perimeter: a fault injected at
        // the front's admission failpoint (or any admission bug) drops
        // one connection, never the listener.
        let admitted = shield::shielded(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if frame.front.fire_accept() {
                    frame.record(|r| r.counter(Counter::FaultsInjected, 1));
                }
                admit(frame, stream);
            }))
        });
        if admitted.is_err() {
            frame.record(|r| r.counter(Counter::ServePanics, 1));
        }
    }
}

/// Bounded admission, the one place a service answers `BUSY`: reject
/// instead of queueing without limit. The rejected client gets a
/// retry-after hint and a closed connection; the admitted one is queued
/// for a worker and always answered.
fn admit<F: Front>(frame: &Frame<F>, stream: TcpStream) {
    if frame.queue_depth() >= frame.limits.queue_cap {
        frame.record(|r| r.counter(Counter::ServeShed, 1));
        let _ = stream.set_write_timeout(Some(frame.limits.io_timeout));
        let busy = Response::Busy {
            retry_after_ms: frame.limits.retry_after_ms,
        };
        let _ = (&stream).write_all(format!("{}\n", busy.encode()).as_bytes());
        linger_close(stream);
        return;
    }
    let depth = {
        let mut queue = frame.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(stream);
        queue.len()
    };
    frame.record(|r| {
        r.counter(Counter::ServeAccepted, 1);
        r.gauge(Gauge::ServeQueueDepth, depth as u64);
    });
    frame.queue_cv.notify_one();
}

/// How long a shed connection may keep the accept thread draining it.
const SHED_LINGER: Duration = Duration::from_millis(50);

/// Closes a connection whose request was never read. Closing with
/// unread input resets the connection, and a reset can make the client's
/// kernel discard the `BUSY` line before the client reads it. So stop
/// writing, then discard input until the client closes (it does so as
/// soon as it has read the reply) or [`SHED_LINGER`] passes.
fn linger_close(mut stream: TcpStream) {
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

fn worker_loop<F: Front>(frame: &Frame<F>) {
    loop {
        let stream = {
            let mut queue = frame.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                // Drain contract: exit only once the flag is up *and*
                // the queue is empty — queued work always completes.
                if frame.draining() {
                    return;
                }
                let (guard, _) = frame
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        // ordering: Relaxed — inflight is reported in HEALTH only; no
        // other memory depends on it.
        frame.inflight.fetch_add(1, Ordering::Relaxed);
        handle_conn(frame, stream);
        frame.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one connection: line in, line out, until EOF, I/O timeout,
/// `BYE`, or drain. Each line is handled inside the panic perimeter.
fn handle_conn<F: Front>(frame: &Frame<F>, stream: TcpStream) {
    // A worker must never block forever on a slow client: both
    // directions are capped before the first read.
    if stream
        .set_read_timeout(Some(frame.limits.io_timeout))
        .is_err()
    {
        return;
    }
    let _ = stream.set_write_timeout(Some(frame.limits.io_timeout));
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    let mut out = String::new();
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
        let outcome = shield::shielded(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if frame.front.fire_request() {
                    frame.record(|r| r.counter(Counter::FaultsInjected, 1));
                }
                answer(frame, &line)
            }))
        });
        let reply = outcome.unwrap_or_else(|payload| {
            // One poisoned request gets ERR; the worker (and listener)
            // survive to serve the next one.
            frame.record(|r| r.counter(Counter::ServePanics, 1));
            Response::Err(format!("internal panic: {}", panic_message(&*payload))).into()
        });
        let done = matches!(reply.response, Response::Bye);
        // The optional TRACE line and the response line leave in one
        // write: a reply split over writes costs a syscall per piece.
        out.clear();
        for response in reply.trace.iter().chain([&reply.response]) {
            out.push_str(&response.encode());
            out.push('\n');
        }
        if (&stream).write_all(out.as_bytes()).is_err() {
            return;
        }
        // Draining: answer the current request, then close so the worker
        // can exit instead of idling on a held-open connection.
        if done || frame.draining() {
            return;
        }
    }
}

/// Answers one request line: the frame's own verbs here, the rest by the
/// front.
fn answer<F: Front>(frame: &Frame<F>, line: &str) -> Reply {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(msg) => return Response::Err(msg).into(),
    };
    let response = match request {
        Request::Health => frame.front.health(frame),
        Request::Stats => Response::Stats(compact_json(&frame.record(|r| r.to_json()))),
        Request::Metrics => Response::Metrics(frame.front.metrics_text(frame)),
        Request::Shards => Response::Shards(frame.front.shard_states()),
        Request::Shutdown => {
            frame.begin_drain();
            Response::Bye
        }
        Request::Probe {
            k,
            tau,
            deadline_ms,
            trace_id,
            text,
        } => {
            return frame
                .front
                .probe(frame, k, tau, deadline_ms, trace_id, &text)
        }
    };
    response.into()
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
