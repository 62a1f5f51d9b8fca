//! # usj-serve — overload-resilient query service
//!
//! A threaded TCP line-protocol server exposing the uncertain-string
//! search primitive (`PROBE <k> <tau> <uncertain-string>`) over one
//! shared [`usj_core::IndexedCollection`], built to stay correct and
//! alive under overload:
//!
//! - **Bounded admission** — a fixed-capacity queue in front of the
//!   worker pool; when it fills, new connections are rejected with an
//!   explicit `BUSY retry_after_ms=..` instead of queueing without
//!   limit ([`server::ServeConfig::queue_cap`]).
//! - **Degradation ladder** — three service levels driven by queue
//!   depth and p99 latency ([`degrade::Controller`]): the full
//!   qgram→freq→CDF→verify pipeline, then filter-only answers flagged
//!   `DEGRADED` (a sound superset of the exact answer, per the q-gram
//!   and frequency-distance lower bounds), then load shedding.
//! - **Deadline propagation** — clients send `deadline_ms=`, the server
//!   enforces it *inside* the probe loops by handing it to
//!   [`usj_core::IndexedCollection::search_budgeted_recorded`] (checked
//!   cooperatively, partial results refused, `DEADLINE` on the wire).
//! - **Panic isolation** — every admission decision and request line is
//!   handled under `catch_unwind` behind `usj_fault::shield`, so one
//!   poisoned request answers `ERR internal panic: ..` and the listener
//!   survives. Failpoints `serve.accept`, `serve.parse` and
//!   `serve.probe` let the fault suite drive this path deliberately.
//! - **Graceful drain** — `SHUTDOWN` (or `ServerHandle::shutdown`)
//!   stops admission, lets queued and in-flight requests finish, and
//!   flushes the final stats snapshot.
//!
//! Admission, the worker pool, the panic perimeter and the drain are
//! one service frame (`frame.rs`) shared by the server and the
//! coordinator; each supplies only its admission decision, its answers
//! to `HEALTH`, `METRICS`, `SHARDS` and `PROBE`, and any extra threads.
//!
//! - **Live observability** — the frame keeps one
//!   [`usj_obs::MetricsRegistry`] (every golden-schema counter/gauge,
//!   per-phase latency summaries, and the per-length-band candidate
//!   funnel) behind one lock. `STATS` renders it as golden-schema JSON
//!   and `METRICS` in Prometheus text exposition format, so the two
//!   always agree, the frame's own admission events included. A probe
//!   carrying a client-minted `trace_id=` is answered with an extra
//!   `TRACE` line holding its Chrome trace-event JSON (see
//!   [`usj_obs::ChromeTraceRecorder`]).
//!
//! - **Sharded scatter-gather** — [`shard`] binds this same server to
//!   one length band of a [`usj_core::Partition`] (answers remapped to
//!   collection-global ids), and [`coordinator`] fronts a fleet of such
//!   shards behind the unchanged wire protocol: length-filter fan-out
//!   pruning, per-shard deadlines carved from the request budget,
//!   hedged second requests after the observed p99, consecutive-failure
//!   quarantine with half-open recovery, and an explicit partial-result
//!   policy (`DEGRADED shards=<ok>/<total>` supersets, or strict
//!   refusal).
//!
//! - **Warm restarts** — [`server::serve_from_snapshot`] (and the
//!   per-shard [`shard::serve_shard_from_snapshot`]) boot from a
//!   durable on-disk index image through `usj-core`'s four-rung
//!   recovery ladder: a verified or salvaged snapshot boots warm
//!   (`HEALTH` reports `warm=true` plus the snapshot age), a band that
//!   fails salvage is rebuilt before the server binds, and an
//!   unrecoverable image falls back to a cold build that re-writes the
//!   snapshot for the next restart. Either way the served index is
//!   complete from the first probe and never changes afterwards.
//!
//! The [`client`] pairs with it: blocking, one connection per request,
//! capped exponential backoff with deterministic jitter on `BUSY`, and
//! per-attempt deadline recomputation mirrored into socket timeouts.
//!
//! Everything is std-only: no async runtime, no protocol frameworks.

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod degrade;
mod frame;
pub mod proto;
pub mod server;
pub mod shard;

pub use client::{Client, ClientConfig, ClientError, HealthReport, ProbeOutcome, ProbeTrace};
pub use coordinator::{coordinate, CoordConfig, CoordinatorHandle, ShardSpec};
pub use degrade::{Controller, DegradeConfig, Level};
pub use proto::{parse_request, Request, Response, ShardState};
pub use server::{serve, serve_from_snapshot, ServeConfig, ServerHandle};
pub use shard::{serve_shard, serve_shard_from_snapshot, shard_partition, shard_snapshot_path};
