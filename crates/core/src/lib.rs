//! Similarity-join driver for uncertain strings (paper §4 and §7).
//!
//! This crate assembles the filters from `usj-qgram`, `usj-freq`, and
//! `usj-cdf` and the verifiers from `usj-verify` into the paper's join
//! algorithm:
//!
//! 1. Strings are visited in ascending length order. A probe `R` queries
//!    the **segment inverted indices** ([`index::SegmentIndex`]) of every
//!    compatible length `l ∈ [|R|−k, |R|]`, producing per-candidate
//!    segment match probabilities `α_x` by merging posting lists — without
//!    comparing `R` to each collection string individually.
//! 2. Candidates surviving the count condition (Lemma 5) and the
//!    Poisson-binomial upper bound (Theorem 2) flow through
//!    frequency-distance filtering (§5) and CDF-bound filtering (§6.1).
//! 3. Pairs the CDF bounds cannot decide are verified exactly with the
//!    trie verifier (§6.2), whose probe trie is built once per `R`.
//! 4. `R`'s own segments are then inserted into the indices and the scan
//!    moves on — each unordered pair is therefore examined exactly once.
//!    The driver ([`parallel::run_self_join`], on any number of threads)
//!    inserts a band of lengths ahead of its probes, and a probe admits
//!    only strings visited before it, to the same effect.
//!
//! Four pipeline variants ([`config::Pipeline`]) reproduce the paper's
//! algorithms **QFCT**, **QCT**, **QFT**, and **FCT** (each letter names a
//! stage: Q = q-gram, F = frequency, C = CDF, T = trie verification).
//!
//! [`collection::IndexedCollection`] exposes the same machinery as a
//! similarity *search* (one probe against a pre-indexed collection).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod collection;
pub mod config;
mod container;
pub mod index;
pub mod join;
pub mod oracle;
pub mod parallel;
pub mod partition;
pub mod snapshot;
pub mod stats;
pub mod verifier;

/// The observability substrate (re-exported so downstream crates can name
/// recorders without depending on `usj-obs` directly).
pub use usj_obs as obs;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use collection::{IndexedCollection, SearchAbort, SearchHit};
pub use config::{JoinConfig, Pipeline, VerifierKind};
pub use container::durable_atomic_write;
pub use index::{EquivCache, SegmentIndex};
pub use join::{JoinResult, SimilarPair, SimilarityJoin};
pub use oracle::oracle_self_join;
pub use parallel::{par_self_join, run_self_join, FaultReport, JoinError, RunOptions};
pub use partition::{Partition, ShardSlice};
pub use snapshot::{
    LoadRung, LoadedSnapshot, SalvageMode, SnapshotError, SnapshotReport, SnapshotWriteReport,
};
pub use stats::{JoinStats, PhaseTimings};
pub use verifier::ProbeVerifier;
