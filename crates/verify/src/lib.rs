//! Exact verification of candidate pairs (paper §6.2).
//!
//! After filtering, a surviving pair `(R, S)` must be checked exactly:
//! is `Pr(ed(R, S) ≤ k) > τ`? The probability ranges over the joint
//! possible worlds of both strings, which is exponential in the number of
//! uncertain positions. This crate provides three verifiers:
//!
//! * [`oracle`] — plain joint-world enumeration; the reference that every
//!   other component is tested against;
//! * [`naive`] — the paper's baseline: enumerate world pairs but compute
//!   each edit distance with the banded, early-terminating DP
//!   (prefix-pruning), with optional early accept/reject on the
//!   accumulated probability mass;
//! * [`trie`] + [`trie_verify`] — the paper's contribution: build the
//!   trie `T_R` of all instances of `R` **once per probe**, then walk the
//!   *logical* trie of `S` depth-first, materialising a node's children
//!   only while its **active set** (trie nodes of `T_R` within edit
//!   distance `k` of the current `S`-prefix) is non-empty. Shared
//!   prefixes of instances share DP work, and pruned subtrees skip
//!   entire world families at once.

#![warn(missing_docs)]

pub mod active;
pub mod lazy;
pub mod naive;
pub mod oracle;
pub mod trie;
pub mod trie_verify;

pub use active::{ActiveSet, AdvanceScratch};
pub use lazy::{LazyTrie, LazyTrieVerifier};
pub use naive::{naive_verify, NaiveOutcome};
pub use oracle::{exact_similarity_prob, exact_similarity_prob_capped};
pub use trie::{InstanceTrie, ProbeTrie, TrieNode};
pub use trie_verify::{ProbeTrieVerifier, TrieVerifier, VerifyOutcome, VerifyStats};
