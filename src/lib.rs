//! # uncertain-join
//!
//! Similarity joins for character-level **uncertain strings** under
//! (k,τ)-matching semantics — a Rust implementation of *Similarity Joins for
//! Uncertain Strings* (Patil & Shah, SIGMOD 2014).
//!
//! Given a collection of uncertain strings, an edit-distance threshold `k`
//! and a probability threshold `τ`, the join reports every pair `(R, S)`
//! with `Pr(ed(R, S) ≤ k) > τ`, where the probability ranges over the
//! possible worlds of both strings — without materialising those
//! (exponentially many) worlds.
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`model`] | alphabet, per-position distributions, [`model::UncertainString`], possible worlds |
//! | [`editdist`] | deterministic edit distance (full / banded / Myers bit-parallel DP), frequency vectors |
//! | [`qgram`] | partition scheme, position-aware substring selection, segment match probabilities `α_x`, probabilistic pruning (Theorems 1–2) |
//! | [`freq`] | frequency-distance filter for uncertain strings (Lemma 6, Theorem 3) |
//! | [`cdf`] | lower/upper CDF bounds on `Pr(ed ≤ k)` via banded DP (Theorem 4) |
//! | [`verify`] | exact verification: instance tries with active-node sets, naive baseline, brute-force oracle |
//! | [`join`] | segment inverted indices and the join driver with the QFCT/QCT/QFT/FCT pipelines |
//! | [`eed`] | expected-edit-distance baseline join (Jestes et al., SIGMOD 2010) |
//! | [`datagen`] | seeded synthetic dataset generators following the paper's recipe |
//!
//! ## Quickstart
//!
//! ```
//! use uncertain_join::model::{Alphabet, UncertainString};
//! use uncertain_join::join::{JoinConfig, SimilarityJoin};
//!
//! let dna = Alphabet::dna();
//! let strings: Vec<UncertainString> = [
//!     "ACGT{(A,0.6),(T,0.4)}CCA",
//!     "ACG{(T,0.9),(G,0.1)}ACCA",
//!     "TTTTGGGG",
//! ]
//! .iter()
//! .map(|t| UncertainString::parse(t, &dna).unwrap())
//! .collect();
//!
//! let config = JoinConfig::new(2, 0.3); // k = 2, τ = 0.3
//! let result = SimilarityJoin::new(config, dna.size()).self_join(&strings);
//! for pair in &result.pairs {
//!     println!("{} ~ {} with Pr(ed ≤ 2) = {:.3}", pair.left, pair.right, pair.prob);
//! }
//! ```

#![warn(missing_docs)]

pub use usj_cdf as cdf;
pub use usj_core as join;
pub use usj_core::obs;
pub use usj_datagen as datagen;
pub use usj_editdist as editdist;
pub use usj_eed as eed;
pub use usj_freq as freq;
pub use usj_model as model;
pub use usj_qgram as qgram;
pub use usj_serve as serve;
pub use usj_verify as verify;

pub use usj_core::{JoinConfig, JoinResult, SimilarityJoin};
pub use usj_model::{Alphabet, UncertainString};
