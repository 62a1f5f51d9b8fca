//! Deterministic edit-distance substrate.
//!
//! Everything in this crate operates on plain symbol slices (`&[u8]`); the
//! uncertain-string algorithms build on these primitives by applying them to
//! possible-world instances.
//!
//! Provided:
//!
//! * [`levenshtein::edit_distance`] — full `O(|r|·|s|)` DP;
//! * [`levenshtein::edit_distance_bounded`] — banded (Ukkonen) DP in
//!   `O(k·min(|r|,|s|))` that reports `None` when the distance exceeds `k`;
//!   the naive verifier checks each world pair with it;
//! * [`levenshtein::within_k`] — boolean form with length-difference
//!   fast path;
//! * [`myers::within_k_auto`] — the same check by Myers' bit-parallel
//!   distance or the banded DP, whichever is cheaper at the size; the
//!   probe verifier's top-world-pair check uses it;
//! * [`freq`] — frequency vectors and frequency distance (§2.2), a lower
//!   bound on edit distance.

#![warn(missing_docs)]

pub mod freq;
pub mod levenshtein;
pub mod myers;

pub use freq::{frequency_distance, FreqVector};
pub use levenshtein::{edit_distance, edit_distance_bounded, within_k};
pub use myers::{myers_distance, within_k_auto};
