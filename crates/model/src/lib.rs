//! Character-level uncertain string model.
//!
//! This crate implements the data model from *Similarity Joins for Uncertain
//! Strings* (Patil & Shah, SIGMOD 2014): a **character-level uncertain
//! string** `S = S[1] S[2] … S[l]` where every position `S[i]` is an
//! independent random variable with a discrete distribution over a finite
//! alphabet `Σ`. The *possible worlds* of `S` are all deterministic
//! instantiations, each weighted by the product of its per-position
//! probabilities; every instance has the same length as `S`.
//!
//! The crate provides:
//!
//! * [`Alphabet`] — interning between `char`s and compact [`Symbol`] ids;
//! * [`Position`] — one certain or uncertain character;
//! * [`UncertainString`] — the string itself, with matching probabilities,
//!   and possible-world enumeration ([`UncertainString::worlds`]);
//! * a parser/formatter for the paper's textual syntax, e.g.
//!   `A{(C,0.5),(G,0.5)}A` (see [`UncertainString::parse`]);
//! * [`rng`] — the seeded generator every randomised generator and
//!   property test in the workspace draws from.
//!
//! All probabilities are `f64`. Validation utilities live in [`prob`].

#![warn(missing_docs)]

pub mod alphabet;
pub mod hash;
mod invariant;
pub mod parse;
pub mod position;
pub mod prob;
pub mod rng;
pub mod string;
pub mod worlds;

pub use alphabet::{Alphabet, Symbol};
pub use position::Position;
pub use prob::Prob;
pub use string::UncertainString;
pub use worlds::{World, WorldIter};

/// Errors produced while constructing or parsing uncertain strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A character was not part of the alphabet.
    UnknownChar(char),
    /// A per-position distribution did not sum to 1 (within tolerance).
    BadDistribution {
        /// Position index (0-based) of the offending distribution.
        index: usize,
        /// The actual probability mass found.
        sum: f64,
    },
    /// A distribution listed the same symbol twice.
    DuplicateSymbol {
        /// Position index (0-based).
        index: usize,
        /// The duplicated symbol.
        symbol: Symbol,
    },
    /// A probability outside `(0, 1]` was supplied.
    BadProbability {
        /// Position index (0-based).
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A distribution with no alternatives was supplied.
    EmptyDistribution {
        /// Position index (0-based).
        index: usize,
    },
    /// Parse error with a human-readable message and byte offset.
    Parse {
        /// Byte offset in the input where the error was detected.
        offset: usize,
        /// Description of what went wrong.
        message: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownChar(c) => write!(f, "character {c:?} is not in the alphabet"),
            ModelError::BadDistribution { index, sum } => {
                write!(
                    f,
                    "distribution at position {index} sums to {sum}, expected 1"
                )
            }
            ModelError::DuplicateSymbol { index, symbol } => {
                write!(
                    f,
                    "distribution at position {index} lists symbol {symbol} twice"
                )
            }
            ModelError::BadProbability { index, value } => {
                write!(
                    f,
                    "probability {value} at position {index} is outside (0, 1]"
                )
            }
            ModelError::EmptyDistribution { index } => {
                write!(f, "distribution at position {index} has no alternatives")
            }
            ModelError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenient `Result` alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;
