//! Finite alphabets and compact symbol interning.
//!
//! All algorithmic crates in the workspace operate on [`Symbol`] ids (`u8`)
//! rather than `char`s: alphabets in the paper's experiments are small
//! (`|Σ| = 27` for dblp author names, `|Σ| = 22` for protein sequences), and
//! `u8` symbols keep frequency vectors, DP tables, and q-gram keys compact.

use std::fmt;

use crate::{ModelError, Result};

/// Compact id of an alphabet character. Alphabets are limited to 256 symbols.
pub type Symbol = u8;

/// A finite, ordered alphabet mapping `char`s to dense [`Symbol`] ids.
///
/// The order of characters passed to [`Alphabet::new`] determines symbol ids
/// (`symbols[i]` gets id `i`). Equality of two alphabets is equality of the
/// character sequences.
///
/// ```
/// use usj_model::Alphabet;
///
/// let dna = Alphabet::dna();
/// assert_eq!(dna.size(), 4);
/// let a = dna.symbol('A').unwrap();
/// assert_eq!(dna.char_of(a), 'A');
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    chars: Vec<char>,
    /// ASCII fast path: `ascii[b]` is the symbol for byte `b`, or `u8::MAX`.
    ascii: [u8; 128],
}

const NO_SYMBOL: u8 = u8::MAX;

impl Alphabet {
    /// Builds an alphabet from an ordered, duplicate-free character sequence.
    ///
    /// # Panics
    ///
    /// Panics if `chars` is empty, longer than 255 characters, contains a
    /// duplicate, or contains a non-ASCII character. (255 rather than 256 so
    /// that `u8::MAX` stays free as a sentinel.)
    pub fn new(chars: impl IntoIterator<Item = char>) -> Self {
        let chars: Vec<char> = chars.into_iter().collect();
        assert!(!chars.is_empty(), "alphabet must not be empty");
        assert!(
            chars.len() < 256,
            "alphabet must have fewer than 256 symbols"
        );
        let mut ascii = [NO_SYMBOL; 128];
        for (i, &c) in chars.iter().enumerate() {
            assert!(c.is_ascii(), "alphabet characters must be ASCII, got {c:?}");
            let b = c as usize;
            assert!(ascii[b] == NO_SYMBOL, "duplicate alphabet character {c:?}");
            ascii[b] = i as u8;
        }
        Alphabet { chars, ascii }
    }

    /// The four-letter DNA alphabet `ACGT`.
    pub fn dna() -> Self {
        Alphabet::new("ACGT".chars())
    }

    /// The 20 standard amino acids plus `B` and `Z` ambiguity codes
    /// (`|Σ| = 22`), matching the paper's protein dataset.
    pub fn protein() -> Self {
        Alphabet::new("ACDEFGHIKLMNPQRSTVWYBZ".chars())
    }

    /// Lowercase `a`–`z` plus space (`|Σ| = 27`), matching the paper's dblp
    /// author-name dataset.
    pub fn names() -> Self {
        Alphabet::new("abcdefghijklmnopqrstuvwxyz ".chars())
    }

    /// Uppercase `A`–`Z`.
    pub fn uppercase() -> Self {
        Alphabet::new(('A'..='Z').collect::<Vec<_>>())
    }

    /// Number of symbols `σ = |Σ|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.chars.len()
    }

    /// All symbol ids, in order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.chars.len()).map(|i| i as Symbol)
    }

    /// The symbol id for `c`, or `None` if `c` is not in the alphabet.
    #[inline]
    pub fn symbol(&self, c: char) -> Option<Symbol> {
        if (c as u32) < 128 {
            let s = self.ascii[c as usize];
            (s != NO_SYMBOL).then_some(s)
        } else {
            None
        }
    }

    /// The symbol id for `c`, or an error naming the character.
    pub fn try_symbol(&self, c: char) -> Result<Symbol> {
        self.symbol(c).ok_or(ModelError::UnknownChar(c))
    }

    /// The character for symbol `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid symbol of this alphabet.
    #[inline]
    pub fn char_of(&self, s: Symbol) -> char {
        self.chars[s as usize]
    }

    /// Encodes a `&str` into symbol ids, failing on the first unknown char.
    pub fn encode(&self, text: &str) -> Result<Vec<Symbol>> {
        text.chars().map(|c| self.try_symbol(c)).collect()
    }

    /// Decodes a symbol slice back into a `String`.
    ///
    /// # Panics
    ///
    /// Panics if any symbol is out of range.
    pub fn decode(&self, symbols: &[Symbol]) -> String {
        symbols.iter().map(|&s| self.char_of(s)).collect()
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Σ{{")?;
        for c in &self.chars {
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_roundtrip() {
        let a = Alphabet::dna();
        let enc = a.encode("GATTACA").unwrap();
        assert_eq!(a.decode(&enc), "GATTACA");
        assert_eq!(enc, vec![2, 0, 3, 3, 0, 1, 0]);
    }

    #[test]
    fn sizes_match_paper() {
        assert_eq!(Alphabet::names().size(), 27);
        assert_eq!(Alphabet::protein().size(), 22);
    }

    #[test]
    fn unknown_char_is_error() {
        let a = Alphabet::dna();
        assert_eq!(a.encode("AXC"), Err(ModelError::UnknownChar('X')));
        assert_eq!(a.symbol('x'), None);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let a = Alphabet::new("xyz".chars());
        let ids: Vec<_> = a.symbols().collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(a.char_of(1), 'y');
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_char_panics() {
        Alphabet::new("AA".chars());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_alphabet_panics() {
        Alphabet::new(std::iter::empty());
    }

    #[test]
    fn display_lists_characters() {
        assert_eq!(Alphabet::dna().to_string(), "Σ{ACGT}");
    }
}
