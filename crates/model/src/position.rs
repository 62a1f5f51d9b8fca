//! A single (possibly uncertain) character position.

use crate::prob::{self, Prob, PROB_EPS};
use crate::{ModelError, Result, Symbol};

/// One position of a character-level uncertain string: either a certain
/// symbol or a discrete distribution over several symbols.
///
/// Invariants (enforced by [`Position::uncertain`] and checked by
/// [`Position::validate`]):
///
/// * every probability lies in `(0, 1]`;
/// * no symbol appears twice;
/// * probabilities sum to one (within tolerance);
/// * an `Uncertain` variant holds at least one alternative. A
///   single-alternative `Uncertain` is collapsed to `Certain`.
///
/// Alternatives are stored sorted by symbol id so that equal distributions
/// compare equal structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum Position {
    /// The character at this position is known with probability one.
    Certain(Symbol),
    /// Discrete distribution over at least two alternatives, sorted by
    /// symbol id.
    Uncertain(Vec<(Symbol, Prob)>),
}

impl Position {
    /// Creates a certain position.
    #[inline]
    pub fn certain(symbol: Symbol) -> Self {
        Position::Certain(symbol)
    }

    /// Creates an uncertain position from `(symbol, probability)` pairs.
    ///
    /// Pairs are sorted by symbol; a single pair (or one with probability
    /// ~1) collapses to [`Position::Certain`]. `index` is only used for
    /// error reporting.
    pub fn uncertain(index: usize, mut alts: Vec<(Symbol, Prob)>) -> Result<Self> {
        if alts.is_empty() {
            return Err(ModelError::EmptyDistribution { index });
        }
        alts.sort_unstable_by_key(|&(s, _)| s);
        let mut sum = 0.0;
        for window in alts.windows(2) {
            if window[0].0 == window[1].0 {
                return Err(ModelError::DuplicateSymbol {
                    index,
                    symbol: window[0].0,
                });
            }
        }
        for &(_, p) in &alts {
            if !(p.is_finite() && p > 0.0 && p <= 1.0 + PROB_EPS) {
                return Err(ModelError::BadProbability { index, value: p });
            }
            sum += p;
        }
        if !prob::approx_eq_eps(sum, 1.0, 1e-6) {
            return Err(ModelError::BadDistribution { index, sum });
        }
        if alts.len() == 1 {
            return Ok(Position::Certain(alts[0].0));
        }
        Ok(Position::Uncertain(alts))
    }

    /// `true` when the character here is known with probability one.
    #[inline]
    pub fn is_certain(&self) -> bool {
        matches!(self, Position::Certain(_))
    }

    /// Number of alternatives (`1` for a certain position).
    #[inline]
    pub fn num_alternatives(&self) -> usize {
        match self {
            Position::Certain(_) => 1,
            Position::Uncertain(alts) => alts.len(),
        }
    }

    /// Probability that this position takes symbol `s`.
    #[inline]
    pub fn prob_of(&self, s: Symbol) -> Prob {
        match self {
            Position::Certain(c) => {
                if *c == s {
                    1.0
                } else {
                    0.0
                }
            }
            Position::Uncertain(alts) => alts
                .binary_search_by_key(&s, |&(sym, _)| sym)
                .map(|i| alts[i].1)
                .unwrap_or(0.0),
        }
    }

    /// Iterates `(symbol, probability)` alternatives (a certain position
    /// yields a single pair with probability one).
    pub fn alternatives(&self) -> PositionAlts<'_> {
        match self {
            Position::Certain(s) => PositionAlts::Certain(Some(*s)),
            Position::Uncertain(alts) => PositionAlts::Uncertain(alts.iter()),
        }
    }

    /// The most probable symbol at this position (ties broken by smaller
    /// symbol id, which sorting makes deterministic).
    pub fn most_probable(&self) -> Symbol {
        self.most_probable_alt().0
    }

    /// The most probable `(symbol, probability)` alternative, with
    /// [`Position::most_probable`]'s tie-break.
    pub fn most_probable_alt(&self) -> (Symbol, Prob) {
        match self {
            Position::Certain(s) => (*s, 1.0),
            Position::Uncertain(alts) => {
                let mut best = alts[0];
                for &(s, p) in &alts[1..] {
                    if p > best.1 {
                        best = (s, p);
                    }
                }
                best
            }
        }
    }

    /// Probability that this position matches `other` (both distributions
    /// independent): `Σ_c Pr(self = c)·Pr(other = c)`.
    pub fn match_prob(&self, other: &Position) -> Prob {
        match (self, other) {
            (Position::Certain(a), Position::Certain(b)) => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            (Position::Certain(a), u @ Position::Uncertain(_)) => u.prob_of(*a),
            (u @ Position::Uncertain(_), Position::Certain(b)) => u.prob_of(*b),
            (Position::Uncertain(a), Position::Uncertain(b)) => {
                // Sorted-merge over the two alternative lists.
                let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0);
                while i < a.len() && j < b.len() {
                    match a[i].0.cmp(&b[j].0) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            acc += a[i].1 * b[j].1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                acc
            }
        }
    }

    /// Re-checks all invariants; useful after deserialisation.
    pub fn validate(&self, index: usize) -> Result<()> {
        match self {
            Position::Certain(_) => Ok(()),
            Position::Uncertain(alts) => {
                if alts.len() < 2 {
                    return Err(ModelError::EmptyDistribution { index });
                }
                let mut sum = 0.0;
                for w in alts.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(ModelError::DuplicateSymbol {
                            index,
                            symbol: w[1].0,
                        });
                    }
                }
                for &(_, p) in alts {
                    if !(p.is_finite() && p > 0.0 && p <= 1.0 + PROB_EPS) {
                        return Err(ModelError::BadProbability { index, value: p });
                    }
                    sum += p;
                }
                if !prob::approx_eq_eps(sum, 1.0, 1e-6) {
                    return Err(ModelError::BadDistribution { index, sum });
                }
                Ok(())
            }
        }
    }
}

/// Iterator over a position's `(symbol, probability)` alternatives.
#[derive(Debug, Clone)]
pub enum PositionAlts<'a> {
    /// Single certain symbol still pending.
    Certain(Option<Symbol>),
    /// Remaining uncertain alternatives.
    Uncertain(std::slice::Iter<'a, (Symbol, Prob)>),
}

impl<'a> Iterator for PositionAlts<'a> {
    type Item = (Symbol, Prob);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            PositionAlts::Certain(s) => s.take().map(|s| (s, 1.0)),
            PositionAlts::Uncertain(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PositionAlts::Certain(s) => {
                let n = usize::from(s.is_some());
                (n, Some(n))
            }
            PositionAlts::Uncertain(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for PositionAlts<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::approx_eq;

    #[test]
    fn uncertain_sorts_and_validates() {
        let p = Position::uncertain(0, vec![(3, 0.6), (1, 0.4)]).unwrap();
        match &p {
            Position::Uncertain(alts) => assert_eq!(alts, &vec![(1, 0.4), (3, 0.6)]),
            _ => panic!("expected uncertain"),
        }
        assert!(p.validate(0).is_ok());
    }

    #[test]
    fn single_alternative_collapses_to_certain() {
        let p = Position::uncertain(0, vec![(2, 1.0)]).unwrap();
        assert_eq!(p, Position::Certain(2));
    }

    #[test]
    fn bad_distributions_rejected() {
        assert!(matches!(
            Position::uncertain(3, vec![]),
            Err(ModelError::EmptyDistribution { index: 3 })
        ));
        assert!(matches!(
            Position::uncertain(1, vec![(0, 0.5), (0, 0.5)]),
            Err(ModelError::DuplicateSymbol {
                index: 1,
                symbol: 0
            })
        ));
        assert!(matches!(
            Position::uncertain(2, vec![(0, 0.5), (1, 0.2)]),
            Err(ModelError::BadDistribution { index: 2, .. })
        ));
        assert!(matches!(
            Position::uncertain(0, vec![(0, -0.5), (1, 1.5)]),
            Err(ModelError::BadProbability { .. })
        ));
    }

    #[test]
    fn prob_of_lookup() {
        let p = Position::uncertain(0, vec![(0, 0.8), (2, 0.2)]).unwrap();
        assert!(approx_eq(p.prob_of(0), 0.8));
        assert!(approx_eq(p.prob_of(2), 0.2));
        assert!(approx_eq(p.prob_of(1), 0.0));
        let c = Position::certain(5);
        assert!(approx_eq(c.prob_of(5), 1.0));
        assert!(approx_eq(c.prob_of(4), 0.0));
    }

    #[test]
    fn match_prob_combinations() {
        let a = Position::uncertain(0, vec![(0, 0.8), (1, 0.2)]).unwrap();
        let b = Position::uncertain(0, vec![(0, 0.5), (2, 0.5)]).unwrap();
        assert!(approx_eq(a.match_prob(&b), 0.4));
        assert!(approx_eq(a.match_prob(&Position::certain(1)), 0.2));
        assert!(approx_eq(Position::certain(1).match_prob(&a), 0.2));
        assert!(approx_eq(
            Position::certain(1).match_prob(&Position::certain(1)),
            1.0
        ));
        assert!(approx_eq(
            Position::certain(1).match_prob(&Position::certain(0)),
            0.0
        ));
        // match_prob is symmetric
        assert!(approx_eq(a.match_prob(&b), b.match_prob(&a)));
    }

    #[test]
    fn most_probable_and_max() {
        let p = Position::uncertain(0, vec![(0, 0.3), (1, 0.5), (2, 0.2)]).unwrap();
        assert_eq!(p.most_probable(), 1);
        assert_eq!(Position::certain(7).most_probable(), 7);
    }

    #[test]
    fn alternatives_iterator() {
        let p = Position::uncertain(0, vec![(0, 0.3), (1, 0.7)]).unwrap();
        let alts: Vec<_> = p.alternatives().collect();
        assert_eq!(alts, vec![(0, 0.3), (1, 0.7)]);
        assert_eq!(p.alternatives().len(), 2);
        let c = Position::certain(4);
        let alts: Vec<_> = c.alternatives().collect();
        assert_eq!(alts, vec![(4, 1.0)]);
    }
}
