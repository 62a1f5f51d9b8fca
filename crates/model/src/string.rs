//! The character-level uncertain string type.

use crate::position::Position;
use crate::prob::Prob;
use crate::worlds::{World, WorldIter};
use crate::{Result, Symbol};

/// A character-level uncertain string: a sequence of independent
/// per-position distributions over the alphabet.
///
/// Every possible instance (world) of the string has the same length
/// [`UncertainString::len`]. Positions are 0-indexed throughout the API
/// (the paper uses 1-indexing in prose).
///
/// ```
/// use usj_model::{Alphabet, UncertainString};
///
/// let dna = Alphabet::dna();
/// let s = UncertainString::parse("A{(C,0.5),(G,0.5)}A", &dna).unwrap();
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.num_worlds(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainString {
    positions: Vec<Position>,
}

impl UncertainString {
    /// Builds an uncertain string from validated positions.
    ///
    /// Debug builds re-check that every pdf is normalized (the
    /// [`Position::Uncertain`] variant is public, so unvalidated
    /// distributions are constructible); release builds skip the check.
    pub fn new(positions: Vec<Position>) -> Self {
        crate::invariant::debug_check_positions(&positions);
        UncertainString { positions }
    }

    /// Builds a fully-certain string from symbol ids.
    pub fn from_symbols(symbols: &[Symbol]) -> Self {
        UncertainString {
            positions: symbols.iter().map(|&s| Position::certain(s)).collect(),
        }
    }

    /// The empty string (zero positions, exactly one empty world).
    pub fn empty() -> Self {
        UncertainString {
            positions: Vec::new(),
        }
    }

    /// Number of positions `l = |S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the string has no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The distribution at position `i` (0-based).
    #[inline]
    pub fn position(&self, i: usize) -> &Position {
        &self.positions[i]
    }

    /// All positions as a slice.
    #[inline]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// `true` when every position is certain (exactly one world).
    pub fn is_deterministic(&self) -> bool {
        self.positions.iter().all(Position::is_certain)
    }

    /// Number of uncertain positions.
    pub fn num_uncertain(&self) -> usize {
        self.positions.iter().filter(|p| !p.is_certain()).count()
    }

    /// Fraction `θ` of uncertain positions (0 for the empty string).
    pub fn theta(&self) -> f64 {
        if self.positions.is_empty() {
            0.0
        } else {
            self.num_uncertain() as f64 / self.positions.len() as f64
        }
    }

    /// Number of possible worlds as an `f64` (products overflow `u64`
    /// quickly; callers that need an exact small count should check
    /// [`UncertainString::num_worlds_capped`]).
    pub fn num_worlds(&self) -> f64 {
        self.positions
            .iter()
            .map(|p| p.num_alternatives() as f64)
            .product()
    }

    /// Exact world count if it does not exceed `cap`, else `None`.
    pub fn num_worlds_capped(&self, cap: u64) -> Option<u64> {
        let mut n: u64 = 1;
        for p in &self.positions {
            n = n.checked_mul(p.num_alternatives() as u64)?;
            if n > cap {
                return None;
            }
        }
        Some(n)
    }

    /// Probability that the instance of this string equals the deterministic
    /// string `w`: `Π_i Pr(S[i] = w[i])`, or 0 when lengths differ.
    pub fn instance_prob(&self, w: &[Symbol]) -> Prob {
        if w.len() != self.positions.len() {
            return 0.0;
        }
        let mut p = 1.0;
        for (pos, &sym) in self.positions.iter().zip(w) {
            p *= pos.prob_of(sym);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Probability that deterministic `w` matches the substring starting at
    /// `start` (0-based): `Pr(w = S[start .. start+|w|])`. Returns 0 when
    /// the window does not fit.
    pub fn substring_match_prob(&self, start: usize, w: &[Symbol]) -> Prob {
        let Some(end) = start.checked_add(w.len()) else {
            return 0.0;
        };
        if end > self.positions.len() {
            return 0.0;
        }
        let mut p = 1.0;
        for (pos, &sym) in self.positions[start..end].iter().zip(w) {
            p *= pos.prob_of(sym);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Probability that this whole string matches uncertain `other`
    /// position-wise: `Π_i Σ_c Pr(S[i]=c)·Pr(T[i]=c)`; 0 when lengths
    /// differ. This is the paper's `Pr(W = T)`.
    pub fn match_prob(&self, other: &UncertainString) -> Prob {
        if self.len() != other.len() {
            return 0.0;
        }
        let mut p = 1.0;
        for (a, b) in self.positions.iter().zip(other.positions.iter()) {
            p *= a.match_prob(b);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// A view of the substring `[start, start+len)` as a new uncertain
    /// string (clones the positions).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit.
    pub fn substring(&self, start: usize, len: usize) -> UncertainString {
        UncertainString {
            positions: self.positions[start..start + len].to_vec(),
        }
    }

    /// Iterates all possible worlds of the substring `[start, start+len)`
    /// as `(instance, probability)` pairs, in lexicographic symbol order.
    pub fn substring_worlds(&self, start: usize, len: usize) -> WorldIter<'_> {
        WorldIter::new(&self.positions[start..start + len])
    }

    /// Visits all worlds of the substring `[start, start+len)` without
    /// per-world allocation — see [`crate::worlds::visit_worlds`].
    /// Returns `true` iff `f` never stopped the walk.
    pub fn visit_substring_worlds<F>(&self, start: usize, len: usize, f: F) -> bool
    where
        F: FnMut(&[crate::Symbol], crate::Prob) -> bool,
    {
        crate::worlds::visit_worlds(&self.positions[start..start + len], f)
    }

    /// Iterates all possible worlds of the whole string.
    pub fn worlds(&self) -> WorldIter<'_> {
        WorldIter::new(&self.positions)
    }

    /// The most probable world (per-position argmax; valid because
    /// positions are independent).
    pub fn most_probable_world(&self) -> World {
        let mut instance = Vec::with_capacity(self.len());
        let prob = self.most_probable_world_into(&mut instance);
        World { instance, prob }
    }

    /// [`UncertainString::most_probable_world`] into a reused buffer:
    /// overwrites `instance` with the world and returns its probability.
    pub fn most_probable_world_into(&self, instance: &mut Vec<Symbol>) -> Prob {
        instance.clear();
        let mut prob = 1.0;
        for p in &self.positions {
            let (s, ps) = p.most_probable_alt();
            prob *= ps;
            instance.push(s);
        }
        prob
    }

    /// Concatenates `self` with `other` (used by the paper's string-length
    /// experiment, which appends each string to itself).
    pub fn concat(&self, other: &UncertainString) -> UncertainString {
        let mut positions = Vec::with_capacity(self.len() + other.len());
        positions.extend_from_slice(&self.positions);
        positions.extend_from_slice(&other.positions);
        UncertainString { positions }
    }

    /// Validates every position's distribution (useful after manual
    /// construction or deserialisation).
    pub fn validate(&self) -> Result<()> {
        for (i, p) in self.positions.iter().enumerate() {
            p.validate(i)?;
        }
        Ok(())
    }
}

impl std::ops::Index<usize> for UncertainString {
    type Output = Position;

    fn index(&self, i: usize) -> &Position {
        &self.positions[i]
    }
}

impl FromIterator<Position> for UncertainString {
    fn from_iter<T: IntoIterator<Item = Position>>(iter: T) -> Self {
        UncertainString::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::{approx_eq, approx_eq_eps};
    use crate::Alphabet;

    fn s(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    #[test]
    fn deterministic_string_basics() {
        let x = s("ACGT");
        assert_eq!(x.len(), 4);
        assert!(x.is_deterministic());
        assert_eq!(x.num_uncertain(), 0);
        assert_eq!(x.theta(), 0.0);
        assert_eq!(x.num_worlds(), 1.0);
        assert_eq!(x.num_worlds_capped(10), Some(1));
    }

    #[test]
    fn uncertain_counts() {
        let x = s("A{(C,0.5),(G,0.5)}A{(A,0.25),(T,0.75)}");
        assert_eq!(x.len(), 4);
        assert_eq!(x.num_uncertain(), 2);
        assert!(approx_eq(x.theta(), 0.5));
        assert_eq!(x.num_worlds(), 4.0);
        assert_eq!(x.num_worlds_capped(3), None);
        assert_eq!(x.num_worlds_capped(4), Some(4));
    }

    #[test]
    fn instance_prob_products() {
        let dna = Alphabet::dna();
        let x = s("A{(C,0.5),(G,0.5)}A");
        let aca = dna.encode("ACA").unwrap();
        let aga = dna.encode("AGA").unwrap();
        let ata = dna.encode("ATA").unwrap();
        assert!(approx_eq(x.instance_prob(&aca), 0.5));
        assert!(approx_eq(x.instance_prob(&aga), 0.5));
        assert!(approx_eq(x.instance_prob(&ata), 0.0));
        assert!(approx_eq(x.instance_prob(&dna.encode("AC").unwrap()), 0.0));
    }

    #[test]
    fn substring_match_prob_windows() {
        let dna = Alphabet::dna();
        let x = s("A{(C,0.5),(G,0.5)}AT");
        let ca = dna.encode("CA").unwrap();
        assert!(approx_eq(x.substring_match_prob(1, &ca), 0.5));
        assert!(approx_eq(x.substring_match_prob(0, &ca), 0.0));
        // window falls off the end
        assert!(approx_eq(x.substring_match_prob(3, &ca), 0.0));
        assert!(approx_eq(x.substring_match_prob(usize::MAX, &ca), 0.0));
    }

    #[test]
    fn match_prob_of_two_uncertain_strings() {
        let a = s("{(A,0.8),(C,0.2)}T");
        let b = s("{(A,0.5),(G,0.5)}T");
        assert!(approx_eq(a.match_prob(&b), 0.4));
        assert!(approx_eq(a.match_prob(&s("AT")), 0.8));
        assert!(approx_eq(a.match_prob(&s("ATT")), 0.0));
    }

    #[test]
    fn worlds_sum_to_one() {
        let x = s("{(A,0.3),(C,0.7)}G{(A,0.5),(T,0.5)}");
        let worlds: Vec<_> = x.worlds().collect();
        assert_eq!(worlds.len(), 4);
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        assert!(approx_eq_eps(total, 1.0, 1e-9));
        // every world's prob equals instance_prob of its instance
        for w in &worlds {
            assert!(approx_eq(x.instance_prob(&w.instance), w.prob));
        }
    }

    #[test]
    fn most_probable_world_is_argmax() {
        let x = s("{(A,0.3),(C,0.7)}G");
        let w = x.most_probable_world();
        assert_eq!(Alphabet::dna().decode(&w.instance), "CG");
        assert!(approx_eq(w.prob, 0.7));
    }

    #[test]
    fn concat_appends_positions() {
        let x = s("A{(C,0.5),(G,0.5)}");
        let y = x.concat(&x);
        assert_eq!(y.len(), 4);
        assert_eq!(y.num_worlds(), 4.0);
    }

    #[test]
    fn empty_string_has_one_world() {
        let e = UncertainString::empty();
        assert!(e.is_empty());
        assert_eq!(e.num_worlds(), 1.0);
        let worlds: Vec<_> = e.worlds().collect();
        assert_eq!(worlds.len(), 1);
        assert!(approx_eq(worlds[0].prob, 1.0));
        assert!(worlds[0].instance.is_empty());
    }

    // The debug-only invariant layer: corrupted pdfs (constructible
    // because `Position::Uncertain` is public) must trip the check in
    // debug builds and cost nothing in release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pdf mass")]
    fn debug_build_rejects_unnormalized_pdf() {
        let _ = UncertainString::new(vec![Position::Uncertain(vec![(0, 0.3), (1, 0.3)])]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn debug_build_rejects_out_of_range_probability() {
        let _ = UncertainString::new(vec![Position::Uncertain(vec![(0, -0.5), (1, 1.5)])]);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_build_skips_invariant_checks() {
        let s = UncertainString::new(vec![Position::Uncertain(vec![(0, 0.3), (1, 0.3)])]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn substring_view() {
        let x = s("A{(C,0.5),(G,0.5)}AT");
        let sub = x.substring(1, 2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.num_worlds(), 2.0);
    }
}
