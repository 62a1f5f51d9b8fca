//! Possible-world enumeration.
//!
//! A *possible world* of an uncertain string is one deterministic instance
//! together with its probability of existence. [`WorldIter`] enumerates all
//! worlds of a position slice in lexicographic order of symbol choices using
//! an odometer over per-position alternative indices; the probability of the
//! current world is maintained incrementally, so stepping is `O(1)` amortised
//! in the number of positions that change.

use crate::position::Position;
use crate::prob::Prob;
use crate::Symbol;

/// One possible world: a deterministic instance and its probability.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// The deterministic instance as symbol ids.
    pub instance: Vec<Symbol>,
    /// Probability of existence `p(s) = Π_i Pr(S[i] = s[i])`.
    pub prob: Prob,
}

/// Iterator over all possible worlds of a sequence of positions.
///
/// The empty slice yields exactly one world: the empty instance with
/// probability one (matching the convention `Σ p(s) = 1`).
#[derive(Debug, Clone)]
pub struct WorldIter<'a> {
    positions: &'a [Position],
    /// Odometer: current alternative index per position.
    counters: Vec<u16>,
    /// Current symbol per position.
    current: Vec<Symbol>,
    /// Per-position probability of the current choice.
    probs: Vec<Prob>,
    done: bool,
}

impl<'a> WorldIter<'a> {
    /// Creates an iterator over all worlds of `positions`.
    pub fn new(positions: &'a [Position]) -> Self {
        let mut current = Vec::with_capacity(positions.len());
        let mut probs = Vec::with_capacity(positions.len());
        for p in positions {
            let (s, q) = p.alternatives().next().expect("positions are non-empty");
            current.push(s);
            probs.push(q);
        }
        WorldIter {
            positions,
            counters: vec![0; positions.len()],
            current,
            probs,
            done: false,
        }
    }

    fn alternative(&self, pos: usize, alt: usize) -> (Symbol, Prob) {
        match &self.positions[pos] {
            Position::Certain(s) => (*s, 1.0),
            Position::Uncertain(alts) => alts[alt],
        }
    }

    /// Visits every world as a *borrowed* `(instance, probability)`
    /// pair, in the same lexicographic order as iteration, without the
    /// per-world instance allocation of the `Iterator` impl. `f`
    /// returning `false` stops the walk; the return value is `true` iff
    /// every world was visited. The enumeration-heavy callers (the
    /// q-gram filter's equivalent sets) copy the borrowed instance into
    /// flat storage instead of allocating one `Vec` per world.
    fn visit_all<F: FnMut(&[Symbol], Prob) -> bool>(mut self, mut f: F) -> bool {
        if self.done {
            return true;
        }
        loop {
            if !f(&self.current, self.probs.iter().product()) {
                return false;
            }
            if !self.step() {
                return true;
            }
        }
    }

    /// Advances the odometer; returns `false` when exhausted.
    fn step(&mut self) -> bool {
        // Increment from the last position, like counting.
        for i in (0..self.positions.len()).rev() {
            let n = self.positions[i].num_alternatives();
            let next = self.counters[i] as usize + 1;
            if next < n {
                self.counters[i] = next as u16;
                let (s, q) = self.alternative(i, next);
                self.current[i] = s;
                self.probs[i] = q;
                return true;
            }
            self.counters[i] = 0;
            let (s, q) = self.alternative(i, 0);
            self.current[i] = s;
            self.probs[i] = q;
        }
        false
    }
}

/// Position slices up to this length take the stack-state fast path in
/// [`visit_worlds`].
const SHORT_WORLD_POSITIONS: usize = 16;

/// Visits every world of `positions` exactly like
/// `WorldIter::visit_all` (same order, same probabilities, same early
/// stop), but keeps the odometer state on the stack for slices of at
/// most 16 positions (`SHORT_WORLD_POSITIONS`). The q-gram filters
/// enumerate worlds of 3–4-symbol windows at very high rates, where
/// [`WorldIter::new`]'s three per-call heap allocations dominate the
/// walk itself.
pub fn visit_worlds<F: FnMut(&[Symbol], Prob) -> bool>(positions: &[Position], f: F) -> bool {
    if positions.len() <= SHORT_WORLD_POSITIONS {
        visit_worlds_short(positions, f)
    } else {
        WorldIter::new(positions).visit_all(f)
    }
}

fn alternative_at(p: &Position, alt: usize) -> (Symbol, Prob) {
    match p {
        Position::Certain(s) => (*s, 1.0),
        Position::Uncertain(alts) => alts[alt],
    }
}

fn visit_worlds_short<F: FnMut(&[Symbol], Prob) -> bool>(positions: &[Position], mut f: F) -> bool {
    let n = positions.len();
    debug_assert!(n <= SHORT_WORLD_POSITIONS);
    let mut counters = [0u16; SHORT_WORLD_POSITIONS];
    let mut current = [0 as Symbol; SHORT_WORLD_POSITIONS];
    let mut probs = [1.0 as Prob; SHORT_WORLD_POSITIONS];
    for (i, p) in positions.iter().enumerate() {
        let (s, q) = alternative_at(p, 0);
        current[i] = s;
        probs[i] = q;
    }
    loop {
        // Same left-to-right product as `WorldIter::next`, so the
        // probabilities are bitwise identical to the iterator's.
        let mut prob: Prob = 1.0;
        for &q in &probs[..n] {
            prob *= q;
        }
        if !f(&current[..n], prob) {
            return false;
        }
        // Advance the odometer from the last position, like counting.
        let mut advanced = false;
        for i in (0..n).rev() {
            let next = counters[i] as usize + 1;
            if next < positions[i].num_alternatives() {
                counters[i] = next as u16;
                let (s, q) = alternative_at(&positions[i], next);
                current[i] = s;
                probs[i] = q;
                advanced = true;
                break;
            }
            counters[i] = 0;
            let (s, q) = alternative_at(&positions[i], 0);
            current[i] = s;
            probs[i] = q;
        }
        if !advanced {
            return true;
        }
    }
}

impl Iterator for WorldIter<'_> {
    type Item = World;

    fn next(&mut self) -> Option<World> {
        if self.done {
            return None;
        }
        let world = World {
            instance: self.current.clone(),
            prob: self.probs.iter().product(),
        };
        if !self.step() {
            self.done = true;
        }
        Some(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::approx_eq_eps;
    use crate::{Alphabet, UncertainString};

    #[test]
    fn enumerates_cartesian_product() {
        let dna = Alphabet::dna();
        let s = UncertainString::parse("{(A,0.5),(C,0.5)}{(G,0.25),(T,0.75)}", &dna).unwrap();
        let worlds: Vec<_> = s.worlds().collect();
        let decoded: Vec<_> = worlds.iter().map(|w| dna.decode(&w.instance)).collect();
        assert_eq!(decoded, vec!["AG", "AT", "CG", "CT"]);
        let probs: Vec<_> = worlds.iter().map(|w| w.prob).collect();
        assert!(approx_eq_eps(probs[0], 0.125, 1e-12));
        assert!(approx_eq_eps(probs[1], 0.375, 1e-12));
        assert!(approx_eq_eps(probs[2], 0.125, 1e-12));
        assert!(approx_eq_eps(probs[3], 0.375, 1e-12));
    }

    #[test]
    fn deterministic_single_world() {
        let dna = Alphabet::dna();
        let s = UncertainString::parse("ACGT", &dna).unwrap();
        let worlds: Vec<_> = s.worlds().collect();
        assert_eq!(worlds.len(), 1);
        assert_eq!(dna.decode(&worlds[0].instance), "ACGT");
        assert_eq!(worlds[0].prob, 1.0);
    }

    #[test]
    fn empty_yields_one_empty_world() {
        let worlds: Vec<_> = WorldIter::new(&[]).collect();
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].instance.is_empty());
        assert_eq!(worlds[0].prob, 1.0);
    }

    #[test]
    fn visit_all_matches_iteration_and_stops_early() {
        let dna = Alphabet::dna();
        let s = UncertainString::parse("{(A,0.5),(C,0.5)}{(G,0.25),(T,0.75)}", &dna).unwrap();
        let mut seen = Vec::new();
        let complete = s.worlds().visit_all(|inst, p| {
            seen.push((inst.to_vec(), p));
            true
        });
        assert!(complete);
        let iterated: Vec<_> = s.worlds().map(|w| (w.instance, w.prob)).collect();
        assert_eq!(seen, iterated);

        let mut count = 0;
        let complete = s.worlds().visit_all(|_, _| {
            count += 1;
            count < 3
        });
        assert!(!complete);
        assert_eq!(count, 3);
    }

    #[test]
    fn probabilities_sum_to_one_across_many_positions() {
        let dna = Alphabet::dna();
        let s = UncertainString::parse(
            "{(A,0.1),(C,0.2),(G,0.3),(T,0.4)}A{(A,0.6),(T,0.4)}{(C,0.5),(G,0.5)}",
            &dna,
        )
        .unwrap();
        let total: f64 = s.worlds().map(|w| w.prob).sum();
        assert!(approx_eq_eps(total, 1.0, 1e-9));
        assert_eq!(s.worlds().count(), 16);
    }
}
