//! Incremental active-node sets (paper §6.2, after Ji et al.'s fuzzy
//! search).
//!
//! For a fixed trie `T_R` and a growing probe prefix `u`, the *active set*
//! `A(u)` is the set of trie nodes `v` with `ed(u, v) ≤ k`, annotated with
//! that distance. It satisfies the recurrence
//!
//! ```text
//! ed(u·c, v·x) = min( ed(u, v) + [c ≠ x]   — substitute/match
//!               ,     ed(u, v·x) + 1       — delete c
//!               ,     ed(u·c, v) + 1 )     — insert x
//! ```
//!
//! so `A(u·c)` is computable from `A(u)` alone: the first two cases read
//! the old set; the third propagates *within* the new set from parents to
//! children, which a single ascending-id pass handles because the arena
//! stores parents before children.
//!
//! [`AdvanceScratch::advance`] is the one implementation of this step,
//! for the eager and the lazy trie alike (through [`ProbeTrie`]). It
//! allocates nothing once its buffers have grown: the tentative distances
//! live in a dense per-node array that is reset entry by entry, the
//! ascending-id pass is a min-heap over the reached ids, and the result
//! is written into a caller-owned [`ActiveSet`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::trie::{InstanceTrie, ProbeTrie};
use usj_model::Symbol;

/// Marks a node the current step has not reached (distances are ≤ k,
/// and k < 255).
const UNSET: u8 = u8::MAX;

/// Active set: trie node ids with their edit distance to the current
/// probe prefix, only entries with distance ≤ k.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet {
    /// `(node id, distance)` sorted by node id.
    entries: Vec<(u32, u8)>,
}

impl ActiveSet {
    /// The active set of the *empty* probe prefix: every node of depth
    /// `d ≤ k` with distance `d` (deleting all its characters).
    pub fn initial<T: ProbeTrie>(trie: &mut T, k: usize) -> ActiveSet {
        let mut set = ActiveSet::default();
        set.reset(trie, k);
        set
    }

    /// Overwrites `self` with [`ActiveSet::initial`], reusing its buffer.
    /// Materialises the top `k` layers of a lazy trie, level by level.
    pub fn reset<T: ProbeTrie>(&mut self, trie: &mut T, k: usize) {
        let entries = &mut self.entries;
        entries.clear();
        entries.push((InstanceTrie::ROOT, 0));
        // Breadth-first: `entries` doubles as the queue.
        let mut next = 0;
        while let Some(&(v, d)) = entries.get(next) {
            next += 1;
            if usize::from(d) < k {
                entries.extend(trie.children(v).map(|child| (child, d + 1)));
            }
        }
        entries.sort_unstable_by_key(|&(id, _)| id);
    }

    /// Entries as `(node id, distance)`, ascending by id.
    pub fn entries(&self) -> &[(u32, u8)] {
        &self.entries
    }

    /// `true` when no node is within distance k — the probe prefix (and
    /// every extension of it) can be pruned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of active nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Distance of a specific node, if active.
    pub fn distance_of(&self, id: u32) -> Option<u8> {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// Reusable scratch of the active-set transition. One per verifier: it
/// serves every step of every candidate.
#[derive(Debug, Clone, Default)]
pub struct AdvanceScratch {
    /// Best distance found so far per node id, `UNSET` when unreached.
    /// Every entry is `UNSET` between steps.
    best: Vec<u8>,
    /// Reached ids not yet emitted, smallest first.
    pending: BinaryHeap<Reverse<u32>>,
}

impl AdvanceScratch {
    /// Writes `A(u·c)` into `to`, given `from = A(u)`, materialising trie
    /// nodes as needed. `k` must be below 255.
    pub fn advance<T: ProbeTrie>(
        &mut self,
        trie: &mut T,
        from: &ActiveSet,
        c: Symbol,
        k: usize,
        to: &mut ActiveSet,
    ) {
        debug_assert!(k < usize::from(UNSET), "k must be below {UNSET}");
        let k = k as u8;
        for &(v, d) in &from.entries {
            // Delete c: v stays, distance grows.
            self.relax(v, d + 1, k);
            // Match / substitute against each child edge.
            for child in trie.children(v) {
                let x = trie.node(child).symbol;
                self.relax(child, d + u8::from(x != c), k);
            }
        }
        // Insertion closure, in ascending id order: a node's parent has a
        // smaller id, so its distance is final when it is popped.
        to.entries.clear();
        while let Some(Reverse(v)) = self.pending.pop() {
            let d = std::mem::replace(&mut self.best[v as usize], UNSET);
            to.entries.push((v, d));
            if d < k {
                for child in trie.children(v) {
                    self.relax(child, d + 1, k);
                }
            }
        }
    }

    /// Lowers node `id`'s tentative distance to `d` (if `d ≤ k`),
    /// queueing it the first time it is reached.
    #[inline]
    fn relax(&mut self, id: u32, d: u8, k: u8) {
        if d > k {
            return;
        }
        let i = id as usize;
        if i >= self.best.len() {
            self.best.resize(i + 1, UNSET);
        }
        let best = &mut self.best[i];
        if *best == UNSET {
            self.pending.push(Reverse(id));
        }
        *best = (*best).min(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::{Alphabet, UncertainString};

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    /// Walks the probe through the active set and cross-checks every
    /// node's distance against a direct edit-distance computation.
    fn check_against_direct(target: &UncertainString, probe: &[u8], k: usize) {
        let mut trie = InstanceTrie::build(target, 100_000).unwrap();
        // Collect each node's prefix string by DFS.
        let mut prefixes: Vec<Vec<u8>> = vec![Vec::new(); trie.num_nodes()];
        let mut stack = vec![InstanceTrie::ROOT];
        while let Some(id) = stack.pop() {
            for child in trie.node(id).children() {
                let mut p = prefixes[id as usize].clone();
                p.push(trie.node(child).symbol);
                prefixes[child as usize] = p;
                stack.push(child);
            }
        }
        // One scratch for every step: it must come back clean each time.
        let mut scratch = AdvanceScratch::default();
        let mut active = ActiveSet::initial(&mut trie, k);
        let mut next = ActiveSet::default();
        for step in 0..=probe.len() {
            let prefix = &probe[..step];
            // Expected active set by brute force.
            let mut expected: Vec<(u32, u8)> = (0..trie.num_nodes() as u32)
                .filter_map(|id| {
                    let d = usj_editdist::edit_distance(prefix, &prefixes[id as usize]);
                    (d <= k).then_some((id, d as u8))
                })
                .collect();
            expected.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(
                active.entries(),
                expected.as_slice(),
                "step {step} prefix {prefix:?}"
            );
            if step < probe.len() {
                scratch.advance(&mut trie, &active, probe[step], k, &mut next);
                std::mem::swap(&mut active, &mut next);
            }
        }
    }

    #[test]
    fn matches_direct_on_deterministic_target() {
        let target = dna("ACGTA");
        check_against_direct(&target, &Alphabet::dna().encode("AGTA").unwrap(), 2);
        check_against_direct(&target, &Alphabet::dna().encode("TTTTT").unwrap(), 2);
        check_against_direct(&target, &[], 1);
    }

    #[test]
    fn matches_direct_on_uncertain_target() {
        let target = dna("A{(C,0.5),(G,0.5)}G{(T,0.7),(A,0.3)}");
        for probe in ["ACGT", "AGG", "CCCC", "AGGTA", "A"] {
            let enc = Alphabet::dna().encode(probe).unwrap();
            for k in 0..=2 {
                check_against_direct(&target, &enc, k);
            }
        }
    }

    #[test]
    fn empty_set_stays_empty() {
        let target = dna("AAAA");
        let mut trie = InstanceTrie::build(&target, 100).unwrap();
        let mut scratch = AdvanceScratch::default();
        let mut active = ActiveSet::initial(&mut trie, 1);
        let mut next = ActiveSet::default();
        let t = Alphabet::dna().symbol('T').unwrap();
        for _ in 0..4 {
            scratch.advance(&mut trie, &active, t, 1, &mut next);
            std::mem::swap(&mut active, &mut next);
        }
        assert!(active.is_empty());
        scratch.advance(&mut trie, &active, t, 1, &mut next);
        assert!(next.is_empty());
    }

    #[test]
    fn initial_set_depth_bound() {
        let target = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}GG");
        let mut trie = InstanceTrie::build(&target, 100).unwrap();
        let active = ActiveSet::initial(&mut trie, 2);
        for &(id, d) in active.entries() {
            assert_eq!(trie.node(id).depth as u8, d);
            assert!(d <= 2);
        }
        // root + 2 depth-1 + 4 depth-2 = 7 entries.
        assert_eq!(active.len(), 7);
    }

    #[test]
    fn distance_lookup() {
        let target = dna("AC");
        let mut trie = InstanceTrie::build(&target, 100).unwrap();
        let active = ActiveSet::initial(&mut trie, 1);
        assert_eq!(active.distance_of(InstanceTrie::ROOT), Some(0));
        assert_eq!(active.distance_of(999), None);
    }
}
