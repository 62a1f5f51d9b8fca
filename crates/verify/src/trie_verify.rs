//! Trie-based verification (paper §6.2).
//!
//! [`TrieVerifier`] materialises the instance trie `T_R` of the probe
//! **once** and reuses it for every candidate `S` of the probe. For a
//! candidate, it walks the logical trie `T_S` depth-first *without
//! materialising it*: a prefix's children are visited only while the
//! prefix's active set (nodes of `T_R` within distance `k`) is non-empty,
//! so whole families of `S`-worlds sharing a hopeless prefix are skipped
//! at once. At an `S`-leaf, every *leaf* in the active set is a similar
//! world pair and contributes `p(s)·p(r)` to `Pr(ed(R,S) ≤ k)`.
//!
//! Early termination (optional): accept as soon as the accumulated mass
//! exceeds `τ`; reject as soon as accumulated + unexplored mass drops to
//! `≤ τ`. At each depth the walk tries `S`'s alternatives most probable
//! first (ties by symbol), so the heavy worlds that decide an accept are
//! reached first. The sum has the same terms in any order, so exact mode
//! only changes by rounding.
//!
//! The walk is the same for the eager trie ([`TrieVerifier`]) and the
//! lazy one ([`crate::LazyTrieVerifier`]): both are a
//! [`ProbeTrieVerifier`] over their trie. The verifier owns one active
//! set per `S` depth, the per-depth visit order and the transition's
//! scratch, so after the first few candidates a verification allocates
//! nothing.

use usj_model::{Prob, Symbol, UncertainString};

use crate::active::{ActiveSet, AdvanceScratch};
use crate::trie::{InstanceTrie, ProbeTrie};

/// Statistics of one verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    /// Logical `T_S` nodes whose active set was computed.
    pub s_nodes_expanded: u64,
    /// Logical `T_S` subtrees pruned by an empty active set.
    pub s_subtrees_pruned: u64,
    /// `S`-leaves reached (worlds of S actually examined).
    pub s_leaves_reached: u64,
}

/// Result of trie-based verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOutcome {
    /// `true` when `Pr(ed ≤ k) > τ`.
    pub similar: bool,
    /// Accumulated similar mass at the decision point (exact when early
    /// termination is off or never fired).
    pub prob: Prob,
    /// Work counters.
    pub stats: VerifyStats,
}

/// Verifier holding the probe's trie, reusable across all candidates of
/// the probe (the paper amortises `T_R` construction the same way).
#[derive(Debug, Clone)]
pub struct ProbeTrieVerifier<T> {
    trie: T,
    k: usize,
    tau: Prob,
    early_stop: bool,
    scratch: AdvanceScratch,
    /// `levels[d]` = active set of the current `S`-prefix of length `d`.
    levels: Vec<ActiveSet>,
    /// The candidate's alternatives, most probable first (ties by
    /// symbol): depth `d` visits `order[bounds[d]..bounds[d + 1]]`.
    order: Vec<(Symbol, Prob)>,
    bounds: Vec<usize>,
}

/// Verifier over the paper's eager probe trie.
pub type TrieVerifier = ProbeTrieVerifier<InstanceTrie>;

impl TrieVerifier {
    /// Builds the verifier for probe `r`; `None` if the probe's trie
    /// exceeds `max_nodes`.
    pub fn new(r: &UncertainString, k: usize, tau: Prob, max_nodes: usize) -> Option<TrieVerifier> {
        Some(ProbeTrieVerifier::with_trie(
            InstanceTrie::build(r, max_nodes)?,
            k,
            tau,
        ))
    }
}

impl<T: ProbeTrie> ProbeTrieVerifier<T> {
    /// Wraps a probe trie; `k` must be below 255.
    pub(crate) fn with_trie(trie: T, k: usize, tau: Prob) -> Self {
        assert!((0.0..=1.0).contains(&tau), "tau must lie in [0, 1]");
        assert!(k < 255, "k must be below 255");
        ProbeTrieVerifier {
            trie,
            k,
            tau,
            early_stop: true,
            scratch: AdvanceScratch::default(),
            levels: Vec::new(),
            order: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Disables early termination so `prob` is always the exact
    /// probability (used by tests and the verification ablation).
    pub fn without_early_stop(mut self) -> Self {
        self.early_stop = false;
        self
    }

    /// The probe trie (exposed for diagnostics/benchmarks).
    pub fn trie(&self) -> &T {
        &self.trie
    }

    /// Verifies one candidate. `&mut self` because the walk reuses the
    /// verifier's buffers, and a lazy trie may materialise nodes (which
    /// later candidates reuse).
    pub fn verify(&mut self, s: &UncertainString) -> VerifyOutcome {
        let mut stats = VerifyStats::default();
        if s.len().abs_diff(self.trie.string_len()) > self.k {
            return VerifyOutcome {
                similar: false,
                prob: 0.0,
                stats,
            };
        }
        if self.levels.len() <= s.len() {
            self.levels.resize_with(s.len() + 1, ActiveSet::default);
        }
        self.levels[0].reset(&mut self.trie, self.k);
        self.order.clear();
        self.bounds.clear();
        self.bounds.push(0);
        for pos in s.positions() {
            let start = self.order.len();
            self.order.extend(pos.alternatives());
            self.order[start..].sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            self.bounds.push(self.order.len());
        }
        let mut walker = Walker {
            verifier: self,
            len: s.len(),
            acc: 0.0,
            explored: 0.0,
            stats: &mut stats,
            decided: None,
        };
        walker.dfs(0, 1.0);
        let (acc, decided) = (walker.acc, walker.decided);
        VerifyOutcome {
            similar: decided.unwrap_or(acc > self.tau),
            prob: acc,
            stats,
        }
    }
}

struct Walker<'a, T> {
    verifier: &'a mut ProbeTrieVerifier<T>,
    /// Length of `S` (the leaf depth).
    len: usize,
    /// Accumulated similar mass.
    acc: Prob,
    /// Mass of S-prefixes fully resolved (explored to leaves or pruned).
    explored: Prob,
    stats: &'a mut VerifyStats,
    decided: Option<bool>,
}

impl<T: ProbeTrie> Walker<'_, T> {
    /// Depth-first walk over the logical trie of `S`.
    ///
    /// `depth` = number of fixed S characters, `prefix_prob` = probability
    /// of the current S prefix; `verifier.levels[depth]` holds A(prefix).
    fn dfs(&mut self, depth: usize, prefix_prob: Prob) {
        if self.decided.is_some() {
            return;
        }
        self.stats.s_nodes_expanded += 1;
        if depth == self.len {
            // Full S instance: every leaf in the active set is a world of
            // R within distance k.
            self.stats.s_leaves_reached += 1;
            let v = &*self.verifier;
            let mut leaf_mass = 0.0;
            for &(id, _) in v.levels[depth].entries() {
                if v.trie.is_leaf(id) {
                    leaf_mass += v.trie.node(id).prob;
                }
            }
            self.acc += prefix_prob * leaf_mass;
            self.explored += prefix_prob;
            self.check_termination();
            return;
        }
        for i in self.verifier.bounds[depth]..self.verifier.bounds[depth + 1] {
            if self.decided.is_some() {
                return;
            }
            let v = &mut *self.verifier;
            let (sym, p) = v.order[i];
            let child_prob = prefix_prob * p;
            let (done, rest) = v.levels.split_at_mut(depth + 1);
            let next = &mut rest[0];
            v.scratch.advance(&mut v.trie, &done[depth], sym, v.k, next);
            if next.is_empty() {
                // No extension of this prefix can be similar: prune the
                // whole subtree (and all worlds below it).
                self.stats.s_subtrees_pruned += 1;
                self.explored += child_prob;
                self.check_termination();
            } else {
                self.dfs(depth + 1, child_prob);
            }
        }
    }

    fn check_termination(&mut self) {
        if !self.verifier.early_stop {
            return;
        }
        if self.acc > self.verifier.tau {
            self.decided = Some(true);
        } else if self.acc + (1.0 - self.explored) <= self.verifier.tau {
            // Even if every unexplored world matched with full R mass the
            // threshold is out of reach.
            self.decided = Some(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_verify;
    use crate::oracle::exact_similarity_prob;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    const CASES: &[(&str, &str)] = &[
        ("ACGT", "ACGT"),
        ("ACGT", "AGGT"),
        ("AAAA", "TTTT"),
        ("A{(C,0.5),(G,0.5)}GT", "ACG{(T,0.4),(A,0.6)}"),
        ("{(A,0.9),(T,0.1)}CGT", "ACG{(T,0.5),(G,0.5)}"),
        (
            "{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}GT",
            "{(A,0.3),(C,0.7)}AG{(T,0.8),(G,0.2)}",
        ),
        ("ACGTACGT", "ACG{(T,0.5),(A,0.5)}ACGT"),
    ];

    #[test]
    fn exact_probability_without_early_stop() {
        for (rt, st) in CASES {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..3 {
                let mut v = TrieVerifier::new(&r, k, 0.5, 100_000)
                    .unwrap()
                    .without_early_stop();
                let out = v.verify(&s);
                let exact = exact_similarity_prob(&r, &s, k);
                assert!(
                    (out.prob - exact).abs() < 1e-9,
                    "{rt} vs {st} k={k}: trie={} exact={exact}",
                    out.prob
                );
            }
        }
    }

    #[test]
    fn early_stop_agrees_with_naive() {
        for (rt, st) in CASES {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..3 {
                // τ values chosen off the exact-probability lattice of the
                // cases above; a τ exactly equal to Pr(ed ≤ k) is a
                // floating-point knife edge where either decision is
                // defensible.
                for tau in [0.01, 0.26, 0.61, 0.93] {
                    let mut v = TrieVerifier::new(&r, k, tau, 100_000).unwrap();
                    let trie_out = v.verify(&s);
                    let naive_out = naive_verify(&r, &s, k, tau, false);
                    assert_eq!(
                        trie_out.similar, naive_out.similar,
                        "{rt} vs {st} k={k} tau={tau}: trie={trie_out:?} naive={naive_out:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_reduces_leaf_visits() {
        // S has 2^6 worlds but shares a hopeless prefix with R on most of
        // them.
        let r = dna("AAAAAAAA");
        let s = dna("{(T,0.5),(G,0.5)}{(T,0.5),(G,0.5)}{(T,0.5),(G,0.5)}\
             {(T,0.5),(G,0.5)}{(T,0.5),(G,0.5)}{(T,0.5),(G,0.5)}AA");
        let mut v = TrieVerifier::new(&r, 2, 0.0, 100_000)
            .unwrap()
            .without_early_stop();
        let out = v.verify(&s);
        assert_eq!(out.prob, 0.0);
        assert!(!out.similar);
        assert!(
            out.stats.s_leaves_reached < 64,
            "expected prefix pruning, visited {} leaves",
            out.stats.s_leaves_reached
        );
        assert!(out.stats.s_subtrees_pruned > 0);
    }

    #[test]
    fn early_accept_stops_quickly() {
        let r = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}GTGT");
        let mut v = TrieVerifier::new(&r, 2, 0.05, 100_000).unwrap();
        let out = v.verify(&r);
        assert!(out.similar);
        let full = TrieVerifier::new(&r, 2, 0.05, 100_000)
            .unwrap()
            .without_early_stop()
            .verify(&r);
        assert!(out.stats.s_nodes_expanded < full.stats.s_nodes_expanded);
    }

    #[test]
    fn most_probable_alternatives_are_visited_first() {
        // T has the largest DNA symbol id and carries 0.9 of each
        // uncertain position: in symbol order the walk would reach
        // AAGG, ATGG and TAGG before TTGG, whose mass alone decides.
        let r = dna("{(A,0.1),(T,0.9)}{(A,0.1),(T,0.9)}GG");
        let mut eager = TrieVerifier::new(&r, 0, 0.5, 1000).unwrap();
        let mut lazy = crate::LazyTrieVerifier::new(&r, 0, 0.5);
        for out in [eager.verify(&r), lazy.verify(&r)] {
            assert!(out.similar);
            assert_eq!(out.stats.s_leaves_reached, 1, "{out:?}");
            assert!((out.prob - 0.81 * 0.81).abs() < 1e-12, "{out:?}");
        }
    }

    #[test]
    fn length_gap_short_circuits() {
        let mut v = TrieVerifier::new(&dna("ACGT"), 1, 0.5, 1000).unwrap();
        let out = v.verify(&dna("ACGTACGT"));
        assert!(!out.similar);
        assert_eq!(out.stats.s_nodes_expanded, 0);
    }

    #[test]
    fn trie_cap_respected() {
        let r = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}");
        assert!(TrieVerifier::new(&r, 1, 0.5, 4).is_none());
    }

    #[test]
    fn empty_strings() {
        let e = UncertainString::empty();
        let mut v = TrieVerifier::new(&e, 0, 0.5, 10).unwrap();
        let out = v.verify(&e);
        assert!(out.similar);
        assert!((out.prob - 1.0).abs() < 1e-12);
    }
}
