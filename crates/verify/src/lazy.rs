//! Lazily materialised probe tries (our extension to §6.2).
//!
//! The paper builds the probe trie `T_R` *completely* before verification
//! ("we still need to build the trie TR completely") and lists improving
//! the trie-based verification as future work. This module implements the
//! natural improvement: `T_R` nodes are materialised **on demand**, the
//! first time an active set needs a node's children. Nodes outside every
//! active set — i.e. prefixes of `R` that are never within edit distance
//! `k` of any examined prefix of `S` — are never created, so verification
//! cost scales with the *similar region* of the two tries instead of with
//! the probe's world count. For a probe with 10 uncertain positions
//! (≈ 10M worlds) whose candidate shares no prefix, the eager trie
//! allocates millions of nodes; the lazy trie allocates a few hundred.
//!
//! Correctness is unchanged: the active-set transition is the same
//! [`crate::active::AdvanceScratch::advance`], and expansion appends a
//! node's children as one contiguous block after every existing node, so
//! parents still precede children in id order.

use std::ops::Range;

use usj_model::{Prob, UncertainString};

use crate::trie::{expand, ProbeTrie, TrieNode};
use crate::trie_verify::ProbeTrieVerifier;

/// Trie over the instances of a probe string, materialised on demand.
#[derive(Debug, Clone)]
pub struct LazyTrie {
    probe: UncertainString,
    nodes: Vec<TrieNode>,
}

impl LazyTrie {
    /// Creates the trie with just the root.
    pub fn new(probe: UncertainString) -> LazyTrie {
        LazyTrie {
            probe,
            nodes: vec![TrieNode::ROOT],
        }
    }

    /// Number of nodes materialised so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

impl ProbeTrie for LazyTrie {
    #[inline]
    fn node(&self, id: u32) -> &TrieNode {
        &self.nodes[id as usize]
    }

    #[inline]
    fn string_len(&self) -> usize {
        self.probe.len()
    }

    /// Materialises the children on first access: an inner node always
    /// has at least one, so an empty range below the leaf depth means
    /// "not expanded yet".
    #[inline]
    fn children(&mut self, id: u32) -> Range<u32> {
        let node = &self.nodes[id as usize];
        if node.children().is_empty() && (node.depth as usize) < self.probe.len() {
            return expand(&mut self.nodes, &self.probe, id);
        }
        node.children()
    }
}

/// Verifier over a lazily materialised probe trie — the default verifier
/// of the join driver.
pub type LazyTrieVerifier = ProbeTrieVerifier<LazyTrie>;

impl LazyTrieVerifier {
    /// Creates the verifier (cheap: only the root is materialised).
    pub fn new(probe: &UncertainString, k: usize, tau: Prob) -> LazyTrieVerifier {
        ProbeTrieVerifier::with_trie(LazyTrie::new(probe.clone()), k, tau)
    }

    /// Nodes materialised so far (diagnostics/benchmarks).
    pub fn nodes_materialized(&self) -> usize {
        self.trie().num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::exact_similarity_prob;
    use crate::trie_verify::TrieVerifier;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    const CASES: &[(&str, &str)] = &[
        ("ACGT", "ACGT"),
        ("ACGT", "AGGT"),
        ("AAAA", "TTTT"),
        ("A{(C,0.5),(G,0.5)}GT", "ACG{(T,0.4),(A,0.6)}"),
        (
            "{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}GT",
            "{(A,0.3),(C,0.7)}AG{(T,0.8),(G,0.2)}",
        ),
        ("ACGTACGT", "ACG{(T,0.5),(A,0.5)}ACGT"),
    ];

    #[test]
    fn lazy_equals_oracle_exact_mode() {
        for (rt, st) in CASES {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..3 {
                let mut v = LazyTrieVerifier::new(&r, k, 0.5).without_early_stop();
                let out = v.verify(&s);
                let exact = exact_similarity_prob(&r, &s, k);
                assert!(
                    (out.prob - exact).abs() < 1e-9,
                    "{rt} vs {st} k={k}: lazy={} exact={exact}",
                    out.prob
                );
            }
        }
    }

    #[test]
    fn lazy_agrees_with_eager() {
        for (rt, st) in CASES {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..3 {
                for tau in [0.01, 0.26, 0.61, 0.93] {
                    let eager = TrieVerifier::new(&r, k, tau, 1_000_000).unwrap().verify(&s);
                    let mut lazy = LazyTrieVerifier::new(&r, k, tau);
                    let got = lazy.verify(&s);
                    assert_eq!(got.similar, eager.similar, "{rt} {st} k={k} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn dissimilar_pair_materialises_little() {
        // Probe with 4^8 = 65536 worlds vs a hopeless candidate: almost
        // nothing should be materialised.
        let many = "{(A,0.25),(C,0.25),(G,0.25),(T,0.25)}".repeat(8);
        let r = dna(&many);
        let s = dna("ACGTACGT"); // shares prefix regions but most subtrees die
        let mut v = LazyTrieVerifier::new(&r, 1, 0.3);
        let _ = v.verify(&s);
        assert!(
            v.nodes_materialized() < 4000,
            "materialised {} nodes",
            v.nodes_materialized()
        );
    }

    #[test]
    fn trie_reuse_across_candidates() {
        let r = dna("{(A,0.5),(C,0.5)}CGT{(A,0.5),(G,0.5)}CGT");
        let mut v = LazyTrieVerifier::new(&r, 2, 0.2);
        let out1 = v.verify(&dna("ACGTACGT"));
        let nodes_after_first = v.nodes_materialized();
        let out2 = v.verify(&dna("ACGTACGT"));
        assert_eq!(out1.similar, out2.similar);
        // Second identical verification cannot need new nodes.
        assert_eq!(v.nodes_materialized(), nodes_after_first);
    }

    #[test]
    fn length_gap_short_circuits() {
        let mut v = LazyTrieVerifier::new(&dna("ACGT"), 1, 0.5);
        assert!(!v.verify(&dna("ACGTACGT")).similar);
    }
}
