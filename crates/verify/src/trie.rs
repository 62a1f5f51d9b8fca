//! Tries over the possible instances of an uncertain string.
//!
//! A node at depth `d` represents one instance of the length-`d` prefix of
//! the string; leaves (depth = string length) are full possible worlds.
//! Node probabilities are the products of per-position probabilities along
//! the path, so a leaf's probability is its world's probability and an
//! inner node's probability is the total mass of the worlds below it.
//!
//! Nodes are stored in a flat arena. A node's children are created
//! together, so they occupy one contiguous id range, and always after
//! their parent, so `parent id < child id` — the property the active-set
//! closure in [`crate::active`] relies on. [`ProbeTrie`] is the view of
//! such an arena that the active-set transition walks; the eager
//! [`InstanceTrie`] and the lazy [`crate::lazy::LazyTrie`] both provide
//! it.

use std::ops::Range;

use usj_model::{Prob, Symbol, UncertainString};

/// One trie node.
#[derive(Debug, Clone, Copy)]
pub struct TrieNode {
    /// Depth = number of characters on the path from the root.
    pub depth: u32,
    /// First child id; the children are `first_child..first_child +
    /// num_children`.
    first_child: u32,
    /// Number of materialised children (0 for leaves and for lazy nodes
    /// not yet expanded).
    num_children: u32,
    /// Edge label from the parent (unspecified for the root).
    pub symbol: Symbol,
    /// Probability mass of the subtree (product of position probabilities
    /// along the path).
    pub prob: Prob,
}

impl TrieNode {
    /// The root: depth 0, probability 1, no children yet.
    pub(crate) const ROOT: TrieNode = TrieNode {
        depth: 0,
        first_child: 0,
        num_children: 0,
        symbol: 0,
        prob: 1.0,
    };

    /// Ids of the materialised children, in ascending symbol order.
    #[inline]
    pub fn children(&self) -> Range<u32> {
        self.first_child..self.first_child + self.num_children
    }
}

/// Appends the children of node `id` (one per alternative of `probe`'s
/// next position) to `nodes` and records their range on `id`.
pub(crate) fn expand(nodes: &mut Vec<TrieNode>, probe: &UncertainString, id: u32) -> Range<u32> {
    let parent = nodes[id as usize];
    let first = nodes.len() as u32;
    for (sym, p) in probe.position(parent.depth as usize).alternatives() {
        nodes.push(TrieNode {
            depth: parent.depth + 1,
            first_child: 0,
            num_children: 0,
            symbol: sym,
            prob: parent.prob * p,
        });
    }
    let count = nodes.len() as u32 - first;
    let node = &mut nodes[id as usize];
    node.first_child = first;
    node.num_children = count;
    node.children()
}

/// A probe trie as the active-set transition sees it: nodes by id (the
/// root is [`InstanceTrie::ROOT`]), and each node's contiguous child
/// range, materialised on request.
pub trait ProbeTrie {
    /// Node `id`.
    fn node(&self, id: u32) -> &TrieNode;

    /// Length of the underlying string (= leaf depth).
    fn string_len(&self) -> usize;

    /// Ids of `id`'s children, materialising them first if the trie is
    /// lazy. Empty only for leaves.
    fn children(&mut self, id: u32) -> Range<u32>;

    /// `true` when `id` is a leaf (full instance).
    #[inline]
    fn is_leaf(&self, id: u32) -> bool {
        self.node(id).depth as usize == self.string_len()
    }
}

/// Trie of all possible instances of an uncertain string, built up front
/// in DFS order.
#[derive(Debug, Clone)]
pub struct InstanceTrie {
    nodes: Vec<TrieNode>,
    len: usize,
}

impl InstanceTrie {
    /// Builds the full trie for `s`, or `None` if it would exceed
    /// `max_nodes` nodes (worlds grow exponentially with uncertain
    /// positions; the paper's experiments cap uncertain characters at 8).
    pub fn build(s: &UncertainString, max_nodes: usize) -> Option<InstanceTrie> {
        let mut nodes = vec![TrieNode::ROOT];
        // Iterative DFS; a node's children are pushed together, so the
        // last-created child is expanded next.
        let mut stack = vec![Self::ROOT];
        while let Some(id) = stack.pop() {
            let depth = nodes[id as usize].depth as usize;
            if depth == s.len() {
                continue;
            }
            if nodes.len() + s.position(depth).num_alternatives() > max_nodes {
                return None;
            }
            stack.extend(expand(&mut nodes, s, id));
        }
        Some(InstanceTrie {
            nodes,
            len: s.len(),
        })
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (= number of possible worlds).
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.depth as usize == self.len)
            .count()
    }

    /// The root node id.
    pub const ROOT: u32 = 0;
}

impl ProbeTrie for InstanceTrie {
    #[inline]
    fn node(&self, id: u32) -> &TrieNode {
        &self.nodes[id as usize]
    }

    #[inline]
    fn string_len(&self) -> usize {
        self.len
    }

    #[inline]
    fn children(&mut self, id: u32) -> Range<u32> {
        self.nodes[id as usize].children()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    #[test]
    fn deterministic_chain() {
        let t = InstanceTrie::build(&dna("ACGT"), 1000).unwrap();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.string_len(), 4);
    }

    #[test]
    fn branching_counts() {
        let s = dna("{(A,0.5),(C,0.5)}{(G,0.3),(T,0.7)}");
        let t = InstanceTrie::build(&s, 1000).unwrap();
        // root + 2 depth-1 + 4 depth-2.
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(t.num_leaves(), 4);
    }

    #[test]
    fn leaf_probabilities_match_worlds() {
        let s = dna("{(A,0.2),(C,0.8)}G{(A,0.6),(T,0.4)}");
        let t = InstanceTrie::build(&s, 1000).unwrap();
        let leaf_total: f64 = (0..t.num_nodes() as u32)
            .filter(|&id| t.is_leaf(id))
            .map(|id| t.node(id).prob)
            .sum();
        assert!((leaf_total - 1.0).abs() < 1e-12);
        assert_eq!(t.num_leaves(), s.worlds().count());
    }

    #[test]
    fn parent_ids_precede_children() {
        let s = dna("{(A,0.5),(C,0.5)}{(G,0.3),(T,0.7)}{(A,0.5),(C,0.5)}");
        let t = InstanceTrie::build(&s, 1000).unwrap();
        for id in 0..t.num_nodes() as u32 {
            for child in t.node(id).children() {
                assert!(child > id, "child {child} ≤ parent {id}");
            }
        }
    }

    #[test]
    fn node_cap() {
        let s = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}");
        assert!(InstanceTrie::build(&s, 5).is_none());
        assert!(InstanceTrie::build(&s, 1000).is_some());
    }

    #[test]
    fn empty_string_is_root_only() {
        let t = InstanceTrie::build(&UncertainString::empty(), 10).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert!(t.is_leaf(InstanceTrie::ROOT));
        assert_eq!(t.num_leaves(), 1);
    }
}
