//! Incremental prefix DP with prefix-pruning (paper §6.2).
//!
//! [`PrefixDp`] computes edit distances between a *fixed* target string and
//! a probe string that is revealed one character at a time — exactly the
//! access pattern of a depth-first walk over a trie of probe instances. Each
//! [`PrefixDp::push`] appends one probe character and computes the next DP
//! row; [`PrefixDp::pop`] backtracks. *Prefix-pruning* is the observation
//! that once every cell of a row exceeds the threshold `k`, no extension of
//! the probe prefix can come back within `k`, so the subtree can be skipped.

const INF: usize = usize::MAX / 2;

/// Row-stack DP between a fixed `target` and an incrementally-built probe.
///
/// ```
/// use usj_editdist::PrefixDp;
///
/// let mut dp = PrefixDp::new(b"abc", 1);
/// assert!(dp.push(b'a'));          // probe = "a"
/// assert!(dp.push(b'x'));          // probe = "ax"
/// assert_eq!(dp.distance(), None); // ed("ax", "abc") = 2 > 1
/// dp.pop();
/// assert!(dp.push(b'b'));          // probe = "ab"
/// assert!(dp.push(b'c'));          // probe = "abc"
/// assert_eq!(dp.distance(), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct PrefixDp {
    target: Vec<u8>,
    k: usize,
    /// Flattened row stack; each row has `target.len() + 1` cells.
    rows: Vec<usize>,
    /// Number of pushed probe characters (= number of rows minus one).
    depth: usize,
}

impl PrefixDp {
    /// Creates the DP for `target` with edit threshold `k`. The initial row
    /// corresponds to the empty probe prefix.
    pub fn new(target: &[u8], k: usize) -> Self {
        let width = target.len() + 1;
        let mut rows = Vec::with_capacity(width * (target.len() + k + 2));
        rows.extend(0..width);
        PrefixDp {
            target: target.to_vec(),
            k,
            rows,
            depth: 0,
        }
    }

    /// The fixed target string.
    pub fn target(&self) -> &[u8] {
        &self.target
    }

    /// The edit threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of probe characters currently pushed.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Appends probe character `c`, computing the next row.
    ///
    /// Returns `true` when the new row still has a cell `≤ k` (the probe
    /// prefix remains *viable*); returns `false` when every cell exceeds
    /// `k`, i.e. prefix-pruning applies. The row is pushed either way so
    /// that [`PrefixDp::pop`] stays symmetric.
    pub fn push(&mut self, c: u8) -> bool {
        let width = self.target.len() + 1;
        let prev_start = self.rows.len() - width;
        let i1 = self.depth + 1;
        // Band: only cells with |i1 - j| <= k can be <= k.
        let lo = i1.saturating_sub(self.k);
        let hi = (i1 + self.k).min(self.target.len());
        let mut min = INF;
        self.rows.reserve(width);
        for j in 0..width {
            let val = if j < lo || j > hi {
                INF
            } else if j == 0 {
                i1
            } else {
                let diag = self.rows[prev_start + j - 1];
                let up = self.rows[prev_start + j];
                // `left` reads the freshly pushed cell of the current row.
                let left = self.rows[prev_start + width + j - 1];
                let cost = usize::from(self.target[j - 1] != c);
                (diag + cost).min(up + 1).min(left + 1)
            };
            min = min.min(val);
            self.rows.push(val);
        }
        self.depth += 1;
        min <= self.k
    }

    /// Removes the most recently pushed probe character.
    ///
    /// # Panics
    ///
    /// Panics when no character has been pushed.
    pub fn pop(&mut self) {
        assert!(self.depth > 0, "pop on empty PrefixDp");
        let width = self.target.len() + 1;
        self.rows.truncate(self.rows.len() - width);
        self.depth -= 1;
    }

    /// Edit distance between the current probe prefix and the *whole*
    /// target, if it is `≤ k`.
    pub fn distance(&self) -> Option<usize> {
        let d = *self.rows.last().expect("rows are never empty");
        (d <= self.k).then_some(d)
    }

    /// Convenience: walks `probe` left-to-right with prefix-pruning and
    /// returns `ed(probe, target)` when `≤ k`.
    pub fn run(target: &[u8], probe: &[u8], k: usize) -> Option<usize> {
        let mut dp = PrefixDp::new(target, k);
        for &c in probe {
            if !dp.push(c) {
                return None;
            }
        }
        dp.distance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::edit_distance;

    #[test]
    fn run_agrees_with_full_dp() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"kitten", b"sitting"),
            (b"abc", b""),
            (b"", b"abc"),
            (b"abc", b"abc"),
            (b"gumbo", b"gambol"),
        ];
        for &(t, p) in pairs {
            let d = edit_distance(p, t);
            for k in 0..=d + 1 {
                assert_eq!(
                    PrefixDp::run(t, p, k),
                    (d <= k).then_some(d),
                    "t={t:?} p={p:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn push_pop_backtracking() {
        let mut dp = PrefixDp::new(b"abcd", 2);
        assert_eq!(dp.depth(), 0);
        assert!(dp.push(b'a'));
        assert!(dp.push(b'b'));
        let before = dp.distance();
        assert!(dp.push(b'z'));
        dp.pop();
        assert_eq!(dp.distance(), before);
        assert_eq!(dp.depth(), 2);
    }

    #[test]
    fn prefix_pruning_fires() {
        // target "aaaa", probe prefix "bbb" has min row value 3 > 2.
        let mut dp = PrefixDp::new(b"aaaa", 2);
        assert!(dp.push(b'b'));
        assert!(dp.push(b'b'));
        assert!(!dp.push(b'b'));
    }

    #[test]
    fn distance_respects_threshold() {
        let mut dp = PrefixDp::new(b"abc", 1);
        dp.push(b'a');
        assert_eq!(dp.distance(), None); // ed("a","abc") = 2
        dp.push(b'b');
        assert_eq!(dp.distance(), Some(1));
        dp.push(b'c');
        assert_eq!(dp.distance(), Some(0));
    }

    #[test]
    fn empty_target() {
        let mut dp = PrefixDp::new(b"", 1);
        assert_eq!(dp.distance(), Some(0));
        assert!(dp.push(b'x'));
        assert_eq!(dp.distance(), Some(1));
        assert!(!dp.push(b'y'));
        assert_eq!(dp.distance(), None);
    }

    #[test]
    #[should_panic(expected = "pop on empty")]
    fn pop_empty_panics() {
        PrefixDp::new(b"a", 1).pop();
    }

    /// Exhaustive: every probe over {a,b} of length ≤ 4 against every
    /// target of length ≤ 3, every k ≤ 3.
    #[test]
    fn exhaustive_small() {
        fn all(len: usize) -> Vec<Vec<u8>> {
            (0..=len)
                .flat_map(|l| {
                    (0..(1usize << l))
                        .map(move |bits| (0..l).map(|i| b'a' + ((bits >> i) & 1) as u8).collect())
                })
                .collect()
        }
        for t in all(3) {
            for p in all(4) {
                let d = edit_distance(&p, &t);
                for k in 0..=3 {
                    assert_eq!(
                        PrefixDp::run(&t, &p, k),
                        (d <= k).then_some(d),
                        "t={t:?} p={p:?} k={k}"
                    );
                }
            }
        }
    }
}
