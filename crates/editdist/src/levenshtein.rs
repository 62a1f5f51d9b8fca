//! Levenshtein (edit) distance over symbol slices.
//!
//! The edit distance `ed(r, s)` is the minimum number of single-character
//! insertions, deletions, and substitutions transforming `r` into `s`.

/// Full dynamic-programming edit distance in `O(|r|·|s|)` time and
/// `O(min(|r|,|s|))` space.
///
/// ```
/// use usj_editdist::edit_distance;
/// assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
/// assert_eq!(edit_distance(b"", b"abc"), 3);
/// assert_eq!(edit_distance(b"abc", b"abc"), 0);
/// ```
pub fn edit_distance(r: &[u8], s: &[u8]) -> usize {
    // Keep the shorter string in the row to minimise memory.
    let (short, long) = if r.len() <= s.len() { (r, s) } else { (s, r) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[short.len()]
}

/// Banded edit distance: returns `Some(d)` when `ed(r, s) = d ≤ k`, `None`
/// otherwise, in `O((2k+1)·min(|r|,|s|))` time.
///
/// ```
/// use usj_editdist::edit_distance_bounded;
/// assert_eq!(edit_distance_bounded(b"kitten", b"sitting", 3), Some(3));
/// assert_eq!(edit_distance_bounded(b"kitten", b"sitting", 2), None);
/// assert_eq!(edit_distance_bounded(b"a", b"a", 0), Some(0));
/// ```
pub fn edit_distance_bounded(r: &[u8], s: &[u8], k: usize) -> Option<usize> {
    let (short, long) = if r.len() <= s.len() { (r, s) } else { (s, r) };
    if long.len() - short.len() > k {
        return None;
    }
    // Matching affixes never change the distance; strip them so the
    // banded DP only runs on the differing core.
    let p = common_prefix_len(short, long);
    let (short, long) = (&short[p..], &long[p..]);
    let q = common_suffix_len(short, long);
    let (short, long) = (&short[..short.len() - q], &long[..long.len() - q]);
    let (n, m) = (short.len(), long.len());
    if n == 0 {
        return Some(m);
    }
    // Row-wise DP over `long` with a band of half-width k around the
    // diagonal. INF marks cells outside the band.
    const INF: usize = usize::MAX / 2;
    let mut row = vec![INF; n + 1];
    for (j, cell) in row.iter_mut().enumerate().take(k.min(n) + 1) {
        *cell = j;
    }
    for (i, &lc) in long.iter().enumerate() {
        let i1 = i + 1;
        // Band limits for this row (columns j of `short`, 1-based).
        let lo = i1.saturating_sub(k);
        let hi = (i1 + k).min(n);
        if lo > hi {
            return None;
        }
        let mut prev_diag = if lo == 0 { row[0] } else { row[lo - 1] };
        if lo == 0 {
            row[0] = i1;
        } else {
            // Column lo-1 falls outside the band for this row.
            row[lo - 1] = INF;
        }
        let mut row_min = if lo == 0 { i1 } else { INF };
        for j in lo.max(1)..=hi {
            let cost = usize::from(lc != short[j - 1]);
            let val = (prev_diag + cost).min(row[j - 1] + 1).min(row[j] + 1);
            prev_diag = row[j];
            row[j] = val;
            row_min = row_min.min(val);
        }
        // Cells right of the band are unreachable in later rows.
        if hi < n {
            row[hi + 1] = INF;
        }
        if row_min > k {
            return None;
        }
    }
    (row[n] <= k).then_some(row[n])
}

/// `true` iff `ed(r, s) ≤ k`, with an `O(1)` length-difference fast path.
#[inline]
pub fn within_k(r: &[u8], s: &[u8], k: usize) -> bool {
    if r.len().abs_diff(s.len()) > k {
        return false;
    }
    edit_distance_bounded(r, s, k).is_some()
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_pairs() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
        assert_eq!(edit_distance(b"intention", b"execution"), 5);
        assert_eq!(edit_distance(b"gumbo", b"gambol"), 2);
    }

    #[test]
    fn identity_and_empty() {
        assert_eq!(edit_distance(b"", b""), 0);
        assert_eq!(edit_distance(b"abc", b""), 3);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"same", b"same"), 0);
    }

    #[test]
    fn symmetry() {
        assert_eq!(
            edit_distance(b"abcdef", b"azced"),
            edit_distance(b"azced", b"abcdef")
        );
    }

    #[test]
    fn bounded_matches_full_when_within() {
        let pairs: &[(&[u8], &[u8])] = &[
            (b"kitten", b"sitting"),
            (b"abc", b"abc"),
            (b"", b"xy"),
            (b"aaaa", b"bbbb"),
            (b"abcdefgh", b"abdefghi"),
        ];
        for &(a, b) in pairs {
            let d = edit_distance(a, b);
            for k in 0..=d + 2 {
                let got = edit_distance_bounded(a, b, k);
                if k >= d {
                    assert_eq!(got, Some(d), "a={a:?} b={b:?} k={k}");
                } else {
                    assert_eq!(got, None, "a={a:?} b={b:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn bounded_k_zero() {
        assert_eq!(edit_distance_bounded(b"abc", b"abc", 0), Some(0));
        assert_eq!(edit_distance_bounded(b"abc", b"abd", 0), None);
        assert_eq!(edit_distance_bounded(b"", b"", 0), Some(0));
    }

    #[test]
    fn bounded_strips_shared_affixes() {
        // Long shared prefix + suffix around a small differing core —
        // the strip must leave the distance (and the ≤ k decision) exact.
        let mut a = vec![7u8; 300];
        let mut b = a.clone();
        b[150] = 9; // one substitution in the middle
        assert_eq!(edit_distance_bounded(&a, &b, 2), Some(1));
        b.insert(150, 3); // plus one insertion
        assert_eq!(edit_distance_bounded(&a, &b, 2), Some(2));
        assert_eq!(edit_distance_bounded(&a, &b, 1), None);
        // Identical strings collapse to the n == 0 fast path.
        a = b.clone();
        assert_eq!(edit_distance_bounded(&a, &b, 0), Some(0));
    }

    #[test]
    fn within_k_fast_path() {
        assert!(!within_k(b"a", b"abcdef", 3));
        assert!(within_k(b"abc", b"abcd", 1));
        assert!(!within_k(b"abc", b"xyz", 2));
        assert!(within_k(b"abc", b"xyz", 3));
    }

    /// Exhaustive cross-check of the banded DP against the full DP on all
    /// short binary strings.
    #[test]
    fn bounded_exhaustive_small() {
        let strings: Vec<Vec<u8>> = (0..=4usize)
            .flat_map(|len| {
                (0..(1usize << len))
                    .map(move |bits| (0..len).map(|i| ((bits >> i) & 1) as u8).collect())
            })
            .collect();
        for a in &strings {
            for b in &strings {
                let d = edit_distance(a, b);
                for k in 0..=5 {
                    let got = edit_distance_bounded(a, b, k);
                    assert_eq!(got, (d <= k).then_some(d), "a={a:?} b={b:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn prefix_suffix_edges() {
        assert_eq!(common_prefix_len(b"", b"abc"), 0);
        assert_eq!(common_prefix_len(b"abc", b"abc"), 3);
        assert_eq!(common_prefix_len(b"abcd", b"abxd"), 2);
        assert_eq!(common_suffix_len(b"", b"abc"), 0);
        assert_eq!(common_suffix_len(b"abc", b"abc"), 3);
        assert_eq!(common_suffix_len(b"xbcd", b"ybcd"), 3);
    }
}
