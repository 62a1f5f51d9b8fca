//! Even-partition scheme (paper §2.1 and §4).
//!
//! A string of length `l` is split into `m` disjoint segments where
//! `m = max(k+1, ⌊l/q⌋)`, clamped to `[1, l]` so every segment is
//! non-empty. Following the paper's even-partition scheme, the *last*
//! `l mod m` segments are one character longer than the rest; with
//! `m = ⌊l/q⌋` this yields segments of length `q` or `q+1` exactly as in
//! §4.

/// One segment of a partitioned string: a half-open window
/// `[start, start+len)` in 0-based positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// 0-based start position within the string.
    pub start: usize,
    /// Segment length in characters (always ≥ 1).
    pub len: usize,
}

impl Segment {
    /// One-past-the-end position.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Number of segments used for a string of length `len` with q-gram length
/// `q` and edit threshold `k`: `max(k+1, ⌊len/q⌋)` clamped to `[1, len]`.
///
/// Returns 0 for the empty string (which has no segments).
pub fn num_segments(len: usize, q: usize, k: usize) -> usize {
    assert!(q >= 1, "q must be at least 1");
    if len == 0 {
        return 0;
    }
    (k + 1).max(len / q).min(len)
}

/// Partitions a string of length `len` into [`num_segments`] segments with
/// the even-partition scheme: base length `⌊len/m⌋`, with the last
/// `len mod m` segments one character longer.
///
/// ```
/// use usj_qgram::partition;
/// // |S| = 8, q = 3, k = 1 → m = max(2, 2) = 2 segments of length 4.
/// let segs = partition(8, 3, 1);
/// assert_eq!(segs.len(), 2);
/// assert_eq!((segs[0].start, segs[0].len), (0, 4));
/// assert_eq!((segs[1].start, segs[1].len), (4, 4));
/// ```
pub fn partition(len: usize, q: usize, k: usize) -> Vec<Segment> {
    let m = num_segments(len, q, k);
    partition_into(len, m)
}

/// Partitions a string of length `len` into exactly `m` segments (the last
/// `len mod m` get the extra character). `m` must satisfy `1 ≤ m ≤ len`;
/// `m = 0` is allowed only with `len = 0`.
fn partition_into(len: usize, m: usize) -> Vec<Segment> {
    if len == 0 && m == 0 {
        return Vec::new();
    }
    assert!(m >= 1 && m <= len, "need 1 <= m <= len (m={m}, len={len})");
    let base = len / m;
    let extra = len % m;
    let mut out = Vec::with_capacity(m);
    let mut start = 0;
    for x in 0..m {
        // The last `extra` segments are longer by one.
        let seg_len = base + usize::from(x >= m - extra);
        out.push(Segment {
            start,
            len: seg_len,
        });
        start += seg_len;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(len: usize, segs: &[Segment]) {
        let mut pos = 0;
        for s in segs {
            assert_eq!(s.start, pos, "segments must be contiguous");
            assert!(s.len >= 1);
            pos = s.end();
        }
        assert_eq!(pos, len, "segments must cover the string");
    }

    #[test]
    fn paper_shapes() {
        // len 6, q 2, k 1 → m = max(2, 3) = 3, all length 2 (Table 1).
        let segs = partition(6, 2, 1);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len == 2));
        covers(6, &segs);

        // len 6, q 3, k 1 → m = max(2, 2) = 2 of length 3 (§3.2 example).
        let segs = partition(6, 3, 1);
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| s.len == 3));
    }

    #[test]
    fn uneven_lengths_go_to_tail() {
        // len 10, q 3 → m = 3, lengths 3,3,4 (last len%m = 1 segment longer).
        let segs = partition(10, 3, 1);
        assert_eq!(
            segs.iter().map(|s| s.len).collect::<Vec<_>>(),
            vec![3, 3, 4]
        );
        covers(10, &segs);

        // len 11, q 3 → m = 3, lengths 3,4,4.
        let segs = partition(11, 3, 1);
        assert_eq!(
            segs.iter().map(|s| s.len).collect::<Vec<_>>(),
            vec![3, 4, 4]
        );
        covers(11, &segs);
    }

    #[test]
    fn short_strings_clamp_m() {
        // len 3, q 3, k 4 → m = max(5, 1) = 5 clamped to len = 3.
        let segs = partition(3, 3, 4);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len == 1));
        covers(3, &segs);
    }

    #[test]
    fn k_plus_one_floor() {
        // len 12, q 4, k 4 → m = max(5, 3) = 5; lengths 2,2,2,3,3.
        let segs = partition(12, 4, 4);
        assert_eq!(segs.len(), 5);
        assert_eq!(
            segs.iter().map(|s| s.len).collect::<Vec<_>>(),
            vec![2, 2, 2, 3, 3]
        );
        covers(12, &segs);
    }

    #[test]
    fn empty_string_has_no_segments() {
        assert_eq!(num_segments(0, 3, 2), 0);
        assert!(partition(0, 3, 2).is_empty());
    }

    #[test]
    fn single_char() {
        let segs = partition(1, 3, 2);
        assert_eq!(segs, vec![Segment { start: 0, len: 1 }]);
    }

    #[test]
    fn exhaustive_coverage_invariant() {
        for len in 1..60 {
            for q in 1..6 {
                for k in 0..5 {
                    covers(len, &partition(len, q, k));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        num_segments(5, 0, 1);
    }
}
