//! Portable scalar reference kernels.
//!
//! These are the semantic ground truth for every accelerated backend:
//! the parity tests compare SIMD output against these functions with
//! **bitwise** equality, which works because both sides evaluate the
//! same mul/add/max/min expression trees (no FMA contraction — each
//! product is rounded before the sum, exactly as the vector lanes do).

/// Scalar [`crate::pb_row_update`].
#[inline]
pub fn pb_row_update(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    if cur.is_empty() || prev.is_empty() {
        return;
    }
    cur[0] = prev[0] * keep;
    for j in 1..cur.len().min(prev.len()) {
        cur[j] = prev[j] * keep + prev[j - 1] * step;
    }
}

/// Scalar [`crate::cdf_row_update`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn cdf_row_update(
    p1: f64,
    p2: f64,
    l_d1: &[f64],
    l_best: &[f64],
    u_d1: &[f64],
    u_d2: &[f64],
    u_d3: &[f64],
    out_l: &mut [f64],
    out_u: &mut [f64],
) {
    for j in 0..out_l.len() {
        let (lb, u1, u2, u3) = if j > 0 {
            (l_best[j - 1], u_d1[j - 1], u_d2[j - 1], u_d3[j - 1])
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        let l = (p1 * l_d1[j]).max(p2 * lb);
        let u = (p1 * u_d1[j] + p2 * u1 + u2 + u3).min(1.0);
        out_l[j] = l.clamp(0.0, 1.0);
        out_u[j] = u.clamp(0.0, 1.0);
    }
}

/// Scalar [`crate::common_prefix_len`].
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Scalar [`crate::common_suffix_len`].
#[inline]
pub fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
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
    fn pb_row_matches_hand_computation() {
        let prev = [1.0, 0.0, 0.0];
        let mut cur = [0.0; 3];
        pb_row_update(&prev, &mut cur, 0.6, 0.4);
        assert_eq!(cur, [0.6, 0.4, 0.0]);
    }

    #[test]
    fn cdf_row_j0_reads_zero_neighbours() {
        let l_d1 = [0.8, 1.0];
        let l_best = [0.5, 0.9];
        let u_d1 = [0.9, 1.0];
        let u_d2 = [0.3, 0.4];
        let u_d3 = [0.2, 0.1];
        let (mut ol, mut ou) = ([0.0; 2], [0.0; 2]);
        cdf_row_update(
            0.5, 0.5, &l_d1, &l_best, &u_d1, &u_d2, &u_d3, &mut ol, &mut ou,
        );
        assert_eq!(ol[0], 0.5 * 0.8);
        assert_eq!(ou[0], 0.5 * 0.9);
        assert_eq!(ol[1], (0.5f64 * 1.0).max(0.5 * 0.5));
        assert_eq!(ou[1], 1.0); // 0.5·1.0 + 0.5·0.9 + 0.3 + 0.2 clamps at 1
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
