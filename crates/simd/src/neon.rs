//! aarch64 NEON backends (128-bit lanes, architecturally guaranteed).
//!
//! Float kernels use `vmulq`/`vaddq` (never `vfmaq`) so lane math equals
//! the scalar kernels bit-for-bit; the byte kernels reduce equality masks
//! with `vminvq` and fall back to scalar scans inside a block once a
//! mismatch is located.

use std::arch::aarch64::*;

/// NEON [`crate::pb_row_update`]: 2 lanes of `prev[j]·keep + prev[j−1]·step`.
#[target_feature(enable = "neon")]
pub unsafe fn pb_row_update_neon(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    let n = cur.len();
    if n == 0 {
        return;
    }
    cur[0] = prev[0] * keep;
    // safety: vdupq_n_f64 only materialises registers.
    let (vk, vs) = unsafe { (vdupq_n_f64(keep), vdupq_n_f64(step)) };
    let mut j = 1usize;
    while j + 2 <= n {
        // safety: j ≥ 1 and j+2 ≤ n = len(prev) = len(cur), so both
        // 2-lane loads and the store stay in bounds.
        unsafe {
            let p = vld1q_f64(prev.as_ptr().add(j));
            let pm1 = vld1q_f64(prev.as_ptr().add(j - 1));
            let v = vaddq_f64(vmulq_f64(p, vk), vmulq_f64(pm1, vs));
            vst1q_f64(cur.as_mut_ptr().add(j), v);
        }
        j += 2;
    }
    while j < n {
        cur[j] = prev[j] * keep + prev[j - 1] * step;
        j += 1;
    }
}

/// NEON [`crate::cdf_row_update`]: 2 lanes per Theorem 4 cell pair.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
pub unsafe fn cdf_row_update_neon(
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
    let w = out_l.len();
    if w == 0 {
        return;
    }
    out_l[0] = (p1 * l_d1[0]).max(p2 * 0.0).clamp(0.0, 1.0);
    out_u[0] = (p1 * u_d1[0] + p2 * 0.0 + 0.0 + 0.0)
        .min(1.0)
        .clamp(0.0, 1.0);
    // safety: vdupq_n_f64 only materialises registers.
    let (vp1, vp2, one, zero) = unsafe {
        (
            vdupq_n_f64(p1),
            vdupq_n_f64(p2),
            vdupq_n_f64(1.0),
            vdupq_n_f64(0.0),
        )
    };
    let mut j = 1usize;
    while j + 2 <= w {
        // safety: j ≥ 1 and j+2 ≤ w, and every slice has length ≥ w
        // (checked by the dispatcher), so all 2-lane loads/stores stay in
        // bounds.
        unsafe {
            let ld1 = vld1q_f64(l_d1.as_ptr().add(j));
            let lbm1 = vld1q_f64(l_best.as_ptr().add(j - 1));
            let l = vmaxq_f64(vmulq_f64(vp1, ld1), vmulq_f64(vp2, lbm1));
            let l = vmaxq_f64(vminq_f64(l, one), zero);
            vst1q_f64(out_l.as_mut_ptr().add(j), l);

            let ud1 = vld1q_f64(u_d1.as_ptr().add(j));
            let ud1m1 = vld1q_f64(u_d1.as_ptr().add(j - 1));
            let ud2m1 = vld1q_f64(u_d2.as_ptr().add(j - 1));
            let ud3m1 = vld1q_f64(u_d3.as_ptr().add(j - 1));
            let u = vaddq_f64(
                vaddq_f64(vaddq_f64(vmulq_f64(vp1, ud1), vmulq_f64(vp2, ud1m1)), ud2m1),
                ud3m1,
            );
            let u = vmaxq_f64(vminq_f64(vminq_f64(u, one), one), zero);
            vst1q_f64(out_u.as_mut_ptr().add(j), u);
        }
        j += 2;
    }
    while j < w {
        let l = (p1 * l_d1[j]).max(p2 * l_best[j - 1]);
        let u = (p1 * u_d1[j] + p2 * u_d1[j - 1] + u_d2[j - 1] + u_d3[j - 1]).min(1.0);
        out_l[j] = l.clamp(0.0, 1.0);
        out_u[j] = u.clamp(0.0, 1.0);
        j += 1;
    }
}

/// NEON [`crate::common_prefix_len`]: 16-byte all-equal blocks, scalar
/// scan inside the first unequal block.
#[target_feature(enable = "neon")]
pub unsafe fn common_prefix_len_neon(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 16 <= n {
        // safety: i+16 ≤ n ≤ len(a), len(b), so both 16-byte loads stay
        // in bounds.
        let all_eq = unsafe {
            let va = vld1q_u8(a.as_ptr().add(i));
            let vb = vld1q_u8(b.as_ptr().add(i));
            vminvq_u8(vceqq_u8(va, vb)) == u8::MAX
        };
        if !all_eq {
            break;
        }
        i += 16;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// NEON [`crate::common_suffix_len`]: 16-byte all-equal blocks from the
/// end, scalar scan inside the first unequal block.
#[target_feature(enable = "neon")]
pub unsafe fn common_suffix_len_neon(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 16 <= n {
        // safety: i+16 ≤ n ≤ len(a), len(b), so the block starting 16
        // bytes before each unmatched tail stays in bounds.
        let all_eq = unsafe {
            let va = vld1q_u8(a.as_ptr().add(a.len() - i - 16));
            let vb = vld1q_u8(b.as_ptr().add(b.len() - i - 16));
            vminvq_u8(vceqq_u8(va, vb)) == u8::MAX
        };
        if !all_eq {
            break;
        }
        i += 16;
    }
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}
