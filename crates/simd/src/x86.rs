//! x86_64 backends: AVX2 (256-bit) and SSE2 (128-bit baseline).
//!
//! Every function is `unsafe` only because of `target_feature`; callers
//! (the dispatcher in `lib.rs`) guarantee the feature is present. Lane
//! math mirrors the scalar kernels' expression trees exactly — plain
//! mul/add (never FMA), identical max/min operand order — so results are
//! bitwise equal to `crate::scalar`.

#![allow(clippy::missing_safety_doc)] // safety contract documented per fn body

use std::arch::x86_64::*;

/// AVX2 [`crate::pb_row_update`]: 4 lanes of `prev[j]·keep + prev[j−1]·step`.
#[target_feature(enable = "avx2")]
pub unsafe fn pb_row_update_avx2(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    let n = cur.len();
    if n == 0 {
        return;
    }
    cur[0] = prev[0] * keep;
    let vk = _mm256_set1_pd(keep);
    let vs = _mm256_set1_pd(step);
    let mut j = 1usize;
    while j + 4 <= n {
        // safety: j ≥ 1 and j+4 ≤ n = len(prev) = len(cur), so both the
        // aligned-at-j and shifted-at-j−1 4-lane loads and the store stay
        // in bounds.
        unsafe {
            let p = _mm256_loadu_pd(prev.as_ptr().add(j));
            let pm1 = _mm256_loadu_pd(prev.as_ptr().add(j - 1));
            let v = _mm256_add_pd(_mm256_mul_pd(p, vk), _mm256_mul_pd(pm1, vs));
            _mm256_storeu_pd(cur.as_mut_ptr().add(j), v);
        }
        j += 4;
    }
    while j < n {
        cur[j] = prev[j] * keep + prev[j - 1] * step;
        j += 1;
    }
}

/// SSE2 [`crate::pb_row_update`]: 2 lanes.
#[target_feature(enable = "sse2")]
pub unsafe fn pb_row_update_sse2(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    let n = cur.len();
    if n == 0 {
        return;
    }
    cur[0] = prev[0] * keep;
    let vk = _mm_set1_pd(keep);
    let vs = _mm_set1_pd(step);
    let mut j = 1usize;
    while j + 2 <= n {
        // safety: j ≥ 1 and j+2 ≤ n = len(prev) = len(cur), so both
        // 2-lane loads and the store stay in bounds.
        unsafe {
            let p = _mm_loadu_pd(prev.as_ptr().add(j));
            let pm1 = _mm_loadu_pd(prev.as_ptr().add(j - 1));
            let v = _mm_add_pd(_mm_mul_pd(p, vk), _mm_mul_pd(pm1, vs));
            _mm_storeu_pd(cur.as_mut_ptr().add(j), v);
        }
        j += 2;
    }
    while j < n {
        cur[j] = prev[j] * keep + prev[j - 1] * step;
        j += 1;
    }
}

/// AVX2 [`crate::cdf_row_update`]: lane `j` computes the Theorem 4 cell
/// pair from the shifted neighbour loads.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub unsafe fn cdf_row_update_avx2(
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
    // j = 0 reads zero neighbours — scalar.
    out_l[0] = (p1 * l_d1[0]).max(p2 * 0.0).clamp(0.0, 1.0);
    out_u[0] = (p1 * u_d1[0] + p2 * 0.0 + 0.0 + 0.0)
        .min(1.0)
        .clamp(0.0, 1.0);
    let vp1 = _mm256_set1_pd(p1);
    let vp2 = _mm256_set1_pd(p2);
    let one = _mm256_set1_pd(1.0);
    let zero = _mm256_setzero_pd();
    let mut j = 1usize;
    while j + 4 <= w {
        // safety: j ≥ 1 and j+4 ≤ w, and every slice has length ≥ w
        // (checked by the dispatcher), so the at-j and at-j−1 4-lane
        // loads and both stores stay in bounds.
        unsafe {
            let ld1 = _mm256_loadu_pd(l_d1.as_ptr().add(j));
            let lbm1 = _mm256_loadu_pd(l_best.as_ptr().add(j - 1));
            let l = _mm256_max_pd(_mm256_mul_pd(vp1, ld1), _mm256_mul_pd(vp2, lbm1));
            let l = _mm256_max_pd(_mm256_min_pd(l, one), zero);
            _mm256_storeu_pd(out_l.as_mut_ptr().add(j), l);

            let ud1 = _mm256_loadu_pd(u_d1.as_ptr().add(j));
            let ud1m1 = _mm256_loadu_pd(u_d1.as_ptr().add(j - 1));
            let ud2m1 = _mm256_loadu_pd(u_d2.as_ptr().add(j - 1));
            let ud3m1 = _mm256_loadu_pd(u_d3.as_ptr().add(j - 1));
            let u = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(vp1, ud1), _mm256_mul_pd(vp2, ud1m1)),
                    ud2m1,
                ),
                ud3m1,
            );
            let u = _mm256_max_pd(_mm256_min_pd(_mm256_min_pd(u, one), one), zero);
            _mm256_storeu_pd(out_u.as_mut_ptr().add(j), u);
        }
        j += 4;
    }
    while j < w {
        let l = (p1 * l_d1[j]).max(p2 * l_best[j - 1]);
        let u = (p1 * u_d1[j] + p2 * u_d1[j - 1] + u_d2[j - 1] + u_d3[j - 1]).min(1.0);
        out_l[j] = l.clamp(0.0, 1.0);
        out_u[j] = u.clamp(0.0, 1.0);
        j += 1;
    }
}

/// SSE2 [`crate::cdf_row_update`]: 2 lanes.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "sse2")]
pub unsafe fn cdf_row_update_sse2(
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
    let vp1 = _mm_set1_pd(p1);
    let vp2 = _mm_set1_pd(p2);
    let one = _mm_set1_pd(1.0);
    let zero = _mm_setzero_pd();
    let mut j = 1usize;
    while j + 2 <= w {
        // safety: j ≥ 1 and j+2 ≤ w, and every slice has length ≥ w
        // (checked by the dispatcher), so all 2-lane loads/stores stay in
        // bounds.
        unsafe {
            let ld1 = _mm_loadu_pd(l_d1.as_ptr().add(j));
            let lbm1 = _mm_loadu_pd(l_best.as_ptr().add(j - 1));
            let l = _mm_max_pd(_mm_mul_pd(vp1, ld1), _mm_mul_pd(vp2, lbm1));
            let l = _mm_max_pd(_mm_min_pd(l, one), zero);
            _mm_storeu_pd(out_l.as_mut_ptr().add(j), l);

            let ud1 = _mm_loadu_pd(u_d1.as_ptr().add(j));
            let ud1m1 = _mm_loadu_pd(u_d1.as_ptr().add(j - 1));
            let ud2m1 = _mm_loadu_pd(u_d2.as_ptr().add(j - 1));
            let ud3m1 = _mm_loadu_pd(u_d3.as_ptr().add(j - 1));
            let u = _mm_add_pd(
                _mm_add_pd(
                    _mm_add_pd(_mm_mul_pd(vp1, ud1), _mm_mul_pd(vp2, ud1m1)),
                    ud2m1,
                ),
                ud3m1,
            );
            let u = _mm_max_pd(_mm_min_pd(_mm_min_pd(u, one), one), zero);
            _mm_storeu_pd(out_u.as_mut_ptr().add(j), u);
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

/// AVX2 [`crate::common_prefix_len`]: 32-byte equality blocks.
#[target_feature(enable = "avx2")]
pub unsafe fn common_prefix_len_avx2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 32 <= n {
        // safety: i+32 ≤ n ≤ len(a), len(b), so both 32-byte loads stay
        // in bounds.
        let mask = unsafe {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32
        };
        if mask != u32::MAX {
            return i + (!mask).trailing_zeros() as usize;
        }
        i += 32;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// SSE2 [`crate::common_prefix_len`]: 16-byte equality blocks.
#[target_feature(enable = "sse2")]
pub unsafe fn common_prefix_len_sse2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 16 <= n {
        // safety: i+16 ≤ n ≤ len(a), len(b), so both 16-byte loads stay
        // in bounds.
        let mask = unsafe {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
            _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32
        };
        if mask != 0xFFFF {
            return i + (!mask).trailing_zeros() as usize;
        }
        i += 16;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// AVX2 [`crate::common_suffix_len`]: 32-byte blocks walked from the end.
#[target_feature(enable = "avx2")]
pub unsafe fn common_suffix_len_avx2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 32 <= n {
        // safety: i+32 ≤ n ≤ len(a), len(b), so the block starting 32
        // bytes before each unmatched tail stays in bounds.
        let mask = unsafe {
            let va = _mm256_loadu_si256(a.as_ptr().add(a.len() - i - 32) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(b.len() - i - 32) as *const __m256i);
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32
        };
        if mask != u32::MAX {
            // Matching run at the high (end-most) side of the block.
            return i + (!mask).leading_zeros() as usize;
        }
        i += 32;
    }
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

/// SSE2 [`crate::common_suffix_len`]: 16-byte blocks walked from the end.
#[target_feature(enable = "sse2")]
pub unsafe fn common_suffix_len_sse2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0usize;
    while i + 16 <= n {
        // safety: i+16 ≤ n ≤ len(a), len(b), so the block starting 16
        // bytes before each unmatched tail stays in bounds.
        let mask = unsafe {
            let va = _mm_loadu_si128(a.as_ptr().add(a.len() - i - 16) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(b.len() - i - 16) as *const __m128i);
            _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32
        };
        if mask != 0xFFFF {
            // The 16 mask bits sit in the low half; shift them to the top
            // so leading_zeros counts the end-most matching run.
            return i + ((!mask) << 16).leading_zeros() as usize;
        }
        i += 16;
    }
    while i < n && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}
