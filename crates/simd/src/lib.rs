//! `usj-simd` — runtime-dispatched SIMD kernels for the join's hot loops.
//!
//! Four kernels cover the three inner loops the paper's filters spend
//! their time in:
//!
//! | kernel | hot loop |
//! |--------|----------|
//! | [`pb_row_update`] | Poisson-binomial segment-match DP rows (Theorem 2, `usj-qgram`) |
//! | [`cdf_row_update`] | CDF-bound recurrence cells (Theorem 4, `usj-cdf`) |
//! | [`common_prefix_len`] / [`common_suffix_len`] | banded edit-distance reduction (`usj-editdist`) |
//!
//! # Dispatch contract
//!
//! Every kernel has a **mandatory scalar fallback** in [`scalar`] that is
//! the semantic reference: the accelerated paths must return *bitwise*
//! identical results (the float kernels use plain mul/add trees — never
//! FMA — so lane math equals scalar math exactly). The instruction set is
//! picked once per process by [`simd_level`]:
//!
//! * `x86_64`: AVX2 when the CPU reports it, else SSE2 (the baseline
//!   every x86_64 CPU has);
//! * `aarch64`: NEON (architecturally guaranteed);
//! * anything else, Miri, or `USJ_NO_SIMD=1` in the environment: scalar.
//!
//! The env override gives sanitizer runs and differential tests a forced
//! scalar leg without a rebuild; Miri always takes the scalar path so the
//! interpreter never sees a vendor intrinsic.
//!
//! # Unsafe policy
//!
//! The only `unsafe` in this crate is `target_feature` kernel invocation
//! and raw-pointer lane loads/stores inside those kernels. Every unsafe
//! block carries a `// safety:` comment discharging its obligation
//! (bounds and feature availability); `usj-tidy`'s `unsafe-safety` lint
//! enforces the comment, and the seeded parity tests plus the Miri leg in
//! `scripts/sanitize.sh` enforce the semantics.

#![warn(missing_docs)]

pub mod scalar;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86;

#[cfg(all(target_arch = "aarch64", not(miri)))]
mod neon;

use std::sync::OnceLock;

/// The instruction set the process-wide dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar fallbacks only.
    Scalar,
    /// x86_64 SSE2 (128-bit lanes; baseline on every x86_64 CPU).
    Sse2,
    /// x86_64 AVX2 (256-bit lanes; runtime-detected).
    Avx2,
    /// aarch64 NEON (128-bit lanes; architecturally guaranteed).
    Neon,
}

impl SimdLevel {
    /// Stable lowercase name (for logs and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// The instruction set every kernel in this process dispatches to,
/// detected once and cached. `USJ_NO_SIMD` set to anything but `0`
/// forces [`SimdLevel::Scalar`] (read at first use, so set it before the
/// first kernel call).
pub fn simd_level() -> SimdLevel {
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    if std::env::var_os("USJ_NO_SIMD").is_some_and(|v| v != *"0") {
        return SimdLevel::Scalar;
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
        // SSE2 is part of the x86_64 baseline — no detection needed.
        SimdLevel::Sse2
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        SimdLevel::Neon
    }
    #[cfg(not(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri))))]
    {
        SimdLevel::Scalar
    }
}

/// One Poisson-binomial DP row transition:
///
/// ```text
/// cur[0] = prev[0] · keep
/// cur[j] = prev[j] · keep + prev[j−1] · step      (j ≥ 1)
/// ```
///
/// This is the shared shape of all three DP loops in `usj_qgram::tail`
/// (full distribution: `keep = 1−α, step = α`; failure-count form:
/// `keep = α, step = 1−α`). `prev` and `cur` must have equal length;
/// the result is bitwise identical across dispatch levels.
#[inline]
pub fn pb_row_update(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    debug_assert_eq!(prev.len(), cur.len(), "row buffers must match");
    let n = prev.len().min(cur.len());
    if n < 16 {
        // Rows this narrow are dominated by dispatch + vector setup;
        // the scalar loop (bitwise identical by the parity contract)
        // inlines into the caller instead. The Poisson-binomial DPs
        // spend almost all their calls here.
        return scalar::pb_row_update(&prev[..n], &mut cur[..n], keep, step);
    }
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: Avx2 is only selected when the CPU reported avx2.
        SimdLevel::Avx2 => unsafe {
            x86::pb_row_update_avx2(&prev[..n], &mut cur[..n], keep, step)
        },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: SSE2 is unconditionally available on x86_64.
        SimdLevel::Sse2 => unsafe {
            x86::pb_row_update_sse2(&prev[..n], &mut cur[..n], keep, step)
        },
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        // safety: NEON is unconditionally available on aarch64.
        SimdLevel::Neon => unsafe {
            neon::pb_row_update_neon(&prev[..n], &mut cur[..n], keep, step)
        },
        _ => scalar::pb_row_update(&prev[..n], &mut cur[..n], keep, step),
    }
}

/// One CDF-bound DP cell vector (Theorem 4), all `j = 0..width` at once:
///
/// ```text
/// out_l[j] = clamp(max(p1·l_d1[j], p2·l_best[j−1]))
/// out_u[j] = clamp(min(1, p1·u_d1[j] + p2·u_d1[j−1] + u_d2[j−1] + u_d3[j−1]))
/// ```
///
/// `j−1 < 0` reads as zero; `clamp` is to `[0, 1]`. All slices must share
/// `out_l.len()`; the result is bitwise identical across dispatch levels
/// (same mul/add/max/min tree, no FMA).
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
    let w = out_l.len();
    debug_assert!(
        [
            l_d1.len(),
            l_best.len(),
            u_d1.len(),
            u_d2.len(),
            u_d3.len(),
            out_u.len()
        ]
        .iter()
        .all(|&l| l == w),
        "cdf cell slices must share one width"
    );
    if [
        l_d1.len(),
        l_best.len(),
        u_d1.len(),
        u_d2.len(),
        u_d3.len(),
        out_u.len(),
    ]
    .iter()
    .any(|&l| l < w)
    {
        return;
    }
    if w < 16 {
        // Banded CDF rows are `2k+1` cells wide — single digits for the
        // thresholds the join runs at — so the inlined scalar loop wins
        // over any dispatch (identical bits either way).
        return scalar::cdf_row_update(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u);
    }
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: Avx2 is only selected when the CPU reported avx2.
        SimdLevel::Avx2 => unsafe {
            x86::cdf_row_update_avx2(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u)
        },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: SSE2 is unconditionally available on x86_64.
        SimdLevel::Sse2 => unsafe {
            x86::cdf_row_update_sse2(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u)
        },
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        // safety: NEON is unconditionally available on aarch64.
        SimdLevel::Neon => unsafe {
            neon::cdf_row_update_neon(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u)
        },
        _ => scalar::cdf_row_update(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u),
    }
}

/// Length of the longest common prefix of `a` and `b`.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: Avx2 is only selected when the CPU reported avx2.
        SimdLevel::Avx2 => unsafe { x86::common_prefix_len_avx2(a, b) },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: SSE2 is unconditionally available on x86_64.
        SimdLevel::Sse2 => unsafe { x86::common_prefix_len_sse2(a, b) },
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        // safety: NEON is unconditionally available on aarch64.
        SimdLevel::Neon => unsafe { neon::common_prefix_len_neon(a, b) },
        _ => scalar::common_prefix_len(a, b),
    }
}

/// Length of the longest common suffix of `a` and `b`.
#[inline]
pub fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
    // Delegates through the (dispatched) prefix kernel on reversed index
    // arithmetic inside each backend; scalar handles the general case.
    match simd_level() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: Avx2 is only selected when the CPU reported avx2.
        SimdLevel::Avx2 => unsafe { x86::common_suffix_len_avx2(a, b) },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // safety: SSE2 is unconditionally available on x86_64.
        SimdLevel::Sse2 => unsafe { x86::common_suffix_len_sse2(a, b) },
        #[cfg(all(target_arch = "aarch64", not(miri)))]
        // safety: NEON is unconditionally available on aarch64.
        SimdLevel::Neon => unsafe { neon::common_suffix_len_neon(a, b) },
        _ => scalar::common_suffix_len(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_cached_and_consistent() {
        let first = simd_level();
        assert_eq!(first, simd_level());
        // On x86_64/aarch64 without USJ_NO_SIMD the level is non-scalar;
        // everywhere it must be a valid variant with a stable name.
        assert!(!first.name().is_empty());
        if cfg!(miri) {
            assert_eq!(first, SimdLevel::Scalar);
        }
    }

    #[test]
    fn dispatch_matches_scalar_on_smoke_inputs() {
        // The full seeded sweep lives in tests/parity.rs; this in-crate
        // smoke check keeps `cargo test -p usj-simd --lib` meaningful
        // under Miri (which only runs lib tests).
        let prev = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125];
        let mut a = [0.0; 6];
        let mut b = [0.0; 6];
        pb_row_update(&prev, &mut a, 0.7, 0.3);
        scalar::pb_row_update(&prev, &mut b, 0.7, 0.3);
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));

        assert_eq!(common_prefix_len(b"banana", b"bandana"), 3);
        assert_eq!(common_suffix_len(b"banana", b"bandana"), 3);
    }
}
