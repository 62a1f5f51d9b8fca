//! Probability helpers shared across the workspace.
//!
//! Probabilities are plain `f64`; this module centralises the tolerance used
//! when validating distributions and comparing probability values, so every
//! crate agrees on what "sums to one" means.

/// Probability type used throughout the workspace.
pub type Prob = f64;

/// Absolute tolerance used when checking that a distribution sums to one and
/// when comparing probabilities in tests.
pub const PROB_EPS: f64 = 1e-9;

/// Looser tolerance for quantities accumulated over many floating point
/// operations (possible-world sums, DP tables).
pub const SUM_EPS: f64 = 1e-6;

/// Returns `true` if `a` and `b` are equal within [`PROB_EPS`].
#[inline]
pub fn approx_eq(a: Prob, b: Prob) -> bool {
    (a - b).abs() <= PROB_EPS
}

/// Returns `true` if `a` and `b` are equal within `eps`.
#[inline]
pub fn approx_eq_eps(a: Prob, b: Prob, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// Clamps `p` into `[0, 1]`, absorbing small floating-point drift.
///
/// DP recurrences such as the Poisson-binomial tail or the CDF bounds can
/// produce values like `1.0000000000000002`; clamping keeps downstream
/// threshold comparisons honest.
#[inline]
pub fn clamp(p: Prob) -> Prob {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_within_tolerance() {
        assert!(approx_eq(0.5, 0.5 + 1e-12));
        assert!(!approx_eq(0.5, 0.5 + 1e-6));
    }

    #[test]
    fn clamp_absorbs_drift() {
        assert_eq!(clamp(1.0 + 1e-15), 1.0);
        assert_eq!(clamp(-1e-15), 0.0);
        assert_eq!(clamp(0.25), 0.25);
    }
}
