//! Segment match probabilities `α_x` (paper §3.1–§3.2).
//!
//! `α_x = Pr(E_x)` where `E_x` is the event that segment `S^x` of the
//! indexed string equals one of the probe's selected window instances.
//! Because distinct instances of the same length are disjoint outcomes of
//! `S^x`,
//!
//! ```text
//! α_x = Σ_{w ∈ q(r,x)} p_r(w) · Pr(w = S^x)
//! ```
//!
//! is an exact union probability given correct `p_r(w)` (see
//! [`crate::equivalent`]).

use usj_model::{Prob, UncertainString};

use crate::equivalent::EquivalentSet;
use crate::partition::Segment;

/// Computes `α_x` for one segment by scanning the equivalent set against
/// the uncertain segment directly (index-free path, used by
/// [`crate::filter::QGramFilter`] and tests; the join driver computes the
/// same sum through its inverted lists).
pub fn alpha_for_segment(
    equivalent: &EquivalentSet,
    indexed: &UncertainString,
    segment: &Segment,
) -> Prob {
    let mut alpha = 0.0;
    for (w, p_r) in equivalent.iter() {
        if p_r == 0.0 {
            continue;
        }
        let m = indexed.substring_match_prob(segment.start, w);
        debug_check_addend(p_r, m);
        alpha += p_r * m;
    }
    // Note: the *raw* sum may legitimately exceed 1 — AlphaMode::Naive
    // double-counts overlapping instances (the paper's 1.32 example below)
    // — so only the clamped result is asserted to be a probability, never
    // the sum itself.
    debug_assert!(
        alpha.is_finite() && alpha >= 0.0,
        "accumulated alpha {alpha} is negative or non-finite"
    );
    alpha.clamp(0.0, 1.0)
}

/// Debug-build invariant on each α addend: the entry weight must be a
/// finite non-negative mass and the substring match probability a real
/// probability — a value outside `[0, 1]` means the indexed string's pdfs
/// were not normalized. Compiles to nothing in release builds.
#[cfg(debug_assertions)]
fn debug_check_addend(p_r: f64, m: f64) {
    debug_assert!(
        p_r.is_finite() && p_r >= 0.0,
        "equivalent-set weight {p_r} is negative or non-finite"
    );
    debug_assert!(
        (0.0..=1.0 + 1e-9).contains(&m),
        "substring match probability {m} lies outside [0, 1]"
    );
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn debug_check_addend(_: f64, _: f64) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalent::AlphaMode;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    /// The paper's §3.2 example end-to-end: P(E1) = 0.68.
    #[test]
    fn paper_example_alpha() {
        let r = dna("A{(A,0.8),(C,0.2)}AATT");
        let s = dna("A{(A,0.8),(C,0.2)}AGCT");
        let seg = Segment { start: 0, len: 3 };
        let set = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Grouped, 1000).unwrap();
        let alpha = alpha_for_segment(&set, &s, &seg);
        assert!((alpha - 0.68).abs() < 1e-9, "alpha = {alpha}");
    }

    /// The naive equivalent set produces the paper's incorrect 1.32 before
    /// clamping; `alpha_for_segment` clamps, so compute the raw sum here.
    #[test]
    fn paper_example_naive_alpha_is_wrong() {
        let r = dna("A{(A,0.8),(C,0.2)}AATT");
        let s = dna("A{(A,0.8),(C,0.2)}AGCT");
        let set = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Naive, 1000).unwrap();
        let raw: f64 = set
            .iter()
            .map(|(w, p)| p * s.substring_match_prob(0, w))
            .sum();
        assert!((raw - 1.32).abs() < 1e-9, "raw = {raw}");
    }

    /// α equals the exact joint probability of the segment-match event,
    /// verified by enumerating the joint worlds of probe region and
    /// segment.
    #[test]
    fn alpha_matches_joint_world_enumeration() {
        let r = dna("{(A,0.6),(C,0.4)}{(A,0.5),(G,0.5)}AT");
        let s = dna("{(A,0.7),(G,0.3)}{(A,0.2),(C,0.8)}GT");
        let seg = Segment { start: 0, len: 2 };
        let starts = (0, 2);
        let set = EquivalentSet::build(&r, starts, 2, AlphaMode::Exact, 10_000).unwrap();
        let alpha = alpha_for_segment(&set, &s, &seg);

        // Brute force: enumerate worlds of R and of S^x; the event is
        // "some window of the R-world equals the S^x-world".
        let mut exact = 0.0;
        for rw in r.worlds() {
            for sw in s.substring_worlds(seg.start, seg.len) {
                let hit = (starts.0..=starts.1).any(|st| rw.instance[st..st + 2] == sw.instance);
                if hit {
                    exact += rw.prob * sw.prob;
                }
            }
        }
        assert!((alpha - exact).abs() < 1e-9, "alpha={alpha} exact={exact}");
    }

    // Debug-only invariant layer: corrupted addends trip the check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lies outside [0, 1]")]
    fn debug_check_catches_bad_match_probability() {
        debug_check_addend(0.5, 1.7);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn debug_check_catches_negative_weight() {
        debug_check_addend(-0.25, 0.5);
    }

    #[test]
    fn alpha_zero_when_disjoint() {
        let r = dna("TTTT");
        let s = dna("AAAA");
        let seg = Segment { start: 0, len: 2 };
        let set = EquivalentSet::build(&r, (0, 2), 2, AlphaMode::Grouped, 100).unwrap();
        assert_eq!(alpha_for_segment(&set, &s, &seg), 0.0);
    }
}
