//! Frequency-distance filtering for uncertain strings (paper §5).
//!
//! For deterministic strings the frequency distance `fd(r, s)` (see
//! `usj_editdist::freq`) lower-bounds the edit distance. For uncertain
//! strings the paper derives:
//!
//! * **Lemma 6** — a deterministic lower bound on `fd(R, S)` over *all*
//!   possible worlds from the per-character minimum (`f^c`) and maximum
//!   (`f^t`) occurrence counts; if it exceeds `k` the pair cannot be
//!   similar in any world.
//! * **Theorem 3** — an upper bound on `Pr(fd(R,S) ≤ k)` (and hence on
//!   `Pr(ed(R,S) ≤ k)`) from the expected positive/negative frequency
//!   distances `E[pD]`, `E[nD]` via the one-sided Chebyshev inequality.
//!
//! The per-character occurrence count `f_{S,i}` is a Poisson-binomial
//! random variable over the uncertain positions mentioning character `i`.
//! A [`profile::FreqProfile`] precomputes, per string, every character's
//! distribution (the paper's `S1`) and its scaled upper tail `S3` in one
//! slot table and one `f64` buffer, so that each expectation
//! `E[(f_S − f_R)^+]` costs `O(min(f^u_R, f^u_S))` ([`expectation`]). The
//! paper's `S2` is only a running sum while `S3` is built, and `S4` is not
//! needed: the side with fewer uncertain positions is always the one
//! iterated, through `E[X] − E[Y] + E[(Y − X)^+]`. A
//! [`profile::CharProfile`] is a borrowed view of one character.
//!
//! [`filter::FreqFilter`] combines both bounds into a pruning decision.

#![warn(missing_docs)]

pub mod expectation;
pub mod filter;
pub mod profile;

pub use expectation::{expected_distances, expected_nd_char, expected_nd_naive, expected_pd_naive};
pub use filter::{FreqFilter, FreqOutcome};
pub use profile::{CharProfile, FreqProfile};

/// Lemma 6: a lower bound on the frequency distance between *any* pair of
/// possible worlds of `R` and `S`.
///
/// `pD = Σ_{f^t_{S,i} < f^c_{R,i}} (f^c_{R,i} − f^t_{S,i})`,
/// `nD = Σ_{f^t_{R,i} < f^c_{S,i}} (f^c_{S,i} − f^t_{R,i})`,
/// and the bound is `max(pD, nD)`.
pub fn lemma6_lower_bound(r: &FreqProfile, s: &FreqProfile) -> u32 {
    assert_eq!(r.sigma(), s.sigma(), "alphabet size mismatch");
    let (mut pd, mut nd) = (0u32, 0u32);
    for i in 0..r.sigma() {
        let (rc, rt) = r.bounds(i);
        let (sc, st) = s.bounds(i);
        if st < rc {
            pd += rc - st;
        }
        if rt < sc {
            nd += sc - rt;
        }
    }
    pd.max(nd)
}

/// Theorem 3: upper bound on `Pr(fd(R, S) ≤ k)` from the expected
/// frequency distances, via the one-sided Chebyshev inequality.
///
/// With `A = (||R|−|S|| + E[pD] + E[nD]) / 2` and
/// `B² = (|R|−|S|)²/2 + ||R|−|S||·(E[pD]+E[nD])/2
///       + min(|R|·E[nD], |S|·E[pD]) − A²`,
/// the bound is `B² / (B² + (A−k)²)` whenever `A > k`; when `A ≤ k` the
/// inequality is inapplicable and the bound is the trivial `1`.
pub fn theorem3_upper_bound(r_len: usize, s_len: usize, e_pd: f64, e_nd: f64, k: usize) -> f64 {
    let len_diff = (r_len as f64) - (s_len as f64);
    let abs_diff = len_diff.abs();
    let a = abs_diff / 2.0 + (e_pd + e_nd) / 2.0;
    if a <= k as f64 {
        return 1.0;
    }
    let b2 = len_diff * len_diff / 2.0
        + abs_diff * (e_pd + e_nd) / 2.0
        + (r_len as f64 * e_nd).min(s_len as f64 * e_pd)
        - a * a;
    let gap = a - k as f64;
    if b2 <= 0.0 {
        // Zero (or numerically negative) variance with mean above k: the
        // frequency distance exceeds k almost surely.
        return 0.0;
    }
    (b2 / (b2 + gap * gap)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::{Alphabet, UncertainString};

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn profile(text: &str) -> FreqProfile {
        FreqProfile::new(&dna(text), 4)
    }

    #[test]
    fn lemma6_deterministic_matches_fd() {
        // For deterministic strings the Lemma 6 bound *is* the frequency
        // distance.
        let r = profile("AACGT");
        let s = profile("CGTTT");
        let expect = usj_editdist::frequency_distance(
            &Alphabet::dna().encode("AACGT").unwrap(),
            &Alphabet::dna().encode("CGTTT").unwrap(),
            4,
        );
        assert_eq!(lemma6_lower_bound(&r, &s), expect);
    }

    #[test]
    fn lemma6_lower_bounds_every_world() {
        let r = dna("A{(A,0.5),(C,0.5)}G{(G,0.3),(T,0.7)}");
        let s = dna("{(C,0.4),(T,0.6)}CTT");
        let bound = lemma6_lower_bound(&FreqProfile::new(&r, 4), &FreqProfile::new(&s, 4));
        for rw in r.worlds() {
            for sw in s.worlds() {
                let fd = usj_editdist::frequency_distance(&rw.instance, &sw.instance, 4);
                assert!(bound <= fd, "bound {bound} > fd {fd} for {rw:?} {sw:?}");
            }
        }
    }

    #[test]
    fn lemma6_zero_for_identical() {
        let r = profile("AC{(G,0.5),(T,0.5)}T");
        assert_eq!(lemma6_lower_bound(&r, &r), 0);
    }

    #[test]
    fn theorem3_trivial_when_mean_small() {
        assert_eq!(theorem3_upper_bound(10, 10, 0.5, 0.5, 2), 1.0);
        assert_eq!(theorem3_upper_bound(10, 10, 0.0, 0.0, 0), 1.0);
    }

    #[test]
    fn theorem3_decreases_with_gap() {
        // Larger expected distance → smaller bound.
        let b1 = theorem3_upper_bound(10, 10, 4.0, 4.0, 1);
        let b2 = theorem3_upper_bound(10, 10, 8.0, 8.0, 1);
        assert!(b2 < b1, "b1={b1} b2={b2}");
        assert!(b1 < 1.0);
    }

    #[test]
    fn theorem3_zero_variance_prunes() {
        // |R| = 10, |S| = 4: length difference alone forces fd ≥ 6 > k.
        // E[pD] = 6, E[nD] = 0 → A = 6, B² = 36/2 + 3·6 + 0 − 36 = 0.
        let b = theorem3_upper_bound(10, 4, 6.0, 0.0, 3);
        assert_eq!(b, 0.0);
    }

    #[test]
    #[should_panic(expected = "alphabet size mismatch")]
    fn mismatched_alphabets_panic() {
        let r = profile("ACGT");
        let s = FreqProfile::new(&dna("ACGT"), 5);
        lemma6_lower_bound(&r, &s);
    }
}
