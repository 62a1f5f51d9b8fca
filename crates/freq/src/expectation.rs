//! Expected positive/negative frequency distances (paper §5).
//!
//! `pD = Σ_i (f_{R,i} − f_{S,i})^+` and `nD = Σ_i (f_{S,i} − f_{R,i})^+`
//! over the joint worlds of `R × S`. By linearity and per-character
//! independence, `E[pD] = Σ_i E[(f_{R,i} − f_{S,i})^+]` (and symmetrically
//! for `nD`).
//!
//! The naive evaluation of one character's term is a double sum over both
//! pmfs (`O(f^u_R · f^u_S)`); the paper's optimisation conditions on the
//! side with *fewer* uncertain positions and reads the other side's
//! scaled-summation arrays in `O(1)`, giving `O(min(f^u_R, f^u_S))` via
//! the identity `E[(X − Y)^+] = E[X] − E[Y] + E[(Y − X)^+]`.

use crate::profile::{CharProfile, FreqProfile};

/// `E[(f_S − f_R)^+]` for one character, iterating R's pmf (cost
/// `O(f^u_R)`; each summand reads S's `S3` array in `O(1)`).
fn expected_excess_iter_left(r: CharProfile<'_>, s: CharProfile<'_>) -> f64 {
    let rc = r.certain() as i64;
    let mut acc = 0.0;
    for x in 0..=r.uncertain() {
        let p = r.s1()[x as usize];
        if p == 0.0 {
            continue;
        }
        acc += p * s.expected_excess_over(rc + x as i64);
    }
    acc
}

/// `E[(f_S − f_R)^+]` for one character in `O(min(f^u_R, f^u_S))`.
pub fn expected_nd_char(r: CharProfile<'_>, s: CharProfile<'_>) -> f64 {
    if r.uncertain() <= s.uncertain() {
        expected_excess_iter_left(r, s)
    } else {
        // E[(f_S − f_R)^+] = E[f_S] − E[f_R] + E[(f_R − f_S)^+],
        // and the last term iterates S's (smaller) pmf.
        (s.mean() - r.mean() + expected_excess_iter_left(s, r)).max(0.0)
    }
}

/// `E[(f_R − f_S)^+]` for one character.
fn expected_pd_char(r: CharProfile<'_>, s: CharProfile<'_>) -> f64 {
    expected_nd_char(s, r)
}

/// `(E[pD], E[nD])` for a string pair.
pub fn expected_distances(r: &FreqProfile, s: &FreqProfile) -> (f64, f64) {
    assert_eq!(r.sigma(), s.sigma(), "alphabet size mismatch");
    let (mut e_pd, mut e_nd) = (0.0, 0.0);
    for (rc, sc) in r.char_profiles().zip(s.char_profiles()) {
        // Skip characters absent from both strings.
        if rc.total() == 0 && sc.total() == 0 {
            continue;
        }
        e_pd += expected_pd_char(rc, sc);
        e_nd += expected_nd_char(rc, sc);
    }
    (e_pd, e_nd)
}

/// Naive `O(f^u_R · f^u_S)` double-sum for `E[nD_i]`; retained as the
/// reference implementation for tests.
pub fn expected_nd_naive(r: CharProfile<'_>, s: CharProfile<'_>) -> f64 {
    let mut acc = 0.0;
    for x in 0..=r.uncertain() {
        let px = r.s1()[x as usize];
        let fx = (r.certain() + x) as i64;
        for y in 0..=s.uncertain() {
            let py = s.s1()[y as usize];
            let fy = (s.certain() + y) as i64;
            if fy > fx {
                acc += px * py * (fy - fx) as f64;
            }
        }
    }
    acc
}

/// Naive counterpart of `expected_pd_char`.
pub fn expected_pd_naive(r: CharProfile<'_>, s: CharProfile<'_>) -> f64 {
    expected_nd_naive(s, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::{Alphabet, UncertainString};

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    #[test]
    fn fast_matches_naive_per_char() {
        // Per pair, character 0 of each string: (f^c, f^u) of (0, 2) vs
        // (1, 1), (2, 0) vs (0, 3), (1, 1) vs (1, 1), (0, 0) vs (3, 0) and
        // (5, 4) vs (0, 1).
        let cases = [
            ("{(A,0.5),(C,0.5)}{(A,0.3),(G,0.7)}", "A{(A,0.9),(T,0.1)}"),
            ("AA", "{(A,0.1),(C,0.9)}{(A,0.2),(G,0.8)}{(A,0.3),(T,0.7)}"),
            ("A{(A,0.5),(C,0.5)}", "A{(A,0.5),(G,0.5)}"),
            ("CG", "AAA"),
            (
                "AAAAA{(A,0.2),(C,0.8)}{(A,0.4),(G,0.6)}{(A,0.6),(T,0.4)}{(A,0.8),(C,0.2)}",
                "{(A,0.5),(T,0.5)}",
            ),
        ];
        for (rt, st) in cases {
            let (rp, sp) = (FreqProfile::new(&dna(rt), 4), FreqProfile::new(&dna(st), 4));
            for (r, s) in rp.char_profiles().zip(sp.char_profiles()) {
                let fast = expected_nd_char(r, s);
                let naive = expected_nd_naive(r, s);
                assert!((fast - naive).abs() < 1e-12, "fast={fast} naive={naive}");
                let fast_pd = expected_pd_char(r, s);
                let naive_pd = expected_pd_naive(r, s);
                assert!((fast_pd - naive_pd).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn expected_distances_match_world_enumeration() {
        let r = dna("A{(A,0.5),(C,0.5)}G{(G,0.3),(T,0.7)}");
        let s = dna("{(C,0.4),(T,0.6)}C{(A,0.2),(G,0.8)}T");
        let (e_pd, e_nd) = expected_distances(&FreqProfile::new(&r, 4), &FreqProfile::new(&s, 4));
        // Brute force over joint worlds.
        let (mut b_pd, mut b_nd) = (0.0, 0.0);
        for rw in r.worlds() {
            for sw in s.worlds() {
                let fr = usj_editdist::FreqVector::new(&rw.instance, 4);
                let fs = usj_editdist::FreqVector::new(&sw.instance, 4);
                let p = rw.prob * sw.prob;
                for i in 0..4u8 {
                    let (a, b) = (fr.count(i) as f64, fs.count(i) as f64);
                    if a > b {
                        b_pd += p * (a - b);
                    } else {
                        b_nd += p * (b - a);
                    }
                }
            }
        }
        assert!((e_pd - b_pd).abs() < 1e-9, "E[pD]: {e_pd} vs {b_pd}");
        assert!((e_nd - b_nd).abs() < 1e-9, "E[nD]: {e_nd} vs {b_nd}");
    }

    #[test]
    fn deterministic_pair_reduces_to_plain_counts() {
        let r = dna("AACG");
        let s = dna("CGTT");
        let (e_pd, e_nd) = expected_distances(&FreqProfile::new(&r, 4), &FreqProfile::new(&s, 4));
        // f(r) = [2,1,1,0], f(s) = [0,1,1,2] → pD = 2, nD = 2.
        assert!((e_pd - 2.0).abs() < 1e-12);
        assert!((e_nd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_roles() {
        let r = FreqProfile::new(&dna("A{(A,0.5),(G,0.5)}T"), 4);
        let s = FreqProfile::new(&dna("{(C,0.3),(T,0.7)}GG"), 4);
        let (pd_rs, nd_rs) = expected_distances(&r, &s);
        let (pd_sr, nd_sr) = expected_distances(&s, &r);
        assert!((pd_rs - nd_sr).abs() < 1e-12);
        assert!((nd_rs - pd_sr).abs() < 1e-12);
    }

    #[test]
    fn identical_deterministic_strings_zero() {
        let p = FreqProfile::new(&dna("ACGT"), 4);
        let (e_pd, e_nd) = expected_distances(&p, &p);
        assert_eq!(e_pd, 0.0);
        assert_eq!(e_nd, 0.0);
    }
}
