//! Property tests for frequency-distance filtering, each run over a
//! seeded corpus of random strings (a failure names its seed).

use usj_freq::{
    expected_distances, expected_nd_char, expected_nd_naive, lemma6_lower_bound,
    theorem3_upper_bound, FreqFilter, FreqProfile,
};
use usj_model::rng::{check_seeds, random_string, Rng};
use usj_model::UncertainString;

const CASES: u64 = 192;

fn string(rng: &mut Rng) -> UncertainString {
    random_string(rng, 3, 2..6, 2)
}

/// A profile over two symbols whose characters take every mix of certain
/// and uncertain counts up to 8.
fn random_profile(rng: &mut Rng) -> FreqProfile {
    FreqProfile::new(&random_string(rng, 2, 0..9, 3), 2)
}

/// Lemma 6 lower-bounds the frequency distance of every world pair.
#[test]
fn lemma6_is_a_world_lower_bound() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng), string(rng));
        let bound = lemma6_lower_bound(&FreqProfile::new(&r, 3), &FreqProfile::new(&s, 3));
        for rw in r.worlds() {
            for sw in s.worlds() {
                let fd = usj_editdist::frequency_distance(&rw.instance, &sw.instance, 3);
                assert!(bound <= fd, "bound={bound} fd={fd}");
            }
        }
    });
}

/// E[pD]/E[nD] agree with joint-world enumeration.
#[test]
fn expectations_match_worlds() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng), string(rng));
        let (e_pd, e_nd) = expected_distances(&FreqProfile::new(&r, 3), &FreqProfile::new(&s, 3));
        let (mut b_pd, mut b_nd) = (0.0, 0.0);
        for rw in r.worlds() {
            for sw in s.worlds() {
                let fr = usj_editdist::FreqVector::new(&rw.instance, 3);
                let fs = usj_editdist::FreqVector::new(&sw.instance, 3);
                let p = rw.prob * sw.prob;
                for i in 0..3u8 {
                    let d = fr.count(i) as f64 - fs.count(i) as f64;
                    if d > 0.0 {
                        b_pd += p * d
                    } else {
                        b_nd -= p * d
                    }
                }
            }
        }
        assert!((e_pd - b_pd).abs() < 1e-9, "E[pD] {e_pd} vs {b_pd}");
        assert!((e_nd - b_nd).abs() < 1e-9, "E[nD] {e_nd} vs {b_nd}");
    });
}

/// Fast expectation equals the naive double sum.
#[test]
fn fast_expectation_equals_naive() {
    check_seeds(CASES, |rng| {
        let (r, s) = (random_profile(rng), random_profile(rng));
        for (a, b) in r.char_profiles().zip(s.char_profiles()) {
            let fast = expected_nd_char(a, b);
            let naive = expected_nd_naive(a, b);
            assert!((fast - naive).abs() < 1e-9, "fast={fast} naive={naive}");
        }
    });
}

/// Theorem 3's bound dominates the exact Pr(fd ≤ k) (and therefore
/// Pr(ed ≤ k)).
#[test]
fn theorem3_dominates_exact() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng), string(rng));
        let k = rng.below(3);
        let (rp, sp) = (FreqProfile::new(&r, 3), FreqProfile::new(&s, 3));
        let (e_pd, e_nd) = expected_distances(&rp, &sp);
        let bound = theorem3_upper_bound(r.len(), s.len(), e_pd, e_nd, k);
        let mut exact_fd = 0.0;
        for rw in r.worlds() {
            for sw in s.worlds() {
                if usj_editdist::frequency_distance(&rw.instance, &sw.instance, 3) as usize <= k {
                    exact_fd += rw.prob * sw.prob;
                }
            }
        }
        assert!(bound >= exact_fd - 1e-9, "bound={bound} exact={exact_fd}");
    });
}

/// End-to-end soundness of the filter: no false negatives against the
/// exact edit-distance probability.
#[test]
fn filter_is_sound() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng), string(rng));
        let k = rng.below(3);
        let tau = rng.range(1..80) as f64 / 100.0;
        let out = FreqFilter::new(k, tau, 3).evaluate_strings(&r, &s);
        if !out.candidate {
            let mut exact = 0.0;
            for rw in r.worlds() {
                for sw in s.worlds() {
                    if usj_editdist::within_k(&rw.instance, &sw.instance, k) {
                        exact += rw.prob * sw.prob;
                    }
                }
            }
            assert!(
                exact <= tau + 1e-9,
                "false negative: exact={exact} tau={tau} {out:?}"
            );
        }
    });
}
