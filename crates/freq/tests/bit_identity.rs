//! The compact profiles answer bit for bit like the layout they replaced:
//! one owned `CharProfile` per character, each with its own arrays. That
//! layout is kept below as the reference, with its build and its
//! expectation code as they were, and every filter output is compared by
//! `to_bits` on seeded random pairs.

use usj_freq::{
    expected_distances, lemma6_lower_bound, theorem3_upper_bound, FreqFilter, FreqOutcome,
    FreqProfile,
};
use usj_model::rng::{check_seeds, random_string, Rng};
use usj_model::{Position, UncertainString};

const CASES: u64 = 128;

/// The per-character reference: each character owns its `S1` and `S3`
/// vectors, `S3` built through a full `S2` vector, and its mean. (The
/// `S4` array that layout also kept is left out: no expectation reads
/// it.)
struct RefChar {
    certain: u32,
    s1: Vec<f64>,
    s3: Vec<f64>,
    mean_uncertain: f64,
}

impl RefChar {
    fn new(certain: u32, uncertain_probs: &[f64]) -> Self {
        let u = uncertain_probs.len();
        let mut s1 = vec![0.0; u + 1];
        s1[0] = 1.0;
        for (i, &p) in uncertain_probs.iter().enumerate() {
            for x in (0..=i + 1).rev() {
                let stay = if x <= i { s1[x] * (1.0 - p) } else { 0.0 };
                let step = if x > 0 { s1[x - 1] * p } else { 0.0 };
                s1[x] = stay + step;
            }
        }
        let mut s2 = vec![0.0; u + 1];
        let mut s3 = vec![0.0; u + 1];
        for x in (0..=u).rev() {
            let (next2, next3) = if x < u {
                (s2[x + 1], s3[x + 1])
            } else {
                (0.0, 0.0)
            };
            s2[x] = next2 + s1[x];
            s3[x] = next3 + s2[x];
        }
        let mean_uncertain: f64 = uncertain_probs.iter().sum();
        RefChar {
            certain,
            s1,
            s3,
            mean_uncertain,
        }
    }

    fn uncertain(&self) -> u32 {
        (self.s1.len() - 1) as u32
    }

    fn total(&self) -> u32 {
        self.certain + self.uncertain()
    }

    fn mean(&self) -> f64 {
        self.certain as f64 + self.mean_uncertain
    }

    fn expected_excess_over(&self, x: i64) -> f64 {
        let c = self.certain as i64;
        if x < c {
            return self.mean() - x as f64;
        }
        let d = (x - c) as usize;
        let u = self.s1.len() - 1;
        if d >= u {
            return 0.0;
        }
        self.s3[d + 1]
    }
}

struct RefProfile {
    per_char: Vec<RefChar>,
    len: usize,
}

impl RefProfile {
    fn new(s: &UncertainString, sigma: usize) -> Self {
        let mut certain = vec![0u32; sigma];
        let mut uncertain: Vec<Vec<f64>> = vec![Vec::new(); sigma];
        for pos in s.positions() {
            for (sym, p) in pos.alternatives() {
                let i = sym as usize;
                if p >= 1.0 - 1e-12 {
                    certain[i] += 1;
                } else {
                    uncertain[i].push(p);
                }
            }
        }
        let per_char = certain
            .into_iter()
            .zip(uncertain)
            .map(|(c, u)| RefChar::new(c, &u))
            .collect();
        RefProfile {
            per_char,
            len: s.len(),
        }
    }
}

fn ref_excess_iter_left(r: &RefChar, s: &RefChar) -> f64 {
    let rc = r.certain as i64;
    let mut acc = 0.0;
    for x in 0..=r.uncertain() {
        let p = r.s1[x as usize];
        if p == 0.0 {
            continue;
        }
        acc += p * s.expected_excess_over(rc + x as i64);
    }
    acc
}

fn ref_nd_char(r: &RefChar, s: &RefChar) -> f64 {
    if r.uncertain() <= s.uncertain() {
        ref_excess_iter_left(r, s)
    } else {
        (s.mean() - r.mean() + ref_excess_iter_left(s, r)).max(0.0)
    }
}

fn ref_distances(r: &RefProfile, s: &RefProfile) -> (f64, f64) {
    let (mut e_pd, mut e_nd) = (0.0, 0.0);
    for (rc, sc) in r.per_char.iter().zip(&s.per_char) {
        if rc.total() == 0 && sc.total() == 0 {
            continue;
        }
        e_pd += ref_nd_char(sc, rc);
        e_nd += ref_nd_char(rc, sc);
    }
    (e_pd, e_nd)
}

fn ref_lemma6(r: &RefProfile, s: &RefProfile) -> u32 {
    let (mut pd, mut nd) = (0u32, 0u32);
    for (rc, sc) in r.per_char.iter().zip(&s.per_char) {
        if sc.total() < rc.certain {
            pd += rc.certain - sc.total();
        }
        if rc.total() < sc.certain {
            nd += sc.certain - rc.total();
        }
    }
    pd.max(nd)
}

/// `FreqFilter::evaluate` over the reference profiles.
fn ref_evaluate(r: &RefProfile, s: &RefProfile, k: usize, tau: f64) -> FreqOutcome {
    let fd_lower = ref_lemma6(r, s);
    if fd_lower as usize > k {
        return FreqOutcome {
            fd_lower,
            e_pd: f64::NAN,
            e_nd: f64::NAN,
            upper_bound: 0.0,
            candidate: false,
        };
    }
    let (e_pd, e_nd) = ref_distances(r, s);
    let upper_bound = theorem3_upper_bound(r.len, s.len, e_pd, e_nd, k);
    FreqOutcome {
        fd_lower,
        e_pd,
        e_nd,
        upper_bound,
        candidate: upper_bound > tau,
    }
}

fn bits(out: &FreqOutcome) -> (u32, u64, u64, u64, bool) {
    (
        out.fd_lower,
        out.e_pd.to_bits(),
        out.e_nd.to_bits(),
        out.upper_bound.to_bits(),
        out.candidate,
    )
}

/// Compares every output of the filter, and the expectations on their
/// own (which the filter skips when Lemma 6 prunes), for both orders.
fn assert_identical(r: &UncertainString, s: &UncertainString, sigma: usize, rng: &mut Rng) {
    let (rp, sp) = (FreqProfile::new(r, sigma), FreqProfile::new(s, sigma));
    let (rr, sr) = (RefProfile::new(r, sigma), RefProfile::new(s, sigma));
    let k = rng.below(13);
    let tau = rng.range(1..100) as f64 / 100.0;
    let filter = FreqFilter::new(k, tau, sigma);
    for ((a, b), (ra, rb)) in [((&rp, &sp), (&rr, &sr)), ((&sp, &rp), (&sr, &rr))] {
        assert_eq!(
            bits(&filter.evaluate(a, b)),
            bits(&ref_evaluate(ra, rb, k, tau)),
            "k={k} tau={tau}"
        );
        assert_eq!(lemma6_lower_bound(a, b), ref_lemma6(ra, rb));
        let (pd, nd) = expected_distances(a, b);
        let (ref_pd, ref_nd) = ref_distances(ra, rb);
        assert_eq!(
            (pd.to_bits(), nd.to_bits()),
            (ref_pd.to_bits(), ref_nd.to_bits())
        );
    }
}

#[test]
fn random_pairs_match_the_reference_bit_for_bit() {
    for sigma in [2u8, 4, 27] {
        check_seeds(CASES, |rng| {
            // Lengths from 0 (empty strings) and 1..=5 alternatives per
            // position.
            let max_alts = rng.range(1..6);
            let r = random_string(rng, sigma, 0..30, max_alts);
            let s = random_string(rng, sigma, 0..30, max_alts);
            assert_identical(&r, &s, usize::from(sigma), rng);
        });
    }
}

#[test]
fn empty_and_fully_certain_strings_match() {
    check_seeds(CASES, |rng| {
        let sigma = [2u8, 4, 27][rng.below(3)];
        let empty = UncertainString::empty();
        let certain = random_string(rng, sigma, 0..20, 1);
        assert!(certain.is_deterministic());
        let uncertain = random_string(rng, sigma, 1..20, 4);
        for (r, s) in [
            (&empty, &empty),
            (&empty, &certain),
            (&certain, &uncertain),
            (&empty, &uncertain),
        ] {
            assert_identical(r, s, usize::from(sigma), rng);
        }
    });
}

/// Symbol 0 at 32..48 uncertain positions, interleaved with random ones.
fn heavy_string(rng: &mut Rng, sigma: u8) -> UncertainString {
    let mut positions = Vec::new();
    for i in 0..rng.range(32..49) {
        let p = rng.range(1..100) as f64 / 100.0;
        let other = 1 + rng.below(usize::from(sigma) - 1) as u8;
        positions.push(Position::uncertain(i, vec![(0, p), (other, 1.0 - p)]).unwrap());
        if rng.chance(0.3) {
            positions.push(usj_model::rng::random_position(rng, sigma, 3));
        }
    }
    UncertainString::new(positions)
}

#[test]
fn a_character_with_many_uncertain_positions_matches() {
    for sigma in [2u8, 4, 27] {
        check_seeds(CASES / 4, |rng| {
            let r = heavy_string(rng, sigma);
            assert!(
                FreqProfile::new(&r, usize::from(sigma))
                    .char_profile(0)
                    .uncertain()
                    >= 32
            );
            let s = if rng.chance(0.5) {
                heavy_string(rng, sigma)
            } else {
                random_string(rng, sigma, 0..40, 3)
            };
            assert_identical(&r, &s, usize::from(sigma), rng);
        });
    }
}
