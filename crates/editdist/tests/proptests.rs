//! Property tests for the deterministic edit-distance substrate, each run
//! over a seeded corpus of random strings (a failure names its seed).

use usj_editdist::{
    edit_distance, edit_distance_bounded, frequency_distance, myers_distance, within_k,
    within_k_auto,
};
use usj_model::rng::{check_seeds, Rng};

const CASES: u64 = 256;

/// A string over `0..sigma` with a length drawn from `0..=max_len`.
fn random_str(rng: &mut Rng, sigma: usize, max_len: usize) -> Vec<u8> {
    (0..rng.below(max_len + 1))
        .map(|_| rng.below(sigma) as u8)
        .collect()
}

#[test]
fn metric_properties() {
    check_seeds(CASES, |rng| {
        let (a, b, c) = (
            random_str(rng, 4, 12),
            random_str(rng, 4, 12),
            random_str(rng, 4, 12),
        );
        let ab = edit_distance(&a, &b);
        assert_eq!(ab, edit_distance(&b, &a), "symmetry");
        assert_eq!(edit_distance(&a, &a), 0, "identity");
        let ac = edit_distance(&a, &c);
        let cb = edit_distance(&c, &b);
        assert!(ab <= ac + cb, "triangle inequality violated");
    });
}

#[test]
fn length_difference_lower_bound() {
    check_seeds(CASES, |rng| {
        let (a, b) = (random_str(rng, 4, 12), random_str(rng, 4, 12));
        assert!(edit_distance(&a, &b) >= a.len().abs_diff(b.len()));
        assert!(edit_distance(&a, &b) <= a.len().max(b.len()));
    });
}

#[test]
fn bounded_agrees_with_full() {
    check_seeds(CASES, |rng| {
        let (a, b) = (random_str(rng, 4, 12), random_str(rng, 4, 12));
        let k = rng.below(8);
        let d = edit_distance(&a, &b);
        assert_eq!(edit_distance_bounded(&a, &b, k), (d <= k).then_some(d));
        assert_eq!(within_k(&a, &b, k), d <= k);
    });
}

#[test]
fn myers_equals_dp() {
    check_seeds(CASES, |rng| {
        let (a, b) = (random_str(rng, 5, 149), random_str(rng, 5, 149));
        assert_eq!(myers_distance(&a, &b), edit_distance(&a, &b));
    });
}

#[test]
fn within_k_auto_equals_dp() {
    check_seeds(CASES, |rng| {
        let (a, b) = (random_str(rng, 4, 20), random_str(rng, 4, 20));
        let k = rng.below(12);
        assert_eq!(within_k_auto(&a, &b, k), edit_distance(&a, &b) <= k);
    });
}

#[test]
fn frequency_distance_lower_bounds() {
    check_seeds(CASES, |rng| {
        let (a, b) = (random_str(rng, 4, 12), random_str(rng, 4, 12));
        let fd = frequency_distance(&a, &b, 4) as usize;
        assert!(fd <= edit_distance(&a, &b));
    });
}

#[test]
fn single_substitution_distance_one() {
    check_seeds(CASES, |rng| {
        let a = random_str(rng, 4, 10);
        let (idx, sym) = (rng.below(10), rng.below(4) as u8);
        if idx < a.len() && a[idx] != sym {
            let mut b = a.clone();
            b[idx] = sym;
            assert_eq!(edit_distance(&a, &b), 1);
        }
    });
}

#[test]
fn single_deletion_distance_one() {
    check_seeds(CASES, |rng| {
        let a = random_str(rng, 4, 10);
        let idx = rng.below(10);
        if idx < a.len() {
            let mut b = a.clone();
            b.remove(idx);
            assert_eq!(edit_distance(&a, &b), 1);
        }
    });
}
