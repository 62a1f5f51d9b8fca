//! Property tests: the indexed join equals the brute-force oracle join on
//! random collections, for every pipeline variant. Each runs over a
//! seeded corpus (a failure names its seed).

use std::ops::Range;

use usj_core::{
    oracle_self_join, IndexedCollection, JoinConfig, JoinResult, Pipeline, ProbeVerifier,
    SimilarityJoin, VerifierKind,
};
use usj_model::rng::{check_seeds, random_position, random_string, Rng};
use usj_model::{Position, UncertainString};
use usj_verify::exact_similarity_prob;

const CASES: u64 = 48;

/// A 3-symbol string of length 3..9 with up to two alternatives per
/// position.
fn string(rng: &mut Rng) -> UncertainString {
    random_string(rng, 3, 3..9, 2)
}

fn collection(rng: &mut Rng, n: Range<usize>) -> Vec<UncertainString> {
    (0..rng.range(n)).map(|_| string(rng)).collect()
}

/// τ in 0.05..0.80, nudged off the exact-probability grid.
fn random_tau(rng: &mut Rng) -> f64 {
    rng.range(5..80) as f64 / 100.0 + 1e-4
}

fn pair_ids(result: &JoinResult) -> Vec<(u32, u32)> {
    result.pairs.iter().map(|p| (p.left, p.right)).collect()
}

fn oracle_ids(strings: &[UncertainString], k: usize, tau: f64) -> Vec<(u32, u32)> {
    oracle_self_join(strings, k, tau)
        .iter()
        .map(|p| (p.left, p.right))
        .collect()
}

/// The full driver, in exact mode, equals the oracle join — for every
/// pipeline, q, and selection policy combination tested.
#[test]
fn join_equals_oracle() {
    check_seeds(CASES, |rng| {
        let strings = collection(rng, 2..9);
        let k = rng.range(1..3);
        let tau = random_tau(rng);
        let q = rng.range(2..4);
        let expected = oracle_ids(&strings, k, tau);
        for pipeline in Pipeline::all() {
            let config = JoinConfig::new(k, tau)
                .with_q(q)
                .with_pipeline(pipeline)
                .with_early_stop(false);
            let result = SimilarityJoin::new(config, 3).self_join(&strings);
            assert_eq!(
                pair_ids(&result),
                expected,
                "pipeline {pipeline:?} q={q} k={k} tau={tau}"
            );
        }
    });
}

/// Early-stop mode reports exactly the same pair set (probabilities
/// may be lower bounds).
#[test]
fn early_stop_same_pairs() {
    check_seeds(CASES, |rng| {
        let strings = collection(rng, 2..8);
        let k = rng.range(1..3);
        let tau = random_tau(rng);
        let exact = SimilarityJoin::new(JoinConfig::new(k, tau).with_early_stop(false), 3)
            .self_join(&strings);
        let fast = SimilarityJoin::new(JoinConfig::new(k, tau), 3).self_join(&strings);
        assert_eq!(pair_ids(&exact), pair_ids(&fast), "k={k} tau={tau}");
        for p in &fast.pairs {
            assert!(
                p.prob > tau,
                "reported prob {} must exceed tau={tau}",
                p.prob
            );
        }
    });
}

/// `r` with each position redrawn with probability 1/4: a near-copy
/// whose most probable world is often within k of `r`'s.
fn near_copy(rng: &mut Rng, r: &UncertainString) -> UncertainString {
    UncertainString::new(
        r.positions()
            .iter()
            .map(|p| {
                if rng.chance(0.25) {
                    random_position(rng, 3, 2)
                } else {
                    p.clone()
                }
            })
            .collect(),
    )
}

/// Every verifier kind behind `ProbeVerifier`, with its top-world-pair
/// accept and deterministic fast path, against the possible-world
/// oracle. With early stop the decision is exact (τ off ties) and the
/// probability a lower bound; without it the probability is exact.
#[test]
fn probe_verifier_equals_oracle() {
    check_seeds(4 * CASES, |rng| {
        let r = string(rng);
        let s = if rng.chance(0.5) {
            near_copy(rng, &r)
        } else {
            string(rng)
        };
        let k = rng.below(3);
        let tau = random_tau(rng);
        let exact = exact_similarity_prob(&r, &s, k);
        for kind in [
            VerifierKind::LazyTrie,
            VerifierKind::Trie,
            VerifierKind::Naive,
        ] {
            let config = JoinConfig::new(k, tau).with_verifier(kind);
            let (similar, prob) = ProbeVerifier::build(&r, &config).verify(&r, &s, &config);
            if (exact - tau).abs() > 1e-9 {
                assert_eq!(
                    similar,
                    exact > tau,
                    "{kind:?} k={k} tau={tau} exact={exact}"
                );
            }
            assert!(prob <= exact + 1e-12, "{kind:?}: prob={prob} exact={exact}");

            let config = config.with_early_stop(false);
            let (_, prob) = ProbeVerifier::build(&r, &config).verify(&r, &s, &config);
            assert!(
                (prob - exact).abs() < 1e-9,
                "{kind:?} exact mode: prob={prob} exact={exact}"
            );
        }
    });
}

/// Search over an indexed collection agrees with per-string oracle
/// probabilities.
fn assert_search_equals_oracle(
    strings: &[UncertainString],
    probe: &UncertainString,
    k: usize,
    tau: f64,
) {
    let coll = IndexedCollection::build(
        JoinConfig::new(k, tau).with_early_stop(false),
        3,
        strings.to_vec(),
    );
    let got: Vec<u32> = coll.search(probe).iter().map(|h| h.id).collect();
    let expected: Vec<u32> = strings
        .iter()
        .enumerate()
        .filter(|(_, s)| exact_similarity_prob(probe, s, k) > tau)
        .map(|(i, _)| i as u32)
        .collect();
    assert_eq!(got, expected, "k={k} tau={tau}");
}

#[test]
fn search_equals_oracle() {
    check_seeds(CASES, |rng| {
        let strings = collection(rng, 1..8);
        let probe = string(rng);
        let k = rng.range(1..3);
        let tau = random_tau(rng);
        assert_search_equals_oracle(&strings, &probe, k, tau);
    });
}

/// A probe against `AABA` at k = 2, τ = 0.76 (a case the randomised
/// search once shrank to).
#[test]
fn regression_search_probe_against_aaba() {
    let strings = vec![UncertainString::from_symbols(&[0, 0, 1, 0])];
    let probe = UncertainString::new(vec![
        Position::certain(1),
        Position::uncertain(1, vec![(0, 0.047619047619047616), (1, 0.9523809523809523)]).unwrap(),
        Position::uncertain(2, vec![(0, 0.7846153846153846), (1, 0.2153846153846154)]).unwrap(),
    ]);
    assert_search_equals_oracle(&strings, &probe, 2, 0.76 + 1e-4);
}

/// The parallel join emits exactly the sequential join's pairs.
#[test]
fn parallel_equals_sequential() {
    check_seeds(CASES, |rng| {
        let strings = collection(rng, 2..9);
        let k = rng.range(1..3);
        let tau = random_tau(rng);
        let threads = rng.range(1..4);
        let config = JoinConfig::new(k, tau);
        let sequential = SimilarityJoin::new(config.clone(), 3).self_join(&strings);
        let parallel = usj_core::par_self_join(config, 3, &strings, threads);
        assert_eq!(
            pair_ids(&sequential),
            pair_ids(&parallel),
            "threads={threads}"
        );
    });
}

/// A tiny instance cap must not cost correctness (conservative
/// fallbacks engage).
#[test]
fn instance_cap_is_sound() {
    check_seeds(CASES, |rng| {
        let strings = collection(rng, 2..7);
        let k = rng.range(1..3);
        let tau = 0.1001;
        let mut config = JoinConfig::new(k, tau).with_early_stop(false);
        config.max_segment_instances = 2; // absurdly small: forces fallbacks
        let result = SimilarityJoin::new(config, 3).self_join(&strings);
        assert_eq!(pair_ids(&result), oracle_ids(&strings, k, tau), "k={k}");
    });
}
