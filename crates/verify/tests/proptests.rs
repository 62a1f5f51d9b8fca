//! Property tests: trie verification is exactly the possible-world
//! oracle. Each runs over a seeded corpus of random strings (a failure
//! names its seed).

use std::ops::Range;

use usj_model::rng::{check_seeds, random_string, Rng};
use usj_model::UncertainString;
use usj_verify::{
    exact_similarity_prob, naive_verify, ActiveSet, AdvanceScratch, InstanceTrie, LazyTrieVerifier,
    ProbeTrie, TrieVerifier,
};

const CASES: u64 = 160;

fn string(rng: &mut Rng, len: Range<usize>) -> UncertainString {
    random_string(rng, 3, len, 2)
}

/// τ in 0.01..0.99, perturbed off exact-probability ties (see DESIGN.md).
fn random_tau(rng: &mut Rng) -> f64 {
    rng.range(1..99) as f64 / 100.0 + 1e-4
}

/// Trie verification without early stop computes the oracle exactly.
#[test]
fn trie_equals_oracle() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng, 0..7), string(rng, 0..7));
        let k = rng.below(3);
        let exact = exact_similarity_prob(&r, &s, k);
        let mut v = TrieVerifier::new(&r, k, 0.5, 1_000_000)
            .unwrap()
            .without_early_stop();
        let out = v.verify(&s);
        assert!(
            (out.prob - exact).abs() < 1e-9,
            "trie={} oracle={exact}",
            out.prob
        );
    });
}

/// Early-stop decisions equal full decisions for any τ.
#[test]
fn early_stop_decision_correct() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng, 1..7), string(rng, 1..7));
        let k = rng.below(3);
        let tau = random_tau(rng);
        let exact = exact_similarity_prob(&r, &s, k);
        if (exact - tau).abs() <= 1e-6 {
            return;
        }
        let out = TrieVerifier::new(&r, k, tau, 1_000_000).unwrap().verify(&s);
        assert_eq!(
            out.similar,
            exact > tau,
            "exact={exact} tau={tau} out={out:?}"
        );
    });
}

/// Naive verification with early stop matches the oracle decision.
#[test]
fn naive_early_stop_correct() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng, 1..7), string(rng, 1..7));
        let k = rng.below(3);
        let tau = random_tau(rng);
        let exact = exact_similarity_prob(&r, &s, k);
        if (exact - tau).abs() <= 1e-6 {
            return;
        }
        let out = naive_verify(&r, &s, k, tau, true);
        assert_eq!(out.similar, exact > tau, "exact={exact} tau={tau}");
    });
}

/// Active sets advanced character-by-character always agree with
/// direct edit distances to every trie prefix.
#[test]
fn active_sets_are_exact() {
    check_seeds(CASES, |rng| {
        let target = string(rng, 1..6);
        let probe: Vec<u8> = (0..rng.below(7)).map(|_| rng.below(3) as u8).collect();
        let k = rng.below(3);
        let mut trie = InstanceTrie::build(&target, 1_000_000).unwrap();
        // Prefix strings per node.
        let mut prefixes: Vec<Vec<u8>> = vec![Vec::new(); trie.num_nodes()];
        let mut stack = vec![InstanceTrie::ROOT];
        while let Some(id) = stack.pop() {
            for child in trie.node(id).children() {
                let mut p = prefixes[id as usize].clone();
                p.push(trie.node(child).symbol);
                prefixes[child as usize] = p;
                stack.push(child);
            }
        }
        let mut scratch = AdvanceScratch::default();
        let mut active = ActiveSet::initial(&mut trie, k);
        let mut next = ActiveSet::default();
        for step in 0..=probe.len() {
            let prefix = &probe[..step];
            for id in 0..trie.num_nodes() as u32 {
                let d = usj_editdist::edit_distance(prefix, &prefixes[id as usize]);
                let want = (d <= k).then_some(d as u8);
                assert_eq!(active.distance_of(id), want, "node {id} prefix {prefix:?}");
            }
            if step < probe.len() {
                scratch.advance(&mut trie, &active, probe[step], k, &mut next);
                std::mem::swap(&mut active, &mut next);
            }
        }
    });
}

/// The lazy trie verifier computes the oracle exactly (no early stop)
/// and agrees with the eager verifier's decisions under early stop.
#[test]
fn lazy_equals_oracle_and_eager() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng, 0..7), string(rng, 0..7));
        let k = rng.below(3);
        let tau = random_tau(rng);
        let exact = exact_similarity_prob(&r, &s, k);
        let mut lazy = LazyTrieVerifier::new(&r, k, 0.5).without_early_stop();
        let out = lazy.verify(&s);
        assert!(
            (out.prob - exact).abs() < 1e-9,
            "lazy={} oracle={exact}",
            out.prob
        );
        if (exact - tau).abs() > 1e-6 {
            let mut lazy = LazyTrieVerifier::new(&r, k, tau);
            assert_eq!(
                lazy.verify(&s).similar,
                exact > tau,
                "exact={exact} tau={tau}"
            );
        }
    });
}

/// With early stop off, both trie verifiers compute the oracle
/// probability for every k in 0..=3, including k above both lengths.
#[test]
fn lazy_and_eager_equal_oracle_up_to_k3() {
    check_seeds(CASES, |rng| {
        let (r, s) = (string(rng, 0..7), string(rng, 0..7));
        for k in 0..=3 {
            let exact = exact_similarity_prob(&r, &s, k);
            let lazy = LazyTrieVerifier::new(&r, k, 0.5)
                .without_early_stop()
                .verify(&s);
            let eager = TrieVerifier::new(&r, k, 0.5, 1_000_000)
                .unwrap()
                .without_early_stop()
                .verify(&s);
            for (name, prob) in [("lazy", lazy.prob), ("eager", eager.prob)] {
                assert!(
                    (prob - exact).abs() < 1e-9,
                    "k={k}: {name}={prob} oracle={exact}"
                );
            }
        }
    });
}

/// Verifying several candidates against one lazy verifier (trie
/// reuse) gives the same answers as fresh verifiers.
#[test]
fn lazy_trie_reuse_is_stateless() {
    check_seeds(CASES, |rng| {
        let r = string(rng, 1..6);
        let candidates: Vec<UncertainString> =
            (0..rng.range(1..4)).map(|_| string(rng, 1..6)).collect();
        let k = rng.below(3);
        let mut shared = LazyTrieVerifier::new(&r, k, 0.3);
        for s in &candidates {
            let shared_out = shared.verify(s);
            let fresh_out = LazyTrieVerifier::new(&r, k, 0.3).verify(s);
            assert_eq!(shared_out.similar, fresh_out.similar);
            assert!((shared_out.prob - fresh_out.prob).abs() < 1e-9);
        }
    });
}

/// The trie verifier's accumulated probability is always a valid
/// probability and the leaf mass of the trie is 1.
#[test]
fn trie_mass_conservation() {
    check_seeds(CASES, |rng| {
        let r = random_string(rng, 4, 0..7, 2);
        let trie = InstanceTrie::build(&r, 1_000_000).unwrap();
        let leaf_mass: f64 = (0..trie.num_nodes() as u32)
            .filter(|&id| trie.is_leaf(id))
            .map(|id| trie.node(id).prob)
            .sum();
        assert!((leaf_mass - 1.0).abs() < 1e-9, "leaf mass {leaf_mass}");
        assert_eq!(trie.num_leaves() as f64, r.num_worlds());
    });
}
