//! The workspace's one seeded pseudo-random generator, plus the random
//! uncertain strings the property suites and generators draw from it.
//!
//! Everything randomised in the workspace — the synthetic datasets,
//! client retry jitter and every property test — runs on [`Rng`], so a
//! run is reproducible from its seed alone and the build needs no
//! registry crate.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::{Position, Symbol, UncertainString};

/// xorshift64 (Marsaglia's 13/7/17 triple): small, fast and identical on
/// every platform. Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`. The seed passes
    /// through splitmix64 first, so nearby seeds (0, 1, 2, …) give
    /// unrelated streams.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng::from_state(z ^ (z >> 31))
    }

    /// A generator starting from the raw xorshift `state` (low bit forced:
    /// zero is a fixed point). Streams pinned by tests or by committed
    /// baselines start here, so they stay what they were.
    pub fn from_state(state: u64) -> Rng {
        Rng(state | 1)
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, n)` by reduction modulo `n` (the bias is below
    /// `n / 2^64`); `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the half-open `range`, which must be non-empty.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        range.start + self.below(range.len())
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An index into `weights`, drawn with probability proportional to
    /// its weight; the weights must not all be zero.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        let mut pick = self.below(total as usize) as u64;
        for (i, &w) in weights.iter().enumerate() {
            if pick < u64::from(w) {
                return i;
            }
            pick -= u64::from(w);
        }
        unreachable!("pick is below the weight total")
    }
}

/// A random position over symbols `0..sigma`: up to `max_alts` draws, each
/// a symbol with a weight in `1..=100`. Repeated symbols merge and the
/// weights normalise into probabilities, so one distinct symbol gives a
/// certain position.
pub fn random_position(rng: &mut Rng, sigma: u8, max_alts: usize) -> Position {
    let mut alts: Vec<(Symbol, u32)> = Vec::new();
    for _ in 0..rng.range(1..max_alts + 1) {
        let symbol = rng.below(usize::from(sigma)) as Symbol;
        let weight = rng.range(1..101) as u32;
        match alts.iter_mut().find(|(s, _)| *s == symbol) {
            Some((_, w)) => *w += weight,
            None => alts.push((symbol, weight)),
        }
    }
    let total: u32 = alts.iter().map(|&(_, w)| w).sum();
    let probs = alts
        .into_iter()
        .map(|(s, w)| (s, f64::from(w) / f64::from(total)))
        .collect();
    Position::uncertain(0, probs).expect("normalised weights form a distribution")
}

/// A random uncertain string with a length drawn from `len` and positions
/// from [`random_position`].
pub fn random_string(
    rng: &mut Rng,
    sigma: u8,
    len: Range<usize>,
    max_alts: usize,
) -> UncertainString {
    let n = rng.range(len);
    UncertainString::new(
        (0..n)
            .map(|_| random_position(rng, sigma, max_alts))
            .collect(),
    )
}

/// Runs `property` once for each seed in `0..cases`, on a fresh
/// [`Rng::new`]`(seed)`. A failing case panics again with its seed in
/// the message, so it can be replayed on its own.
pub fn check_seeds(cases: u64, mut property: impl FnMut(&mut Rng)) {
    for seed in 0..cases {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("property failed for seed {seed}: {message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_state_stream_is_plain_xorshift64() {
        // Pinned: the stream that client jitter, the partition test and
        // the other from_state users were built on.
        let mut rng = Rng::from_state(1);
        assert_eq!(rng.next_u64(), 0x4082_2041);
        assert_eq!(Rng::from_state(0), Rng::from_state(1));
    }

    #[test]
    fn seeds_give_distinct_reproducible_streams() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::new(3);
        for n in [1, 2, 7, 1000] {
            assert!((0..500).all(|_| rng.below(n) < n));
        }
        assert!((0..500).all(|_| (5..9).contains(&rng.range(5..9))));
        assert!((0..500).all(|_| (0.0..1.0).contains(&rng.unit())));
        assert!((0..500).all(|_| rng.weighted(&[0, 3, 0, 1]) % 2 == 1));
    }

    #[test]
    fn shuffle_permutes() {
        let mut items: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut items);
        assert_ne!(items, (0..50).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn random_strings_are_valid_and_bounded() {
        check_seeds(64, |rng| {
            let s = random_string(rng, 3, 2..6, 3);
            assert!((2..6).contains(&s.len()));
            assert!(s.validate().is_ok());
            assert!(s.positions().iter().all(|p| p.num_alternatives() <= 3));
        });
    }

    #[test]
    #[should_panic(expected = "property failed for seed 0: boom")]
    fn failing_property_names_its_seed() {
        check_seeds(3, |_| panic!("boom"));
    }
}
