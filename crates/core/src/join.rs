//! Join results and the classic join entry points: the cross-collection
//! join and the one-thread self-join.

use std::time::Instant;

use crate::collection::IndexedCollection;
use crate::config::JoinConfig;
use crate::parallel::par_self_join;
use crate::stats::JoinStats;
use usj_model::{Prob, UncertainString};
use usj_obs::{Gauge, Recorder};

/// One reported pair: `Pr(ed(strings[left], strings[right]) ≤ k) > τ`.
///
/// In a self-join both fields index the one input slice, and
/// `left < right` always. In a cross join ([`SimilarityJoin::join`])
/// `left` indexes the left input and `right` the right input, so any
/// order, `left == right` included, can occur.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarPair {
    /// Index of the pair's left string (the smaller index in a self-join).
    pub left: u32,
    /// Index of the pair's right string (the larger index in a self-join).
    pub right: u32,
    /// Best known lower bound on the pair's similarity probability; the
    /// exact probability when the configuration disables early
    /// termination ([`JoinConfig::with_early_stop`]`(false)`). Always
    /// `> τ`.
    pub prob: Prob,
}

/// Join output: the similar pairs plus per-phase statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// All similar pairs, sorted by `(left, right)`.
    pub pairs: Vec<SimilarPair>,
    /// Counters and timings.
    pub stats: JoinStats,
}

/// Similarity self-join over a collection of uncertain strings.
///
/// See the crate docs for the algorithm; construction is cheap, all work
/// happens in [`SimilarityJoin::self_join`].
#[derive(Debug, Clone)]
pub struct SimilarityJoin {
    config: JoinConfig,
    sigma: usize,
}

impl SimilarityJoin {
    /// Creates a join runner for an alphabet of `sigma` symbols.
    pub fn new(config: JoinConfig, sigma: usize) -> Self {
        assert!(sigma >= 1, "alphabet must be non-empty");
        SimilarityJoin { config, sigma }
    }

    /// The configuration in use.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// Cross-collection join: all pairs `(i, j)` with
    /// `Pr(ed(left[i], right[j]) ≤ k) > τ`.
    ///
    /// The paper defines the join over `R × S` but evaluates only the
    /// self-join; this is the natural generalisation — the right
    /// collection is indexed once and every left string probes it.
    /// `SimilarPair::left` indexes into `left`, `SimilarPair::right` into
    /// `right`.
    pub fn join(&self, left: &[UncertainString], right: &[UncertainString]) -> JoinResult {
        let total_start = Instant::now();
        let collection = IndexedCollection::build(self.config.clone(), self.sigma, right.to_vec());
        let mut pairs = Vec::new();
        let mut stats = JoinStats::default();
        for (i, probe) in left.iter().enumerate() {
            let (hits, probe_stats) = collection.search_filtered(probe, |_| true);
            pairs.extend(hits.into_iter().map(|hit| SimilarPair {
                left: i as u32,
                right: hit.id,
                prob: hit.prob,
            }));
            stats.absorb(&probe_stats);
        }
        pairs.sort_unstable_by_key(|p| (p.left, p.right));
        stats.output_pairs = pairs.len() as u64;
        stats.gauge(Gauge::IndexBytes, collection.index_bytes() as u64);
        stats.gauge(Gauge::PeakIndexBytes, collection.index_bytes() as u64);
        stats.gauge(Gauge::NumStrings, (left.len() + right.len()) as u64);
        // The summed per-search totals are aggregate work time; the run
        // reports its wall-clock instead.
        stats.timings.total = total_start.elapsed();
        JoinResult { pairs, stats }
    }

    /// Finds all pairs `(i, j)`, `i < j`, with
    /// `Pr(ed(strings[i], strings[j]) ≤ k) > τ`: the self-join driver
    /// ([`crate::parallel::run_self_join`]) on one thread.
    ///
    /// Like [`crate::parallel::par_self_join`], this classic API has no
    /// error channel: it ignores any configured [`JoinConfig::deadline`]
    /// and panics rather than return an incomplete answer.
    pub fn self_join(&self, strings: &[UncertainString]) -> JoinResult {
        par_self_join(self.config.clone(), self.sigma, strings, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pipeline;
    use crate::parallel::{run_self_join, JoinError, RunOptions};
    use usj_model::Alphabet;
    use usj_obs::NoopRecorder;

    fn one_thread() -> RunOptions {
        RunOptions {
            threads: 1,
            ..RunOptions::default()
        }
    }

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn collection() -> Vec<UncertainString> {
        vec![
            dna("ACGTACGT"),
            dna("ACG{(T,0.9),(G,0.1)}ACGT"),
            dna("TTTTTTTT"),
            dna("ACGTACG"),
            dna("{(A,0.6),(C,0.4)}CGTACGT"),
            dna("GGGGGGGG"),
        ]
    }

    fn pair_set(result: &JoinResult) -> Vec<(u32, u32)> {
        result.pairs.iter().map(|p| (p.left, p.right)).collect()
    }

    #[test]
    fn self_join_finds_expected_pairs() {
        let join = SimilarityJoin::new(JoinConfig::new(2, 0.5), 4);
        let result = join.self_join(&collection());
        let pairs = pair_set(&result);
        assert!(pairs.contains(&(0, 1)), "{pairs:?}");
        assert!(pairs.contains(&(0, 3)), "{pairs:?}");
        assert!(pairs.contains(&(0, 4)), "{pairs:?}");
        assert!(!pairs
            .iter()
            .any(|&(a, b)| a == 2 || b == 2 || a == 5 && b == 5));
        // Every pair is ordered and above threshold.
        for p in &result.pairs {
            assert!(p.left < p.right);
            assert!(p.prob > 0.5);
        }
    }

    #[test]
    fn all_pipelines_agree() {
        let strings = collection();
        let mut results = Vec::new();
        for pipeline in Pipeline::all() {
            let config = JoinConfig::new(2, 0.3).with_pipeline(pipeline);
            let result = SimilarityJoin::new(config, 4).self_join(&strings);
            results.push((pipeline, pair_set(&result)));
        }
        for window in results.windows(2) {
            assert_eq!(
                window[0].1, window[1].1,
                "{:?} vs {:?}",
                window[0].0, window[1].0
            );
        }
    }

    #[test]
    fn matches_oracle_exactly() {
        let strings = collection();
        let expected = crate::oracle::oracle_self_join(&strings, 2, 0.3);
        for pipeline in Pipeline::all() {
            let config = JoinConfig::new(2, 0.3)
                .with_pipeline(pipeline)
                .with_early_stop(false);
            let result = SimilarityJoin::new(config, 4).self_join(&strings);
            let got = pair_set(&result);
            let want: Vec<(u32, u32)> = expected.iter().map(|p| (p.left, p.right)).collect();
            assert_eq!(got, want, "{pipeline:?}");
            // Exact-probability mode: probabilities match the oracle.
            for (g, w) in result.pairs.iter().zip(&expected) {
                assert!(
                    (g.prob - w.prob).abs() < 1e-9,
                    "{pipeline:?}: {g:?} vs {w:?}"
                );
            }
        }
    }

    #[test]
    fn all_verifiers_agree() {
        use crate::config::VerifierKind;
        let strings = collection();
        let reference = SimilarityJoin::new(JoinConfig::new(2, 0.3), 4).self_join(&strings);
        for kind in [
            VerifierKind::LazyTrie,
            VerifierKind::Trie,
            VerifierKind::Naive,
        ] {
            let result = SimilarityJoin::new(JoinConfig::new(2, 0.3).with_verifier(kind), 4)
                .self_join(&strings);
            assert_eq!(pair_set(&reference), pair_set(&result), "{kind:?}");
        }
    }

    #[test]
    fn empty_and_tiny_collections() {
        let join = SimilarityJoin::new(JoinConfig::new(1, 0.1), 4);
        assert!(join.self_join(&[]).pairs.is_empty());
        assert!(join.self_join(&[dna("ACGT")]).pairs.is_empty());
        let two = join.self_join(&[dna("ACGT"), dna("ACGT")]);
        assert_eq!(pair_set(&two), vec![(0, 1)]);
    }

    #[test]
    fn stats_are_consistent() {
        let strings = collection();
        let result = SimilarityJoin::new(JoinConfig::new(2, 0.3), 4).self_join(&strings);
        let s = &result.stats;
        assert_eq!(s.num_strings, 6);
        assert_eq!(s.output_pairs, result.pairs.len() as u64);
        assert!(s.qgram_survivors <= s.pairs_in_scope);
        assert!(s.freq_survivors <= s.qgram_survivors);
        assert_eq!(
            s.freq_survivors,
            s.cdf_accepted + s.cdf_rejected + s.cdf_undecided
        );
        assert_eq!(s.verified_pairs(), s.cdf_undecided);
        assert!(s.peak_index_bytes >= s.index_bytes || s.index_bytes == 0);
    }

    /// A recorder must leave the output untouched (NoopRecorder and
    /// CollectingRecorder runs are interchangeable) and the collected
    /// event stream must mirror every `JoinStats` counter exactly —
    /// `JoinStats` is a view over the events, so any divergence here is a
    /// double-count or a dropped event.
    #[test]
    fn recorded_self_join_mirrors_stats() {
        use usj_obs::{CollectingRecorder, Counter, Gauge, Phase};
        let strings = collection();
        // Exact-probability mode so CDF-accepted pairs reach the verifier
        // (guarantees VerifierBuilds fires on this small collection).
        let join = SimilarityJoin::new(JoinConfig::new(2, 0.3).with_early_stop(false), 4);
        let plain = join.self_join(&strings);
        let (recorded, _, sink) = run_self_join(
            join.config().clone(),
            4,
            &strings,
            &one_thread(),
            CollectingRecorder::new,
        )
        .unwrap();
        assert_eq!(pair_set(&plain), pair_set(&recorded));
        let s = &recorded.stats;
        // Every counter JoinStats tracks, the funnel and the four fault
        // counters alike, agrees with the event stream.
        let mut tracked = 0;
        for counter in Counter::ALL {
            if let Some(value) = s.counter_value(counter) {
                assert_eq!(sink.counter_total(counter), value, "{counter:?}");
                tracked += 1;
            }
        }
        assert_eq!(tracked, 17);
        assert_eq!(sink.probes(), strings.len() as u64);
        assert_eq!(sink.gauge_max(Gauge::NumStrings), strings.len() as u64);
        assert_eq!(
            sink.gauge_max(Gauge::PeakIndexBytes),
            s.peak_index_bytes as u64
        );
        // One insertion event per (non-empty) string, every probe sampled
        // a qgram phase, and at least one probe built a verifier.
        assert_eq!(
            sink.counter_total(Counter::IndexInsertions),
            strings.len() as u64
        );
        assert_eq!(
            sink.phase_histogram(Phase::Qgram).count(),
            strings.len() as u64
        );
        assert!(sink.counter_total(Counter::VerifierBuilds) >= 1);
        assert!(sink.counter_total(Counter::IndexPostingsScanned) > 0);
    }

    /// The paper's pruning funnel is monotone: each stage only ever
    /// narrows the candidate pool, and everything the CDF bounds leave
    /// undecided is verified exactly once.
    #[test]
    fn stats_invariants_hold_across_configs() {
        let strings = collection();
        for pipeline in Pipeline::all() {
            for early_stop in [true, false] {
                let config = JoinConfig::new(2, 0.3)
                    .with_pipeline(pipeline)
                    .with_early_stop(early_stop);
                let s = SimilarityJoin::new(config, 4).self_join(&strings).stats;
                assert!(s.pairs_in_scope >= s.qgram_survivors, "{pipeline:?}");
                assert!(s.qgram_survivors >= s.freq_survivors, "{pipeline:?}");
                assert!(
                    s.freq_survivors >= s.cdf_accepted + s.cdf_rejected + s.cdf_undecided,
                    "{pipeline:?}"
                );
                // With early stop, exactly the undecided pairs are
                // verified; exact-probability mode verifies CDF-accepted
                // pairs as well.
                let expect_verified = if early_stop {
                    s.cdf_undecided
                } else {
                    s.cdf_undecided + s.cdf_accepted
                };
                assert_eq!(
                    expect_verified,
                    s.verified_similar + s.verified_dissimilar,
                    "{pipeline:?} early_stop={early_stop}"
                );
                assert_eq!(
                    s.pairs_in_scope,
                    s.qgram_survivors + s.qgram_pruned_count + s.qgram_pruned_bound,
                    "{pipeline:?}"
                );
                assert_eq!(
                    s.qgram_survivors,
                    s.freq_survivors + s.freq_pruned_lower + s.freq_pruned_chebyshev,
                    "{pipeline:?}"
                );
            }
        }
    }

    #[test]
    fn cross_join_matches_oracle() {
        let left = vec![
            dna("ACGTACGT"),
            dna("TTTTTTTT"),
            dna("ACG{(T,0.7),(A,0.3)}ACGT"),
        ];
        let right = collection();
        let join = SimilarityJoin::new(JoinConfig::new(2, 0.3).with_early_stop(false), 4);
        let result = join.join(&left, &right);
        // Oracle: exhaustive pairwise check.
        let mut expected = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                let p = usj_verify::exact_similarity_prob(l, r, 2);
                if p > 0.3 {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        let got: Vec<(u32, u32)> = result.pairs.iter().map(|p| (p.left, p.right)).collect();
        assert_eq!(got, expected);
        // Cross-join pairs are positions, not ordered ids: (l, r) indexes
        // the two inputs independently.
        assert!(result.pairs.iter().any(|p| p.left == 0 && p.right == 0));
        assert_eq!(result.stats.output_pairs, result.pairs.len() as u64);
    }

    #[test]
    fn cross_join_empty_sides() {
        let join = SimilarityJoin::new(JoinConfig::new(1, 0.1), 4);
        assert!(join.join(&[], &collection()).pairs.is_empty());
        assert!(join.join(&collection(), &[]).pairs.is_empty());
    }

    #[test]
    fn duplicate_strings_all_pair_up() {
        let strings = vec![dna("ACGTAC"); 4];
        let result = SimilarityJoin::new(JoinConfig::new(1, 0.5), 4).self_join(&strings);
        // C(4,2) = 6 pairs.
        assert_eq!(result.pairs.len(), 6);
    }

    #[test]
    fn one_thread_run_enforces_deadline() {
        let config = JoinConfig::new(2, 0.3).with_deadline(Some(std::time::Duration::ZERO));
        match run_self_join(config, 4, &collection(), &one_thread(), || NoopRecorder) {
            Err(JoinError::Deadline {
                completed_waves,
                checkpoint,
                ..
            }) => {
                assert_eq!(completed_waves, 0);
                assert!(checkpoint.is_none());
            }
            other => panic!("expected Deadline error, got {other:?}"),
        }
    }

    #[test]
    fn classic_driver_ignores_deadline() {
        // The panicking API has no error channel; a configured deadline
        // must not change its output.
        let config = JoinConfig::new(2, 0.3).with_deadline(Some(std::time::Duration::ZERO));
        let strings = collection();
        let with_deadline = SimilarityJoin::new(config, 4).self_join(&strings);
        let without = SimilarityJoin::new(JoinConfig::new(2, 0.3), 4).self_join(&strings);
        assert_eq!(with_deadline.pairs, without.pairs);
    }
}
