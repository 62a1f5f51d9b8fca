//! The self-join driver (paper §4's query algorithm).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::config::JoinConfig;
use crate::index::{EquivCache, SegmentIndex};
use crate::parallel::JoinError;
use crate::record::Recording;
use crate::stats::JoinStats;
use crate::verifier::{decide_candidate, ProbeVerifier};
use usj_cdf::CdfFilter;
use usj_freq::{FreqFilter, FreqProfile};
use usj_model::{Prob, UncertainString};
use usj_obs::{Counter, Gauge, NoopRecorder, Phase, Recorder};

/// One reported pair: `Pr(ed(strings[left], strings[right]) ≤ k) > τ`.
///
/// `left < right` always (indices into the input slice).
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarPair {
    /// Smaller index of the pair.
    pub left: u32,
    /// Larger index of the pair.
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
        self.join_recorded(left, right, &mut NoopRecorder)
    }

    /// [`SimilarityJoin::join`] with every pipeline event forwarded to
    /// `recorder` (probe boundaries per left string, phase spans,
    /// counters, gauges).
    pub fn join_recorded<R: Recorder>(
        &self,
        left: &[UncertainString],
        right: &[UncertainString],
        recorder: &mut R,
    ) -> JoinResult {
        let total_start = Instant::now();
        let collection = crate::collection::IndexedCollection::build_recorded(
            self.config.clone(),
            self.sigma,
            right.to_vec(),
            &mut *recorder,
        );
        let mut pairs = Vec::new();
        let mut stats = JoinStats {
            num_strings: left.len() + right.len(),
            ..Default::default()
        };
        for (i, probe) in left.iter().enumerate() {
            let (hits, probe_stats) =
                collection.search_filtered_recorded(i as u32, probe, |_| true, &mut *recorder);
            for hit in hits {
                pairs.push(SimilarPair {
                    left: i as u32,
                    right: hit.id,
                    prob: hit.prob,
                });
            }
            stats.absorb(&probe_stats);
        }
        pairs.sort_unstable_by_key(|p| (p.left, p.right));
        // The recorder already saw one OutputPairs event per probe (their
        // sum is exactly this count); only the stats view needs the
        // authoritative value.
        stats.output_pairs = pairs.len() as u64;
        let mut rec = Recording::new(&mut stats, recorder);
        rec.gauge(Gauge::IndexBytes, collection.index_bytes() as u64);
        rec.gauge(Gauge::PeakIndexBytes, collection.index_bytes() as u64);
        rec.gauge(Gauge::NumStrings, (left.len() + right.len()) as u64);
        rec.set_total(total_start.elapsed());
        JoinResult { pairs, stats }
    }

    /// Finds all pairs `(i, j)`, `i < j`, with
    /// `Pr(ed(strings[i], strings[j]) ≤ k) > τ`.
    pub fn self_join(&self, strings: &[UncertainString]) -> JoinResult {
        self.self_join_recorded(strings, &mut NoopRecorder)
    }

    /// [`SimilarityJoin::self_join`] with every pipeline event forwarded
    /// to `recorder`: one probe bracket per string (in visit order), phase
    /// spans for q-gram/frequency/CDF/verify/index work, prune-attribution
    /// counters, and index-memory gauges. The returned
    /// [`JoinResult::stats`] is a view over the same event stream.
    ///
    /// This classic API has no error channel, so it ignores any
    /// configured [`JoinConfig::deadline`] (mirroring
    /// [`crate::parallel::par_self_join`]); use
    /// [`SimilarityJoin::try_self_join_recorded`] to have the deadline
    /// enforced.
    pub fn self_join_recorded<R: Recorder>(
        &self,
        strings: &[UncertainString],
        recorder: &mut R,
    ) -> JoinResult {
        match self.self_join_impl(strings, recorder, false) {
            Ok(result) => result,
            // With deadline enforcement off the impl cannot fail.
            Err(e) => unreachable!("undeadlined sequential join failed: {e}"),
        }
    }

    /// [`SimilarityJoin::self_join`] with [`JoinConfig::deadline`]
    /// enforced: the wall clock is checked between probes and the run
    /// aborts with [`JoinError::Deadline`] once it expires. The
    /// sequential driver has no waves or checkpoints, so the error
    /// reports `completed_waves: 0` and no checkpoint path — the same
    /// shape [`crate::parallel::par_self_join_ft`] produces when the
    /// deadline hits before any wave commits.
    pub fn try_self_join(&self, strings: &[UncertainString]) -> Result<JoinResult, JoinError> {
        self.try_self_join_recorded(strings, &mut NoopRecorder)
    }

    /// [`SimilarityJoin::try_self_join`] with recorded events, combining
    /// deadline enforcement with the instrumentation of
    /// [`SimilarityJoin::self_join_recorded`].
    pub fn try_self_join_recorded<R: Recorder>(
        &self,
        strings: &[UncertainString],
        recorder: &mut R,
    ) -> Result<JoinResult, JoinError> {
        self.self_join_impl(strings, recorder, true)
    }

    fn self_join_impl<R: Recorder>(
        &self,
        strings: &[UncertainString],
        recorder: &mut R,
        enforce_deadline: bool,
    ) -> Result<JoinResult, JoinError> {
        let config = &self.config;
        let total_start = Instant::now();
        let mut stats = JoinStats {
            num_strings: strings.len(),
            ..Default::default()
        };
        let mut rec = Recording::new(&mut stats, recorder);

        // Visit order: ascending length, ties by id — guarantees that all
        // visited strings are no longer than the probe and that posting
        // ids ascend.
        let mut order: Vec<u32> = (0..strings.len() as u32).collect();
        order.sort_by_key(|&i| (strings[i as usize].len(), i));

        let freq_filter = FreqFilter::new(config.k, config.tau, self.sigma);
        let cdf_filter = CdfFilter::new(config.k, config.tau);

        let mut index = SegmentIndex::new();
        // Visited ids grouped by length (candidate pool for FCT and the
        // scope counter).
        let mut visited: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        // Frequency profiles, computed once per string at insert time.
        let mut profiles: Vec<Option<FreqProfile>> = vec![None; strings.len()];

        let mut pairs: Vec<SimilarPair> = Vec::new();
        // Equivalent-set cache, cleared per probe: lengths with shared
        // (window, segment length) combinations reuse `q(r, x)`, and the
        // α rows are reused across probes.
        let mut cache = EquivCache::new();
        let deadline = if enforce_deadline {
            config.deadline
        } else {
            None
        };

        for &probe_id in &order {
            // Cooperative deadline: checked between probes, so one probe
            // is the abort granularity (as one batch is for the
            // fault-tolerant parallel driver). No partial result leaks:
            // the whole join errors out.
            if let Some(limit) = deadline {
                let elapsed = total_start.elapsed();
                if elapsed >= limit {
                    return Err(JoinError::Deadline {
                        elapsed,
                        completed_waves: 0,
                        checkpoint: None,
                    });
                }
            }
            let probe = &strings[probe_id as usize];
            let min_len = probe.len().saturating_sub(config.k);
            rec.probe_start(probe_id);

            // Expire index state for lengths the scan has moved past.
            if config.pipeline.uses_qgram() {
                index.evict_below(min_len);
            }
            while let Some((&len, _)) = visited.first_key_value() {
                if len < min_len {
                    visited.pop_first();
                } else {
                    break;
                }
            }

            // ---- Candidate generation -------------------------------
            let qgram_span = rec.begin(Phase::Qgram);
            let mut candidates: Vec<u32> = Vec::new();
            let mut scope = 0u64;
            if config.pipeline.uses_qgram() {
                cache.clear();
                for len in min_len..=probe.len() {
                    scope += index.collect_candidates_recorded(
                        probe,
                        len,
                        config,
                        None,
                        &mut cache,
                        &mut candidates,
                        &mut rec,
                    );
                }
            } else {
                for (_, ids) in visited.range(min_len..=probe.len()) {
                    scope += ids.len() as u64;
                    candidates.extend(ids.iter().copied());
                }
            }
            rec.count(Counter::PairsInScope, scope);
            rec.count(Counter::QgramSurvivors, candidates.len() as u64);
            rec.end(qgram_span);
            // Deterministic candidate order keeps runs reproducible.
            candidates.sort_unstable();

            // ---- Frequency-distance filtering -----------------------
            let mut probe_profile: Option<FreqProfile> = None;
            if config.pipeline.uses_freq() && !candidates.is_empty() {
                let freq_span = rec.begin(Phase::Freq);
                let rp = probe_profile.get_or_insert_with(|| freq_filter.profile(probe));
                candidates.retain(|&id| {
                    let sp = profiles[id as usize]
                        .as_ref()
                        .expect("visited strings have profiles");
                    let out = freq_filter.evaluate(rp, sp);
                    if !out.candidate {
                        if out.fd_lower as usize > config.k {
                            rec.count(Counter::FreqPrunedLower, 1);
                        } else {
                            rec.count(Counter::FreqPrunedChebyshev, 1);
                        }
                    }
                    out.candidate
                });
                rec.end(freq_span);
            }
            rec.count(Counter::FreqSurvivors, candidates.len() as u64);

            // ---- CDF bounds + verification --------------------------
            let mut verifier: Option<ProbeVerifier> = None; // lazily built
            for id in candidates {
                let other = &strings[id as usize];
                let Some((similar, prob)) =
                    decide_candidate(probe, other, &cdf_filter, &mut verifier, config, &mut rec)
                else {
                    continue;
                };
                if similar {
                    pairs.push(SimilarPair {
                        left: probe_id.min(id),
                        right: probe_id.max(id),
                        prob,
                    });
                }
            }

            // ---- Insert the probe for later probes ------------------
            let index_span = rec.begin(Phase::Index);
            if config.pipeline.uses_qgram() {
                index.insert_recorded(probe_id, probe, config, rec.recorder());
            }
            if config.pipeline.uses_freq() {
                profiles[probe_id as usize] =
                    Some(probe_profile.unwrap_or_else(|| freq_filter.profile(probe)));
            }
            visited.entry(probe.len()).or_default().push(probe_id);
            rec.end(index_span);
            rec.probe_end(probe_id);
        }

        pairs.sort_unstable_by_key(|p| (p.left, p.right));
        rec.count(Counter::OutputPairs, pairs.len() as u64);
        rec.gauge(Gauge::IndexBytes, index.estimated_bytes() as u64);
        rec.gauge(Gauge::PeakIndexBytes, index.peak_bytes() as u64);
        rec.gauge(Gauge::NumStrings, strings.len() as u64);
        rec.set_total(total_start.elapsed());
        Ok(JoinResult { pairs, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pipeline;
    use usj_model::Alphabet;

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

    /// The recorded driver must leave the output untouched (NoopRecorder
    /// and CollectingRecorder runs are interchangeable) and the collected
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
        let mut sink = CollectingRecorder::new();
        let recorded = join.self_join_recorded(&strings, &mut sink);
        assert_eq!(pair_set(&plain), pair_set(&recorded));
        let s = &recorded.stats;
        for (counter, field) in [
            (Counter::PairsInScope, s.pairs_in_scope),
            (Counter::QgramSurvivors, s.qgram_survivors),
            (Counter::QgramPrunedCount, s.qgram_pruned_count),
            (Counter::QgramPrunedBound, s.qgram_pruned_bound),
            (Counter::FreqSurvivors, s.freq_survivors),
            (Counter::FreqPrunedLower, s.freq_pruned_lower),
            (Counter::FreqPrunedChebyshev, s.freq_pruned_chebyshev),
            (Counter::CdfAccepted, s.cdf_accepted),
            (Counter::CdfRejected, s.cdf_rejected),
            (Counter::CdfUndecided, s.cdf_undecided),
            (Counter::VerifiedSimilar, s.verified_similar),
            (Counter::VerifiedDissimilar, s.verified_dissimilar),
            (Counter::OutputPairs, s.output_pairs),
        ] {
            assert_eq!(sink.counter_total(counter), field, "{counter:?}");
        }
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
    fn try_self_join_enforces_deadline_between_probes() {
        let config = JoinConfig::new(2, 0.3).with_deadline(Some(std::time::Duration::ZERO));
        let join = SimilarityJoin::new(config, 4);
        match join.try_self_join(&collection()) {
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
    fn try_self_join_without_deadline_matches_classic_driver() {
        let strings = collection();
        let join = SimilarityJoin::new(JoinConfig::new(2, 0.3), 4);
        let classic = join.self_join(&strings);
        let tried = join
            .try_self_join(&strings)
            .expect("no deadline configured");
        assert_eq!(classic.pairs, tried.pairs);
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
