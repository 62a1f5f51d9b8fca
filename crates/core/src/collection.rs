//! Similarity *search*: one probe against a pre-indexed collection.
//!
//! The paper frames the join as repeated search over the visited prefix of
//! the collection; [`IndexedCollection`] exposes the same machinery for
//! standing collections — build once, probe many times. Unlike the join
//! driver, a search probe may be shorter *or* longer than indexed strings,
//! so all lengths in `[|R|−k, |R|+k]` are queried.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::config::JoinConfig;
use crate::index::{EquivCache, SegmentIndex};
use crate::stats::JoinStats;
use crate::verifier::{decide_candidate, ProbeVerifier};
use usj_cdf::CdfFilter;
use usj_freq::{FreqFilter, FreqProfile};
use usj_model::{Prob, UncertainString};
use usj_obs::{Counter, NoopRecorder, Phase, PhaseGuard, Recorder};

thread_local! {
    /// The window table and α rows of this thread's searches.
    static PROBE_CACHE: Cell<EquivCache> = Cell::new(EquivCache::new());
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index of the matching collection string.
    pub id: u32,
    /// Best known lower bound on `Pr(ed ≤ k)` (exact when early stop is
    /// disabled); always `> τ`.
    pub prob: Prob,
}

/// Why a budgeted search was abandoned before producing a result.
///
/// Partial results are refused on principle: a probe that runs out of
/// budget mid-funnel returns this error and *no* hits, because a
/// truncated hit list is indistinguishable from a complete one to the
/// caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchAbort {
    /// The wall-clock deadline expired mid-probe.
    Deadline {
        /// Time spent on the probe before it was abandoned.
        elapsed: Duration,
    },
    /// The cooperative cancel flag was raised by another thread.
    Cancelled,
}

impl std::fmt::Display for SearchAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchAbort::Deadline { elapsed } => {
                write!(f, "probe deadline exceeded after {elapsed:.2?}")
            }
            SearchAbort::Cancelled => write!(f, "probe cancelled"),
        }
    }
}

impl std::error::Error for SearchAbort {}

/// Cooperative execution budget for one probe: an optional absolute
/// wall-clock deadline plus an optional cancel flag another thread may
/// raise. The default budget is unlimited, under which a budgeted
/// search can never abort.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeBudget<'a> {
    /// Absolute instant after which the probe must abort.
    pub deadline: Option<Instant>,
    /// Flag another thread raises to abandon the probe early.
    pub cancel: Option<&'a AtomicBool>,
}

impl<'a> ProbeBudget<'a> {
    /// Returns the abort reason if the budget is exhausted.
    fn check(&self, started: Instant) -> Result<(), SearchAbort> {
        if let Some(cancel) = self.cancel {
            // ordering: Relaxed — the cancel flag is advisory; the only
            // requirement is eventual visibility, not ordering against
            // any other memory operation.
            if cancel.load(Ordering::Relaxed) {
                return Err(SearchAbort::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SearchAbort::Deadline {
                    elapsed: started.elapsed(),
                });
            }
        }
        Ok(())
    }
}

/// A collection indexed for repeated similarity searches.
#[derive(Debug, Clone)]
pub struct IndexedCollection {
    config: JoinConfig,
    sigma: usize,
    strings: Vec<UncertainString>,
    index: SegmentIndex,
    profiles: Vec<FreqProfile>,
}

impl IndexedCollection {
    /// Indexes `strings` (segment inverted indices + frequency profiles).
    pub fn build(config: JoinConfig, sigma: usize, strings: Vec<UncertainString>) -> Self {
        let index = SegmentIndex::build((0u32..).zip(&strings), &config);
        IndexedCollection::from_index(config, sigma, strings, index)
    }

    /// Assembles a collection around an index just built or restored from
    /// a snapshot (`crate::snapshot`). Frequency profiles are
    /// deterministic, so they are computed here instead of being
    /// persisted. Each costs two heap buffers: a 12-byte slot per alphabet
    /// symbol, plus 8 bytes for each of `2u + 3` values per symbol with
    /// `u > 0` uncertain occurrences (about 1.1 KB per string on
    /// dblp-like data at σ = 27, θ = 0.2).
    pub(crate) fn from_index(
        config: JoinConfig,
        sigma: usize,
        strings: Vec<UncertainString>,
        index: SegmentIndex,
    ) -> Self {
        assert!(sigma >= 1, "alphabet must be non-empty");
        let freq = FreqFilter::new(config.k, config.tau, sigma);
        let profiles = strings.iter().map(|s| freq.profile(s)).collect();
        IndexedCollection {
            config,
            sigma,
            strings,
            index,
            profiles,
        }
    }

    /// The segment index (snapshot writer / digest plumbing).
    pub(crate) fn index(&self) -> &SegmentIndex {
        &self.index
    }

    /// Alphabet size the collection was indexed with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of indexed strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when no strings are indexed.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The indexed strings.
    pub fn strings(&self) -> &[UncertainString] {
        &self.strings
    }

    /// Estimated index footprint in bytes.
    pub fn index_bytes(&self) -> usize {
        self.index.estimated_bytes()
    }

    /// The configuration the collection was indexed with.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// Finds all indexed strings `S` with `Pr(ed(probe, S) ≤ k) > τ`.
    pub fn search(&self, probe: &UncertainString) -> Vec<SearchHit> {
        self.search_filtered(probe, |_| true).0
    }

    /// Runs only the filtering stages (q-gram index + frequency
    /// distance), returning the surviving candidate ids sorted ascending.
    /// The server's degraded mode answers with these candidates when it
    /// cannot afford verification.
    pub fn filter_candidates(&self, probe: &UncertainString) -> Vec<u32> {
        self.candidate_stage(probe, &mut NoopRecorder)
    }

    /// Shared candidate-generation stage: q-gram index lookups, Lemma 5
    /// count condition, sound Theorem 2 bound, frequency filtering. Events
    /// go to `rec`, the search's `(stats, recorder)` pair.
    fn candidate_stage<R: Recorder>(&self, probe: &UncertainString, rec: &mut R) -> Vec<u32> {
        let config = &self.config;
        let freq_filter = FreqFilter::new(config.k, config.tau, self.sigma);
        let min_len = probe.len().saturating_sub(config.k);
        let max_len = probe.len() + config.k;

        let mut qgram_span = PhaseGuard::enter(&mut *rec, Phase::Qgram);
        let mut candidates: Vec<u32> = Vec::new();
        if config.pipeline.uses_qgram() {
            // One window table per probe, shared across lengths. The
            // thread's cache is taken for the search and put back after
            // it, so a warm one serves the next search without growing
            // its buffers again, and a search that panics drops it.
            let mut cache = PROBE_CACHE.take();
            cache.clear();
            let mut scope = 0u64;
            for len in min_len..=max_len {
                scope += self.index.collect_candidates_recorded(
                    probe,
                    len,
                    config,
                    None,
                    &mut cache,
                    &mut candidates,
                    qgram_span.rec(),
                );
            }
            PROBE_CACHE.set(cache);
            qgram_span.rec().counter(Counter::PairsInScope, scope);
        } else {
            let mut scope = 0u64;
            for (id, s) in self.strings.iter().enumerate() {
                if s.len() >= min_len && s.len() <= max_len {
                    scope += 1;
                    candidates.push(id as u32);
                }
            }
            qgram_span.rec().counter(Counter::PairsInScope, scope);
        }
        qgram_span
            .rec()
            .counter(Counter::QgramSurvivors, candidates.len() as u64);
        drop(qgram_span);
        candidates.sort_unstable();

        if config.pipeline.uses_freq() && !candidates.is_empty() {
            let mut freq_span = PhaseGuard::enter(&mut *rec, Phase::Freq);
            let rec = freq_span.rec();
            let rp = freq_filter.profile(probe);
            candidates.retain(|&id| {
                let out = freq_filter.evaluate(&rp, &self.profiles[id as usize]);
                if !out.candidate {
                    if out.fd_lower as usize > config.k {
                        rec.counter(Counter::FreqPrunedLower, 1);
                    } else {
                        rec.counter(Counter::FreqPrunedChebyshev, 1);
                    }
                }
                out.candidate
            });
        }
        rec.counter(Counter::FreqSurvivors, candidates.len() as u64);
        candidates
    }

    /// [`IndexedCollection::search`] restricted to candidate ids accepted
    /// by `admit`, applied *before* the expensive CDF/verification stages,
    /// plus the per-phase statistics. Probing a collection with its own
    /// strings, `id < probe_id` verifies each unordered pair exactly once
    /// (and a probe never against itself).
    pub fn search_filtered(
        &self,
        probe: &UncertainString,
        admit: impl Fn(u32) -> bool,
    ) -> (Vec<SearchHit>, JoinStats) {
        match self.search_budgeted_recorded(
            0,
            probe,
            admit,
            ProbeBudget::default(),
            &mut NoopRecorder,
        ) {
            Ok(out) => out,
            // An unlimited budget has nothing to exhaust.
            Err(abort) => unreachable!("unlimited budget aborted: {abort}"),
        }
    }

    /// [`IndexedCollection::search_filtered`] with the whole search
    /// bracketed as probe `probe_id` on `recorder` (phase spans, prune
    /// counters, and a per-probe [`Phase::Total`] sample), under a
    /// cooperative [`ProbeBudget`]. `probe_id` is only a label for the
    /// event stream; it does not affect the search.
    ///
    /// The deadline / cancel flag is checked before candidate generation,
    /// after the filter stages, and between candidate verifications (the
    /// expensive CDF + DP loop). On abort the partial hit list is
    /// *discarded* — the caller gets `Err`, never a silently truncated
    /// answer — but the probe's recorded events up to that point,
    /// including the [`Phase::Total`] sample, are kept so latency
    /// histograms still see abandoned probes.
    pub fn search_budgeted_recorded<R: Recorder>(
        &self,
        probe_id: u32,
        probe: &UncertainString,
        admit: impl Fn(u32) -> bool,
        budget: ProbeBudget<'_>,
        recorder: &mut R,
    ) -> Result<(Vec<SearchHit>, JoinStats), SearchAbort> {
        let config = &self.config;
        let total_start = Instant::now();
        let mut stats = JoinStats {
            num_strings: self.strings.len(),
            ..Default::default()
        };
        let mut hits = Vec::new();
        let mut abort;
        {
            let mut rec = (&mut stats, &mut *recorder);
            rec.probe_start(probe_id);
            abort = budget.check(total_start).err();

            // ---- Candidate generation + frequency filtering ----------
            if abort.is_none() {
                let cdf_filter = CdfFilter::new(config.k, config.tau);
                let mut candidates = self.candidate_stage(probe, &mut rec);
                candidates.retain(|&id| admit(id));
                abort = budget.check(total_start).err();

                // ---- CDF + verification ------------------------------
                let mut verifier: Option<ProbeVerifier> = None;
                for id in candidates {
                    if abort.is_some() {
                        break;
                    }
                    let other = &self.strings[id as usize];
                    if let Some((similar, prob)) =
                        decide_candidate(probe, other, &cdf_filter, &mut verifier, config, &mut rec)
                    {
                        if similar {
                            hits.push(SearchHit { id, prob });
                        }
                    }
                    abort = budget.check(total_start).err();
                }
            }
            if abort.is_none() {
                rec.counter(Counter::OutputPairs, hits.len() as u64);
            }
        }
        // Gauges are set on the stats view directly: the index is static
        // during a search, so per-probe gauge events would only repeat the
        // same value into the trace.
        stats.index_bytes = self.index.estimated_bytes();
        stats.peak_index_bytes = self.index.peak_bytes();
        let elapsed = total_start.elapsed();
        stats.timings.total = elapsed;
        recorder.enter_phase(Phase::Total);
        recorder.exit_phase(Phase::Total, elapsed);
        recorder.probe_end(probe_id);
        match abort {
            Some(abort) => Err(abort),
            None => Ok((hits, stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pipeline;
    use crate::join::SimilarityJoin;
    use usj_model::Alphabet;
    use usj_verify::exact_similarity_prob;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn collection() -> Vec<UncertainString> {
        vec![
            dna("ACGTACGT"),
            dna("ACG{(T,0.9),(G,0.1)}ACGT"),
            dna("TTTTTTTT"),
            dna("ACGTACG"),
            dna("ACGTACGTAC"),
        ]
    }

    #[test]
    fn search_matches_oracle() {
        let strings = collection();
        for pipeline in Pipeline::all() {
            let config = JoinConfig::new(2, 0.3)
                .with_pipeline(pipeline)
                .with_early_stop(false);
            let coll = IndexedCollection::build(config, 4, strings.clone());
            for probe_text in ["ACGTACGT", "ACGT{(A,0.5),(C,0.5)}CGT", "GGGGGGGG"] {
                let probe = dna(probe_text);
                let hits = coll.search(&probe);
                let expected: Vec<u32> = strings
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| exact_similarity_prob(&probe, s, 2) > 0.3)
                    .map(|(i, _)| i as u32)
                    .collect();
                let got: Vec<u32> = hits.iter().map(|h| h.id).collect();
                assert_eq!(got, expected, "{pipeline:?} probe={probe_text}");
            }
        }
    }

    #[test]
    fn probe_shorter_than_collection_strings() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.4), 4, collection());
        // Probe of length 6 can match length-8 strings at k = 2.
        let hits = coll.search(&dna("ACGTAC"));
        assert!(hits.iter().any(|h| h.id == 0), "{hits:?}");
        assert!(hits.iter().any(|h| h.id == 3), "{hits:?}");
    }

    #[test]
    fn empty_collection() {
        let coll = IndexedCollection::build(JoinConfig::new(1, 0.1), 4, Vec::new());
        assert!(coll.is_empty());
        assert!(coll.search(&dna("ACGT")).is_empty());
    }

    #[test]
    fn probe_longer_than_all_indexed_strings() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.4), 4, collection());
        // Probe of length 12 can only match the length-10 string.
        let hits = coll.search(&dna("ACGTACGTACGT"));
        assert!(hits.iter().all(|h| h.id == 4), "{hits:?}");
        // Far longer probe matches nothing.
        assert!(coll.search(&dna("ACGTACGTACGTACGTACGT")).is_empty());
    }

    #[test]
    fn search_respects_tau_strictly() {
        // Pr(ed ≤ 0) between ACGT and AC{G:0.5}T-style strings is 0.5;
        // τ = 0.5 must exclude (strict inequality), τ = 0.49 include.
        let strings = vec![dna("AC{(G,0.5),(T,0.5)}T")];
        for (tau, expect) in [(0.5, false), (0.49, true)] {
            let coll = IndexedCollection::build(
                JoinConfig::new(0, tau).with_early_stop(false),
                4,
                strings.clone(),
            );
            let hits = coll.search(&dna("ACGT"));
            assert_eq!(!hits.is_empty(), expect, "tau={tau}");
        }
    }

    #[test]
    fn expired_deadline_refuses_partial_results() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        let budget = ProbeBudget {
            deadline: Some(Instant::now()),
            cancel: None,
        };
        let err = coll
            .search_budgeted_recorded(0, &dna("ACGTACGT"), |_| true, budget, &mut NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, SearchAbort::Deadline { .. }), "{err:?}");
    }

    #[test]
    fn raised_cancel_flag_aborts() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        let cancel = AtomicBool::new(true);
        let budget = ProbeBudget {
            deadline: None,
            cancel: Some(&cancel),
        };
        let err = coll
            .search_budgeted_recorded(0, &dna("ACGTACGT"), |_| true, budget, &mut NoopRecorder)
            .unwrap_err();
        assert_eq!(err, SearchAbort::Cancelled);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_search() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        let probe = dna("ACGT{(A,0.5),(C,0.5)}CGT");
        let plain = coll.search(&probe);
        let (budgeted, _) = coll
            .search_budgeted_recorded(
                0,
                &probe,
                |_| true,
                ProbeBudget::default(),
                &mut NoopRecorder,
            )
            .expect("unlimited budget cannot abort");
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn degraded_candidates_are_superset_of_exact_hits() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        for probe_text in ["ACGTACGT", "ACGT{(A,0.5),(C,0.5)}CGT", "GGGGGGGG"] {
            let probe = dna(probe_text);
            let candidates = coll.filter_candidates(&probe);
            for hit in coll.search(&probe) {
                assert!(
                    candidates.contains(&hit.id),
                    "degraded answer dropped exact hit {} for {probe_text}",
                    hit.id
                );
            }
        }
    }

    #[test]
    fn stats_plumbed_through() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        let (hits, stats) = coll.search_filtered(&dna("ACGTACGT"), |_| true);
        assert_eq!(stats.output_pairs, hits.len() as u64);
        assert!(stats.pairs_in_scope >= stats.qgram_survivors);
        assert!(stats.index_bytes > 0);
    }

    /// Self-probing with `admit = |id| id < probe_id` visits each
    /// unordered pair once, so it must report the self-join's pairs.
    #[test]
    fn admitted_self_probes_equal_self_join() {
        let strings = collection();
        for pipeline in Pipeline::all() {
            for early_stop in [true, false] {
                let config = JoinConfig::new(2, 0.3)
                    .with_pipeline(pipeline)
                    .with_early_stop(early_stop);
                let coll = IndexedCollection::build(config.clone(), 4, strings.clone());
                let mut got = Vec::new();
                for (probe_id, probe) in (0u32..).zip(&strings) {
                    let (hits, _) = coll.search_filtered(probe, |id| id < probe_id);
                    got.extend(hits.into_iter().map(|h| (h.id, probe_id, h.prob)));
                }
                got.sort_by_key(|&(left, right, _)| (left, right));
                let want = SimilarityJoin::new(config, 4).self_join(&strings).pairs;
                let label = format!("{pipeline:?} early_stop={early_stop}");
                assert!(!want.is_empty(), "{label}");
                assert_eq!(
                    got.iter().map(|&(l, r, _)| (l, r)).collect::<Vec<_>>(),
                    want.iter().map(|p| (p.left, p.right)).collect::<Vec<_>>(),
                    "{label}"
                );
                if !early_stop {
                    for (&(_, _, prob), pair) in got.iter().zip(&want) {
                        assert!((prob - pair.prob).abs() < 1e-9, "{label}: {pair:?}");
                    }
                }
            }
        }
    }

    /// Searches on one thread reuse its window table across collections
    /// and probe lengths, and each answers bit for bit as a search on a
    /// fresh thread (with a fresh table) does.
    #[test]
    fn reused_probe_cache_answers_like_a_fresh_one() {
        use usj_datagen::{DatasetKind, DatasetSpec};
        let collections: Vec<IndexedCollection> = [(21, 2, 0.1), (22, 1, 0.05)]
            .into_iter()
            .map(|(seed, k, tau)| {
                let ds = DatasetSpec::new(DatasetKind::Dblp, 120, seed).generate();
                IndexedCollection::build(JoinConfig::new(k, tau), ds.alphabet.size(), ds.strings)
            })
            .collect();
        // Alternate collections; the probes of each run from its longest
        // string down to its shortest.
        let mut searches = Vec::new();
        for i in 0..12 {
            for (c, coll) in collections.iter().enumerate() {
                let mut by_len: Vec<&UncertainString> = coll.strings().iter().collect();
                by_len.sort_by_key(|s| std::cmp::Reverse(s.len()));
                searches.push((c, by_len[i * (by_len.len() - 1) / 11].clone()));
            }
        }
        let bits = |hits: Vec<SearchHit>| -> Vec<(u32, u64)> {
            hits.iter().map(|h| (h.id, h.prob.to_bits())).collect()
        };
        let mut found = 0;
        for (c, probe) in &searches {
            let reused = bits(collections[*c].search(probe));
            let fresh = std::thread::scope(|scope| {
                scope
                    .spawn(|| bits(collections[*c].search(probe)))
                    .join()
                    .unwrap()
            });
            assert_eq!(
                reused,
                fresh,
                "collection {c}, probe of length {}",
                probe.len()
            );
            found += reused.len();
        }
        assert!(found >= searches.len(), "each probe finds itself at least");
    }
}
