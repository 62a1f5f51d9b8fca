//! Similarity *search*: one probe against a pre-indexed collection, and
//! the probe funnel the self-join runs too.
//!
//! The paper frames the join as repeated search over the visited prefix of
//! the collection, and the code follows it: `Funnel::probe` takes one
//! probe through q-gram candidates, the frequency filter, admission, CDF
//! bounds and verification, for the join driver (`crate::parallel`) and
//! for [`IndexedCollection`] alike. The callers differ only in what they
//! hand it. A join probe of length `l` reaches lengths `[l − k, l]` and, at
//! its own length, only ids below its own; a search probe may be shorter
//! *or* longer than indexed strings, so it reaches `[l − k, l + k]`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
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
    /// The window table and α rows of every probe this thread runs, join
    /// probe or search; only [`Funnel::probe`] takes it.
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
}

impl std::fmt::Display for SearchAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchAbort::Deadline { elapsed } => {
                write!(f, "probe deadline exceeded after {elapsed:.2?}")
            }
        }
    }
}

impl std::error::Error for SearchAbort {}

/// A probe's deadline passed before its funnel finished.
pub(crate) struct Expired;

/// Errs once `deadline` has passed.
pub(crate) fn check(deadline: Option<Instant>) -> Result<(), Expired> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(Expired),
        _ => Ok(()),
    }
}

/// What a probe runs against: a standing collection, or the join's
/// resident wave.
pub(crate) struct Funnel<'a> {
    pub(crate) config: &'a JoinConfig,
    pub(crate) strings: &'a [UncertainString],
    pub(crate) index: &'a SegmentIndex,
    /// String ids by length, ascending within each length: the candidate
    /// scope of a pipeline without the q-gram stage.
    pub(crate) by_len: &'a BTreeMap<usize, Vec<u32>>,
    /// The frequency profile of a string by id.
    pub(crate) profile_of: &'a (dyn Fn(u32) -> &'a FreqProfile + Sync),
    pub(crate) freq_filter: FreqFilter,
}

/// One probe as its caller hands it to [`Funnel::probe`].
pub(crate) struct Probe<'p> {
    pub(crate) string: &'p UncertainString,
    /// The candidate lengths.
    pub(crate) lengths: RangeInclusive<usize>,
    /// At the probe's own length, only ids below this one are candidates.
    pub(crate) below: Option<u32>,
    /// The probe's frequency profile, when the caller holds it; computed
    /// on demand otherwise.
    pub(crate) profile: Option<&'p FreqProfile>,
}

impl Funnel<'_> {
    /// Takes `probe` through the filters: q-gram candidates over its
    /// lengths (every string of those lengths when the pipeline has no
    /// q-gram stage), then the frequency filter. Returns the survivors
    /// `admit` accepts, ascending. With `hits`, each of them is then
    /// decided by [`decide_candidate`] (CDF bounds, then verification),
    /// and the similar ones are pushed onto `hits` in ascending id order.
    ///
    /// Errs once `deadline` has passed, checked before each length's
    /// lookup, after the filters and after each decision. The lookups use
    /// the thread's window table: taken for them and put back after them,
    /// so a warm one serves the thread's next probe without growing its
    /// buffers again, and a probe that panics while holding it drops it.
    /// Events go to `rec`, the caller's `(stats, recorder)` pair.
    pub(crate) fn probe<R: Recorder>(
        &self,
        probe: &Probe<'_>,
        admit: impl Fn(u32) -> bool,
        hits: Option<&mut Vec<SearchHit>>,
        deadline: Option<Instant>,
        rec: &mut R,
    ) -> Result<Vec<u32>, Expired> {
        let config = self.config;
        let own_len = probe.string.len();

        // ---- Candidate generation -----------------------------------
        let mut qgram_span = PhaseGuard::enter(&mut *rec, Phase::Qgram);
        let mut candidates: Vec<u32> = Vec::new();
        let mut scope = 0u64;
        if config.pipeline.uses_qgram() {
            // The probe's windows are enumerated once and reused across
            // every indexed length it touches.
            let mut cache = PROBE_CACHE.take();
            cache.clear();
            let looked_up = probe.lengths.clone().try_for_each(|len| {
                check(deadline)?;
                scope += self.index.collect_candidates_recorded(
                    probe.string,
                    len,
                    config,
                    probe.below.filter(|_| len == own_len),
                    &mut cache,
                    &mut candidates,
                    qgram_span.rec(),
                );
                Ok(())
            });
            PROBE_CACHE.set(cache);
            looked_up?;
        } else {
            for (&len, ids) in self.by_len.range(probe.lengths.clone()) {
                check(deadline)?;
                let admitted = (probe.below.filter(|_| len == own_len))
                    .map_or(ids.len(), |below| ids.partition_point(|&id| id < below));
                scope += admitted as u64;
                candidates.extend_from_slice(&ids[..admitted]);
            }
        }
        qgram_span.rec().counter(Counter::PairsInScope, scope);
        qgram_span
            .rec()
            .counter(Counter::QgramSurvivors, candidates.len() as u64);
        drop(qgram_span);
        // Deterministic candidate order keeps runs reproducible.
        candidates.sort_unstable();

        // ---- Frequency-distance filtering ---------------------------
        if config.pipeline.uses_freq() && !candidates.is_empty() {
            let mut freq_span = PhaseGuard::enter(&mut *rec, Phase::Freq);
            let rec = freq_span.rec();
            let computed;
            let rp = match probe.profile {
                Some(profile) => profile,
                None => {
                    computed = self.freq_filter.profile(probe.string);
                    &computed
                }
            };
            candidates.retain(|&id| {
                let out = self.freq_filter.evaluate(rp, (self.profile_of)(id));
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
        candidates.retain(|&id| admit(id));

        // ---- CDF bounds + verification ------------------------------
        let Some(hits) = hits else {
            return Ok(candidates);
        };
        check(deadline)?;
        let cdf_filter = CdfFilter::new(config.k, config.tau);
        let mut verifier: Option<ProbeVerifier> = None; // lazily built
        let mut found = 0u64;
        for &id in &candidates {
            let other = &self.strings[id as usize];
            if let Some((true, prob)) =
                decide_candidate(probe.string, other, &cdf_filter, &mut verifier, config, rec)
            {
                found += 1;
                hits.push(SearchHit { id, prob });
            }
            check(deadline)?;
        }
        rec.counter(Counter::OutputPairs, found);
        Ok(candidates)
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
    /// String ids by length, derived from the strings rather than the
    /// index: a salvaged snapshot's index can lack bands.
    by_len: BTreeMap<usize, Vec<u32>>,
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
        let mut by_len: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (id, s) in (0u32..).zip(&strings) {
            by_len.entry(s.len()).or_default().push(id);
        }
        IndexedCollection {
            config,
            sigma,
            strings,
            index,
            profiles,
            by_len,
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
        match self.probe(probe, |_| true, None, None, &mut NoopRecorder) {
            Ok(candidates) => candidates,
            Err(Expired) => unreachable!("a probe without a deadline expired"),
        }
    }

    /// [`Funnel::probe`] over lengths `[|R|−k, |R|+k]` of this
    /// collection.
    fn probe<R: Recorder>(
        &self,
        probe: &UncertainString,
        admit: impl Fn(u32) -> bool,
        hits: Option<&mut Vec<SearchHit>>,
        deadline: Option<Instant>,
        rec: &mut R,
    ) -> Result<Vec<u32>, Expired> {
        let config = &self.config;
        let funnel = Funnel {
            config,
            strings: &self.strings,
            index: &self.index,
            by_len: &self.by_len,
            profile_of: &|id| &self.profiles[id as usize],
            freq_filter: FreqFilter::new(config.k, config.tau, self.sigma),
        };
        let spec = Probe {
            string: probe,
            lengths: probe.len().saturating_sub(config.k)..=probe.len() + config.k,
            below: None,
            profile: None,
        };
        funnel.probe(&spec, admit, hits, deadline, rec)
    }

    /// [`IndexedCollection::search`] restricted to candidate ids accepted
    /// by `admit`, applied *before* the expensive CDF/verification stages,
    /// plus the per-phase statistics. Probing a collection with its own
    /// strings in the join's visit order (ascending length, then id) and
    /// admitting only the strings visited before the probe, each unordered
    /// pair is decided once, exactly as [`crate::SimilarityJoin::self_join`]
    /// decides it.
    pub fn search_filtered(
        &self,
        probe: &UncertainString,
        admit: impl Fn(u32) -> bool,
    ) -> (Vec<SearchHit>, JoinStats) {
        match self.search_recorded(0, probe, admit, None, &mut NoopRecorder) {
            Ok(out) => out,
            Err(abort) => unreachable!("a search without a deadline aborted: {abort}"),
        }
    }

    /// [`IndexedCollection::search`] with the whole search bracketed as
    /// probe `probe_id` on `recorder` (phase spans, prune counters, and a
    /// per-probe [`Phase::Total`] sample), abandoned once `deadline`
    /// passes. `probe_id` is only a label for the event stream; it does
    /// not affect the search.
    ///
    /// The deadline is checked before each indexed length's lookup, after
    /// the filter stages, and after each candidate decision (the expensive
    /// CDF + DP loop). On abort the partial hit list is *discarded* — the
    /// caller gets `Err`, never a silently truncated answer — but the
    /// probe's recorded events up to that point, including the
    /// [`Phase::Total`] sample, are kept so latency histograms still see
    /// abandoned probes.
    pub fn search_budgeted_recorded<R: Recorder>(
        &self,
        probe_id: u32,
        probe: &UncertainString,
        deadline: Option<Instant>,
        recorder: &mut R,
    ) -> Result<(Vec<SearchHit>, JoinStats), SearchAbort> {
        self.search_recorded(probe_id, probe, |_| true, deadline, recorder)
    }

    /// The body of both recorded searches.
    fn search_recorded<R: Recorder>(
        &self,
        probe_id: u32,
        probe: &UncertainString,
        admit: impl Fn(u32) -> bool,
        deadline: Option<Instant>,
        recorder: &mut R,
    ) -> Result<(Vec<SearchHit>, JoinStats), SearchAbort> {
        let total_start = Instant::now();
        let mut stats = JoinStats {
            num_strings: self.strings.len(),
            ..Default::default()
        };
        let mut hits = Vec::new();
        let outcome = {
            let mut rec = (&mut stats, &mut *recorder);
            rec.probe_start(probe_id);
            self.probe(probe, admit, Some(&mut hits), deadline, &mut rec)
        };
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
        match outcome {
            Ok(_) => Ok((hits, stats)),
            Err(Expired) => Err(SearchAbort::Deadline { elapsed }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pipeline;
    use crate::join::SimilarityJoin;
    use crate::parallel::par_self_join;
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
        let err = coll
            .search_budgeted_recorded(0, &dna("ACGTACGT"), Some(Instant::now()), &mut NoopRecorder)
            .unwrap_err();
        assert!(matches!(err, SearchAbort::Deadline { .. }), "{err:?}");
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_search() {
        let coll = IndexedCollection::build(JoinConfig::new(2, 0.3), 4, collection());
        let probe = dna("ACGT{(A,0.5),(C,0.5)}CGT");
        let plain = coll.search(&probe);
        let (budgeted, _) = coll
            .search_budgeted_recorded(0, &probe, None, &mut NoopRecorder)
            .expect("a search without a deadline cannot abort");
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

    /// Self-probing in the join's visit order (ascending length, then
    /// id), each probe admitting only the strings visited before it,
    /// decides every unordered pair once and in the join's direction, so
    /// it must report the self-join's pairs with the same probability
    /// bits.
    #[test]
    fn admitted_self_probes_equal_self_join() {
        use usj_datagen::{DatasetKind, DatasetSpec};
        let dataset = |kind, n, seed| {
            let ds = DatasetSpec::new(kind, n, seed).generate();
            (ds.alphabet.size(), ds.strings)
        };
        let inputs = [
            ("dna", (4, collection()), 2, 0.3),
            ("dblp", dataset(DatasetKind::Dblp, 300, 31), 2, 0.1),
            ("protein", dataset(DatasetKind::Protein, 60, 32), 4, 0.01),
        ];
        for (name, (sigma, strings), k, tau) in inputs {
            let mut order: Vec<u32> = (0..strings.len() as u32).collect();
            order.sort_by_key(|&id| (strings[id as usize].len(), id));
            let mut rank = vec![0usize; strings.len()];
            for (r, &id) in order.iter().enumerate() {
                rank[id as usize] = r;
            }
            for pipeline in Pipeline::all() {
                for early_stop in [true, false] {
                    let config = JoinConfig::new(k, tau)
                        .with_pipeline(pipeline)
                        .with_early_stop(early_stop);
                    let coll = IndexedCollection::build(config.clone(), sigma, strings.clone());
                    let mut got = Vec::new();
                    for (r, &probe_id) in order.iter().enumerate() {
                        let probe = &strings[probe_id as usize];
                        let (hits, _) = coll.search_filtered(probe, |id| rank[id as usize] < r);
                        got.extend(
                            hits.into_iter().map(|h| {
                                (h.id.min(probe_id), h.id.max(probe_id), h.prob.to_bits())
                            }),
                        );
                    }
                    got.sort_unstable();
                    let want: Vec<(u32, u32, u64)> = SimilarityJoin::new(config, sigma)
                        .self_join(&strings)
                        .pairs
                        .iter()
                        .map(|p| (p.left, p.right, p.prob.to_bits()))
                        .collect();
                    let label = format!("{name} {pipeline:?} early_stop={early_stop}");
                    assert!(!want.is_empty(), "{label}");
                    assert_eq!(got, want, "{label}");
                }
            }
        }
    }

    /// Searches on one thread reuse its window table across collections,
    /// probe lengths and the self-joins run between them, and each search
    /// and join answers bit for bit as it does on a fresh thread (with a
    /// fresh table).
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
        // A collection's self-join on one thread and on two: each join's
        // pairs with their probability bits, and its funnel counters.
        let joins = |coll: &IndexedCollection| {
            let (config, sigma, strings) = (coll.config(), coll.sigma(), coll.strings());
            [
                SimilarityJoin::new(config.clone(), sigma).self_join(strings),
                par_self_join(config.clone(), sigma, strings, 2),
            ]
            .map(|r| {
                let pairs: Vec<(u32, u32, u64)> = (r.pairs.iter())
                    .map(|p| (p.left, p.right, p.prob.to_bits()))
                    .collect();
                (pairs, Counter::ALL.map(|c| r.stats.counter_value(c)))
            })
        };
        let fresh_joins: Vec<_> = (collections.iter())
            .map(|coll| std::thread::scope(|scope| scope.spawn(|| joins(coll)).join().unwrap()))
            .collect();
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
            // The thread's table, warm from this search, serves joins with
            // the other collection's index, k and lengths.
            let other = 1 - c;
            assert_eq!(
                joins(&collections[other]),
                fresh_joins[other],
                "joins over collection {other}"
            );
        }
        assert!(found >= searches.len(), "each probe finds itself at least");
    }
}
