//! Differential tests: the self-join driver on several threads against
//! the same driver on one thread (`SimilarityJoin::self_join`) against the
//! brute-force oracle.
//!
//! The in-src tests in `parallel.rs` cover the same contract on small
//! deterministic inputs; this suite drives the generated datasets at
//! larger scale with auto wave sizing and several thread counts.

use usj_core::obs::{CollectingRecorder, Counter, Gauge};
use usj_core::{
    oracle_self_join, par_self_join, run_self_join, IndexedCollection, JoinConfig, JoinResult,
    Pipeline, RunOptions, SimilarityJoin,
};
use usj_datagen::{DatasetKind, DatasetSpec};

fn pair_key(r: &JoinResult) -> Vec<(u32, u32, u64)> {
    r.pairs
        .iter()
        .map(|p| (p.left, p.right, p.prob.to_bits()))
        .collect()
}

fn funnel(r: &JoinResult) -> [u64; 13] {
    let s = &r.stats;
    [
        s.pairs_in_scope,
        s.qgram_survivors,
        s.qgram_pruned_count,
        s.qgram_pruned_bound,
        s.freq_survivors,
        s.freq_pruned_lower,
        s.freq_pruned_chebyshev,
        s.cdf_accepted,
        s.cdf_rejected,
        s.cdf_undecided,
        s.verified_similar,
        s.verified_dissimilar,
        s.output_pairs,
    ]
}

#[test]
fn generated_datasets_all_pipelines_and_thread_counts() {
    for (kind, k, tau) in [
        (DatasetKind::Dblp, 2usize, 0.1),
        (DatasetKind::Protein, 4, 0.01),
    ] {
        let ds = DatasetSpec::new(kind, 250, 0xD1FF).generate();
        let sigma = ds.alphabet.size();
        for pipeline in Pipeline::all() {
            let config = JoinConfig::new(k, tau).with_pipeline(pipeline);
            let seq = SimilarityJoin::new(config.clone(), sigma).self_join(&ds.strings);
            for threads in [2, 3, 8] {
                let par = par_self_join(config.clone(), sigma, &ds.strings, threads);
                assert_eq!(
                    pair_key(&par),
                    pair_key(&seq),
                    "{kind:?} {pipeline:?} threads={threads}"
                );
                assert_eq!(funnel(&par), funnel(&seq));
            }
        }
    }
}

/// A tiny `max_segment_instances` overflows segment equivalent sets on
/// uncertain probes, taking the incomplete (conservative surfacing) path;
/// output must still agree everywhere — driver vs driver vs oracle.
#[test]
fn over_cap_path_agrees_with_oracle() {
    // The oracle enumerates every joint world of every length-compatible
    // pair, so the strings carry fewer, narrower uncertain positions
    // than the paper's defaults (θ = 0.2, γ = 5 would mean ~10^5 world
    // pairs per string pair).
    let mut spec = DatasetSpec::new(DatasetKind::Dblp, 120, 0xCA11);
    spec.uncertainty.theta = 0.12;
    spec.uncertainty.gamma = 3;
    let ds = spec.generate();
    let sigma = ds.alphabet.size();
    let (k, tau) = (2usize, 0.1);
    let oracle = oracle_self_join(&ds.strings, k, tau);
    let opairs: Vec<(u32, u32)> = oracle.iter().map(|p| (p.left, p.right)).collect();
    for pipeline in Pipeline::all() {
        for max_instances in [1usize, 2, 1 << 14] {
            let mut config = JoinConfig::new(k, tau)
                .with_pipeline(pipeline)
                .with_early_stop(false);
            config.max_segment_instances = max_instances;
            let seq = SimilarityJoin::new(config.clone(), sigma).self_join(&ds.strings);
            let spairs: Vec<(u32, u32)> = seq.pairs.iter().map(|p| (p.left, p.right)).collect();
            assert_eq!(spairs, opairs, "{pipeline:?} cap={max_instances}");
            for (s, o) in seq.pairs.iter().zip(&oracle) {
                assert!((s.prob - o.prob).abs() < 1e-9);
            }
            for threads in [2, 3, 8] {
                let par = par_self_join(config.clone(), sigma, &ds.strings, threads);
                assert_eq!(pair_key(&par), pair_key(&seq));
                assert_eq!(funnel(&par), funnel(&seq));
            }
        }
    }
}

/// The residency gauges in the merged parallel snapshot prove the memory
/// bound on a realistic length distribution: peak resident bytes stay
/// strictly below the full index the pre-sharding driver held.
#[test]
fn resident_memory_stays_below_full_index_on_generated_data() {
    let ds = DatasetSpec::new(DatasetKind::Dblp, 400, 0x3A9).generate();
    let sigma = ds.alphabet.size();
    let config = JoinConfig::new(2, 0.1).with_shard_band(1);
    let full =
        IndexedCollection::build(config.clone(), sigma, ds.strings.clone()).index_bytes() as u64;
    let opts = RunOptions {
        threads: 3,
        ..RunOptions::default()
    };
    let (par, _, rec) = run_self_join(
        config.clone(),
        sigma,
        &ds.strings,
        &opts,
        CollectingRecorder::new,
    )
    .unwrap();
    let peak = rec.gauge_max(Gauge::PeakResidentBytes);
    assert!(peak > 0);
    assert!(peak < full, "peak resident {peak} vs full index {full}");
    assert!(rec.counter_total(Counter::StealBatches) > 0);
    assert_eq!(rec.probes(), 400);
    assert_eq!(
        rec.counter_total(Counter::OutputPairs),
        par.stats.output_pairs
    );

    // shard_band = 1 fixes the wave plan, so one thread evicts at the same
    // points and peaks at the same bytes.
    let seq = SimilarityJoin::new(config, sigma).self_join(&ds.strings);
    assert_eq!(par.stats.peak_index_bytes, seq.stats.peak_index_bytes);
}
