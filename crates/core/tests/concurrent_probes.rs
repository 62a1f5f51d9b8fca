//! Loom-free concurrency smoke test for the shared-index read path: N
//! threads issuing `query_cached_recorded` (and full collection
//! searches) against one shared index must produce results bit-identical
//! to the same probes run sequentially. The index is `&self` all the way
//! down — per-probe state (window tables, recorders) lives with
//! the caller — so concurrent readers must never observe each other.

use std::collections::BTreeMap;

use usj_core::obs::CollectingRecorder;
use usj_core::{EquivCache, IndexedCollection, JoinConfig, SegmentIndex};
use usj_model::{Alphabet, UncertainString};

const THREADS: usize = 8;

fn config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
}

/// Certain and uncertain DNA strings across a few lengths.
fn strings() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    [
        "ACGT",
        "ACGA",
        "AC{(G,0.7),(A,0.3)}T",
        "ACGTAC",
        "ACGTAT",
        "ACG{(T,0.9),(G,0.1)}AC",
        "TTTTTT",
        "ACGTACGT",
        "ACGTACGA",
    ]
    .iter()
    .map(|t| UncertainString::parse(t, &alpha).unwrap())
    .collect()
}

fn probes() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    ["ACGT", "ACGTAC", "A{(C,0.5),(G,0.5)}GTAC", "ACGTACGT"]
        .iter()
        .map(|t| UncertainString::parse(t, &alpha).unwrap())
        .collect()
}

/// Normalises one `query_cached_recorded` answer into an ordered,
/// bit-comparable form.
type QueryKey = Option<(BTreeMap<u32, Vec<u64>>, Vec<bool>)>;

fn query_key(
    index: &SegmentIndex,
    probe: &UncertainString,
    indexed_len: usize,
    config: &JoinConfig,
) -> QueryKey {
    let mut cache = EquivCache::default();
    let mut rec = CollectingRecorder::new();
    index
        .query_cached_recorded(probe, indexed_len, config, None, &mut cache, &mut rec)
        .map(|(alphas, over_cap)| {
            let alphas: BTreeMap<u32, Vec<u64>> = alphas
                .iter()
                .map(|(id, v)| (id, v.iter().map(|p| p.to_bits()).collect()))
                .collect();
            (alphas, over_cap.to_vec())
        })
}

#[test]
fn concurrent_index_queries_are_bit_identical_to_sequential() {
    let cfg = config();
    let strings = strings();
    // The join driver interns sorted by (length, id); mirror that.
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| (strings[i].len(), i));
    let index = SegmentIndex::build(order.iter().map(|&i| (i as u32, &strings[i])), &cfg);
    let lengths: Vec<usize> = {
        let mut ls: Vec<usize> = strings.iter().map(UncertainString::len).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    // Sequential baseline: every (probe, indexed length) combination.
    let probes = probes();
    let baseline: Vec<QueryKey> = probes
        .iter()
        .flat_map(|p| lengths.iter().map(|&len| query_key(&index, p, len, &cfg)))
        .collect();

    let per_thread: Vec<Vec<QueryKey>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (index, probes, lengths, cfg) = (&index, &probes, &lengths, &cfg);
                scope.spawn(move || {
                    probes
                        .iter()
                        .flat_map(|p| lengths.iter().map(|&len| query_key(index, p, len, cfg)))
                        .collect::<Vec<QueryKey>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        baseline
            .iter()
            .any(|k| k.as_ref().is_some_and(|(a, _)| !a.is_empty())),
        "baseline surfaced no candidates; the smoke test would be vacuous"
    );
    for (t, results) in per_thread.iter().enumerate() {
        assert_eq!(results, &baseline, "thread {t} diverged from sequential");
    }
}

#[test]
fn concurrent_interner_resolves_while_probing() {
    // The global segment interner is frozen after build; concurrent
    // readers resolving ids while other threads run full index probes
    // must agree with a sequential resolve pass (sanitize.sh runs this
    // under TSan as the interner data-race check).
    let cfg = config();
    let strings = strings();
    let index = SegmentIndex::build((0u32..).zip(&strings), &cfg);
    let worlds: Vec<Vec<u8>> = strings
        .iter()
        .map(|s| s.most_probable_world().instance)
        .collect();
    // Sequential baseline: resolve the leading 2- and 3-byte segments of
    // every most-probable world (some hit, some miss — both must be
    // stable under concurrency).
    let baseline: Vec<Option<u32>> = worlds
        .iter()
        .flat_map(|w| {
            [
                index.interner().resolve(&w[..2]),
                index.interner().resolve(&w[..3]),
            ]
        })
        .collect();
    assert!(
        baseline.iter().any(Option::is_some),
        "no segment resolved; the interner smoke test would be vacuous"
    );
    let probes = probes();
    let per_thread: Vec<Vec<Option<u32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (index, worlds, probes, cfg) = (&index, &worlds, &probes, &cfg);
                scope.spawn(move || {
                    // Interleave probes (which read the interner through
                    // the resolved-set path) with direct resolves.
                    for p in probes {
                        let _ = query_key(index, p, p.len(), cfg);
                    }
                    worlds
                        .iter()
                        .flat_map(|w| {
                            [
                                index.interner().resolve(&w[..2]),
                                index.interner().resolve(&w[..3]),
                            ]
                        })
                        .collect::<Vec<Option<u32>>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, results) in per_thread.iter().enumerate() {
        assert_eq!(results, &baseline, "thread {t} diverged from sequential");
    }
}

#[test]
fn concurrent_collection_searches_match_sequential() {
    let coll = IndexedCollection::build(config(), Alphabet::dna().size(), strings());
    let probes = probes();
    let baseline: Vec<Vec<(u32, u64)>> = probes
        .iter()
        .map(|p| {
            coll.search(p)
                .into_iter()
                .map(|h| (h.id, h.prob.to_bits()))
                .collect()
        })
        .collect();
    assert!(
        baseline.iter().any(|hits| !hits.is_empty()),
        "baseline found no hits; the smoke test would be vacuous"
    );
    let per_thread: Vec<Vec<Vec<(u32, u64)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (coll, probes) = (&coll, &probes);
                scope.spawn(move || {
                    probes
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            // Exercise the recorded, budgeted entry point
                            // concurrently too — it is what the server uses.
                            let mut rec = CollectingRecorder::new();
                            let (hits, _stats) = coll
                                .search_budgeted_recorded(
                                    (t * probes.len() + i) as u32,
                                    p,
                                    None,
                                    &mut rec,
                                )
                                .expect("unlimited budget never aborts");
                            hits.into_iter().map(|h| (h.id, h.prob.to_bits())).collect()
                        })
                        .collect::<Vec<Vec<(u32, u64)>>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, results) in per_thread.iter().enumerate() {
        assert_eq!(results, &baseline, "thread {t} diverged from sequential");
    }
}
