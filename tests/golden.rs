//! Golden outputs: digests of `SimilarityJoin::self_join` pairs on fixed
//! seeded collections. A digest covers every pair's ids and the exact bits
//! of its probability, so a verifier rewrite that changes the summation
//! order of a single leaf mass fails here even when the pair set does not
//! change; an ids-only digest beside it says whether the pair set did.
//! The funnel goldens pin the 13 filter-funnel counters and the
//! postings the q-gram stage scanned on the same collections, and the
//! q-gram work counters pin its window and run-lookup totals. When a
//! change is meant to alter outputs, re-record the constants and say why
//! in the change description.

use uncertain_join::datagen::{DatasetKind, DatasetSpec};
use uncertain_join::join::{
    run_self_join, JoinConfig, Pipeline, RunOptions, SimilarityJoin, VerifierKind,
};
use uncertain_join::obs::{CollectingRecorder, Counter};

/// FNV-1a over `(left, right, prob bits)` of every output pair, in the
/// join's output order, and FNV-1a over `(left, right)` alone, each with
/// the pair count. The ids-only digest moves only when the pair set does,
/// so a change that only moves reported probabilities (a verifier that
/// stops at a different partial mass) can be told from one that changes
/// the answer.
fn digest(kind: DatasetKind, n: usize, seed: u64, config: JoinConfig) -> Digests {
    let ds = DatasetSpec::new(kind, n, seed).generate();
    let result = SimilarityJoin::new(config, ds.alphabet.size()).self_join(&ds.strings);
    let fnv = |h: u64, bytes: &[u8]| {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    };
    let (mut full, mut ids) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for p in &result.pairs {
        let mut bytes = [0u8; 16];
        bytes[..4].copy_from_slice(&p.left.to_le_bytes());
        bytes[4..8].copy_from_slice(&p.right.to_le_bytes());
        bytes[8..].copy_from_slice(&p.prob.to_bits().to_le_bytes());
        full = fnv(full, &bytes);
        ids = fnv(ids, &bytes[..8]);
    }
    let n = result.pairs.len();
    Digests {
        ids: (n, ids),
        full: (n, full),
    }
}

/// [`digest`]'s two digests, each `(pair count, FNV-1a)`.
struct Digests {
    ids: (usize, u64),
    full: (usize, u64),
}

/// Checks the ids-only digest first, so a pair-set change reports as one.
fn assert_digests(got: Digests, ids: (usize, u64), full: (usize, u64)) {
    assert_eq!(got.ids, ids, "the output pair set changed");
    assert_eq!(got.full, full, "the reported probabilities changed");
}

/// dblp-like names at the paper's defaults (k = 2, τ = 0.1), lazy trie.
#[test]
fn dblp_join_digest() {
    let got = digest(DatasetKind::Dblp, 600, 21, JoinConfig::new(2, 0.1));
    assert_digests(got, DBLP_IDS, DBLP_LAZY);
}

/// The same collection through the paper's eager trie verifier.
#[test]
fn dblp_join_digest_eager_trie() {
    let config = JoinConfig::new(2, 0.1).with_verifier(VerifierKind::Trie);
    let got = digest(DatasetKind::Dblp, 600, 21, config);
    assert_digests(got, DBLP_IDS, DBLP_EAGER);
}

/// Protein-like sequences under QFT (no CDF stage, every frequency
/// survivor is verified) at k = 4, τ = 0.01.
#[test]
fn protein_qft_join_digest() {
    let config = JoinConfig::new(4, 0.01).with_pipeline(Pipeline::Qft);
    let got = digest(DatasetKind::Protein, 200, 22, config);
    assert_digests(got, PROTEIN_QFT_IDS, PROTEIN_QFT);
}

/// The 13 funnel counters of a self-join on `threads` threads, followed
/// by the [`Counter::IndexPostingsScanned`] total.
fn funnel(kind: DatasetKind, n: usize, seed: u64, config: JoinConfig, threads: usize) -> [u64; 14] {
    let ds = DatasetSpec::new(kind, n, seed).generate();
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let (result, _, sink) = run_self_join(
        config,
        ds.alphabet.size(),
        &ds.strings,
        &opts,
        CollectingRecorder::new,
    )
    .expect("no deadline or checkpoint to fail on");
    let s = &result.stats;
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
        sink.counter_total(Counter::IndexPostingsScanned),
    ]
}

/// The default dblp funnel. A probe walks only the postings of ids
/// visited before it, so the postings total is the same on two threads.
#[test]
fn dblp_join_funnel() {
    for threads in [1, 2] {
        let got = funnel(DatasetKind::Dblp, 600, 21, JoinConfig::new(2, 0.1), threads);
        assert_eq!(got, DBLP_FUNNEL, "threads={threads}");
    }
}

#[test]
fn dblp_join_funnel_eager_trie() {
    let config = JoinConfig::new(2, 0.1).with_verifier(VerifierKind::Trie);
    assert_eq!(funnel(DatasetKind::Dblp, 600, 21, config, 1), DBLP_FUNNEL);
}

#[test]
fn protein_qft_join_funnel() {
    let config = JoinConfig::new(4, 0.01).with_pipeline(Pipeline::Qft);
    let got = funnel(DatasetKind::Protein, 200, 22, config, 1);
    assert_eq!(got, PROTEIN_QFT_FUNNEL);
}

/// The q-gram stage's work counters on the default dblp collection:
/// window worlds enumerated, of those the instances the interner knew,
/// and posting-run lookups. Each probe enumerates its own windows, so the
/// world total is the same on two threads. The other two are not: the
/// driver indexes a band of lengths ahead of its probes, and the bands
/// depend on the thread count, so a probe's interner may already know
/// instances of strings it does not admit.
#[test]
fn dblp_join_qgram_work() {
    for (threads, want) in [(1, DBLP_QGRAM_WORK_1), (2, DBLP_QGRAM_WORK_2)] {
        let ds = DatasetSpec::new(DatasetKind::Dblp, 600, 21).generate();
        let opts = RunOptions {
            threads,
            ..RunOptions::default()
        };
        let (_, _, sink) = run_self_join(
            JoinConfig::new(2, 0.1),
            ds.alphabet.size(),
            &ds.strings,
            &opts,
            CollectingRecorder::new,
        )
        .expect("no deadline or checkpoint to fail on");
        let got = [
            Counter::QgramWindowWorlds,
            Counter::QgramInstancesResolved,
            Counter::IndexRunLookups,
        ]
        .map(|c| sink.counter_total(c));
        assert_eq!(got, want, "threads={threads}");
    }
}

/// FCT skips the q-gram stage: every length-compatible pair reaches the
/// frequency filter and no posting is scanned.
#[test]
fn dblp_fct_join_funnel() {
    let config = JoinConfig::new(2, 0.1).with_pipeline(Pipeline::Fct);
    assert_eq!(
        funnel(DatasetKind::Dblp, 600, 21, config, 1),
        DBLP_FCT_FUNNEL
    );
}

const DBLP_IDS: (usize, u64) = (66, 6298270720392274889);
const DBLP_LAZY: (usize, u64) = (66, 14348390229431435681);
const DBLP_EAGER: (usize, u64) = (66, 18034793812801967711);
const PROTEIN_QFT_IDS: (usize, u64) = (83, 4594687212385597883);
const PROTEIN_QFT: (usize, u64) = (83, 2232230505929408632);

const DBLP_FUNNEL: [u64; 14] = [
    49230, 187, 49033, 10, 183, 4, 0, 27, 113, 43, 39, 4, 66, 3122,
];
const PROTEIN_QFT_FUNNEL: [u64; 14] = [6000, 114, 5886, 0, 112, 2, 0, 0, 0, 112, 83, 29, 83, 1819];
const DBLP_FCT_FUNNEL: [u64; 14] = [
    49230, 49230, 0, 0, 3317, 45913, 0, 27, 3247, 43, 39, 4, 66, 0,
];
const DBLP_QGRAM_WORK_1: [u64; 3] = [50561, 29989, 66809];
const DBLP_QGRAM_WORK_2: [u64; 3] = [50561, 30685, 68245];
