//! Golden outputs: digests of `SimilarityJoin::self_join` pairs on fixed
//! seeded collections. A digest covers every pair's ids and the exact bits
//! of its probability, so a verifier rewrite that changes the summation
//! order of a single leaf mass fails here even when the pair set does not
//! change. When a change is meant to alter outputs, re-record the
//! constants and say why in the change description.

use uncertain_join::datagen::{DatasetKind, DatasetSpec};
use uncertain_join::join::{JoinConfig, Pipeline, SimilarityJoin, VerifierKind};

/// FNV-1a over `(left, right, prob bits)` of every output pair, in the
/// join's output order, plus the pair count.
fn digest(kind: DatasetKind, n: usize, seed: u64, config: JoinConfig) -> (usize, u64) {
    let ds = DatasetSpec::new(kind, n, seed).generate();
    let result = SimilarityJoin::new(config, ds.alphabet.size()).self_join(&ds.strings);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in &result.pairs {
        let mut bytes = [0u8; 16];
        bytes[..4].copy_from_slice(&p.left.to_le_bytes());
        bytes[4..8].copy_from_slice(&p.right.to_le_bytes());
        bytes[8..].copy_from_slice(&p.prob.to_bits().to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (result.pairs.len(), h)
}

/// dblp-like names at the paper's defaults (k = 2, τ = 0.1), lazy trie.
#[test]
fn dblp_join_digest() {
    let got = digest(DatasetKind::Dblp, 600, 21, JoinConfig::new(2, 0.1));
    assert_eq!(got, DBLP_LAZY);
}

/// The same collection through the paper's eager trie verifier.
#[test]
fn dblp_join_digest_eager_trie() {
    let config = JoinConfig::new(2, 0.1).with_verifier(VerifierKind::Trie);
    let got = digest(DatasetKind::Dblp, 600, 21, config);
    assert_eq!(got, DBLP_EAGER);
}

/// Protein-like sequences under QFT (no CDF stage, every frequency
/// survivor is verified) at k = 4, τ = 0.01.
#[test]
fn protein_qft_join_digest() {
    let config = JoinConfig::new(4, 0.01).with_pipeline(Pipeline::Qft);
    let got = digest(DatasetKind::Protein, 200, 22, config);
    assert_eq!(got, PROTEIN_QFT);
}

const DBLP_LAZY: (usize, u64) = (66, 697634732925268091);
const DBLP_EAGER: (usize, u64) = (66, 4537929133365087358);
const PROTEIN_QFT: (usize, u64) = (83, 140315662595665512);
