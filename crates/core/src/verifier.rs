//! Per-probe verifier dispatch shared by the join and search drivers,
//! plus the shared (instrumented) CDF-then-verify candidate decision.

use usj_cdf::{CdfDecision, CdfFilter};
use usj_editdist::within_k_auto;
use usj_model::{Prob, Symbol, UncertainString};
use usj_obs::{Counter, NoopRecorder, Phase, PhaseGuard, Recorder};
use usj_verify::{naive_verify, LazyTrieVerifier, TrieVerifier};

use crate::config::{JoinConfig, VerifierKind};

/// A verifier instantiated once per probe and reused for all its
/// candidates.
#[derive(Debug)]
pub enum ProbeVerifier {
    /// Lazily materialised probe trie (default; our §6.2 extension).
    Lazy(LazyTrieVerifier),
    /// The paper's eager probe trie.
    Eager(TrieVerifier),
    /// All-pairs enumeration baseline (also the fallback when the eager
    /// trie would exceed its node cap).
    Naive,
    /// Deterministic-probe fast path: against a deterministic candidate
    /// the match probability is 0 or 1, decided by one bit-parallel
    /// bounded edit-distance check (Myers 1999); uncertain candidates
    /// delegate to the wrapped verifier.
    Deterministic {
        /// The probe's single world.
        instance: Vec<Symbol>,
        /// Fallback for uncertain candidates.
        inner: Box<ProbeVerifier>,
    },
}

impl ProbeVerifier {
    /// Builds the verifier `config` asks for.
    pub fn build(probe: &UncertainString, config: &JoinConfig) -> ProbeVerifier {
        ProbeVerifier::build_recorded(probe, config, &mut NoopRecorder)
    }

    /// [`ProbeVerifier::build`] plus a [`Counter::VerifierBuilds`] event
    /// on `rec` (the lazy per-probe construction count — probes whose
    /// candidates are all filtered out never build one).
    fn build_recorded<R: Recorder>(
        probe: &UncertainString,
        config: &JoinConfig,
        rec: &mut R,
    ) -> ProbeVerifier {
        rec.counter(Counter::VerifierBuilds, 1);
        let base = match config.verifier {
            VerifierKind::LazyTrie => {
                let v = LazyTrieVerifier::new(probe, config.k, config.tau);
                ProbeVerifier::Lazy(if config.early_stop {
                    v
                } else {
                    v.without_early_stop()
                })
            }
            VerifierKind::Trie => {
                match TrieVerifier::new(probe, config.k, config.tau, config.max_trie_nodes) {
                    Some(v) => ProbeVerifier::Eager(if config.early_stop {
                        v
                    } else {
                        v.without_early_stop()
                    }),
                    None => ProbeVerifier::Naive,
                }
            }
            VerifierKind::Naive => ProbeVerifier::Naive,
        };
        if probe.is_deterministic() {
            ProbeVerifier::Deterministic {
                instance: probe.most_probable_world().instance,
                inner: Box::new(base),
            }
        } else {
            base
        }
    }

    /// Decides `Pr(ed(probe, other) ≤ k) > τ`, returning the decision and
    /// the accumulated probability (a lower bound under early
    /// termination, exact otherwise).
    pub fn verify(
        &mut self,
        probe: &UncertainString,
        other: &UncertainString,
        config: &JoinConfig,
    ) -> (bool, Prob) {
        match self {
            ProbeVerifier::Lazy(v) => {
                let out = v.verify(other);
                (out.similar, out.prob)
            }
            ProbeVerifier::Eager(v) => {
                let out = v.verify(other);
                (out.similar, out.prob)
            }
            ProbeVerifier::Naive => {
                let out = naive_verify(probe, other, config.k, config.tau, config.early_stop);
                (out.similar, out.prob)
            }
            ProbeVerifier::Deterministic { instance, inner } => {
                if other.is_deterministic() {
                    let world = other.most_probable_world().instance;
                    let prob = if within_k_auto(instance, &world, config.k) {
                        1.0
                    } else {
                        0.0
                    };
                    (prob > config.tau, prob)
                } else {
                    inner.verify(probe, other, config)
                }
            }
        }
    }
}

/// The shared decision tail applied to one surviving candidate: CDF
/// bounds first, exact verification only when they are inconclusive (or
/// when exact-probability mode verifies accepts too). Returns `None` when
/// the CDF bound rejects the pair, otherwise `Some((similar, prob))`.
///
/// Both drivers ([`crate::SimilarityJoin::self_join`] and
/// [`crate::IndexedCollection::search_filtered`]) route candidates through
/// this one function, so the CDF/verify counters and phase spans cannot
/// diverge between them. Events go to `rec`, the driver's
/// `(stats, recorder)` pair.
pub(crate) fn decide_candidate<R: Recorder>(
    probe: &UncertainString,
    other: &UncertainString,
    cdf_filter: &CdfFilter,
    verifier: &mut Option<ProbeVerifier>,
    config: &JoinConfig,
    rec: &mut R,
) -> Option<(bool, Prob)> {
    let mut decided: Option<(bool, Prob)> = None;
    if config.pipeline.uses_cdf() {
        let out = {
            let _span = PhaseGuard::enter(&mut *rec, Phase::Cdf);
            cdf_filter.evaluate(probe, other)
        };
        match out.decision {
            CdfDecision::Reject => {
                rec.counter(Counter::CdfRejected, 1);
                return None;
            }
            CdfDecision::Accept if config.early_stop => {
                rec.counter(Counter::CdfAccepted, 1);
                decided = Some((true, out.bounds.at_k().0));
            }
            CdfDecision::Accept => {
                // Exact-probability mode verifies accepted pairs too (the
                // count still reflects the filter's power).
                rec.counter(Counter::CdfAccepted, 1);
            }
            CdfDecision::Undecided => {
                rec.counter(Counter::CdfUndecided, 1);
            }
        }
    } else {
        rec.counter(Counter::CdfUndecided, 1);
    }
    let (similar, prob) = match decided {
        Some(d) => d,
        None => {
            let (similar, prob) = {
                let mut span = PhaseGuard::enter(&mut *rec, Phase::Verify);
                let v = verifier.get_or_insert_with(|| {
                    ProbeVerifier::build_recorded(probe, config, span.rec())
                });
                v.verify(probe, other, config)
            };
            rec.counter(
                if similar {
                    Counter::VerifiedSimilar
                } else {
                    Counter::VerifiedDissimilar
                },
                1,
            );
            (similar, prob)
        }
    };
    Some((similar, prob))
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    #[test]
    fn all_kinds_agree() {
        let r = dna("AC{(G,0.5),(T,0.5)}TAC");
        let s = dna("ACGTAC");
        for kind in [
            VerifierKind::LazyTrie,
            VerifierKind::Trie,
            VerifierKind::Naive,
        ] {
            let config = JoinConfig::new(1, 0.3).with_verifier(kind);
            let mut v = ProbeVerifier::build(&r, &config);
            let (similar, prob) = v.verify(&r, &s, &config);
            assert!(similar, "{kind:?}");
            assert!(prob > 0.3);
        }
    }

    #[test]
    fn deterministic_probe_takes_fast_path_and_agrees() {
        let r = dna("ACGTAC");
        let mut config = JoinConfig::new(1, 0.3);
        config.early_stop = false;
        let mut v = ProbeVerifier::build(&r, &config);
        assert!(matches!(v, ProbeVerifier::Deterministic { .. }));
        // Deterministic candidates: one Myers check; uncertain ones
        // delegate to the wrapped verifier. Both must agree with naive.
        for text in ["ACGTAC", "ACGTTC", "TTTTTT", "AC{(G,0.5),(T,0.5)}TAC"] {
            let s = dna(text);
            let (similar, prob) = v.verify(&r, &s, &config);
            let naive = naive_verify(&r, &s, config.k, config.tau, false);
            assert_eq!(similar, naive.similar, "{text}");
            assert!((prob - naive.prob).abs() < 1e-12, "{text}");
        }
    }

    #[test]
    fn eager_over_cap_falls_back_to_naive() {
        let r = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}");
        let mut config = JoinConfig::new(1, 0.3).with_verifier(VerifierKind::Trie);
        config.max_trie_nodes = 2;
        let v = ProbeVerifier::build(&r, &config);
        assert!(matches!(v, ProbeVerifier::Naive));
    }
}
