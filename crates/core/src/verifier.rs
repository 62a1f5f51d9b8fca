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
///
/// Before any walk it tries the single most probable world pair
/// `(r*, s*)`: two deterministic strings have only that pair, so it gives
/// the exact 0/1 answer; with early stop on, a pair within `k` whose
/// probability `p(r*)·p(s*)` already exceeds `τ` is accepted with that
/// probability, a term the walk would have counted anyway.
#[derive(Debug)]
pub struct ProbeVerifier {
    engine: Engine,
    /// The probe's most probable world `r*`.
    top: Vec<Symbol>,
    /// `p(r*)`.
    top_prob: Prob,
    /// `r*` is the probe's only world.
    deterministic: bool,
    /// The current candidate's most probable world `s*` (reused).
    other_top: Vec<Symbol>,
}

/// The exact verifier behind the top-world-pair check.
#[derive(Debug)]
enum Engine {
    /// Lazily materialised probe trie (default; our §6.2 extension).
    Lazy(LazyTrieVerifier),
    /// The paper's eager probe trie.
    Eager(TrieVerifier),
    /// All-pairs enumeration baseline (also the fallback when the eager
    /// trie would exceed its node cap).
    Naive,
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
        let engine = match config.verifier {
            VerifierKind::LazyTrie => {
                let v = LazyTrieVerifier::new(probe, config.k, config.tau);
                Engine::Lazy(if config.early_stop {
                    v
                } else {
                    v.without_early_stop()
                })
            }
            VerifierKind::Trie => {
                match TrieVerifier::new(probe, config.k, config.tau, config.max_trie_nodes) {
                    Some(v) => Engine::Eager(if config.early_stop {
                        v
                    } else {
                        v.without_early_stop()
                    }),
                    None => Engine::Naive,
                }
            }
            VerifierKind::Naive => Engine::Naive,
        };
        let mut top = Vec::new();
        let top_prob = probe.most_probable_world_into(&mut top);
        ProbeVerifier {
            engine,
            top,
            top_prob,
            deterministic: probe.is_deterministic(),
            other_top: Vec::new(),
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
        let (similar, prob, _) = self.decide(probe, other, config);
        (similar, prob)
    }

    /// [`ProbeVerifier::verify`], plus whether the top-world-pair accept
    /// decided the pair.
    fn decide(
        &mut self,
        probe: &UncertainString,
        other: &UncertainString,
        config: &JoinConfig,
    ) -> (bool, Prob, bool) {
        if self.deterministic && other.is_deterministic() {
            // One world pair: the probability is 0 or 1, decided by one
            // bounded edit-distance check.
            other.most_probable_world_into(&mut self.other_top);
            let prob = if within_k_auto(&self.top, &self.other_top, config.k) {
                1.0
            } else {
                0.0
            };
            return (prob > config.tau, prob, false);
        }
        if config.early_stop {
            let prob = self.top_prob * other.most_probable_world_into(&mut self.other_top);
            if prob > config.tau && within_k_auto(&self.top, &self.other_top, config.k) {
                return (true, prob, true);
            }
        }
        let (similar, prob) = match &mut self.engine {
            Engine::Lazy(v) => {
                let out = v.verify(other);
                (out.similar, out.prob)
            }
            Engine::Eager(v) => {
                let out = v.verify(other);
                (out.similar, out.prob)
            }
            Engine::Naive => {
                let out = naive_verify(probe, other, config.k, config.tau, config.early_stop);
                (out.similar, out.prob)
            }
        };
        (similar, prob, false)
    }
}

/// The shared decision tail applied to one surviving candidate: CDF
/// bounds first, exact verification only when they are inconclusive (or
/// when exact-probability mode verifies accepts too). Returns `None` when
/// the CDF bound rejects the pair, otherwise `Some((similar, prob))`.
///
/// Its one caller is the probe funnel ([`crate::collection::Funnel::probe`])
/// that the self-join and every search run. Events go to `rec`, the
/// caller's `(stats, recorder)` pair.
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
            let (similar, prob, top_pair) = {
                let mut span = PhaseGuard::enter(&mut *rec, Phase::Verify);
                let v = verifier.get_or_insert_with(|| {
                    ProbeVerifier::build_recorded(probe, config, span.rec())
                });
                v.decide(probe, other, config)
            };
            if top_pair {
                rec.counter(Counter::VerifyTopPairAccepts, 1);
            }
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
        for early_stop in [false, true] {
            let config = JoinConfig::new(1, 0.3).with_early_stop(early_stop);
            let mut v = ProbeVerifier::build(&r, &config);
            assert!(v.deterministic);
            // Deterministic candidates: one Myers check, exact with early
            // stop on or off; uncertain ones go through the top pair or
            // the walk. Decisions agree with naive, and so does every
            // probability when early stop is off.
            for text in ["ACGTAC", "ACGTTC", "TTTTTT", "AC{(G,0.5),(T,0.5)}TAC"] {
                let s = dna(text);
                let (similar, prob, top_pair) = v.decide(&r, &s, &config);
                let naive = naive_verify(&r, &s, config.k, config.tau, false);
                assert_eq!(similar, naive.similar, "{text}");
                if s.is_deterministic() || !early_stop {
                    assert!(!top_pair, "{text}");
                    assert!((prob - naive.prob).abs() < 1e-12, "{text}");
                }
            }
        }
    }

    #[test]
    fn top_pair_accepts_only_under_early_stop() {
        // r* = s* = ACGTAC with p(r*)·p(s*) = 0.9·0.8 = 0.72 > τ.
        let r = dna("AC{(G,0.9),(T,0.1)}TAC");
        let s = dna("ACGTA{(C,0.8),(G,0.2)}");
        for kind in [
            VerifierKind::LazyTrie,
            VerifierKind::Trie,
            VerifierKind::Naive,
        ] {
            let config = JoinConfig::new(0, 0.3).with_verifier(kind);
            let mut v = ProbeVerifier::build(&r, &config);
            let (similar, prob, top_pair) = v.decide(&r, &s, &config);
            assert!(similar && top_pair, "{kind:?}");
            assert!((prob - 0.72).abs() < 1e-12, "{kind:?}: {prob}");

            // Above τ = 0.75 the top pair alone cannot decide: the walk
            // finds the exact mass, 0.72, and rejects.
            let config = JoinConfig::new(0, 0.75).with_verifier(kind);
            let mut v = ProbeVerifier::build(&r, &config);
            let (similar, _, top_pair) = v.decide(&r, &s, &config);
            assert!(!similar && !top_pair, "{kind:?}");

            let config = JoinConfig::new(0, 0.3)
                .with_verifier(kind)
                .with_early_stop(false);
            let mut v = ProbeVerifier::build(&r, &config);
            let (similar, prob, top_pair) = v.decide(&r, &s, &config);
            assert!(similar && !top_pair, "{kind:?}");
            assert!((prob - 0.72).abs() < 1e-12, "{kind:?}: {prob}");
        }
    }

    #[test]
    fn eager_over_cap_falls_back_to_naive() {
        let r = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}");
        let mut config = JoinConfig::new(1, 0.3).with_verifier(VerifierKind::Trie);
        config.max_trie_nodes = 2;
        let v = ProbeVerifier::build(&r, &config);
        assert!(matches!(v.engine, Engine::Naive));
    }
}
