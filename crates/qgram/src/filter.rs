//! The complete q-gram filter for one string pair (Theorems 1–2).

use usj_model::{Prob, UncertainString};

use crate::alpha::alpha_for_segment;
use crate::equivalent::{AlphaMode, EquivalentSet};
use crate::partition::{partition, Segment};
use crate::selection::{window_range, SelectionPolicy};
use crate::soundness::{sound_at_least, window_region, Region};
use crate::tail::at_least;

/// Outcome of running the q-gram filter on a candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct QGramOutcome {
    /// Per-segment match probabilities `α_x` (length = number of segments
    /// of the indexed string).
    pub alphas: Vec<Prob>,
    /// Number of segments with `α_x > 0`.
    pub matched_segments: usize,
    /// Number of segments the indexed string was partitioned into.
    pub num_segments: usize,
    /// Minimum number of matching segments required (`m − k`, ≥ 0).
    pub required_segments: usize,
    /// Theorem 2 upper bound on `Pr(ed(R,S) ≤ k)`; `1.0` when the filter
    /// could not bound the pair (short strings with `m ≤ k`, or instance
    /// caps exceeded).
    pub upper_bound: Prob,
    /// The filter's decision.
    pub verdict: FilterVerdict,
}

/// Decision of a probabilistic filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// The pair cannot satisfy `Pr(ed ≤ k) > τ` and is pruned.
    Pruned,
    /// The pair survives and must be examined further.
    Candidate,
}

/// Cap on the window instances enumerated per segment; pairs exceeding
/// the cap are passed through un-pruned rather than risking exponential
/// work.
const MAX_INSTANCES: usize = 1 << 14;

/// Configuration + scratch for applying q-gram filtering between uncertain
/// string pairs.
///
/// ```
/// use usj_model::{Alphabet, UncertainString};
/// use usj_qgram::{QGramFilter, FilterVerdict, SelectionPolicy};
///
/// let dna = Alphabet::dna();
/// let filter = QGramFilter::new(1, 0.25, 2).with_policy(SelectionPolicy::PositionBased);
/// let r = UncertainString::parse("GGATCC", &dna).unwrap();
/// let s3 = UncertainString::parse("G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C", &dna).unwrap();
/// let out = filter.evaluate(&r, &s3);
/// assert_eq!(out.verdict, FilterVerdict::Pruned); // bound 0.2 < τ = 0.25
/// ```
#[derive(Debug, Clone)]
pub struct QGramFilter {
    k: usize,
    tau: Prob,
    q: usize,
    policy: SelectionPolicy,
    alpha_mode: AlphaMode,
    paper_bound: bool,
}

impl QGramFilter {
    /// Creates a filter for edit threshold `k`, probability threshold
    /// `tau`, and q-gram length `q` (the paper uses `q = 3` by default).
    pub fn new(k: usize, tau: Prob, q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        assert!((0.0..=1.0).contains(&tau), "tau must lie in [0, 1]");
        QGramFilter {
            k,
            tau,
            q,
            policy: SelectionPolicy::default(),
            alpha_mode: AlphaMode::default(),
            paper_bound: false,
        }
    }

    /// Uses the paper's Theorem 2 bound verbatim (plain Poisson-binomial
    /// tail) instead of the sound bound. Can wrongly prune candidates
    /// whose probe windows share uncertain positions across segments —
    /// kept only for the paper-faithfulness ablation (see
    /// [`crate::soundness`]).
    pub fn with_paper_bound(mut self, on: bool) -> Self {
        self.paper_bound = on;
        self
    }

    /// Overrides the window selection policy.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the `α` computation mode (see [`AlphaMode`]).
    pub fn with_alpha_mode(mut self, mode: AlphaMode) -> Self {
        self.alpha_mode = mode;
        self
    }

    /// Edit threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Probability threshold `τ`.
    pub fn tau(&self) -> Prob {
        self.tau
    }

    /// q-gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Partitions an indexed string of length `len` exactly as the filter
    /// will (exposed so the index builder in `usj-core` agrees).
    pub fn segments(&self, len: usize) -> Vec<Segment> {
        partition(len, self.q, self.k)
    }

    /// Builds the equivalent sets `q(r, x)` of `probe` against an indexed
    /// string of length `indexed_len`; `None` entries mean "no window can
    /// align" (α_x = 0 for that segment).
    pub fn probe_sets(
        &self,
        probe: &UncertainString,
        indexed_len: usize,
    ) -> Vec<Option<EquivalentSet>> {
        self.segments(indexed_len)
            .iter()
            .map(|seg| {
                let range = window_range(self.policy, probe.len(), indexed_len, self.k, seg)?;
                EquivalentSet::build(probe, range, seg.len, self.alpha_mode, MAX_INSTANCES)
            })
            .collect()
    }

    /// Runs the filter on a pair: `probe` plays the role of `R`, `indexed`
    /// the role of the partitioned string `S`.
    pub fn evaluate(&self, probe: &UncertainString, indexed: &UncertainString) -> QGramOutcome {
        if probe.len().abs_diff(indexed.len()) > self.k {
            return QGramOutcome {
                alphas: Vec::new(),
                matched_segments: 0,
                num_segments: 0,
                required_segments: 1,
                upper_bound: 0.0,
                verdict: FilterVerdict::Pruned,
            };
        }
        let segments = self.segments(indexed.len());
        let m = segments.len();
        let required = m.saturating_sub(self.k);
        let mut alphas = Vec::with_capacity(m);
        let mut regions: Vec<Option<Region>> = Vec::with_capacity(m);
        let mut capped = false;
        for seg in &segments {
            let range = window_range(self.policy, probe.len(), indexed.len(), self.k, seg);
            regions.push(range.map(|r| window_region(r, seg.len)));
            let alpha = match range {
                None => 0.0,
                Some(range) => {
                    match EquivalentSet::build(
                        probe,
                        range,
                        seg.len,
                        self.alpha_mode,
                        MAX_INSTANCES,
                    ) {
                        // Cap exceeded: cannot evaluate this segment; be
                        // conservative (treat as certain match).
                        None => {
                            capped = true;
                            1.0
                        }
                        Some(set) => alpha_for_segment(&set, indexed, seg),
                    }
                }
            };
            alphas.push(alpha);
        }
        let matched = alphas.iter().filter(|&&a| a > 0.0).count();
        // Lemma 4/5 necessary condition.
        if matched < required {
            return QGramOutcome {
                alphas,
                matched_segments: matched,
                num_segments: m,
                required_segments: required,
                upper_bound: 0.0,
                verdict: FilterVerdict::Pruned,
            };
        }
        // Probabilistic pruning: the sound bound by default, the paper's
        // Theorem 2 tail in the ablation mode.
        let upper = if capped || required == 0 {
            1.0
        } else if self.paper_bound {
            at_least(&alphas, required)
        } else {
            sound_at_least(&alphas, &regions, probe, required)
        };
        let verdict = if upper <= self.tau {
            FilterVerdict::Pruned
        } else {
            FilterVerdict::Candidate
        };
        QGramOutcome {
            alphas,
            matched_segments: matched,
            num_segments: m,
            required_segments: required,
            upper_bound: upper,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn table1_filter() -> QGramFilter {
        QGramFilter::new(1, 0.25, 2).with_policy(SelectionPolicy::PositionBased)
    }

    /// Reproduces the paper's Table 1 / §3.1 walkthrough. The probe is the
    /// deterministic string r = GGATCC; the four collection strings behave
    /// as described in §3 (two fail the count condition, one is pruned by
    /// the probabilistic bound, one survives).
    #[test]
    fn table1_walkthrough() {
        let filter = table1_filter();
        let r = dna("GGATCC");

        // "A{C,G}A{C,G}AC": no segment matches at all.
        let s1 = dna("A{(C,0.5),(G,0.5)}A{(C,0.5),(G,0.5)}AC");
        let out = filter.evaluate(&r, &s1);
        assert_eq!(out.matched_segments, 0);
        assert_eq!(out.verdict, FilterVerdict::Pruned);

        // "AA{G,T}G{C,G,T}C": only the third segment matches (< m−k = 2).
        let s2 = dna("AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C");
        let out = filter.evaluate(&r, &s2);
        assert_eq!(out.matched_segments, 1);
        assert_eq!(out.required_segments, 2);
        assert_eq!(out.verdict, FilterVerdict::Pruned);

        // S3: α = (1, 0, 0.2), upper bound 0.2 < τ = 0.25 → pruned.
        let s3 = dna("G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C");
        let out = filter.evaluate(&r, &s3);
        assert_eq!(out.num_segments, 3);
        assert!((out.alphas[0] - 1.0).abs() < 1e-9);
        assert!((out.alphas[1] - 0.0).abs() < 1e-9);
        assert!((out.alphas[2] - 0.2).abs() < 1e-9);
        assert!((out.upper_bound - 0.2).abs() < 1e-9);
        assert_eq!(out.verdict, FilterVerdict::Pruned);

        // S4: α = (0.8, 0.5, 0), upper bound 0.4 > τ → candidate.
        let s4 = dna("{(G,0.8),(T,0.2)}GA{(C,0.3),(G,0.2),(T,0.5)}CT");
        let out = filter.evaluate(&r, &s4);
        assert!((out.alphas[0] - 0.8).abs() < 1e-9);
        assert!((out.alphas[1] - 0.5).abs() < 1e-9);
        assert!((out.alphas[2] - 0.0).abs() < 1e-9);
        assert!((out.upper_bound - 0.4).abs() < 1e-9);
        assert_eq!(out.verdict, FilterVerdict::Candidate);
    }

    #[test]
    fn length_gap_short_circuits() {
        let filter = QGramFilter::new(1, 0.1, 2);
        let out = filter.evaluate(&dna("ACGT"), &dna("ACGTACGT"));
        assert_eq!(out.verdict, FilterVerdict::Pruned);
        assert_eq!(out.upper_bound, 0.0);
    }

    #[test]
    fn identical_deterministic_strings_survive() {
        let filter = QGramFilter::new(1, 0.5, 2);
        let s = dna("ACGTAC");
        let out = filter.evaluate(&s, &s);
        assert_eq!(out.verdict, FilterVerdict::Candidate);
        assert!((out.upper_bound - 1.0).abs() < 1e-9);
        assert_eq!(out.matched_segments, out.num_segments);
    }

    /// Short strings where m ≤ k: no pruning possible, bound is 1.
    #[test]
    fn short_strings_pass_through() {
        let filter = QGramFilter::new(3, 0.9, 3);
        let out = filter.evaluate(&dna("AC"), &dna("GT"));
        // m = min(k+1, len) = 2 ≤ k = 3 → required 0 → bound 1.
        assert_eq!(out.required_segments, 0);
        assert_eq!(out.upper_bound, 1.0);
        assert_eq!(out.verdict, FilterVerdict::Candidate);
    }

    /// Theorem 1 (deterministic probe, uncertain indexed string): the
    /// upper bound dominates the exact probability computed by brute
    /// force over the indexed string's worlds.
    #[test]
    fn upper_bound_dominates_exact_deterministic_probe() {
        let filter = QGramFilter::new(1, 0.0, 2);
        let r = dna("GGATCC");
        for s_text in [
            "G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C",
            "{(G,0.8),(T,0.2)}GA{(C,0.3),(G,0.2),(T,0.5)}CT",
            "GGAT{(C,0.6),(G,0.4)}C",
            "GGATCC",
            "AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C",
        ] {
            let s = dna(s_text);
            let out = filter.evaluate(&r, &s);
            let r_world = r.most_probable_world().instance;
            let mut exact = 0.0;
            for w in s.worlds() {
                if usj_editdist::within_k(&r_world, &w.instance, 1) {
                    exact += w.prob;
                }
            }
            assert!(
                out.upper_bound >= exact - 1e-9,
                "s={s_text}: bound {} < exact {exact}",
                out.upper_bound
            );
        }
    }

    /// The shift-based policy never reports fewer matched segments than
    /// required for genuinely similar pairs (completeness smoke test with
    /// uncertain strings).
    #[test]
    fn similar_pairs_survive_both_policies() {
        for policy in [SelectionPolicy::PositionBased, SelectionPolicy::ShiftBased] {
            let filter = QGramFilter::new(2, 0.05, 2).with_policy(policy);
            let r = dna("ACGT{(A,0.6),(T,0.4)}CCA");
            let s = dna("ACG{(T,0.9),(G,0.1)}ACCA");
            let out = filter.evaluate(&r, &s);
            assert_eq!(out.verdict, FilterVerdict::Candidate, "{policy:?}: {out:?}");
        }
    }

    #[test]
    #[should_panic(expected = "tau must lie in [0, 1]")]
    fn invalid_tau_panics() {
        QGramFilter::new(1, 1.5, 2);
    }
}
