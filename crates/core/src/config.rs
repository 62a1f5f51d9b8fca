//! Join configuration.

use usj_qgram::{AlphaMode, SelectionPolicy};

/// Which filter stages run before verification (paper §7's algorithm
/// variants). Every variant ends with trie-based verification (T).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pipeline {
    /// q-gram + frequency + CDF + trie verification (all filters — the
    /// paper's best performer).
    #[default]
    Qfct,
    /// q-gram + CDF + trie verification (skips frequency distance).
    Qct,
    /// q-gram + frequency + trie verification (skips CDF bounds).
    Qft,
    /// frequency + CDF + trie verification (skips q-gram indexing; every
    /// length-compatible visited string is a candidate).
    Fct,
}

impl Pipeline {
    /// `true` when q-gram filtering (and the segment index) is used.
    pub fn uses_qgram(self) -> bool {
        !matches!(self, Pipeline::Fct)
    }

    /// `true` when frequency-distance filtering runs.
    pub fn uses_freq(self) -> bool {
        !matches!(self, Pipeline::Qct)
    }

    /// `true` when CDF-bound filtering runs.
    pub fn uses_cdf(self) -> bool {
        !matches!(self, Pipeline::Qft)
    }

    /// The paper's acronym for the variant.
    pub fn acronym(self) -> &'static str {
        match self {
            Pipeline::Qfct => "QFCT",
            Pipeline::Qct => "QCT",
            Pipeline::Qft => "QFT",
            Pipeline::Fct => "FCT",
        }
    }

    /// All four variants, for sweeps.
    pub fn all() -> [Pipeline; 4] {
        [Pipeline::Qfct, Pipeline::Qct, Pipeline::Qft, Pipeline::Fct]
    }
}

/// Which exact verifier decides undecided pairs (paper §7.7 compares
/// trie vs naive; `LazyTrie` is this implementation's extension and the
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifierKind {
    /// Trie verification with a **lazily materialised** probe trie — the
    /// paper's §6.2 algorithm with its "build `T_R` completely" cost
    /// removed (listed there as future work). Strictly dominates `Trie`.
    #[default]
    LazyTrie,
    /// The paper's verifier: eager (complete) probe trie with on-demand
    /// `T_S` expansion (§6.2). Falls back to `Naive` when the probe trie
    /// would exceed [`JoinConfig::max_trie_nodes`].
    Trie,
    /// All-pairs enumeration with banded DP (the baseline).
    Naive,
}

/// Configuration for [`crate::SimilarityJoin`] /
/// [`crate::IndexedCollection`].
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Edit-distance threshold `k`.
    pub k: usize,
    /// Probability threshold `τ`: report pairs with `Pr(ed ≤ k) > τ`.
    pub tau: f64,
    /// q-gram length (the paper finds `q = 3` or `4` best; default 3).
    pub q: usize,
    /// Window-start selection policy for `q(r, x)`.
    pub policy: SelectionPolicy,
    /// How segment-match probabilities combine duplicate window instances.
    pub alpha_mode: AlphaMode,
    /// Which filter stages run.
    pub pipeline: Pipeline,
    /// Which exact verifier runs last.
    pub verifier: VerifierKind,
    /// Early accept/reject inside verification. The pair set is the same
    /// either way; with it on, a reported probability is the mass found
    /// when the pair was decided (the top world pair's, the CDF lower
    /// bound or the walk's partial sum): a lower bound above `τ`.
    /// Disable to obtain the exact probability for every reported pair.
    pub early_stop: bool,
    /// Cap on enumerated instances per segment/window; segments exceeding
    /// it are treated conservatively (never pruned by that segment).
    pub max_segment_instances: usize,
    /// Cap on probe trie nodes; probes exceeding it fall back to the
    /// naive verifier.
    pub max_trie_nodes: usize,
    /// Smallest work-stealing batch the self-join driver hands a worker
    /// (reached near the tail, where per-probe cost is highest).
    pub batch_min: usize,
    /// Largest work-stealing batch (used while plenty of probes remain;
    /// also the per-worker sizing target for automatic wave planning).
    pub batch_max: usize,
    /// Distinct string lengths per parallel wave. `0` (the default) sizes
    /// waves automatically so each holds enough probes to feed every
    /// worker; explicit values trade scheduling overhead (small bands)
    /// against peak resident index memory (large bands).
    pub shard_band: usize,
    /// Wall-clock budget for `run_self_join`, checked between waves and
    /// before every work-stealing batch at any thread count. `None` (the
    /// default) never times out; when exceeded, the run ends with a
    /// clean partial-result error (and a checkpoint, if checkpointing is
    /// on) instead of hanging on a pathological probe. The classic
    /// panicking APIs (`self_join`, `par_self_join`) ignore it.
    pub deadline: Option<std::time::Duration>,
}

impl JoinConfig {
    /// Creates a configuration with the paper's defaults (`q = 3`, all
    /// filters, trie verification, early termination on).
    pub fn new(k: usize, tau: f64) -> Self {
        assert!((0.0..=1.0).contains(&tau), "tau must lie in [0, 1]");
        JoinConfig {
            k,
            tau,
            q: 3,
            policy: SelectionPolicy::default(),
            alpha_mode: AlphaMode::default(),
            pipeline: Pipeline::default(),
            verifier: VerifierKind::default(),
            early_stop: true,
            max_segment_instances: 1 << 14,
            max_trie_nodes: 1 << 22,
            batch_min: 1,
            batch_max: 32,
            shard_band: 0,
            deadline: None,
        }
    }

    /// Sets the q-gram length.
    pub fn with_q(mut self, q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        self.q = q;
        self
    }

    /// Sets the pipeline variant.
    pub fn with_pipeline(mut self, pipeline: Pipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Sets the verifier kind.
    pub fn with_verifier(mut self, verifier: VerifierKind) -> Self {
        self.verifier = verifier;
        self
    }

    /// Sets the selection policy.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the α computation mode.
    pub fn with_alpha_mode(mut self, mode: AlphaMode) -> Self {
        self.alpha_mode = mode;
        self
    }

    /// Enables/disables early termination in verification.
    pub fn with_early_stop(mut self, on: bool) -> Self {
        self.early_stop = on;
        self
    }

    /// Sets the self-join driver's work-stealing batch-size range.
    pub fn with_batch_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1, "batch_min must be at least 1");
        assert!(max >= min, "batch_max must be at least batch_min");
        self.batch_min = min;
        self.batch_max = max;
        self
    }

    /// Sets the number of distinct lengths per parallel wave (0 = auto).
    pub fn with_shard_band(mut self, band: usize) -> Self {
        self.shard_band = band;
        self
    }

    /// Sets the wall-clock deadline for `run_self_join` (`None` = no
    /// limit).
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.deadline = deadline;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_stage_flags() {
        assert!(
            Pipeline::Qfct.uses_qgram() && Pipeline::Qfct.uses_freq() && Pipeline::Qfct.uses_cdf()
        );
        assert!(!Pipeline::Qct.uses_freq());
        assert!(!Pipeline::Qft.uses_cdf());
        assert!(!Pipeline::Fct.uses_qgram());
        assert_eq!(Pipeline::Fct.acronym(), "FCT");
        assert_eq!(Pipeline::all().len(), 4);
    }

    #[test]
    fn defaults_match_paper() {
        let c = JoinConfig::new(2, 0.1);
        assert_eq!(c.q, 3);
        assert_eq!(c.pipeline, Pipeline::Qfct);
        assert_eq!(c.verifier, VerifierKind::LazyTrie);
        assert!(c.early_stop);
    }

    #[test]
    #[should_panic(expected = "tau must lie in [0, 1]")]
    fn bad_tau_panics() {
        JoinConfig::new(1, 2.0);
    }

    #[test]
    fn scheduler_knob_defaults_and_builders() {
        let c = JoinConfig::new(2, 0.1);
        assert_eq!(c.batch_min, 1);
        assert_eq!(c.batch_max, 32);
        assert_eq!(c.shard_band, 0);
        let c = c.with_batch_range(2, 16).with_shard_band(3);
        assert_eq!((c.batch_min, c.batch_max, c.shard_band), (2, 16, 3));
    }

    #[test]
    #[should_panic(expected = "batch_max must be at least batch_min")]
    fn inverted_batch_range_panics() {
        JoinConfig::new(1, 0.1).with_batch_range(8, 4);
    }
}
