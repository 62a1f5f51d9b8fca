//! Sound replacement for Theorem 2's tail bound (a reproduction finding).
//!
//! The paper computes `Pr(at least m−k segments match)` with a
//! Poisson-binomial DP, which assumes the per-segment match events are
//! independent. When the probe `R` is **uncertain** and two segments'
//! candidate windows share an *uncertain* probe position, the events are
//! positively correlated and the DP can **undershoot** the true
//! probability — property testing produced concrete candidates that the
//! paper-faithful filter would wrongly prune (see DESIGN.md §3.3a for one
//! counterexample). When the probe is deterministic, or the shared
//! positions are certain, the events are genuinely independent
//! (conditioning on the certain characters changes nothing) and the
//! paper's bound is exact for `Pr(C)`.
//!
//! This module therefore:
//!
//! 1. detects which segments *conflict* — their window regions share at
//!    least one uncertain probe position ([`window_region`]);
//! 2. selects a maximum subfamily `A` of pairwise non-conflicting
//!    segments by interval scheduling (regions are intervals, so greedy
//!    by earliest region end is optimal; [`independent_family`]);
//! 3. bounds the tail soundly ([`sound_at_least`]) as the minimum of
//!    * the Poisson-binomial tail over `A` with the requirement reduced
//!      by the excluded segments (they are assumed to match — events in
//!      `A` are mutually independent, so this is a valid upper bound), and
//!    * the Markov bound `Σα/need` over all segments (valid under any
//!      dependence).
//!
//! With a deterministic probe no segment conflicts, `A` is everything,
//! and the bound reduces to the paper's — Table 1 reproduces unchanged.

use usj_model::{Prob, UncertainString};

use crate::tail::at_least;

/// Inclusive probe-position interval `[start, end]` covered by a
/// segment's candidate windows.
pub type Region = (usize, usize);

/// The region covered by windows starting in `[lo, hi]` of length `len`.
#[inline]
pub fn window_region(starts: (usize, usize), len: usize) -> Region {
    (starts.0, starts.1 + len - 1)
}

/// Greedy maximum subfamily of segments whose regions do not share any
/// uncertain probe position, by interval scheduling over the conflict
/// intervals. Returns indices into `regions` (entries that are `None`
/// — segments without windows — are never selected).
///
/// Two segments conflict iff the intersection of their regions contains
/// at least one position where `probe` is uncertain. To make the greedy
/// selection optimal we shrink each region to its uncertain-position
/// span: certain positions can never cause a conflict.
pub fn independent_family(regions: &[Option<Region>], probe: &UncertainString) -> Vec<usize> {
    let mut selected = Vec::new();
    select_family(regions, probe, &mut selected, &mut Vec::new());
    selected
}

/// [`independent_family`] into `selected`, with `spans` as scratch; both
/// are cleared first and keep their allocations.
fn select_family(
    regions: &[Option<Region>],
    probe: &UncertainString,
    selected: &mut Vec<usize>,
    spans: &mut Vec<(usize, Region)>,
) {
    selected.clear();
    spans.clear();
    for (x, region) in regions.iter().enumerate() {
        let Some(&(a, b)) = region.as_ref() else {
            continue;
        };
        // Uncertain span: the smallest interval containing the uncertain
        // positions inside the region (None = no uncertain positions,
        // conflicts impossible for this segment).
        let mut span: Option<Region> = None;
        for pos in a..=b.min(probe.len().saturating_sub(1)) {
            if !probe.position(pos).is_certain() {
                span = Some(match span {
                    None => (pos, pos),
                    Some((lo, _)) => (lo, pos),
                });
            }
        }
        match span {
            // Segments with no uncertain span never conflict: always
            // selected.
            None => selected.push(x),
            Some(span) => spans.push((x, span)),
        }
    }
    // Interval scheduling on the uncertain spans (sorted by span end).
    spans.sort_unstable_by_key(|&(_, (_, end))| end);
    let mut last_end: Option<usize> = None;
    for &(x, (start, end)) in spans.iter() {
        if last_end.is_none_or(|le| start > le) {
            selected.push(x);
            last_end = Some(end);
        }
    }
    selected.sort_unstable();
}

/// Precomputed independence structure for one (probe, indexed-length)
/// combination — build once, bound many candidates.
#[derive(Debug, Clone, Default)]
pub struct TailBounder {
    /// Independent family (indices into the segment list).
    selected: Vec<usize>,
    /// Segments with a window range at all.
    possible: Vec<usize>,
    /// [`select_family`] scratch.
    spans: Vec<(usize, Region)>,
}

impl TailBounder {
    /// Builds the bounder from the per-segment window regions of a probe.
    pub fn new(regions: &[Option<Region>], probe: &UncertainString) -> TailBounder {
        let mut bounder = TailBounder::default();
        bounder.reset(regions, probe);
        bounder
    }

    /// Rebuilds the bounder in place for new regions, reusing its
    /// buffers: a warm bounder allocates nothing.
    pub fn reset(&mut self, regions: &[Option<Region>], probe: &UncertainString) {
        select_family(regions, probe, &mut self.selected, &mut self.spans);
        self.possible.clear();
        self.possible
            .extend((0..regions.len()).filter(|&x| regions[x].is_some()));
    }
    /// The independent family chosen.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Sound upper bound on `Pr(at least `need` segments match)` given
    /// per-segment match probabilities `alphas` (exact or over-estimates).
    pub fn bound(&self, alphas: &[Prob], need: usize) -> Prob {
        if need == 0 {
            return 1.0;
        }
        if self.possible.len() < need {
            return 0.0;
        }
        let excluded = self.possible.len() - self.selected.len();
        // Poisson-binomial over the independent family, requirement
        // reduced by the (assumed-matching) excluded segments. The
        // family is gathered into a stack buffer — `bound` runs once per
        // surviving candidate, and partitions rarely exceed a few dozen
        // segments.
        let mut stack = [0.0; 64];
        let heap: Vec<Prob>;
        let family_alphas: &[Prob] = if self.selected.len() <= stack.len() {
            for (d, &x) in stack.iter_mut().zip(&self.selected) {
                *d = alphas[x];
            }
            &stack[..self.selected.len()]
        } else {
            heap = self.selected.iter().map(|&x| alphas[x]).collect();
            &heap
        };
        let pb = at_least(family_alphas, need.saturating_sub(excluded));
        // Markov over everything, valid under arbitrary dependence; the
        // bound only needs the sum, so no gather at all.
        let mean: f64 = self.possible.iter().map(|&x| alphas[x]).sum();
        pb.min((mean / need as f64).clamp(0.0, 1.0))
    }
}

/// Sound upper bound on `Pr(at least `need` of the segments match)`.
///
/// * `alphas[x]` — match probability of segment `x` (must be exact or an
///   over-estimate; see [`crate::equivalent::AlphaMode`]);
/// * `regions[x]` — probe region of segment `x`'s windows, `None` when
///   the segment has no candidate window (`α_x = 0` surely);
/// * `probe` — the (possibly uncertain) probe string.
///
/// One-shot form of [`TailBounder`].
pub fn sound_at_least(
    alphas: &[Prob],
    regions: &[Option<Region>],
    probe: &UncertainString,
    need: usize,
) -> Prob {
    debug_assert_eq!(alphas.len(), regions.len());
    TailBounder::new(regions, probe).bound(alphas, need)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::{Alphabet, Position};

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    #[test]
    fn deterministic_probe_selects_everything() {
        let probe = dna("GGATCC");
        let regions = vec![Some((0, 1)), Some((1, 4)), Some((3, 5))];
        let selected = independent_family(&regions, &probe);
        assert_eq!(selected, vec![0, 1, 2]);
        // Bound equals the plain Poisson-binomial tail.
        let alphas = [1.0, 0.0, 0.2];
        let bound = sound_at_least(&alphas, &regions, &probe, 2);
        assert!((bound - 0.2).abs() < 1e-12);
    }

    #[test]
    fn conflicting_uncertain_regions_reduce_family() {
        // Uncertain position 1 shared by segments 1 and 2.
        let probe = dna("G{(A,0.5),(C,0.5)}ATCC");
        let regions = vec![Some((0, 0)), Some((0, 1)), Some((1, 2))];
        let selected = independent_family(&regions, &probe);
        // Segment 0's region [0,0] has no uncertain position → always in.
        assert!(selected.contains(&0));
        // Of segments 1 and 2 (both spanning position 1) only one stays.
        assert_eq!(selected.len(), 2);
    }

    #[test]
    fn counterexample_no_longer_prunes() {
        // The proptest-discovered Theorem 2 violation (DESIGN.md §3.3a):
        // probe 1{0:0.05,1:0.95}{0:0.78,1:0.22} against indexed "0010",
        // k = 2, q = 3 → exact Pr = 0.795 but the paper's bound is 0.759.
        let probe = UncertainString::new(vec![
            Position::certain(1),
            Position::uncertain(1, vec![(0, 0.047619047619047616), (1, 0.9523809523809523)])
                .unwrap(),
            Position::uncertain(2, vec![(0, 0.7846153846153846), (1, 0.2153846153846154)]).unwrap(),
        ]);
        let alphas = [0.0, 0.04761904761904767, 0.7472527472527472];
        let regions = vec![Some((0, 0)), Some((0, 1)), Some((1, 2))];
        let bound = sound_at_least(&alphas, &regions, &probe, 1);
        assert!(
            bound >= 0.7948 - 1e-9,
            "sound bound {bound} must cover exact 0.7949"
        );
    }

    #[test]
    fn impossible_segments_zero_the_tail() {
        let probe = dna("ACGT");
        let regions = vec![None, Some((0, 1)), None];
        assert_eq!(sound_at_least(&[0.0, 0.9, 0.0], &regions, &probe, 2), 0.0);
        assert!(sound_at_least(&[0.0, 0.9, 0.0], &regions, &probe, 1) > 0.0);
    }

    #[test]
    fn need_zero_is_one() {
        let probe = dna("AC");
        assert_eq!(sound_at_least(&[], &[], &probe, 0), 1.0);
    }

    /// Randomised soundness check: the bound dominates the exact joint
    /// probability computed by enumerating probe worlds and treating
    /// segments as independent given the probe (which is the true
    /// dependence structure).
    #[test]
    fn dominates_conditional_enumeration() {
        use crate::tail::at_least as pb;
        // Probe with two uncertain positions; three segments whose
        // regions overlap them in various ways.
        let probe = dna("{(A,0.6),(C,0.4)}G{(A,0.3),(T,0.7)}T");
        let regions = vec![Some((0, 1)), Some((1, 2)), Some((2, 3))];
        // α_x(r) models: segment x matches iff region characters equal
        // some target; pick synthetic per-world probabilities.
        let alpha_given = |world: &[u8], x: usize| -> f64 {
            match x {
                0 => {
                    if world[0] == 0 {
                        0.9
                    } else {
                        0.1
                    }
                }
                1 => {
                    if world[2] == 0 {
                        0.8
                    } else {
                        0.2
                    }
                }
                _ => {
                    if world[2] == 3 {
                        0.7
                    } else {
                        0.05
                    }
                }
            }
        };
        for need in 1..=3usize {
            // Exact tail: expectation over probe worlds of the
            // conditional (independent) tail.
            let mut exact = 0.0;
            let mut mean_alpha = [0.0f64; 3];
            for w in probe.worlds() {
                let a: Vec<f64> = (0..3).map(|x| alpha_given(&w.instance, x)).collect();
                exact += w.prob * pb(&a, need);
                for x in 0..3 {
                    mean_alpha[x] += w.prob * a[x];
                }
            }
            let bound = sound_at_least(&mean_alpha, &regions, &probe, need);
            assert!(
                bound >= exact - 1e-9,
                "need={need}: sound bound {bound} < exact {exact}"
            );
        }
    }
}
