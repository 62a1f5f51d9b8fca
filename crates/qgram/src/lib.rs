//! q-gram filtering with probabilistic pruning for uncertain strings
//! (paper §2.1 and §3).
//!
//! The pipeline implemented here:
//!
//! 1. **Partition** the indexed string `S` into `m = max(k+1, ⌊|S|/q⌋)`
//!    disjoint segments with the even-partition scheme ([`partition()`]).
//! 2. **Select** candidate windows of the probe `R` for each segment using
//!    position-aware substring selection ([`selection`]); both the
//!    position-based range `[p−k, p+k]` (used by the paper's Table 1) and
//!    the tighter shift-based range of size `≤ k+1` (used by the paper's
//!    text, following Li et al.'s Pass-Join) are provided.
//! 3. Convert the uncertain window multiset `q(R,x)` into the **equivalent
//!    set** `q(r,x)` of distinct deterministic strings with correctly
//!    combined probabilities (paper §3.2's overlap grouping —
//!    [`equivalent`]).
//! 4. Compute the **segment match probability** `α_x = Pr(E_x)`
//!    ([`alpha`]), the probability that segment `S^x` equals one of the
//!    probe's selected windows.
//! 5. Bound `Pr(ed(R,S) ≤ k)` by the Poisson-binomial tail probability
//!    that at least `m−k` segments match ([`tail`], Theorems 1–2), after
//!    the necessary-condition count check (Lemmas 2/4/5).
//!
//! [`filter::QGramFilter`] packages steps 1–5 for a single string pair;
//! the join driver in `usj-core` runs the same mathematics through its
//! inverted indices instead.
//!
//! **Reproduction finding:** Theorem 2's bound assumes the per-segment
//! match events are independent, which fails when an *uncertain* probe
//! position is shared by two segments' windows — property testing found
//! candidates the paper-faithful filter wrongly prunes. The [`soundness`]
//! module replaces the bound with a provably sound one that degenerates
//! to the paper's exactly when the independence assumption actually
//! holds (deterministic probes, disjoint window regions).

#![warn(missing_docs)]

pub mod alpha;
pub mod equivalent;
pub mod filter;
pub mod partition;
pub mod selection;
pub mod soundness;
pub mod tail;

pub use alpha::alpha_for_segment;
pub use equivalent::{combine_occurrences, pack_instance, AlphaMode, EquivalentSet};
pub use filter::{FilterVerdict, QGramFilter, QGramOutcome};
pub use partition::{partition, Segment};
pub use selection::{window_range, SelectionPolicy};
pub use soundness::{independent_family, sound_at_least, window_region, Region, TailBounder};
pub use tail::{at_least, exactly, poisson_binomial};
