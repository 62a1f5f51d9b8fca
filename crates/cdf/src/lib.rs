//! CDF-bound filtering (paper §6.1, Theorem 4).
//!
//! A banded dynamic program over the cells `(x, y)` of the `|R| × |S|`
//! edit matrix. Each in-band cell (`|x − y| ≤ k`) carries `k+1` pairs
//! `(L[j], U[j])` bounding the cumulative distribution of the (random)
//! edit distance between the prefixes:
//!
//! ```text
//! L[j] ≤ Pr(ed(R[1..x], S[1..y]) ≤ j) ≤ U[j]
//! ```
//!
//! With `p1 = Σ_c Pr(R[x]=c)·Pr(S[y]=c)` (the probability the two current
//! characters match) and `p2 = 1 − p1`, Theorem 4's recurrences are
//!
//! ```text
//! L[j] = max(p1·L_D1[j], p2·L_(argmin Dᵢ)[j−1])
//! U[j] = min(1, p1·U_D1[j] + p2·U_D1[j−1] + U_D2[j−1] + U_D3[j−1])
//! ```
//!
//! where `D1/D2/D3` are the diagonal/upper/left neighbours and
//! `argmin Dᵢ` selects the stochastically-smallest neighbour distribution
//! (greatest `L[0]`, ties broken by `L[1]`, …). Out-of-band neighbours
//! contribute zero; `j−1 < 0` reads as zero.
//!
//! At the final cell the filter **accepts** the pair outright when
//! `L[k] > τ` (it is provably similar — no verification needed) and
//! **rejects** it when `U[k] ≤ τ`; otherwise the pair proceeds to exact
//! verification.

#![warn(missing_docs)]

use usj_model::{Prob, UncertainString};

/// Lower/upper bounds on `Pr(ed(R,S) ≤ j)` for `j = 0..=k` at the final
/// DP cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfBounds {
    /// `lower[j] ≤ Pr(ed ≤ j)`.
    pub lower: Vec<Prob>,
    /// `upper[j] ≥ Pr(ed ≤ j)`.
    pub upper: Vec<Prob>,
}

impl CdfBounds {
    /// The bound pair at the full threshold `k`.
    ///
    /// [`cdf_bounds`] always produces `k + 1 ≥ 1` entries, but the fields
    /// are public; hand-built empty bounds yield the vacuous `(0.0, 1.0)`
    /// (which can never accept or reject) instead of panicking.
    pub fn at_k(&self) -> (Prob, Prob) {
        match (self.lower.last(), self.upper.last()) {
            (Some(&l), Some(&u)) => (l, u),
            _ => (0.0, 1.0),
        }
    }
}

/// Decision of the CDF filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdfDecision {
    /// `L[k] > τ`: provably similar, emit without verification.
    Accept,
    /// `U[k] ≤ τ`: provably dissimilar, prune.
    Reject,
    /// Bounds straddle τ: exact verification required.
    Undecided,
}

/// Outcome of the CDF filter on one pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfOutcome {
    /// Bounds at the final cell.
    pub bounds: CdfBounds,
    /// The decision against τ.
    pub decision: CdfDecision,
}

/// Computes Theorem 4's CDF bounds for a pair of uncertain strings.
///
/// Cost: `O(min(|R|,|S|) · (k+1) · max(k, γ))` — the band has `O(k)` cells
/// per row, each carrying `k+1` bound pairs, and `p1` costs `O(γ)` per
/// cell.
pub fn cdf_bounds(r: &UncertainString, s: &UncertainString, k: usize) -> CdfBounds {
    let (n, m) = (r.len(), s.len());
    let width = k + 1;
    if n.abs_diff(m) > k {
        return CdfBounds {
            lower: vec![0.0; width],
            upper: vec![0.0; width],
        };
    }

    // Four flat planes of contiguous (k+1)-wide rows over y = 0..=m —
    // L and U kept separate so each cell update is one dense row scan
    // ([`cdf_row_update`]). Out-of-band cells read as zero.
    let cells = m + 1;
    let mut prev_l = vec![0.0; cells * width]; // row x−1
    let mut prev_u = vec![0.0; cells * width];
    let mut cur_l = vec![0.0; cells * width];
    let mut cur_u = vec![0.0; cells * width];

    // Row 0: cell (0, y) has L[j] = U[j] = [j ≥ y] for y ≤ k.
    for y in 0..=m.min(k) {
        for j in 0..width {
            let v = if j >= y { 1.0 } else { 0.0 };
            prev_l[y * width + j] = v;
            prev_u[y * width + j] = v;
        }
    }

    for x in 1..=n {
        let lo = x.saturating_sub(k);
        let hi = (x + k).min(m);
        // Band-local zeroing: every row in lo..=hi is overwritten below,
        // and only the fringe rows lo−1 / hi+1 can still be read as
        // out-of-band neighbours (by this x as D2, or by x+1 whose band
        // grows at most one row each way) — so zeroing just those two
        // rows replaces zeroing the whole plane.
        let fringes = [lo.checked_sub(1), (hi < m).then_some(hi + 1)];
        for f in fringes.into_iter().flatten() {
            cur_l[f * width..(f + 1) * width].fill(0.0);
            cur_u[f * width..(f + 1) * width].fill(0.0);
        }
        for y in lo..=hi {
            if y == 0 {
                // Cell (x, 0): distance is exactly x.
                for j in 0..width {
                    let v = if j >= x { 1.0 } else { 0.0 };
                    cur_l[j] = v;
                    cur_u[j] = v;
                }
                continue;
            }
            let p1 = r.position(x - 1).match_prob(s.position(y - 1));
            // Invariant (debug builds): a match probability outside
            // [0, 1] means an input pdf upstream was not normalized —
            // every bound this DP produces from it would be garbage.
            debug_assert!(
                (0.0..=1.0 + 1e-9).contains(&p1),
                "match probability {p1} at cell ({x}, {y}) lies outside [0, 1]"
            );
            let p2 = 1.0 - p1;

            // Neighbour rows: D1 = (x−1, y−1), D2 = (x, y−1),
            // D3 = (x−1, y). D2 lives in the head of the cur plane
            // (row y−1 < y), the output in its tail — split_at_mut
            // proves the disjointness.
            let l_d1 = &prev_l[(y - 1) * width..y * width];
            let l_d3 = &prev_l[y * width..(y + 1) * width];
            let (head_l, tail_l) = cur_l.split_at_mut(y * width);
            let l_d2 = &head_l[(y - 1) * width..];
            let out_l = &mut tail_l[..width];

            // `argmin Dᵢ`: stochastically smallest distance = greatest L
            // vector lexicographically.
            let mut best = 1usize; // D1 by default
            {
                let l = |idx: usize, j: usize| -> f64 {
                    match idx {
                        1 => l_d1[j],
                        2 => l_d2[j],
                        _ => l_d3[j],
                    }
                };
                for cand in [2usize, 3] {
                    for j in 0..width {
                        let a = l(cand, j);
                        let b = l(best, j);
                        if a > b + 1e-15 {
                            best = cand;
                            break;
                        }
                        if b > a + 1e-15 {
                            break;
                        }
                    }
                }
            }
            let l_best = match best {
                1 => l_d1,
                2 => &l_d2[..width],
                _ => l_d3,
            };

            let u_d1 = &prev_u[(y - 1) * width..y * width];
            let u_d3 = &prev_u[y * width..(y + 1) * width];
            let (head_u, tail_u) = cur_u.split_at_mut(y * width);
            let u_d2 = &head_u[(y - 1) * width..y * width];
            let out_u = &mut tail_u[..width];

            cdf_row_update(p1, p2, l_d1, l_best, u_d1, u_d2, u_d3, out_l, out_u);
        }
        std::mem::swap(&mut prev_l, &mut cur_l);
        std::mem::swap(&mut prev_u, &mut cur_u);
    }

    let lower = prev_l[m * width..(m + 1) * width].to_vec();
    let upper = prev_u[m * width..(m + 1) * width].to_vec();
    let bounds = CdfBounds { lower, upper };
    debug_check_bounds(&bounds, k);
    bounds
}

/// One CDF-bound DP cell (Theorem 4), all `j = 0..width` at once:
///
/// ```text
/// out_l[j] = clamp(max(p1·l_d1[j], p2·l_best[j−1]))
/// out_u[j] = clamp(min(1, p1·u_d1[j] + p2·u_d1[j−1] + u_d2[j−1] + u_d3[j−1]))
/// ```
///
/// `j−1 < 0` reads as zero; `clamp` is to `[0, 1]`. All slices share
/// `out_l.len()`. Rows are `k + 1` cells wide, too narrow for vector
/// lanes to pay for their setup.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cdf_row_update(
    p1: f64,
    p2: f64,
    l_d1: &[f64],
    l_best: &[f64],
    u_d1: &[f64],
    u_d2: &[f64],
    u_d3: &[f64],
    out_l: &mut [f64],
    out_u: &mut [f64],
) {
    debug_assert!(
        [l_d1, l_best, u_d1, u_d2, u_d3, out_u]
            .iter()
            .all(|row| row.len() == out_l.len()),
        "cdf cell slices must share one width"
    );
    for j in 0..out_l.len() {
        let (lb, u1, u2, u3) = if j > 0 {
            (l_best[j - 1], u_d1[j - 1], u_d2[j - 1], u_d3[j - 1])
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        let l = (p1 * l_d1[j]).max(p2 * lb);
        let u = (p1 * u_d1[j] + p2 * u1 + u2 + u3).min(1.0);
        out_l[j] = l.clamp(0.0, 1.0);
        out_u[j] = u.clamp(0.0, 1.0);
    }
}

/// Debug-build well-formedness check on a DP result: `k + 1` entries per
/// side, every value a probability, `L[j] ≤ U[j]`, and both sides
/// monotone non-decreasing in `j` (a CDF can only grow with the
/// threshold). Compiles to nothing in release builds.
#[cfg(debug_assertions)]
fn debug_check_bounds(b: &CdfBounds, k: usize) {
    const EPS: f64 = 1e-9;
    debug_assert_eq!(b.lower.len(), k + 1, "lower bounds must carry k+1 entries");
    debug_assert_eq!(b.upper.len(), k + 1, "upper bounds must carry k+1 entries");
    let (mut prev_l, mut prev_u) = (0.0f64, 0.0f64);
    for j in 0..=k {
        let (l, u) = (b.lower[j], b.upper[j]);
        debug_assert!(
            l.is_finite() && (-EPS..=1.0 + EPS).contains(&l),
            "L[{j}] = {l} lies outside [0, 1]"
        );
        debug_assert!(
            u.is_finite() && (-EPS..=1.0 + EPS).contains(&u),
            "U[{j}] = {u} lies outside [0, 1]"
        );
        debug_assert!(l <= u + EPS, "L[{j}] = {l} exceeds U[{j}] = {u}");
        debug_assert!(l + EPS >= prev_l, "lower CDF bound not monotone at j = {j}");
        debug_assert!(u + EPS >= prev_u, "upper CDF bound not monotone at j = {j}");
        prev_l = l;
        prev_u = u;
    }
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn debug_check_bounds(_: &CdfBounds, _: usize) {}

/// The CDF filter: computes bounds and compares them against τ.
#[derive(Debug, Clone)]
pub struct CdfFilter {
    k: usize,
    tau: Prob,
}

impl CdfFilter {
    /// Creates the filter for edit threshold `k` and probability
    /// threshold `τ`.
    pub fn new(k: usize, tau: Prob) -> Self {
        assert!((0.0..=1.0).contains(&tau), "tau must lie in [0, 1]");
        CdfFilter { k, tau }
    }

    /// Edit threshold `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Probability threshold `τ`.
    pub fn tau(&self) -> Prob {
        self.tau
    }

    /// Evaluates a pair.
    pub fn evaluate(&self, r: &UncertainString, s: &UncertainString) -> CdfOutcome {
        let bounds = cdf_bounds(r, s, self.k);
        let (l, u) = bounds.at_k();
        let decision = if u <= self.tau {
            CdfDecision::Reject
        } else if l > self.tau {
            CdfDecision::Accept
        } else {
            CdfDecision::Undecided
        };
        CdfOutcome { bounds, decision }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn exact(r: &UncertainString, s: &UncertainString, k: usize) -> f64 {
        let mut total = 0.0;
        for rw in r.worlds() {
            for sw in s.worlds() {
                if usj_editdist::within_k(&rw.instance, &sw.instance, k) {
                    total += rw.prob * sw.prob;
                }
            }
        }
        total
    }

    #[test]
    fn deterministic_equal_strings() {
        let r = dna("ACGT");
        let b = cdf_bounds(&r, &r, 2);
        // ed = 0 surely: every CDF value is 1.
        for j in 0..=2 {
            assert!((b.lower[j] - 1.0).abs() < 1e-12, "L[{j}]={}", b.lower[j]);
            assert!((b.upper[j] - 1.0).abs() < 1e-12, "U[{j}]={}", b.upper[j]);
        }
    }

    #[test]
    fn deterministic_distance_exact() {
        // ed(kitten-ish, DNA) pairs: check the bounds sandwich the 0/1
        // truth for deterministic inputs.
        let pairs = [
            ("ACGT", "AGGT", 1usize),
            ("ACGT", "TTTT", 3),
            ("AC", "ACGT", 2),
        ];
        for (rt, st, d) in pairs {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..=4usize {
                let b = cdf_bounds(&r, &s, k);
                let truth = if d <= k { 1.0 } else { 0.0 };
                let (l, u) = b.at_k();
                assert!(
                    l <= truth + 1e-9 && truth <= u + 1e-9,
                    "{rt} {st} k={k}: L={l} U={u} truth={truth}"
                );
            }
        }
    }

    #[test]
    fn bounds_sandwich_exact_probability() {
        let cases = [
            ("A{(C,0.7),(G,0.3)}GT", "ACGT"),
            ("{(A,0.5),(T,0.5)}CGT", "TC{(G,0.9),(T,0.1)}T"),
            ("AC{(G,0.2),(T,0.8)}", "ACG"),
            ("{(A,0.4),(C,0.6)}{(A,0.4),(C,0.6)}A", "CCA"),
        ];
        for (rt, st) in cases {
            let (r, s) = (dna(rt), dna(st));
            for k in 0..=2usize {
                let b = cdf_bounds(&r, &s, k);
                let e = exact(&r, &s, k);
                let (l, u) = b.at_k();
                assert!(l <= e + 1e-9, "{rt} {st} k={k}: L={l} > exact={e}");
                assert!(u >= e - 1e-9, "{rt} {st} k={k}: U={u} < exact={e}");
            }
        }
    }

    #[test]
    fn bounds_monotone_in_j() {
        let r = dna("A{(C,0.5),(G,0.5)}GTAC");
        let s = dna("AGG{(T,0.6),(A,0.4)}AC");
        let b = cdf_bounds(&r, &s, 3);
        for j in 1..b.lower.len() {
            assert!(
                b.lower[j] + 1e-12 >= b.lower[j - 1],
                "L not monotone at {j}"
            );
            assert!(
                b.upper[j] + 1e-12 >= b.upper[j - 1],
                "U not monotone at {j}"
            );
        }
    }

    #[test]
    fn length_gap_rejects() {
        let f = CdfFilter::new(1, 0.1);
        let out = f.evaluate(&dna("ACGTACGT"), &dna("AC"));
        assert_eq!(out.decision, CdfDecision::Reject);
        assert_eq!(out.bounds.at_k(), (0.0, 0.0));
    }

    #[test]
    fn empty_strings() {
        let e = UncertainString::empty();
        let b = cdf_bounds(&e, &e, 1);
        assert_eq!(b.at_k(), (1.0, 1.0));
        let b = cdf_bounds(&e, &dna("AC"), 2);
        // ed = 2 surely.
        assert_eq!(b.lower[1], 0.0);
        assert_eq!(b.upper[1], 0.0);
        assert_eq!(b.at_k(), (1.0, 1.0));
    }

    #[test]
    fn filter_decisions() {
        // Certainly-similar pair accepted without verification.
        let f = CdfFilter::new(1, 0.5);
        assert_eq!(
            f.evaluate(&dna("ACGT"), &dna("ACGT")).decision,
            CdfDecision::Accept
        );
        // Certainly-dissimilar pair rejected.
        assert_eq!(
            f.evaluate(&dna("AAAA"), &dna("TTTT")).decision,
            CdfDecision::Reject
        );
    }

    #[test]
    #[should_panic(expected = "tau must lie in [0, 1]")]
    fn invalid_tau_panics() {
        CdfFilter::new(1, -0.5);
    }

    #[test]
    fn hand_built_empty_bounds_are_vacuous() {
        // The fields are public, so degenerate bounds must not panic; the
        // vacuous pair can neither accept nor reject.
        let b = CdfBounds {
            lower: Vec::new(),
            upper: Vec::new(),
        };
        assert_eq!(b.at_k(), (0.0, 1.0));
    }

    #[test]
    fn k_zero_bounds_and_decisions() {
        // k = 0 is the smallest legal threshold: width-1 bound vectors,
        // never empty, and the filter decides exact-match probability.
        let b = cdf_bounds(&dna("ACGT"), &dna("ACGT"), 0);
        assert_eq!(b.lower.len(), 1);
        assert_eq!(b.at_k(), (1.0, 1.0));
        let f = CdfFilter::new(0, 0.5);
        assert_eq!(
            f.evaluate(&dna("ACGT"), &dna("ACGT")).decision,
            CdfDecision::Accept
        );
        assert_eq!(
            f.evaluate(&dna("ACGT"), &dna("ACGA")).decision,
            CdfDecision::Reject
        );
        // Uncertain match probability sandwiched at k = 0.
        let r = dna("AC{(G,0.5),(T,0.5)}T");
        let e = exact(&r, &dna("ACGT"), 0);
        let (l, u) = cdf_bounds(&r, &dna("ACGT"), 0).at_k();
        assert!(l <= e + 1e-9 && e <= u + 1e-9);
    }

    #[test]
    fn k_zero_empty_probe_edges() {
        let e = UncertainString::empty();
        // Two empty strings at k = 0: surely identical.
        assert_eq!(cdf_bounds(&e, &e, 0).at_k(), (1.0, 1.0));
        let f = CdfFilter::new(0, 0.3);
        assert_eq!(f.evaluate(&e, &e).decision, CdfDecision::Accept);
        // Empty vs non-empty at k = 0: length gap, surely rejected.
        assert_eq!(cdf_bounds(&e, &dna("A"), 0).at_k(), (0.0, 0.0));
        assert_eq!(f.evaluate(&e, &dna("A")).decision, CdfDecision::Reject);
        // Empty vs length-1 at k = 1: one deletion, surely similar.
        assert_eq!(cdf_bounds(&e, &dna("A"), 1).at_k(), (1.0, 1.0));
    }

    // The debug-only well-formedness check runs on every cdf_bounds call
    // in debug builds; these feed it corrupted bounds directly.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds U[0]")]
    fn debug_check_catches_crossed_bounds() {
        debug_check_bounds(
            &CdfBounds {
                lower: vec![0.5],
                upper: vec![0.4],
            },
            0,
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "upper CDF bound not monotone")]
    fn debug_check_catches_non_monotone_upper() {
        debug_check_bounds(
            &CdfBounds {
                lower: vec![0.1, 0.2],
                upper: vec![0.9, 0.5],
            },
            1,
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lies outside [0, 1]")]
    fn debug_check_catches_out_of_range_bound() {
        debug_check_bounds(
            &CdfBounds {
                lower: vec![-0.2],
                upper: vec![1.4],
            },
            0,
        );
    }

    #[test]
    fn cdf_row_j0_reads_zero_neighbours() {
        let l_d1 = [0.8, 1.0];
        let l_best = [0.5, 0.9];
        let u_d1 = [0.9, 1.0];
        let u_d2 = [0.3, 0.4];
        let u_d3 = [0.2, 0.1];
        let (mut ol, mut ou) = ([0.0; 2], [0.0; 2]);
        cdf_row_update(
            0.5, 0.5, &l_d1, &l_best, &u_d1, &u_d2, &u_d3, &mut ol, &mut ou,
        );
        assert_eq!(ol[0], 0.5 * 0.8);
        assert_eq!(ou[0], 0.5 * 0.9);
        assert_eq!(ol[1], (0.5f64 * 1.0).max(0.5 * 0.5));
        assert_eq!(ou[1], 1.0); // 0.5·1.0 + 0.5·0.9 + 0.3 + 0.2 clamps at 1
    }
}
