//! Poisson-binomial tail probabilities (paper §3.1).
//!
//! Given `m` independent events with probabilities `α_1 … α_m`, the paper's
//! DP computes the probability that *exactly* `y` of them happen:
//!
//! ```text
//! P(i, j) = α_i · P(i−1, j−1) + (1 − α_i) · P(i−1, j)
//! ```
//!
//! The upper bound of Theorem 2 is the tail `Pr(#events ≥ m−k)`. Two
//! implementations are provided: [`poisson_binomial`] fills the full
//! distribution in `O(m²)`, while [`at_least`] tracks only the top
//! `k+1` counts in `O(m(k+1))` — the `O(m(m−k))` improvement the paper
//! mentions in passing (counting successes ≥ m−k is the same as counting
//! failures ≤ k).

use usj_model::Prob;

/// Full Poisson-binomial distribution: returns `dist` with
/// `dist[y] = Pr(exactly y of the events happen)`, `len = m+1`. `O(m²)`.
pub fn poisson_binomial(alphas: &[Prob]) -> Vec<Prob> {
    let m = alphas.len();
    // Double-buffered rows so the update is one forward scan per event
    // ([`pb_row_update`]); entries past the active prefix are
    // still zero from init (each buffer is only ever written on a
    // prefix that grows by one per event), so reading prev[i+1] = 0
    // reproduces the in-place downward recurrence bit-for-bit. The
    // scratch lives in `buf` (stack-backed for the row widths the
    // filter produces), so the only heap allocation is the returned
    // distribution itself.
    let mut buf = RowScratch::new(m + 1);
    let (mut prev, mut cur) = buf.rows();
    prev[0] = 1.0;
    for (i, &a) in alphas.iter().enumerate() {
        pb_row_update(&prev[..i + 2], &mut cur[..i + 2], 1.0 - a, a);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[..m + 1].to_vec()
}

/// One Poisson-binomial DP row transition:
///
/// ```text
/// cur[0] = prev[0] · keep
/// cur[j] = prev[j] · keep + prev[j−1] · step      (j ≥ 1)
/// ```
///
/// The shared shape of all three DP loops above (full distribution:
/// `keep = 1−α, step = α`; failure-count form: `keep = α, step = 1−α`).
/// Each product is rounded before the sum (no FMA), which keeps every
/// tail bound bit-identical across targets.
#[inline]
fn pb_row_update(prev: &[f64], cur: &mut [f64], keep: f64, step: f64) {
    debug_assert_eq!(prev.len(), cur.len(), "row buffers must match");
    if cur.is_empty() || prev.is_empty() {
        return;
    }
    cur[0] = prev[0] * keep;
    for j in 1..cur.len().min(prev.len()) {
        cur[j] = prev[j] * keep + prev[j - 1] * step;
    }
}

/// Double-buffer scratch for the DP rows: a fixed stack array for the
/// row widths the filter actually produces (segment counts are small),
/// spilling to the heap above that. Zero-initialised either way — the
/// kernels rely on the untouched suffix staying zero.
// The large stack variant is the point: boxing it would bring back the
// per-call allocation this type exists to avoid.
#[allow(clippy::large_enum_variant)]
enum RowScratch {
    Stack([f64; 2 * RowScratch::STACK_WIDTH]),
    Heap(Vec<f64>),
}

impl RowScratch {
    const STACK_WIDTH: usize = 64;

    fn new(width: usize) -> RowScratch {
        if width <= RowScratch::STACK_WIDTH {
            RowScratch::Stack([0.0; 2 * RowScratch::STACK_WIDTH])
        } else {
            RowScratch::Heap(vec![0.0; 2 * width])
        }
    }

    /// The two equal-width zeroed rows.
    fn rows(&mut self) -> (&mut [f64], &mut [f64]) {
        match self {
            RowScratch::Stack(buf) => buf.split_at_mut(RowScratch::STACK_WIDTH),
            RowScratch::Heap(buf) => {
                let half = buf.len() / 2;
                buf.split_at_mut(half)
            }
        }
    }
}

/// `Pr(exactly y events happen)` via the full DP.
pub fn exactly(alphas: &[Prob], y: usize) -> Prob {
    if y > alphas.len() {
        return 0.0;
    }
    poisson_binomial(alphas)[y]
}

/// Tail probability `Pr(at least `need` events happen)` in
/// `O(m · min(need́, m−need+1))` time — the efficient form used by the
/// filter (Theorem 2's bound with `need = m−k`).
///
/// `need = 0` returns 1; `need > m` returns 0.
pub fn at_least(alphas: &[Prob], need: usize) -> Prob {
    let m = alphas.len();
    if need == 0 {
        return 1.0;
    }
    if need > m {
        return 0.0;
    }
    let fails_allowed = m - need; // tail ⟺ at most `fails_allowed` failures
    if fails_allowed < need {
        // Track failure counts 0..=fails_allowed: O(m·(m−need+1)).
        // Success keeps the count (·α), failure steps it (·(1−α)).
        let width = fails_allowed + 1;
        let mut buf = RowScratch::new(width);
        let (mut prev, mut cur) = buf.rows();
        prev[0] = 1.0;
        for &a in alphas {
            pb_row_update(&prev[..width], &mut cur[..width], a, 1.0 - a);
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[..width].iter().sum::<f64>().clamp(0.0, 1.0)
    } else {
        // Complement: Pr(≥ need) = 1 − Pr(≤ need−1 successes).
        let mut buf = RowScratch::new(need);
        let (mut prev, mut cur) = buf.rows();
        prev[0] = 1.0;
        let mut overflow = 0.0; // mass that crossed the `need` boundary
        for &a in alphas {
            overflow += prev[need - 1] * a;
            pb_row_update(&prev[..need], &mut cur[..need], 1.0 - a, a);
            std::mem::swap(&mut prev, &mut cur);
        }
        overflow.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_at_least(alphas: &[Prob], need: usize) -> Prob {
        // Enumerate all 2^m outcomes.
        let m = alphas.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << m) {
            let mut p = 1.0;
            let mut count = 0;
            for (i, &a) in alphas.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    p *= a;
                    count += 1;
                } else {
                    p *= 1.0 - a;
                }
            }
            if count >= need {
                total += p;
            }
        }
        total
    }

    #[test]
    fn paper_example_tail() {
        // S3 from Table 1: α = (1, 0, 0.2), m = 3, k = 1 → Pr(≥ 2) = 0.2.
        assert!((at_least(&[1.0, 0.0, 0.2], 2) - 0.2).abs() < 1e-12);
        // S4: α = (0.8, 0.5, 0) → Pr(≥ 2) = 0.4.
        assert!((at_least(&[0.8, 0.5, 0.0], 2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn lemma3_product_form() {
        // m = k+1: Pr(≥ 1) = 1 − Π(1−α_x) (Lemma 3 / 5).
        let alphas = [0.3, 0.5, 0.9];
        let expect = 1.0 - 0.7 * 0.5 * 0.1;
        assert!((at_least(&alphas, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn boundary_needs() {
        let alphas = [0.4, 0.6];
        assert_eq!(at_least(&alphas, 0), 1.0);
        assert_eq!(at_least(&alphas, 3), 0.0);
        assert!((at_least(&alphas, 2) - 0.24).abs() < 1e-12);
        assert_eq!(at_least(&[], 0), 1.0);
        assert_eq!(at_least(&[], 1), 0.0);
    }

    #[test]
    fn full_distribution_sums_to_one() {
        let alphas = [0.2, 0.7, 0.5, 0.9];
        let dist = poisson_binomial(&alphas);
        assert_eq!(dist.len(), 5);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((exactly(&alphas, 0) - 0.8 * 0.3 * 0.5 * 0.1).abs() < 1e-12);
        assert!((exactly(&alphas, 4) - 0.2 * 0.7 * 0.5 * 0.9).abs() < 1e-12);
        assert_eq!(exactly(&alphas, 5), 0.0);
    }

    #[test]
    fn truncated_matches_full_and_naive() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.5],
            vec![0.1, 0.9],
            vec![0.3, 0.3, 0.3],
            vec![0.25, 0.5, 0.75, 1.0],
            vec![0.0, 0.0, 0.2, 0.8, 0.6],
            vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
        ];
        for alphas in &cases {
            let dist = poisson_binomial(alphas);
            for need in 0..=alphas.len() + 1 {
                let tail_full: f64 = dist.iter().skip(need).sum();
                let tail = at_least(alphas, need);
                let naive = naive_at_least(alphas, need);
                assert!((tail - naive).abs() < 1e-9, "alphas={alphas:?} need={need}");
                assert!(
                    (tail_full - naive).abs() < 1e-9,
                    "alphas={alphas:?} need={need}"
                );
            }
        }
    }

    #[test]
    fn degenerate_probabilities() {
        // All-certain events.
        assert_eq!(at_least(&[1.0, 1.0, 1.0], 3), 1.0);
        assert_eq!(at_least(&[1.0, 1.0, 0.0], 3), 0.0);
        assert!((at_least(&[1.0, 1.0, 0.0], 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pb_row_matches_hand_computation() {
        let prev = [1.0, 0.0, 0.0];
        let mut cur = [0.0; 3];
        pb_row_update(&prev, &mut cur, 0.6, 0.4);
        assert_eq!(cur, [0.6, 0.4, 0.0]);
    }
}
