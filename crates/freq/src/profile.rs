//! Per-character occurrence-count distributions (paper §5).
//!
//! For character `c_i` of an uncertain string `S`:
//!
//! * `f^c_i` — occurrences with probability 1 (certain positions);
//! * `f^t_i` — certain plus uncertain positions (maximum possible count);
//! * `f^u_i = f^t_i − f^c_i` — number of uncertain positions mentioning
//!   `c_i`.
//!
//! The count `f_{S,i}` is `f^c_i` plus a Poisson-binomial variable over
//! the `f^u_i` uncertain positions. A [`FreqProfile`] stores, per
//! character, its pmf (the paper's `S1`) and one scaled summation:
//!
//! ```text
//! S1[x] = Pr(f = f^c + x)
//! S3[x] = Σ_{y ≥ x} (y − x + 1)·S1[y]     (scaled upper tail)
//! ```
//!
//! The paper's upper tail `S2[x] = Σ_{y ≥ x} S1[y]` is only a running sum
//! while `S3` is built (`S3[x] = S3[x+1] + S2[x]`), so it is not stored.
//! Its scaled lower tail `S4` is not needed at all: `E[(f_S − f_R)^+]`
//! always iterates the side with fewer uncertain positions, through
//! `E[X] − E[Y] + E[(Y − X)^+]` when that side is `S`, and reads only the
//! other side's `S3` (see `expectation`).
//!
//! Layout: one slot table `(f^c, f^u, offset)` with an entry per character
//! and one `f64` buffer holding, for each character with `f^u > 0` only,
//! `E[f] − f^c`, `S1[0..=f^u]` and `S3[0..=f^u]`. A character with
//! `f^u = 0` reads a shared `[1.0]` for both arrays. Building takes
//! `O(σ + |S| + Σ_i (f^u_i)²)` time (the pmf DP dominates), exactly the
//! preprocessing the paper describes, and two allocations.

use usj_model::UncertainString;

/// `S1` and `S3` of a character with no uncertain occurrence: the count
/// is `f^c` surely.
static CERTAIN_ONLY: [f64; 1] = [1.0];

/// One character's counts and where its arrays start in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Slot {
    certain: u32,
    uncertain: u32,
    /// Index of `E[f] − f^c` in the buffer; `S1` and `S3` follow it.
    /// Unused when `uncertain == 0`.
    offset: u32,
}

impl Slot {
    /// Buffer entries the character takes: the mean, then `S1` and `S3`
    /// of `u + 1` entries each.
    fn region_len(self) -> usize {
        match self.uncertain as usize {
            0 => 0,
            u => 1 + 2 * (u + 1),
        }
    }
}

/// Occurrence-count distribution of one character in one uncertain
/// string: a view into its [`FreqProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharProfile<'a> {
    certain: u32,
    /// `E[f] − certain`.
    mean_uncertain: f64,
    /// `S1[x] = Pr(f = certain + x)` for `x = 0..=u`.
    s1: &'a [f64],
    s3: &'a [f64],
}

impl CharProfile<'_> {
    /// `f^c`: minimum possible occurrence count.
    #[inline]
    pub fn certain(&self) -> u32 {
        self.certain
    }

    /// `f^t`: maximum possible occurrence count.
    #[inline]
    pub fn total(&self) -> u32 {
        self.certain + self.uncertain()
    }

    /// `f^u`: number of uncertain positions mentioning the character.
    #[inline]
    pub fn uncertain(&self) -> u32 {
        (self.s1.len() - 1) as u32
    }

    /// `Pr(f = count)`.
    pub fn pmf(&self, count: u32) -> f64 {
        if count < self.certain {
            return 0.0;
        }
        let x = (count - self.certain) as usize;
        self.s1.get(x).copied().unwrap_or(0.0)
    }

    /// The paper's `S1` array: `S1[x] = Pr(f = f^c + x)`.
    pub fn s1(&self) -> &[f64] {
        self.s1
    }

    /// The paper's `S3` array: `S3[x] = Σ_{y≥x} (y−x+1)·S1[y]`.
    pub fn s3(&self) -> &[f64] {
        self.s3
    }

    /// `E[f]`.
    pub fn mean(&self) -> f64 {
        self.certain as f64 + self.mean_uncertain
    }

    /// `E[(f − x)^+]` in `O(1)` using the precomputed arrays: the
    /// expectation of how far the count exceeds `x`.
    pub fn expected_excess_over(&self, x: i64) -> f64 {
        let c = self.certain as i64;
        if x < c {
            // f ≥ certain > x always: E[f − x] = E[f] − x.
            return self.mean() - x as f64;
        }
        let d = (x - c) as usize;
        let u = self.s1.len() - 1;
        if d >= u {
            // f ≤ certain + u ≤ x: excess impossible (d = u ⇒ only y > u
            // would count, which has no mass).
            return 0.0;
        }
        // Σ_{y ≥ d+1} (y − d)·S1[y] = S3[d+1].
        self.s3[d + 1]
    }
}

/// Frequency profiles of every alphabet character for one uncertain string.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqProfile {
    slots: Box<[Slot]>,
    data: Box<[f64]>,
    len: usize,
}

impl FreqProfile {
    /// Builds profiles for all `sigma` characters of `s`.
    ///
    /// Total cost `O(σ + |s| + Σ_i (f^u_i)²)`; with uncertainty fraction θ
    /// this is the `O(σ·θ·|S|)`-ish preprocessing of the paper (§5).
    pub fn new(s: &UncertainString, sigma: usize) -> Self {
        // Pass 1: count certain and uncertain occurrences.
        let mut slots = vec![Slot::default(); sigma].into_boxed_slice();
        for pos in s.positions() {
            for (sym, p) in pos.alternatives() {
                let i = sym as usize;
                assert!(i < sigma, "symbol {sym} out of range for sigma={sigma}");
                if is_certain(p) {
                    slots[i].certain += 1;
                } else {
                    slots[i].uncertain += 1;
                }
            }
        }
        // Lay the regions out; `offset` first serves as the staging
        // cursor, starting at the character's S3 region.
        let mut end = 0usize;
        for slot in slots.iter_mut().filter(|slot| slot.uncertain > 0) {
            slot.offset = (end + 2 + slot.uncertain as usize) as u32;
            end += slot.region_len();
        }
        // Every offset and cursor stays below `end`.
        assert!(
            u32::try_from(end).is_ok(),
            "frequency profile exceeds u32 offsets"
        );
        let mut data = vec![0.0; end].into_boxed_slice();
        // Pass 2: stage each character's probabilities in its S3 region,
        // in position order.
        for pos in s.positions() {
            for (sym, p) in pos.alternatives() {
                if !is_certain(p) {
                    let slot = &mut slots[sym as usize];
                    data[slot.offset as usize] = p;
                    slot.offset += 1;
                }
            }
        }
        for slot in slots.iter_mut().filter(|slot| slot.uncertain > 0) {
            let u = slot.uncertain as usize;
            slot.offset -= (2 * u + 2) as u32;
            let region = &mut data[slot.offset as usize..][..slot.region_len()];
            let (mean, arrays) = region.split_first_mut().expect("non-empty region");
            let (s1, s3) = arrays.split_at_mut(u + 1);
            build_arrays(mean, s1, s3);
        }
        FreqProfile {
            slots,
            data,
            len: s.len(),
        }
    }

    /// Alphabet size.
    pub fn sigma(&self) -> usize {
        self.slots.len()
    }

    /// String length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(f^c, f^t)` of character `i`, without building its view.
    #[inline]
    pub(crate) fn bounds(&self, i: usize) -> (u32, u32) {
        let slot = self.slots[i];
        (slot.certain, slot.certain + slot.uncertain)
    }

    /// Profile of character `i`.
    pub fn char_profile(&self, i: usize) -> CharProfile<'_> {
        self.view(self.slots[i])
    }

    /// Iterates all per-character profiles.
    pub fn char_profiles(&self) -> impl Iterator<Item = CharProfile<'_>> {
        self.slots.iter().map(|&slot| self.view(slot))
    }

    /// Total number of uncertain (character, position) entries — the
    /// quantity the paper's `O(σθ(|R|+|S|))` filter cost refers to.
    pub fn total_uncertain(&self) -> u32 {
        self.slots.iter().map(|slot| slot.uncertain).sum()
    }

    /// Bytes this profile owns on the heap: the slot table and the
    /// buffer, each allocated at its exact length.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots) + std::mem::size_of_val(&*self.data)
    }

    #[inline]
    fn view(&self, slot: Slot) -> CharProfile<'_> {
        if slot.uncertain == 0 {
            return CharProfile {
                certain: slot.certain,
                mean_uncertain: 0.0,
                s1: &CERTAIN_ONLY,
                s3: &CERTAIN_ONLY,
            };
        }
        let n = slot.uncertain as usize + 1;
        let region = &self.data[slot.offset as usize..][..slot.region_len()];
        CharProfile {
            certain: slot.certain,
            mean_uncertain: region[0],
            s1: &region[1..=n],
            s3: &region[1 + n..],
        }
    }
}

/// Whether an alternative's probability counts as a certain occurrence.
#[inline]
fn is_certain(p: f64) -> bool {
    p >= 1.0 - 1e-12
}

/// Fills one character's region in place. On entry `s3[..u]` holds the
/// occurrence probabilities at its `u` uncertain positions; on exit
/// `mean` is their sum, `s1` the Poisson-binomial pmf and `s3` the scaled
/// upper tail.
fn build_arrays(mean: &mut f64, s1: &mut [f64], s3: &mut [f64]) {
    let u = s1.len() - 1;
    let probs = &s3[..u];
    *mean = probs.iter().sum();
    // Poisson-binomial pmf over the uncertain positions.
    s1[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        debug_assert!((0.0..=1.0).contains(&p) && p > 0.0 && p < 1.0 + 1e-12);
        for x in (0..=i + 1).rev() {
            let stay = if x <= i { s1[x] * (1.0 - p) } else { 0.0 };
            let step = if x > 0 { s1[x - 1] * p } else { 0.0 };
            s1[x] = stay + step;
        }
    }
    // Suffix recurrences: S2[x] = S2[x+1] + S1[x] as a running sum, and
    // S3[x] = S3[x+1] + S2[x] (each +1 shift adds one more copy of the
    // tail mass). Writing backwards overwrites the staged probabilities
    // only after the DP above has read them.
    let mut s2 = 0.0;
    for x in (0..=u).rev() {
        let (next2, next3) = if x < u { (s2, s3[x + 1]) } else { (0.0, 0.0) };
        s2 = next2 + s1[x];
        s3[x] = next3 + s2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    /// `certain` sure `A`s followed by one uncertain position per entry of
    /// `probs`, each `A` with that probability and `C` otherwise: the `A`
    /// profile has `f^c = certain` and those occurrence probabilities.
    fn a_profile(certain: usize, probs: &[f64]) -> FreqProfile {
        let mut text = "A".repeat(certain);
        for p in probs {
            text.push_str(&format!("{{(A,{p}),(C,{})}}", 1.0 - p));
        }
        FreqProfile::new(&dna(&text), 4)
    }

    #[test]
    fn deterministic_counts() {
        let p = FreqProfile::new(&dna("AACGT"), 4);
        assert_eq!(p.char_profile(0).certain(), 2); // A
        assert_eq!(p.char_profile(0).total(), 2);
        assert_eq!(p.char_profile(1).certain(), 1); // C
        assert_eq!(p.char_profile(3).total(), 1); // T
        assert_eq!(p.total_uncertain(), 0);
        assert_eq!(p.char_profile(0).mean(), 2.0);
        assert_eq!(p.char_profile(0).pmf(2), 1.0);
        assert_eq!(p.char_profile(0).pmf(1), 0.0);
        // Fully certain: the slot table is the whole footprint.
        assert_eq!(p.heap_bytes(), 4 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn uncertain_counts_and_pmf() {
        // A appears surely at position 0, with prob 0.5 at position 1.
        let p = FreqProfile::new(&dna("A{(A,0.5),(C,0.5)}G"), 4);
        let a = p.char_profile(0);
        assert_eq!(a.certain(), 1);
        assert_eq!(a.total(), 2);
        assert_eq!(a.uncertain(), 1);
        assert!((a.pmf(1) - 0.5).abs() < 1e-12);
        assert!((a.pmf(2) - 0.5).abs() < 1e-12);
        assert_eq!(a.pmf(0), 0.0);
        assert!((a.mean() - 1.5).abs() < 1e-12);
        // A and C each hold a mean, S1 and S3 of two entries.
        assert_eq!(
            p.heap_bytes(),
            4 * std::mem::size_of::<Slot>() + 2 * 5 * std::mem::size_of::<f64>()
        );
    }

    #[test]
    fn pmf_matches_world_enumeration() {
        let s = dna("{(A,0.3),(C,0.7)}{(A,0.6),(G,0.4)}A{(C,0.2),(T,0.8)}");
        let p = FreqProfile::new(&s, 4);
        for sym in 0..4u8 {
            // Distribution of #occurrences of sym across worlds.
            let mut hist = std::collections::HashMap::new();
            for w in s.worlds() {
                let count = w.instance.iter().filter(|&&c| c == sym).count() as u32;
                *hist.entry(count).or_insert(0.0) += w.prob;
            }
            for count in 0..=4u32 {
                let expect = hist.get(&count).copied().unwrap_or(0.0);
                let got = p.char_profile(sym as usize).pmf(count);
                assert!(
                    (got - expect).abs() < 1e-9,
                    "sym={sym} count={count}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn scaled_arrays_match_definitions() {
        let profile = a_profile(2, &[0.3, 0.6, 0.9]);
        let a = profile.char_profile(0);
        let u = 3usize;
        assert_eq!(a.uncertain() as usize, u);
        let s1 = a.s1();
        // S1 is a distribution.
        assert!((s1.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for x in 0..=u {
            let s3: f64 = (x..=u).map(|y| (y - x + 1) as f64 * s1[y]).sum();
            assert!((a.s3()[x] - s3).abs() < 1e-12, "S3[{x}]");
        }
        // S3[0] = E[f − f^c] + 1: every unit of the count plus the mass.
        assert!((a.s3()[0] - (0.3 + 0.6 + 0.9 + 1.0)).abs() < 1e-12);
        // A character with no uncertain occurrence has the point mass.
        let g = profile.char_profile(2);
        assert_eq!((g.s1(), g.s3()), (&[1.0][..], &[1.0][..]));
    }

    #[test]
    fn expected_excess_matches_brute_force() {
        let profile = a_profile(1, &[0.25, 0.5, 0.75]);
        let a = profile.char_profile(0);
        for x in -2i64..8 {
            let brute: f64 = (0..=3u32)
                .map(|up| {
                    let count = (1 + up) as i64;
                    a.pmf(1 + up) * ((count - x).max(0)) as f64
                })
                .sum();
            let got = a.expected_excess_over(x);
            assert!((got - brute).abs() < 1e-12, "x={x}: {got} vs {brute}");
        }
    }

    #[test]
    fn mean_is_sum_of_probs() {
        let profile = a_profile(3, &[0.5, 0.5]);
        assert!((profile.char_profile(0).mean() - 4.0).abs() < 1e-12);
    }
}
