//! Equivalent-set construction for uncertain probe windows (paper §3.2).
//!
//! For a segment `S^x`, the probe contributes a set of *windows*
//! `q(R, x)` — uncertain substrings of `R` of the segment's length whose
//! start positions fall in the position-aware range. Each window
//! instantiates into deterministic strings with probabilities; summing
//! `Pr(W = S^x)` naively over windows double-counts worlds in which the
//! same instance string occurs at several overlapping starts (the paper's
//! `Pr(E1) = 1.32` example).
//!
//! The fix is the **equivalent set** `q(r, x)`: the distinct instance
//! strings `w`, each with the probability `p_r(w)` that `w` occurs in at
//! least one of the selected windows of `R`:
//!
//! 1. occurrences of `w` are sorted by start position and grouped into
//!    maximal runs of overlapping occurrences;
//! 2. within a group the paper's `β` recurrence adds each occurrence's
//!    probability and subtracts the probability that its overlap with the
//!    previous occurrence matches `R`;
//! 3. groups never overlap, so their events are independent:
//!    `p_r(w) = 1 − Π_i (1 − p(g_i))`.
//!
//! Three modes are provided (see [`AlphaMode`]): the paper's grouped
//! recurrence, the deliberately *naive* sum (kept for the ablation that
//! reproduces the paper's incorrect `1.32`), and an exact
//! possible-world computation used as a test oracle and accuracy ablation.

use usj_model::{Prob, Symbol, UncertainString};

/// How to combine multiple occurrences of the same window instance.
///
/// Soundness note (a reproduction finding, see DESIGN.md §3.3a): the
/// filter's upper bound needs `p_r(w)` values that are exact or
/// over-estimates. `Grouped` (the paper's §3.2 recurrence) can
/// *under*-estimate the union of overlapping occurrences — for two
/// occurrences it computes `p₁ + p₂ − p_overlap` where the true
/// intersection is the smaller `p₁·p₂/p_overlap` — so `Exact` is the
/// default and `Grouped` is kept for the paper-faithful ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlphaMode {
    /// Paper §3.2: overlap grouping + `β` recurrence. Can slightly
    /// under-estimate `p_r(w)` for periodic windows; kept as the
    /// paper-faithful ablation.
    Grouped,
    /// No deduplication: `p_r(w)` is the plain sum of occurrence
    /// probabilities — the union bound. Over-estimates (sound but loose);
    /// reproduces the paper's `Pr(E1) = 1.32` example.
    Naive,
    /// Exact `Pr(w occurs in some selected window)` by enumerating the
    /// possible worlds of the probe region covered by each overlap group
    /// (default). Groups whose region exceeds the instance cap fall back
    /// to the union bound, which keeps the result an over-estimate. Only
    /// windows with *overlapping duplicate occurrences* (periodic
    /// instances) pay the enumeration; everything else is a plain
    /// product.
    #[default]
    Exact,
}

/// The equivalent set `q(r, x)`: distinct deterministic window instances
/// with their occurrence probabilities `p_r(w)`.
///
/// Instances are stored in one flat symbol buffer (stride = the window
/// length) rather than one `Vec` per instance.
/// The filter and the tests build sets this way; the join's index path
/// never builds one: it looks each window world up in the index and
/// combines only the instances that hit a posting run, through the same
/// [`combine_occurrences`].
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalentSet {
    /// Instance symbols: instance `i` is `flat[i*wl..(i+1)*wl]`, in
    /// ascending instance order.
    flat: Vec<Symbol>,
    /// `p_r(w)` per instance, parallel to the instances in `flat`.
    probs: Vec<Prob>,
    window_len: usize,
}

/// Packs a short instance (≤ 8 symbols) big-endian into a `u64`, so that
/// integer order equals lexicographic symbol order for equal lengths.
/// Keys of *different* lengths may collide; lookups must pair the key
/// with the instance length.
#[inline]
pub fn pack_instance(w: &[Symbol]) -> u64 {
    debug_assert!(w.len() <= 8);
    let mut key = 0u64;
    for &s in w {
        key = key << 8 | s as u64;
    }
    key
}

impl EquivalentSet {
    /// Builds the equivalent set for windows of length `window_len`
    /// starting at positions `starts` (inclusive range) of probe `probe`.
    ///
    /// `max_instances` caps the total number of `(instance, occurrence)`
    /// pairs enumerated; `None` is returned when the cap would be
    /// exceeded, signalling the caller to fall back to a trivial bound.
    pub fn build(
        probe: &UncertainString,
        starts: (usize, usize),
        window_len: usize,
        mode: AlphaMode,
        max_instances: usize,
    ) -> Option<EquivalentSet> {
        let (lo, hi) = starts;
        let wl = window_len;
        debug_assert!(hi + wl <= probe.len());
        // Worlds are grouped by one sort instead of a hash map: the
        // windows are tiny (a handful of short instances per start),
        // where sorting beats allocating and hashing every instance —
        // and the entries come out in the deterministic instance order
        // the caller needs anyway. (Profiled on the bench funnel; this
        // path dominates candidate generation.) Instances short enough
        // to pack into a `u64` sort as plain integers; longer ones land
        // in a flat stride-`wl` buffer.
        if wl <= 8 {
            return build_packed(probe, lo, hi, wl, mode, max_instances);
        }
        let mut flat: Vec<Symbol> = Vec::new();
        let mut meta: Vec<(usize, Prob)> = Vec::new(); // (start, prob) per world
        let mut budget = max_instances;
        for start in lo..=hi {
            let complete = probe.visit_substring_worlds(start, wl, |inst, p| {
                if budget == 0 {
                    return false;
                }
                budget -= 1;
                flat.extend_from_slice(inst);
                meta.push((start, p));
                true
            });
            if !complete {
                return None;
            }
        }
        // Instance-major, start-ascending: each instance's occurrences
        // form one contiguous run sorted by start, as the grouped/exact
        // recurrences require.
        let window = |o: u32| &flat[o as usize * wl..(o as usize + 1) * wl];
        let mut order: Vec<u32> = (0..meta.len() as u32).collect();
        order.sort_unstable_by(|&x, &y| {
            window(x)
                .cmp(window(y))
                .then(meta[x as usize].0.cmp(&meta[y as usize].0))
        });
        let mut set = EquivalentSet {
            flat: Vec::with_capacity(meta.len() * wl),
            probs: Vec::with_capacity(meta.len()),
            window_len: wl,
        };
        let mut occs: Vec<(usize, Prob)> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let w = window(order[i]);
            let mut j = i + 1;
            while j < order.len() && window(order[j]) == w {
                j += 1;
            }
            occs.clear();
            occs.extend(order[i..j].iter().map(|&o| meta[o as usize]));
            let p = combine_occurrences(w, &occs, probe, mode);
            set.flat.extend_from_slice(w);
            set.probs.push(p);
            i = j;
        }
        Some(set)
    }

    /// Iterates the `(instance, p_r(w))` entries in ascending instance
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Symbol], Prob)> + '_ {
        let wl = self.window_len;
        self.probs
            .iter()
            .enumerate()
            .map(move |(i, &p)| (&self.flat[i * wl..i * wl + wl], p))
    }

    /// Number of distinct instances.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when no window instance exists (only possible for an empty
    /// start range, which [`EquivalentSet::build`] never produces).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Looks up `p_r(w)` for a specific instance.
    pub fn probability_of(&self, w: &[Symbol]) -> Prob {
        let wl = self.window_len;
        let (mut lo, mut hi) = (0usize, self.probs.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.flat[mid * wl..mid * wl + wl].cmp(w) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return self.probs[mid],
            }
        }
        0.0
    }
}

/// [`EquivalentSet::build`] for windows of at most 8 symbols (every
/// q-gram partition the join runs produces segments this short): each
/// instance packs big-endian into a `u64`, so the occurrence sort
/// compares integers and the enumeration allocates nothing per world.
fn build_packed(
    probe: &UncertainString,
    lo: usize,
    hi: usize,
    wl: usize,
    mode: AlphaMode,
    max_instances: usize,
) -> Option<EquivalentSet> {
    debug_assert!(wl <= 8);
    // (packed instance, start, occurrence probability); big-endian
    // packing makes integer order equal lexicographic symbol order.
    // Pre-size from the per-start world counts — the buffer is filled in
    // a tight enumeration loop where growth reallocations show up.
    let mut cap = 0usize;
    for start in lo..=hi {
        let mut n = 1usize;
        for p in &probe.positions()[start..start + wl] {
            n = n.saturating_mul(p.num_alternatives());
        }
        cap = cap.saturating_add(n);
    }
    let mut occ: Vec<(u64, u32, Prob)> = Vec::with_capacity(cap.min(max_instances));
    let mut budget = max_instances;
    for start in lo..=hi {
        let complete = probe.visit_substring_worlds(start, wl, |inst, p| {
            if budget == 0 {
                return false;
            }
            budget -= 1;
            occ.push((pack_instance(inst), start as u32, p));
            true
        });
        if !complete {
            return None;
        }
    }
    // Instance-major, start-ascending (see `build`).
    occ.sort_unstable_by_key(|&(key, start, _)| (key, start));
    let mut set = EquivalentSet {
        flat: Vec::with_capacity(occ.len() * wl),
        probs: Vec::with_capacity(occ.len()),
        window_len: wl,
    };
    let mut occs: Vec<(usize, Prob)> = Vec::new();
    let mut wbuf = [0u8; 8];
    let mut i = 0;
    while i < occ.len() {
        let key = occ[i].0;
        let mut j = i + 1;
        while j < occ.len() && occ[j].0 == key {
            j += 1;
        }
        for (t, b) in wbuf[..wl].iter_mut().enumerate() {
            *b = (key >> (8 * (wl - 1 - t))) as u8;
        }
        let w = &wbuf[..wl];
        occs.clear();
        occs.extend(occ[i..j].iter().map(|&(_, s, p)| (s as usize, p)));
        let p = combine_occurrences(w, &occs, probe, mode);
        set.flat.extend_from_slice(w);
        set.probs.push(p);
        i = j;
    }
    Some(set)
}

/// `p_r(w)`: the probability that instance `w` occurs at one of its
/// occurrences `occs` — `(start, Pr(window at start = w))`, ascending by
/// start, at least one — in `probe`, combined per `mode`.
///
/// A single occurrence is its own probability in every mode (the common
/// case, returned as is). Every equivalent-set construction combines
/// duplicates here, so all of them agree bit for bit.
pub fn combine_occurrences(
    w: &[Symbol],
    occs: &[(usize, Prob)],
    probe: &UncertainString,
    mode: AlphaMode,
) -> Prob {
    debug_assert!(!occs.is_empty());
    debug_assert!(occs.windows(2).all(|o| o[0].0 < o[1].0));
    if let [(_, p)] = occs {
        return *p;
    }
    match mode {
        AlphaMode::Naive => occs.iter().map(|&(_, p)| p).sum(),
        AlphaMode::Grouped => grouped_probability(w, occs, probe),
        AlphaMode::Exact => exact_probability(w, occs, probe),
    }
}

/// Paper §3.2 Step 1 + Step 2: group overlapping occurrences and combine.
fn grouped_probability(w: &[Symbol], occs: &[(usize, Prob)], probe: &UncertainString) -> Prob {
    let len = w.len();
    let mut complement = 1.0; // Π (1 − p(g_i))
    let mut i = 0;
    while i < occs.len() {
        // β recurrence over the maximal run of pairwise-adjacent
        // overlapping occurrences starting at i.
        let mut beta = occs[i].1;
        let mut prev_start = occs[i].0;
        let mut j = i + 1;
        while j < occs.len() && occs[j].0 < prev_start + len {
            let (start_j, p_j) = occs[j];
            // Overlap of occurrence j with its predecessor: [y, z].
            let y = start_j;
            let z = prev_start + len - 1;
            let overlap_len = z - y + 1;
            let overlap_prob = probe.substring_match_prob(y, &w[..overlap_len]);
            beta += p_j - overlap_prob;
            prev_start = start_j;
            j += 1;
        }
        complement *= 1.0 - beta.clamp(0.0, 1.0);
        i = j;
    }
    (1.0 - complement).clamp(0.0, 1.0)
}

/// Exact occurrence probability: for each overlap group, enumerate the
/// possible worlds of the probe region the group covers and add the mass
/// of worlds containing `w` at one of the group's starts. Groups cover
/// disjoint regions, hence are independent. A group whose region has more
/// than `EXACT_GROUP_WORLD_CAP` worlds falls back to the union bound
/// (an over-estimate, preserving filter soundness).
fn exact_probability(w: &[Symbol], occs: &[(usize, Prob)], probe: &UncertainString) -> Prob {
    const EXACT_GROUP_WORLD_CAP: u64 = 4096;
    let len = w.len();
    let mut complement = 1.0;
    let mut i = 0;
    while i < occs.len() {
        let group_start = occs[i].0;
        let mut group_end = occs[i].0 + len; // exclusive
        let mut j = i + 1;
        while j < occs.len() && occs[j].0 < group_end {
            group_end = occs[j].0 + len;
            j += 1;
        }
        let hit = if j == i + 1 {
            // Single occurrence: its own probability.
            occs[i].1
        } else {
            let region = &probe.positions()[group_start..group_end];
            let worlds = region
                .iter()
                .try_fold(1u64, |n, p| {
                    let n = n.checked_mul(p.num_alternatives() as u64)?;
                    (n <= EXACT_GROUP_WORLD_CAP).then_some(n)
                })
                .is_some();
            if worlds {
                let group = &occs[i..j];
                let mut mass = 0.0;
                usj_model::worlds::visit_worlds(region, |inst, p| {
                    let occurs = group
                        .iter()
                        .any(|&(s, _)| &inst[s - group_start..s - group_start + len] == w);
                    if occurs {
                        mass += p;
                    }
                    true
                });
                mass
            } else {
                // Union bound over the group's occurrences.
                occs[i..j].iter().map(|&(_, p)| p).sum::<f64>().min(1.0)
            }
        };
        complement *= 1.0 - hit;
        i = j;
    }
    (1.0 - complement).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn enc(text: &str) -> Vec<Symbol> {
        Alphabet::dna().encode(text).unwrap()
    }

    /// The paper's §3.2 worked example: R = A{(A,0.8),(C,0.2)}AATT,
    /// windows of length 3 at starts {0, 1}.
    #[test]
    fn paper_example_grouped() {
        let r = dna("A{(A,0.8),(C,0.2)}AATT");
        let set = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Grouped, 1000).unwrap();
        // q(r,1) = {(AAA, 0.8), (ACA, 0.2), (CAA, 0.2)}
        assert_eq!(set.len(), 3);
        assert!((set.probability_of(&enc("AAA")) - 0.8).abs() < 1e-9);
        assert!((set.probability_of(&enc("ACA")) - 0.2).abs() < 1e-9);
        assert!((set.probability_of(&enc("CAA")) - 0.2).abs() < 1e-9);
        assert_eq!(set.probability_of(&enc("TTT")), 0.0);
    }

    /// The naive mode reproduces the paper's double-counting example:
    /// AAA appears at both starts with probability 0.8 each.
    #[test]
    fn paper_example_naive_double_counts() {
        let r = dna("A{(A,0.8),(C,0.2)}AATT");
        let set = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Naive, 1000).unwrap();
        assert!((set.probability_of(&enc("AAA")) - 1.6).abs() < 1e-9);
    }

    /// Exact mode agrees with grouped mode on the paper example.
    #[test]
    fn paper_example_exact_agrees() {
        let r = dna("A{(A,0.8),(C,0.2)}AATT");
        let grouped = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Grouped, 1000).unwrap();
        let exact = EquivalentSet::build(&r, (0, 1), 3, AlphaMode::Exact, 1000).unwrap();
        for (w, p) in grouped.iter() {
            assert!((p - exact.probability_of(w)).abs() < 1e-9, "w={w:?}");
        }
    }

    /// Deterministic probes: every instance has probability exactly 1 and
    /// duplicates collapse (a periodic probe has the same window string at
    /// several starts).
    #[test]
    fn deterministic_periodic_probe() {
        let r = dna("AAAAA");
        for mode in [AlphaMode::Grouped, AlphaMode::Exact] {
            let set = EquivalentSet::build(&r, (0, 2), 3, mode, 1000).unwrap();
            assert_eq!(set.len(), 1);
            assert!(
                (set.probability_of(&enc("AAA")) - 1.0).abs() < 1e-9,
                "{mode:?}"
            );
        }
        // Naive mode triple counts.
        let set = EquivalentSet::build(&r, (0, 2), 3, AlphaMode::Naive, 1000).unwrap();
        assert!((set.probability_of(&enc("AAA")) - 3.0).abs() < 1e-9);
    }

    /// Non-overlapping duplicate occurrences combine with the
    /// inclusion-exclusion product across groups.
    #[test]
    fn independent_groups_union() {
        // w = "AC" occurs at starts 0 and 3 (no overlap), each with
        // probability 0.5.
        let r = dna("A{(C,0.5),(G,0.5)}TA{(C,0.5),(G,0.5)}T");
        for mode in [AlphaMode::Grouped, AlphaMode::Exact] {
            let set = EquivalentSet::build(&r, (0, 3), 2, mode, 1000).unwrap();
            // Pr(AC at 0 or 3) = 1 − 0.5·0.5 = 0.75.
            assert!(
                (set.probability_of(&enc("AC")) - 0.75).abs() < 1e-9,
                "{mode:?}"
            );
        }
    }

    /// Instance cap: exceeding it returns None.
    #[test]
    fn cap_exceeded_returns_none() {
        let r = dna("{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}{(A,0.5),(C,0.5)}");
        assert!(EquivalentSet::build(&r, (0, 0), 3, AlphaMode::Grouped, 7).is_none());
        assert!(EquivalentSet::build(&r, (0, 0), 3, AlphaMode::Grouped, 8).is_some());
    }

    /// Grouped probabilities are always within [0, 1] even for highly
    /// periodic uncertain probes, and match the exact oracle within the
    /// documented approximation slack on random-ish inputs.
    #[test]
    fn grouped_close_to_exact_on_periodic_probe() {
        let r = dna("{(A,0.9),(C,0.1)}A{(A,0.9),(C,0.1)}A{(A,0.9),(C,0.1)}A");
        let grouped = EquivalentSet::build(&r, (0, 3), 3, AlphaMode::Grouped, 10_000).unwrap();
        let exact = EquivalentSet::build(&r, (0, 3), 3, AlphaMode::Exact, 10_000).unwrap();
        for (w, p) in grouped.iter() {
            let e = exact.probability_of(w);
            assert!((-1e-12..=1.0 + 1e-12).contains(&p));
            // The β recurrence subtracts the full overlap-match probability,
            // which can under-approximate the union; it must never
            // over-approximate it by more than floating error.
            assert!(p <= e + 1e-9, "w={w:?} grouped={p} exact={e}");
        }
    }
}
