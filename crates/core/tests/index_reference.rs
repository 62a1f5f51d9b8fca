//! The segment index against a naive reference index.
//!
//! The reference keeps one `BTreeMap` entry per `(length, segment, key)`,
//! builds each probe set with `EquivalentSet::build`, and sums α in the
//! order the index documents: per segment, resolved keys by ascending
//! interned id (ids are handed out first-seen, in insertion order), then
//! postings by ascending string id. Every α row therefore has to agree bit
//! for bit, as do the over-cap flags and the candidate set, over q ∈
//! 2..=6, in every `AlphaMode`, and with a tiny instance cap that drives
//! both the index-side and the probe-side over-cap paths. A query
//! admitting only ids below a limit must agree with the reference built
//! from those ids alone. A low-entropy binary collection of periodic
//! strings makes the same instance recur within one set's windows, so the
//! duplicate-combining path is compared too.

use std::collections::BTreeMap;

use usj_core::obs::{CollectingRecorder, Counter};
use usj_core::{EquivCache, JoinConfig, SegmentIndex};
use usj_model::rng::{check_seeds, random_position, random_string, Rng};
use usj_model::{Position, Prob, Symbol, UncertainString};
use usj_qgram::{partition, window_range, window_region, AlphaMode, EquivalentSet, TailBounder};

type Rows = BTreeMap<u32, Vec<u64>>;

#[derive(Default)]
struct Reference {
    /// Segment instance → first-seen id.
    interned: BTreeMap<Vec<Symbol>, u32>,
    /// `(length, segment, key)` → postings, ascending by string id.
    postings: BTreeMap<(usize, usize, u32), Vec<(u32, Prob)>>,
    /// Length → ids, ascending.
    ids: BTreeMap<usize, Vec<u32>>,
    /// `(length, segment)` → the first string id that exceeded the cap
    /// on it.
    incomplete: BTreeMap<(usize, usize), u32>,
}

impl Reference {
    fn insert(&mut self, id: u32, s: &UncertainString, config: &JoinConfig) {
        let len = s.len();
        for (x, seg) in partition(len, config.q, config.k).iter().enumerate() {
            let worlds: Vec<_> = s.substring_worlds(seg.start, seg.len).collect();
            if worlds.len() > config.max_segment_instances {
                self.incomplete.entry((len, x)).or_insert(id);
                continue;
            }
            for w in worlds {
                let next = self.interned.len() as u32;
                let key = *self.interned.entry(w.instance).or_insert(next);
                self.postings
                    .entry((len, x, key))
                    .or_default()
                    .push((id, w.prob));
            }
        }
        self.ids.entry(len).or_default().push(id);
    }

    /// `(instances, of those wider than 8 symbols)` that are interned and
    /// occur at two or more window starts of one segment's within-cap
    /// set at length `len`.
    fn duplicate_groups(
        &self,
        probe: &UncertainString,
        len: usize,
        config: &JoinConfig,
    ) -> (usize, usize) {
        let (mut duplicates, mut wide) = (0, 0);
        for seg in partition(len, config.q, config.k) {
            let Some((lo, hi)) = window_range(config.policy, probe.len(), len, config.k, &seg)
            else {
                continue;
            };
            let mut starts: BTreeMap<Vec<Symbol>, usize> = BTreeMap::new();
            for start in lo..=hi {
                for w in probe.substring_worlds(start, seg.len) {
                    *starts.entry(w.instance).or_default() += 1;
                }
            }
            if starts.values().sum::<usize>() > config.max_segment_instances {
                continue;
            }
            for (w, n) in starts {
                if n > 1 && self.interned.contains_key(&w) {
                    duplicates += 1;
                    wide += usize::from(w.len() > 8);
                }
            }
        }
        (duplicates, wide)
    }

    /// The α rows and over-cap flags of the reference holding only the
    /// ids below `limit`.
    fn query(
        &self,
        probe: &UncertainString,
        len: usize,
        config: &JoinConfig,
        limit: u32,
    ) -> Option<(Rows, Vec<bool>)> {
        let ids = self.ids.get(&len)?;
        let segments = partition(len, config.q, config.k);
        let m = segments.len();
        let mut rows: BTreeMap<u32, Vec<Prob>> = BTreeMap::new();
        let mut over_cap: Vec<bool> = (0..m)
            .map(|x| self.incomplete.get(&(len, x)).is_some_and(|&id| id < limit))
            .collect();
        for (x, seg) in segments.iter().enumerate() {
            let Some(range) = window_range(config.policy, probe.len(), len, config.k, seg) else {
                continue;
            };
            let Some(set) = EquivalentSet::build(
                probe,
                range,
                seg.len,
                config.alpha_mode,
                config.max_segment_instances,
            ) else {
                over_cap[x] = true;
                continue;
            };
            let mut keyed: Vec<(u32, Prob)> = set
                .iter()
                .filter(|&(_, p_r)| p_r > 0.0)
                .filter_map(|(w, p_r)| self.interned.get(w).map(|&key| (key, p_r)))
                .collect();
            keyed.sort_by_key(|&(key, _)| key);
            for (key, p_r) in keyed {
                let postings = self.postings.get(&(len, x, key)).into_iter().flatten();
                for &(id, p_s) in postings.filter(|&&(id, _)| id < limit) {
                    rows.entry(id).or_insert_with(|| vec![0.0; m])[x] += p_r * p_s;
                }
            }
        }
        if over_cap.iter().any(|&b| b) {
            for &id in ids.iter().filter(|&&id| id < limit) {
                rows.entry(id).or_insert_with(|| vec![0.0; m]);
            }
        }
        let rows = rows
            .into_iter()
            .map(|(id, row)| {
                (
                    id,
                    row.iter().map(|a| a.clamp(0.0, 1.0).to_bits()).collect(),
                )
            })
            .collect();
        Some((rows, over_cap))
    }
}

/// Random DNA strings of lengths 6..=20, half of them one-position
/// edits of an earlier string so segment keys repeat across ids.
fn collection(rng: &mut Rng) -> Vec<UncertainString> {
    let mut strings: Vec<UncertainString> = Vec::new();
    for i in 0..30 {
        if i >= 4 && rng.chance(0.5) {
            let base = &strings[rng.below(i)];
            let mut positions = base.positions().to_vec();
            let at = rng.below(positions.len());
            positions[at] = random_position(rng, 4, 2);
            strings.push(UncertainString::new(positions));
        } else {
            strings.push(random_string(rng, 4, 6..21, 2));
        }
    }
    strings
}

/// A binary string of length `len` repeating a period of 1–3 symbols
/// (1 half the time), with about a quarter of the positions uncertain:
/// the same instance recurs at several starts of one window range.
fn periodic_string(rng: &mut Rng, len: usize) -> UncertainString {
    let period_len = if rng.chance(0.5) { 1 } else { rng.range(2..4) };
    let period: Vec<Symbol> = (0..period_len).map(|_| rng.below(2) as Symbol).collect();
    UncertainString::new(
        (0..len)
            .map(|j| {
                if rng.chance(0.25) {
                    random_position(rng, 2, 2)
                } else {
                    Position::certain(period[j % period.len()])
                }
            })
            .collect(),
    )
}

/// Periodic strings of lengths 6..=20, half of them 16..=18 long: q = 6
/// and k = 1 split length 17 into segments of 8 and 9 symbols, and a
/// length-18 probe gives the 9-symbol one two window starts, so
/// duplicates also occur past the 8-symbol packed lane.
fn periodic_length(rng: &mut Rng) -> usize {
    if rng.chance(0.5) {
        rng.range(16..19)
    } else {
        rng.range(6..21)
    }
}

/// Six probes: collection members and fresh strings, alternating.
fn probes_for(
    rng: &mut Rng,
    strings: &[UncertainString],
    fresh: impl Fn(&mut Rng) -> UncertainString,
) -> Vec<UncertainString> {
    (0..6)
        .map(|i| {
            if i % 2 == 0 {
                strings[rng.below(strings.len())].clone()
            } else {
                fresh(rng)
            }
        })
        .collect()
}

/// Builds the index and the reference over `strings` under every
/// (q, k, cap, mode) combination and hands each to `check` with the
/// probes to query.
fn for_each_config(
    strings: &[UncertainString],
    probes: &[UncertainString],
    check: &mut impl FnMut(&SegmentIndex, &Reference, &JoinConfig, &[UncertainString]),
) {
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| (strings[i].len(), i));
    for q in 2..=6 {
        for k in [1usize, 2] {
            for cap in [2usize, 1 << 14] {
                for mode in [AlphaMode::Naive, AlphaMode::Grouped, AlphaMode::Exact] {
                    let mut config = JoinConfig::new(k, 0.1).with_q(q);
                    config.max_segment_instances = cap;
                    config.alpha_mode = mode;
                    let members = order.iter().map(|&i| (i as u32, &strings[i]));
                    let index = SegmentIndex::build(members, &config);
                    let mut reference = Reference::default();
                    for &i in &order {
                        reference.insert(i as u32, &strings[i], &config);
                    }
                    check(&index, &reference, &config, probes);
                }
            }
        }
    }
}

/// [`for_each_config`] over seeded DNA collections.
fn for_each_index(
    seeds: u64,
    mut check: impl FnMut(&SegmentIndex, &Reference, &JoinConfig, &[UncertainString]),
) {
    check_seeds(seeds, |rng| {
        let strings = collection(rng);
        let probes = probes_for(rng, &strings, |rng| random_string(rng, 4, 6..21, 2));
        for_each_config(&strings, &probes, &mut check);
    });
}

/// One query's α rows (as bits) and over-cap flags.
fn query_rows(
    index: &SegmentIndex,
    probe: &UncertainString,
    len: usize,
    config: &JoinConfig,
    admit_below: Option<u32>,
    cache: &mut EquivCache,
) -> Option<(Rows, Vec<bool>)> {
    let mut rec = CollectingRecorder::new();
    index
        .query_cached_recorded(probe, len, config, admit_below, cache, &mut rec)
        .map(|(alphas, over_cap)| {
            let rows: Rows = alphas
                .iter()
                .map(|(id, row)| (id, row.iter().map(|a| a.to_bits()).collect()))
                .collect();
            (rows, over_cap.to_vec())
        })
}

#[test]
fn alpha_rows_match_a_naive_reference_index() {
    for_each_index(12, |index, reference, config, probes| {
        for probe in probes {
            // One cache per probe, shared across its lengths.
            let mut cache = EquivCache::new();
            let lo = probe.len().saturating_sub(config.k);
            for len in lo..=probe.len() + config.k {
                let got = query_rows(index, probe, len, config, None, &mut cache);
                let want = reference.query(probe, len, config, u32::MAX);
                assert_eq!(got, want, "{config:?} len={len}");
            }
        }
    });
}

/// The self-join's admission limit: a same-length probe may see only ids
/// visited before it, including in the over-cap flags and the
/// conservative fallback.
#[test]
fn admit_below_matches_the_reference_filtered_to_earlier_ids() {
    for_each_index(6, |index, reference, config, probes| {
        for probe in probes {
            let mut cache = EquivCache::new();
            let len = probe.len();
            let Some(ids) = reference.ids.get(&len) else {
                continue;
            };
            for limit in ids.iter().copied().chain([ids[ids.len() - 1] + 1]) {
                let got = query_rows(index, probe, len, config, Some(limit), &mut cache);
                let want = reference.query(probe, len, config, limit);
                assert_eq!(got, want, "{config:?} limit={limit}");
            }
        }
    });
}

/// Periodic binary probes: the sets combine duplicate instances (in
/// every mode, at widths on both sides of the 8-symbol packed lane), and
/// the α rows still agree with the reference bit for bit.
#[test]
fn periodic_binary_probes_combine_duplicates_like_the_reference() {
    let (mut duplicates, mut wide) = (0usize, 0usize);
    check_seeds(4, |rng| {
        let strings: Vec<UncertainString> = (0..24)
            .map(|_| {
                let len = periodic_length(rng);
                periodic_string(rng, len)
            })
            .collect();
        let probes = probes_for(rng, &strings, |rng| periodic_string(rng, 18));
        for_each_config(
            &strings,
            &probes,
            &mut |index, reference, config, probes| {
                for probe in probes {
                    let mut cache = EquivCache::new();
                    let lo = probe.len().saturating_sub(config.k);
                    for len in lo..=probe.len() + config.k {
                        let got = query_rows(index, probe, len, config, None, &mut cache);
                        let want = reference.query(probe, len, config, u32::MAX);
                        assert_eq!(got, want, "{config:?} len={len}");
                        let (d, w) = reference.duplicate_groups(probe, len, config);
                        duplicates += d;
                        wide += w;
                    }
                }
            },
        );
    });
    assert!(duplicates > 0, "no set combined a duplicate instance");
    assert!(wide > 0, "no duplicate instance wider than 8 symbols");
}

/// One length's q-gram candidate stage: the survivors, ascending, and the
/// `(QgramPrunedCount, QgramPrunedBound)` totals.
type Stage = (Vec<u32>, u64, u64);

/// `collect_candidates_recorded`'s answer for one `(probe, length)`.
fn stage_of_index(
    index: &SegmentIndex,
    probe: &UncertainString,
    len: usize,
    config: &JoinConfig,
    admit_below: Option<u32>,
    cache: &mut EquivCache,
) -> Stage {
    let mut rec = CollectingRecorder::new();
    let mut survivors = Vec::new();
    index.collect_candidates_recorded(
        probe,
        len,
        config,
        admit_below,
        cache,
        &mut survivors,
        &mut rec,
    );
    survivors.sort_unstable();
    (
        survivors,
        rec.counter_total(Counter::QgramPrunedCount),
        rec.counter_total(Counter::QgramPrunedBound),
    )
}

/// The Lemma 5 count condition and the Theorem 2 bound applied to the
/// reference's full rows (over-cap segments forced to α = 1, the bound
/// taken as 1 when any segment is over cap); admitted ids without a row
/// are pruned by count.
fn stage_of_reference(
    reference: &Reference,
    probe: &UncertainString,
    len: usize,
    config: &JoinConfig,
    limit: u32,
) -> Stage {
    let Some((rows, over_cap)) = reference.query(probe, len, config, limit) else {
        return (Vec::new(), 0, 0);
    };
    let admitted: Vec<u32> = reference.ids[&len]
        .iter()
        .copied()
        .filter(|&id| id < limit)
        .collect();
    let segments = partition(len, config.q, config.k);
    let required = segments.len().saturating_sub(config.k);
    if admitted.is_empty() || required == 0 {
        return (admitted, 0, 0);
    }
    let regions: Vec<_> = segments
        .iter()
        .map(|seg| {
            window_range(config.policy, probe.len(), len, config.k, seg)
                .map(|r| window_region(r, seg.len))
        })
        .collect();
    let bounder = TailBounder::new(&regions, probe);
    let capped = over_cap.contains(&true);
    let (mut survivors, mut by_count, mut by_bound) = (Vec::new(), 0, 0);
    for (&id, row) in &rows {
        let alpha: Vec<Prob> = row
            .iter()
            .zip(&over_cap)
            .map(|(&bits, &oc)| if oc { 1.0 } else { Prob::from_bits(bits) })
            .collect();
        if alpha.iter().filter(|&&a| a > 0.0).count() < required {
            by_count += 1;
        } else if capped || bounder.bound(&alpha, required) > config.tau {
            survivors.push(id);
        } else {
            by_bound += 1;
        }
    }
    by_count += (admitted.len() - rows.len()) as u64;
    (survivors, by_count, by_bound)
}

/// The candidate stage walks segments with Lemma 5 applied as it goes
/// (rows only in segments `0..=k`, stopping once no row can reach `m − k`
/// matches), yet keeps exactly the survivors and prune counts of the
/// count condition and bound over the full reference rows: in every
/// swept config, with and without admission limits, on random and on
/// periodic collections.
#[test]
fn candidate_stage_matches_the_conditions_on_full_reference_rows() {
    let mut compare = |index: &SegmentIndex,
                       reference: &Reference,
                       config: &JoinConfig,
                       probes: &[UncertainString]| {
        for probe in probes {
            let mut cache = EquivCache::new();
            let lo = probe.len().saturating_sub(config.k);
            for len in lo..=probe.len() + config.k {
                let got = stage_of_index(index, probe, len, config, None, &mut cache);
                let want = stage_of_reference(reference, probe, len, config, u32::MAX);
                assert_eq!(got, want, "{config:?} len={len}");
            }
            let len = probe.len();
            let Some(ids) = reference.ids.get(&len) else {
                continue;
            };
            for limit in ids.iter().copied().chain([ids[ids.len() - 1] + 1]) {
                let got = stage_of_index(index, probe, len, config, Some(limit), &mut cache);
                let want = stage_of_reference(reference, probe, len, config, limit);
                assert_eq!(got, want, "{config:?} limit={limit}");
            }
        }
    };
    for_each_index(6, &mut compare);
    check_seeds(2, |rng| {
        let strings: Vec<UncertainString> = (0..24)
            .map(|_| {
                let len = periodic_length(rng);
                periodic_string(rng, len)
            })
            .collect();
        let probes = probes_for(rng, &strings, |rng| periodic_string(rng, 18));
        for_each_config(&strings, &probes, &mut compare);
    });
}
