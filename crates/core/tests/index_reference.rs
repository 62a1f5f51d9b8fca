//! The segment index against a naive reference index.
//!
//! The reference keeps one `BTreeMap` entry per `(length, segment, key)`
//! and sums α in the order the index documents: per segment, resolved
//! keys by ascending interned id (ids are handed out first-seen, in
//! insertion order), then postings by ascending string id. Every α row
//! therefore has to agree bit for bit, as do the over-cap flags and the
//! candidate set, over q ∈ 2..=6 and with a tiny instance cap that
//! drives both the index-side and the probe-side over-cap paths.

use std::collections::BTreeMap;

use usj_core::obs::CollectingRecorder;
use usj_core::{EquivCache, JoinConfig, SegmentIndex};
use usj_model::rng::{check_seeds, random_position, random_string, Rng};
use usj_model::{Prob, Symbol, UncertainString};
use usj_qgram::{partition, window_range, EquivalentSet};

type Rows = BTreeMap<u32, Vec<u64>>;

#[derive(Default)]
struct Reference {
    /// Segment instance → first-seen id.
    interned: BTreeMap<Vec<Symbol>, u32>,
    /// `(length, segment, key)` → postings, ascending by string id.
    postings: BTreeMap<(usize, usize, u32), Vec<(u32, Prob)>>,
    /// Length → ids, ascending.
    ids: BTreeMap<usize, Vec<u32>>,
    /// `(length, segment)` pairs some string exceeded the cap on.
    incomplete: BTreeMap<(usize, usize), bool>,
}

impl Reference {
    fn insert(&mut self, id: u32, s: &UncertainString, config: &JoinConfig) {
        let len = s.len();
        for (x, seg) in partition(len, config.q, config.k).iter().enumerate() {
            let worlds: Vec<_> = s.substring_worlds(seg.start, seg.len).collect();
            if worlds.len() > config.max_segment_instances {
                self.incomplete.insert((len, x), true);
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

    fn query(
        &self,
        probe: &UncertainString,
        len: usize,
        config: &JoinConfig,
    ) -> Option<(Rows, Vec<bool>)> {
        let ids = self.ids.get(&len)?;
        let segments = partition(len, config.q, config.k);
        let m = segments.len();
        let mut rows: BTreeMap<u32, Vec<Prob>> = BTreeMap::new();
        let mut over_cap: Vec<bool> = (0..m)
            .map(|x| self.incomplete.contains_key(&(len, x)))
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
                for &(id, p_s) in self.postings.get(&(len, x, key)).into_iter().flatten() {
                    rows.entry(id).or_insert_with(|| vec![0.0; m])[x] += p_r * p_s;
                }
            }
        }
        if over_cap.iter().any(|&b| b) {
            for &id in ids {
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

#[test]
fn alpha_rows_match_a_naive_reference_index() {
    check_seeds(12, |rng| {
        let strings = collection(rng);
        let mut order: Vec<usize> = (0..strings.len()).collect();
        order.sort_by_key(|&i| (strings[i].len(), i));
        let probes: Vec<UncertainString> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    strings[rng.below(strings.len())].clone()
                } else {
                    random_string(rng, 4, 6..21, 2)
                }
            })
            .collect();
        for q in 2..=6 {
            for k in [1usize, 2] {
                for cap in [2usize, 1 << 14] {
                    let mut config = JoinConfig::new(k, 0.1).with_q(q);
                    config.max_segment_instances = cap;
                    let mut index = SegmentIndex::new();
                    let mut reference = Reference::default();
                    for &i in &order {
                        index.insert(i as u32, &strings[i], &config);
                        reference.insert(i as u32, &strings[i], &config);
                    }
                    for probe in &probes {
                        // One cache per probe, shared across its lengths.
                        let mut cache = EquivCache::new();
                        let mut rec = CollectingRecorder::new();
                        let lo = probe.len().saturating_sub(k);
                        for len in lo..=probe.len() + k {
                            let got = index
                                .query_cached_recorded(probe, len, &config, &mut cache, &mut rec)
                                .map(|(alphas, over_cap)| {
                                    let rows: Rows = alphas
                                        .iter()
                                        .map(|(id, row)| {
                                            (id, row.iter().map(|a| a.to_bits()).collect())
                                        })
                                        .collect();
                                    (rows, over_cap)
                                });
                            let want = reference.query(probe, len, &config);
                            assert_eq!(got, want, "q={q} k={k} cap={cap} len={len}");
                        }
                    }
                }
            }
        }
    });
}
