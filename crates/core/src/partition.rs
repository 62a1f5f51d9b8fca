//! Length-band partitioning of a collection across shard processes.
//!
//! The scale-out topology (DESIGN.md §17) splits one collection over N
//! shard servers, each indexing a contiguous *length band*. The layout
//! follows the paper's filter structure: every signature is per-(length,
//! segment), so a shard whose strings span `[min_len, max_len]` has a
//! fully self-contained [`crate::index::SegmentIndex`] — no probe ever
//! needs postings from two shards to evaluate one candidate.
//!
//! The coordinator prunes its scatter fan-out with the paper's length
//! filter: a probe `R` with threshold `k` can only match strings `s`
//! with `|len(R) − len(s)| ≤ k`, so only shards whose band intersects
//! `[len(R) − k, len(R) + k]` are contacted ([`Partition::relevant_shards`]).
//!
//! Two invariants make the scatter-gather *correct* rather than merely
//! fast, and both are proven by the unit tests below plus the N-shard
//! vs single-node differential suite in `crates/serve`:
//!
//! * **exhaustive** — every string id is assigned to exactly one shard
//!   (no silent data loss at rest);
//! * **disjoint** — no id is assigned twice (no duplicate hits to
//!   dedup, so merged shard answers can stay bit-identical to the
//!   single-node server).
//!
//! Boundary lengths may straddle two shards (the split is by sorted
//! *position*, not by length value, to keep shards balanced under
//! skewed length histograms). That is sound: both shards' bands then
//! contain the boundary length, so both are relevant to any probe that
//! could match it.

/// One shard's slice of the collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSlice {
    /// Global string ids owned by this shard, ascending.
    pub ids: Vec<u32>,
    /// Shortest string on the shard (unspecified when `ids` is empty).
    pub min_len: usize,
    /// Longest string on the shard (unspecified when `ids` is empty).
    pub max_len: usize,
}

impl ShardSlice {
    /// `(min_len, max_len)` of the shard's strings, or `None` when it
    /// holds none.
    pub fn band(&self) -> Option<(usize, usize)> {
        (!self.ids.is_empty()).then_some((self.min_len, self.max_len))
    }

    /// Does this shard hold any string a probe of length `probe_len`
    /// could match under threshold `k`? Empty shards match nothing.
    pub fn relevant(&self, probe_len: usize, k: usize) -> bool {
        band_relevant(self.band(), probe_len, k)
    }
}

/// The length filter applied to a whole shard: can a shard whose
/// strings span `band` (`None` for an empty shard) hold a match for a
/// probe of length `probe_len` under threshold `k`? Only if the band
/// meets `[probe_len − k, probe_len + k]`.
pub fn band_relevant(band: Option<(usize, usize)>, probe_len: usize, k: usize) -> bool {
    band.is_some_and(|(min, max)| {
        min <= probe_len.saturating_add(k) && max.saturating_add(k) >= probe_len
    })
}

/// A length-band partition of string ids `0..lens.len()` into `n`
/// shards. Built deterministically from the length vector alone, so the
/// coordinator and an offline `usj shard` invocation compute identical
/// layouts from the same input file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The shards, in ascending length-band order. Always exactly the
    /// `n` requested (trailing shards may be empty when `n` exceeds the
    /// collection size).
    pub shards: Vec<ShardSlice>,
}

impl Partition {
    /// Partitions ids `0..lens.len()` into `n` shards by sorting on
    /// `(length, id)` and cutting the sorted order into `n` contiguous
    /// chunks whose sizes differ by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` — a zero-shard topology cannot hold data, and
    /// every caller takes `n` from a validated config.
    pub fn by_length(lens: &[usize], n: usize) -> Partition {
        assert!(n > 0, "partition requires at least one shard");
        let mut order: Vec<u32> = (0..lens.len() as u32).collect();
        order.sort_unstable_by_key(|&id| (lens[id as usize], id));

        let base = order.len() / n;
        let extra = order.len() % n; // first `extra` shards take one more
        let mut shards = Vec::with_capacity(n);
        let mut start = 0usize;
        for s in 0..n {
            let take = base + usize::from(s < extra);
            let mut ids: Vec<u32> = order[start..start + take].to_vec();
            start += take;
            let min_len = ids.iter().map(|&id| lens[id as usize]).min().unwrap_or(0);
            let max_len = ids.iter().map(|&id| lens[id as usize]).max().unwrap_or(0);
            // Ascending global ids: shard servers answer hits in id
            // order, so the coordinator's merge stays a sorted merge.
            ids.sort_unstable();
            shards.push(ShardSlice {
                ids,
                min_len,
                max_len,
            });
        }
        Partition { shards }
    }

    /// Indices of the shards whose length band intersects
    /// `[probe_len − k, probe_len + k]` — the only shards that can hold
    /// a match for the probe, by the paper's length filter.
    pub fn relevant_shards(&self, probe_len: usize, k: usize) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.relevant(probe_len, k))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of shards (including empty ones).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the partition has no shards (never produced by
    /// [`Partition::by_length`], which requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random length vector.
    fn lens(n: usize, seed: u64) -> Vec<usize> {
        let mut rng = usj_model::rng::Rng::from_state(seed);
        (0..n).map(|_| rng.below(40)).collect()
    }

    #[test]
    fn every_id_lands_on_exactly_one_shard() {
        for n in [1, 2, 3, 7, 100, 257] {
            let lens = lens(200, 0xdecaf);
            let p = Partition::by_length(&lens, n);
            assert_eq!(p.len(), n);
            let mut seen = vec![0u32; lens.len()];
            for shard in &p.shards {
                for &id in &shard.ids {
                    seen[id as usize] += 1;
                }
            }
            // Exhaustive (no 0) and disjoint (no 2+) in one sweep.
            assert!(seen.iter().all(|&c| c == 1), "n={n}: {seen:?}");
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one_and_bands_are_ordered() {
        let lens = lens(101, 7);
        let p = Partition::by_length(&lens, 4);
        let sizes: Vec<usize> = p.shards.iter().map(|s| s.ids.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 101);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Contiguous cuts of the (len, id) order: band ranges ascend,
        // adjacent bands meeting at most at a shared boundary length.
        for w in p.shards.windows(2) {
            assert!(w[0].min_len <= w[0].max_len);
            assert!(w[0].max_len <= w[1].min_len);
        }
    }

    #[test]
    fn ids_within_a_shard_are_ascending() {
        let lens = lens(64, 99);
        let p = Partition::by_length(&lens, 3);
        for shard in &p.shards {
            assert!(shard.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn relevance_is_sound_every_length_compatible_string_is_reachable() {
        let lens = lens(150, 0xbeef);
        let p = Partition::by_length(&lens, 5);
        for probe_len in 0..45 {
            for k in 0..4 {
                let relevant = p.relevant_shards(probe_len, k);
                for (shard_idx, shard) in p.shards.iter().enumerate() {
                    for &id in &shard.ids {
                        let l = lens[id as usize];
                        let compatible = l.abs_diff(probe_len) <= k;
                        if compatible {
                            assert!(
                                relevant.contains(&shard_idx),
                                "probe_len={probe_len} k={k}: id {id} (len {l}) on \
                                 shard {shard_idx} unreachable"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn irrelevant_bands_are_pruned() {
        // Lengths 0..10 and 30..40 in two clusters; a mid-range probe
        // with small k must not touch the far cluster's shards.
        let lens: Vec<usize> = (0..10).chain(30..40).collect();
        let p = Partition::by_length(&lens, 4);
        let relevant = p.relevant_shards(5, 2);
        for (i, shard) in p.shards.iter().enumerate() {
            if relevant.contains(&i) {
                continue;
            }
            for &id in &shard.ids {
                assert!(lens[id as usize].abs_diff(5) > 2);
            }
        }
        assert!(
            relevant.len() < p.len(),
            "pruning must drop the far cluster"
        );
    }

    #[test]
    fn more_shards_than_strings_leaves_trailing_shards_empty_and_irrelevant() {
        let lens = vec![3, 3, 5];
        let p = Partition::by_length(&lens, 8);
        assert_eq!(p.len(), 8);
        let total: usize = p.shards.iter().map(|s| s.ids.len()).sum();
        assert_eq!(total, 3);
        for shard in p.shards.iter().filter(|s| s.ids.is_empty()) {
            assert!(!shard.relevant(3, 10), "empty shards are never relevant");
        }
    }

    #[test]
    fn empty_collection_partitions_into_empty_shards() {
        let p = Partition::by_length(&[], 3);
        assert_eq!(p.len(), 3);
        assert!(p.shards.iter().all(|s| s.ids.is_empty()));
        assert!(p.relevant_shards(10, 2).is_empty());
    }

    #[test]
    fn single_shard_owns_everything_and_is_always_relevant() {
        let lens = lens(40, 1);
        let p = Partition::by_length(&lens, 1);
        assert_eq!(p.shards[0].ids.len(), 40);
        assert_eq!(
            p.relevant_shards(0, 0).len(),
            usize::from(lens.contains(&0))
        );
        assert_eq!(p.relevant_shards(0, 64), vec![0]);
    }

    #[test]
    fn layout_is_deterministic() {
        let lens = lens(80, 5);
        assert_eq!(
            Partition::by_length(&lens, 3),
            Partition::by_length(&lens, 3)
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = Partition::by_length(&[1, 2], 0);
    }
}
