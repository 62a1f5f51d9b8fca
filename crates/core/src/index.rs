//! Segment inverted indices `L^x_l` (paper §4).
//!
//! For every string length `l` present in the (visited part of the)
//! collection and every segment index `x` of the length-`l` partition, an
//! inverted index maps each deterministic segment instance `w` to the
//! posting list `L^x_l(w) = [(i, Pr(w = S_i^x)), …]` sorted by string id.
//! A string id appears at most once per list and in as many lists of
//! `L^x_l` as its segment has instances.
//!
//! A band (one length) is built once, by one call, and then sealed. Its
//! postings are staged per segment as `(interned id, string id, prob)`,
//! sorted once by `(interned id, string id)`, and written out as
//! contiguous runs: each `(length, segment)` table holds exact-sized
//! parallel `ids` / `probs` arrays plus one map from interned segment id
//! to its run's `[start, end)`. Finding a list is one hash probe and
//! walking it reads consecutive memory.
//!
//! A probe `R` queries one `LengthIndex` segment by segment, in order,
//! through its [`EquivCache`] window table. For segment `x` it looks each
//! resolved world of the segment's window range up directly in that
//! segment's run map, sorts only the hits by `(id, start)`, combines the
//! rare instance that occurs at several starts into `p_r(w)` by
//! [`combine_occurrences`], and walks each hit's run, accumulating
//! `α_x(i) = Σ_w p_r(w) · Pr(w = S_i^x)` per candidate id into dense α
//! rows owned by the same cache. The equivalent set `q(r, x)` is never
//! materialised: its instances that no indexed string holds in segment `x`
//! contribute nothing, so only the hits are combined. All candidate
//! generation work is proportional to the windows enumerated and the
//! postings touched, never to the collection size.
//!
//! The candidate stage applies Lemma 5 (at least `m − k` of the `m`
//! segments match) during the walk when no segment is over the instance
//! cap: a string first touched past segment `k` can match at most
//! `m − k − 1` segments, so rows are created only in segments `0..=k`, and
//! the walk stops once no row can still reach `m − k` matched segments.

use std::collections::{BTreeMap, HashMap};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use usj_model::hash::FastBuildHasher;
use usj_model::{Position, Prob, Symbol, UncertainString};
use usj_obs::{Counter, NoopRecorder, Recorder};
use usj_qgram::{
    combine_occurrences, pack_instance, partition, window_range, window_region, Region, Segment,
    TailBounder,
};

use crate::config::JoinConfig;

/// Per-probe window table: the probe's q-gram windows, each enumerated and
/// resolved once.
///
/// A probe queries every indexed length in its length window, and the
/// position-aware window ranges of neighbouring segments and lengths
/// overlap, so one `(start, width)` window serves many segment walks. Each
/// window a walk needs is keyed by `(interner salt, start, width)`: its
/// worlds are enumerated once, each resolved once through the interner,
/// and worlds the interner has never seen are dropped (they can match no
/// posting). The survivors land in one arena. The salt keeps resolutions
/// against different indices (each with its own interner) apart.
///
/// The cache also owns every buffer one `(probe, length)` query fills —
/// over-cap flags, window ranges, hits, tail regions and family, the α
/// rows — so a warm cache serves the next probe without allocating.
#[derive(Debug, Default)]
pub struct EquivCache {
    windows: WindowTable,
    scratch: LengthScratch,
    /// The last query's α rows.
    alphas: AlphaVectors,
}

impl EquivCache {
    /// An empty cache; scope its contents to one probe ([`EquivCache::clear`]
    /// between probes).
    pub fn new() -> Self {
        EquivCache::default()
    }

    /// Forgets every window so the cache can serve the next probe, keeping
    /// its allocations (the α rows included).
    pub fn clear(&mut self) {
        self.windows.clear();
    }
}

/// One resolved world of a probe window: the interned id of its instance,
/// the window start, the offset of its symbols in
/// [`WindowTable::symbols`], and its probability.
#[derive(Debug, Clone, Copy)]
struct WindowWorld {
    id: u32,
    start: u32,
    sym: u32,
    prob: Prob,
}

/// A half-open run `[first, end)` of one arena or array.
type Run = (u32, u32);

/// The arenas behind [`EquivCache`].
#[derive(Debug, Default)]
struct WindowTable {
    /// `(interner salt, start, width)` → the window's run of `worlds`.
    windows: HashMap<(u64, u32, u32), Run, FastBuildHasher>,
    /// Resolved worlds of every enumerated window, window by window.
    worlds: Vec<WindowWorld>,
    /// Instance symbols of `worlds`.
    symbols: Vec<Symbol>,
    /// Worlds enumerated since the last [`WindowTable::take_tally`].
    enumerated: u64,
    /// Of those, the worlds that resolved to an interned id.
    resolved: u64,
}

impl WindowTable {
    fn clear(&mut self) {
        self.windows.clear();
        self.worlds.clear();
        self.symbols.clear();
    }

    /// `(worlds enumerated, instances resolved)` since the last call.
    fn take_tally(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.enumerated),
            std::mem::take(&mut self.resolved),
        )
    }

    /// The run of resolved worlds of window `(start, width)`, enumerating
    /// it on first use.
    fn window(
        &mut self,
        salt: u64,
        probe: &UncertainString,
        start: usize,
        width: usize,
        interner: &SegmentInterner,
    ) -> Run {
        let WindowTable {
            windows,
            worlds,
            symbols,
            enumerated,
            resolved,
        } = self;
        *windows
            .entry((salt, start as u32, width as u32))
            .or_insert_with(|| {
                let first = worlds.len() as u32;
                probe.visit_substring_worlds(start, width, |inst, prob| {
                    *enumerated += 1;
                    let id = if width <= 8 {
                        interner.resolve_packed(pack_instance(inst), width)
                    } else {
                        interner.resolve(inst)
                    };
                    if let Some(id) = id {
                        *resolved += 1;
                        worlds.push(WindowWorld {
                            id,
                            start: start as u32,
                            sym: symbols.len() as u32,
                            prob,
                        });
                        symbols.extend_from_slice(inst);
                    }
                    true
                });
                (first, worlds.len() as u32)
            })
    }
}

/// A probe window world whose instance has a posting run in the segment
/// being walked: the world and that run.
#[derive(Debug, Clone, Copy)]
struct Hit {
    world: WindowWorld,
    run: Run,
}

/// Buffers one `(probe, length)` query fills.
#[derive(Debug, Default)]
struct LengthScratch {
    /// Per segment: must count as conservatively matching.
    over_cap: Vec<bool>,
    /// Per segment: the probe's window starts, `None` when no window
    /// aligns or the windows are over the instance cap.
    ranges: Vec<Option<(usize, usize)>>,
    /// Per segment: the window region, for the tail bound.
    regions: Vec<Option<Region>>,
    /// One segment's hits, sorted by `(id, start)`.
    hits: Vec<Hit>,
    /// One instance's `(start, prob)` occurrences.
    occs: Vec<(usize, Prob)>,
    bounder: TailBounder,
    /// One candidate's α row with over-cap segments forced to 1.
    alpha: Vec<Prob>,
}

/// How a query walks its segments.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// Every segment, a row for every id touched.
    Full,
    /// Lemma 5 applied during the walk: rows only in segments `0..=k`,
    /// stopping once no row can reach `m − k` matched segments.
    Lemma5,
}

/// `true` when the windows of `width` at starts `lo..=hi` hold at most
/// [`JoinConfig::max_segment_instances`] worlds together: the cap rule
/// `EquivalentSet::build` applies, decided before any window is
/// enumerated.
fn within_cap(
    probe: &UncertainString,
    (lo, hi): (usize, usize),
    width: usize,
    config: &JoinConfig,
) -> bool {
    let mut total = 0usize;
    for start in lo..=hi {
        let worlds = world_count(&probe.positions()[start..start + width]);
        match worlds.and_then(|n| total.checked_add(n)) {
            Some(sum) if sum <= config.max_segment_instances => total = sum,
            _ => return false,
        }
    }
    true
}

/// Number of worlds of `positions`, `None` past `usize`.
fn world_count(positions: &[Position]) -> Option<usize> {
    positions
        .iter()
        .try_fold(1usize, |n, p| n.checked_mul(p.num_alternatives()))
}

/// Heap bytes of a `std` hash table holding `T` entries with room for
/// `capacity` of them: the bucket array, padded to the control-byte
/// group, one control byte per bucket and one trailing group. Buckets
/// are a power of two, and a table of 8 or more buckets fills 7/8 of
/// them before it grows.
fn table_bytes<T>(capacity: usize) -> usize {
    const GROUP: usize = 16;
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        (capacity / 7 * 8).next_power_of_two()
    };
    (buckets * size_of::<T>()).next_multiple_of(GROUP) + buckets + GROUP
}

/// Longest instance [`SegmentInterner`] keeps as a packed integer.
pub(crate) const PACKED_MAX: usize = 8;

/// One interned instance: a [`pack_instance`] key with its length
/// (`len ≤ 8` symbols), or the symbols of a longer one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instance<'a> {
    /// `(len, key)` of an instance of at most [`PACKED_MAX`] symbols.
    Packed(usize, u64),
    /// An instance of more than [`PACKED_MAX`] symbols.
    Long(&'a [Symbol]),
}

/// Global intern table for instantiated q-gram segments: segment symbols
/// → dense `u32` ids, assigned first-seen at index-build time and shared
/// by every [`LengthIndex`] of one [`SegmentIndex`]. Posting tables are
/// then keyed by `u32` ids instead of byte strings, and a probe resolves
/// each world of each of its windows to its id once per index.
///
/// Every instance has exactly one entry. One of up to 8 symbols is a
/// [`pack_instance`] integer in the table for its length, so interning a
/// new one allocates only when that table grows; a longer instance is a
/// boxed slice in one further table.
///
/// The table survives [`SegmentIndex::evict_below`] — ids must stay
/// stable for the lifetime of the index, so an evicted band's instances
/// stay counted in the byte estimate.
#[derive(Debug, Clone, Default)]
pub struct SegmentInterner {
    /// `packed[len]`: [`pack_instance`] key → id, for instances of
    /// `len ≤ 8` symbols (the length disambiguates keys that collide
    /// across lengths).
    packed: [HashMap<u64, u32, FastBuildHasher>; PACKED_MAX + 1],
    /// Instances longer than 8 symbols → id.
    long: HashMap<Box<[Symbol]>, u32, FastBuildHasher>,
    /// Symbols held by `long`'s keys.
    long_symbols: usize,
    /// Number of interned instances, which is the next id.
    len: usize,
}

impl SegmentInterner {
    /// An empty interner whose tables hold `packed[len]` packed instances
    /// of each length and `long` longer ones without growing. Exact
    /// capacities give the tables the size that interning as many
    /// instances one by one grows them to.
    pub(crate) fn with_capacity(packed: [usize; PACKED_MAX + 1], long: usize) -> Self {
        SegmentInterner {
            packed: packed
                .map(|n| HashMap::with_capacity_and_hasher(n, FastBuildHasher::default())),
            long: HashMap::with_capacity_and_hasher(long, FastBuildHasher::default()),
            long_symbols: 0,
            len: 0,
        }
    }

    /// The id of `w`, interning it on first sight.
    fn intern(&mut self, w: &[Symbol]) -> u32 {
        if w.len() <= PACKED_MAX {
            self.insert(Instance::Packed(w.len(), pack_instance(w)))
        } else {
            self.insert(Instance::Long(w))
        }
    }

    /// The id of `inst`, interning it on first sight.
    pub(crate) fn insert(&mut self, inst: Instance<'_>) -> u32 {
        debug_assert!(self.len < u32::MAX as usize, "interner id overflow");
        let next = self.len as u32;
        let id = match inst {
            Instance::Packed(len, key) => *self.packed[len].entry(key).or_insert(next),
            Instance::Long(w) => match self.long.get(w) {
                Some(&id) => id,
                None => {
                    self.long.insert(w.into(), next);
                    self.long_symbols += w.len();
                    next
                }
            },
        };
        if id == next {
            self.len += 1;
        }
        id
    }

    /// The id of `w`, if any string's segment instance produced it.
    pub fn resolve(&self, w: &[Symbol]) -> Option<u32> {
        if w.len() <= PACKED_MAX {
            self.resolve_packed(pack_instance(w), w.len())
        } else {
            self.long.get(w).copied()
        }
    }

    /// [`SegmentInterner::resolve`] by [`pack_instance`] key for short
    /// instances (`len ≤ 8`).
    fn resolve_packed(&self, key: u64, len: usize) -> Option<u32> {
        self.packed[len].get(&key).copied()
    }

    /// Number of distinct interned segment instances.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries in dense id order (`entries()[i]` is the instance of id
    /// `i`): ids are assigned first-seen, so inserting the sequence into
    /// an empty interner reproduces the table exactly.
    pub(crate) fn entries(&self) -> Vec<Instance<'_>> {
        let mut entries = vec![Instance::Packed(0, 0); self.len];
        for (len, table) in self.packed.iter().enumerate() {
            for (&key, &id) in table {
                entries[id as usize] = Instance::Packed(len, key);
            }
        }
        for (w, &id) in &self.long {
            entries[id as usize] = Instance::Long(w);
        }
        entries
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes: every table's allocation plus the long keys.
    fn estimated_bytes(&self) -> usize {
        let packed: usize = self
            .packed
            .iter()
            .map(|t| table_bytes::<(u64, u32)>(t.capacity()))
            .sum();
        packed + table_bytes::<(Box<[Symbol]>, u32)>(self.long.capacity()) + self.long_symbols
    }
}

/// Per-candidate segment match probabilities, one `α_x` per segment.
///
/// Rows live in a single arena (`data`, stride = number of segments),
/// addressed through a dense id → row table. The table spans the queried
/// length's ids and only surfaced ids hold a row, so resetting it for the
/// next query clears just those entries.
#[derive(Debug, Clone, Default)]
pub struct AlphaVectors {
    m: usize,
    /// Candidate id → its row number + 1 (0: not surfaced).
    slots: Vec<u32>,
    /// Surfaced ids in first-touch order; row `r` belongs to `ids[r]`.
    ids: Vec<u32>,
    data: Vec<Prob>,
    /// Per row, the segments whose `α_x` is positive so far.
    matched: Vec<u32>,
}

impl AlphaVectors {
    /// Empties the rows for a query over `m` segments whose ids are all
    /// below `id_bound`.
    fn reset(&mut self, m: usize, id_bound: usize) {
        for &id in &self.ids {
            self.slots[id as usize] = 0;
        }
        self.ids.clear();
        self.data.clear();
        self.matched.clear();
        self.m = m;
        if self.slots.len() < id_bound {
            self.slots.resize(id_bound, 0);
        }
    }

    /// The row number of `id`, inserting a zero row on first touch when
    /// `create` is set.
    fn row(&mut self, id: u32, create: bool) -> Option<usize> {
        let slot = &mut self.slots[id as usize];
        if *slot == 0 {
            if !create {
                return None;
            }
            self.ids.push(id);
            *slot = self.ids.len() as u32;
            self.data.resize(self.data.len() + self.m, 0.0);
            self.matched.push(0);
        }
        Some(*slot as usize - 1)
    }

    /// Adds `v` to `α_x` of `id`'s row (inserted on first touch when
    /// `create` is set). Returns the row's matched-segment count when
    /// `α_x` just turned positive.
    fn add(&mut self, id: u32, x: usize, v: Prob, create: bool) -> Option<u32> {
        let row = self.row(id, create)?;
        let a = &mut self.data[row * self.m + x];
        let was = *a;
        *a += v;
        if was == 0.0 && *a > 0.0 {
            self.matched[row] += 1;
            return Some(self.matched[row]);
        }
        None
    }

    /// The α row of candidate `id`, if it surfaced.
    pub fn get(&self, id: u32) -> Option<&[Prob]> {
        let row = (*self.slots.get(id as usize)? as usize).checked_sub(1)?;
        Some(&self.data[row * self.m..][..self.m])
    }

    /// Number of surfaced candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no candidate surfaced.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(candidate id, α row)` in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Prob])> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(move |(row, &id)| (id, &self.data[row * self.m..][..self.m]))
    }
}

/// One posting staged while a band is built.
#[derive(Debug, Clone, Copy)]
struct Staged {
    key: u32,
    id: u32,
    prob: Prob,
}

/// Postings of one segment position, sealed: `runs` maps an interned
/// segment id to the half-open range `[start, end)` of its run in the
/// parallel `ids` / `probs` arrays, and a run lists its postings by
/// ascending string id. Runs are laid out by ascending key, and both the
/// map and the arrays are sized exactly when the table is built.
#[derive(Debug, Clone)]
pub(crate) struct PostingTable {
    runs: HashMap<u32, Run, FastBuildHasher>,
    /// String ids of every run, run after run.
    pub(crate) ids: Vec<u32>,
    /// Probabilities parallel to `ids`.
    pub(crate) probs: Vec<Prob>,
}

impl PostingTable {
    /// Seals one segment's staged postings: one sort by `(key, id)`, then
    /// each key's postings become one run.
    fn seal(mut staged: Vec<Staged>) -> PostingTable {
        staged.sort_unstable_by_key(|p| u64::from(p.key) << 32 | u64::from(p.id));
        let (mut keys, mut ends, mut end) = (Vec::new(), Vec::new(), 0);
        for run in staged.chunk_by(|a, b| a.key == b.key) {
            debug_assert!(
                run.windows(2).all(|w| w[0].id < w[1].id),
                "one posting per id"
            );
            end += run.len() as u32;
            keys.push(run[0].key);
            ends.push(end);
        }
        let ids = staged.iter().map(|p| p.id).collect();
        let probs = staged.iter().map(|p| p.prob).collect();
        PostingTable::from_runs(&keys, &ends, ids, probs)
    }

    /// A table from its run directory — keys ascending, each run ending
    /// at `ends[i]` and starting where the previous one ends — and its
    /// posting arrays. The run map is sized exactly and filled in key
    /// order, so a restored table is laid out as the sealed one was.
    pub(crate) fn from_runs(
        keys: &[u32],
        ends: &[u32],
        ids: Vec<u32>,
        probs: Vec<Prob>,
    ) -> PostingTable {
        let mut runs = HashMap::with_capacity_and_hasher(keys.len(), FastBuildHasher::default());
        let mut start = 0;
        for (&key, &end) in keys.iter().zip(ends) {
            runs.insert(key, (start, end));
            start = end;
        }
        PostingTable { runs, ids, probs }
    }

    /// Every `(key, run)` by ascending key, which is also layout order:
    /// the run directory a snapshot stores and the digest walks.
    pub(crate) fn directory(&self) -> Vec<(u32, Run)> {
        let mut runs: Vec<(u32, Run)> = self.runs.iter().map(|(&k, &r)| (k, r)).collect();
        runs.sort_unstable_by_key(|&(key, _)| key);
        runs
    }

    /// Heap bytes: the run map's allocation plus both arrays.
    fn estimated_bytes(&self) -> usize {
        table_bytes::<(u32, Run)>(self.runs.capacity())
            + self.ids.capacity() * size_of::<u32>()
            + self.probs.capacity() * size_of::<Prob>()
    }
}

/// Inverted index for one string length.
#[derive(Debug, Clone, Default)]
pub struct LengthIndex {
    segments: Vec<Segment>,
    /// One posting table per segment index.
    inverted: Vec<PostingTable>,
    /// All string ids inserted, ascending.
    ids: Vec<u32>,
    /// Per segment, the first inserted id that exceeded the instance cap
    /// ([`COMPLETE`] if none): the segment's postings are incomplete from
    /// that id on, so a query admitting it must treat the segment as
    /// conservatively matching.
    incomplete_from: Vec<u32>,
}

/// [`LengthIndex::incomplete_from`] of a segment no string overflowed.
const COMPLETE: u32 = u32::MAX;

impl LengthIndex {
    /// An index of no strings and, until sealed or restored, no posting
    /// tables.
    fn new(len: usize, config: &JoinConfig) -> Self {
        let segments = partition(len, config.q, config.k);
        let incomplete_from = vec![COMPLETE; segments.len()];
        LengthIndex {
            segments,
            inverted: Vec::new(),
            ids: Vec::new(),
            incomplete_from,
        }
    }

    /// The partition this index was built with.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of strings inserted.
    pub fn num_strings(&self) -> usize {
        self.ids.len()
    }

    /// All inserted string ids, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Heap bytes: the posting tables plus the partition, id and flag
    /// arrays.
    fn estimated_bytes(&self) -> usize {
        let tables: usize = self
            .inverted
            .iter()
            .map(PostingTable::estimated_bytes)
            .sum();
        tables
            + self.segments.capacity() * size_of::<Segment>()
            + self.inverted.capacity() * size_of::<PostingTable>()
            + self.ids.capacity() * size_of::<u32>()
            + self.incomplete_from.capacity() * size_of::<u32>()
    }

    /// A band as a snapshot image stores it: its ids, each segment's
    /// [`LengthIndex::incomplete_from`] and one posting table per
    /// segment. The partition is recomputed from the config, which the
    /// snapshot fingerprint pins; a band whose segment count disagrees
    /// with it is rejected rather than silently misindexed.
    pub(crate) fn from_image(
        len: usize,
        config: &JoinConfig,
        ids: Vec<u32>,
        incomplete_from: Vec<u32>,
        inverted: Vec<PostingTable>,
    ) -> Result<LengthIndex, String> {
        let segments = partition(len, config.q, config.k);
        if inverted.len() != segments.len() || incomplete_from.len() != segments.len() {
            return Err(format!(
                "{} posting tables / {} flags for a {}-segment partition",
                inverted.len(),
                incomplete_from.len(),
                segments.len()
            ));
        }
        Ok(LengthIndex {
            segments,
            inverted,
            ids,
            incomplete_from,
        })
    }

    /// Per segment, the first id whose postings it lacks (`u32::MAX` if
    /// none).
    pub(crate) fn incomplete_from(&self) -> &[u32] {
        &self.incomplete_from
    }

    /// One sealed posting table per segment.
    pub(crate) fn tables(&self) -> &[PostingTable] {
        &self.inverted
    }
}

/// A length band being built: its index without posting tables, plus
/// each segment's staged postings.
#[derive(Debug)]
struct BandStage {
    li: LengthIndex,
    staged: Vec<Vec<Staged>>,
}

impl BandStage {
    fn new(len: usize, config: &JoinConfig) -> Self {
        let li = LengthIndex::new(len, config);
        let staged = vec![Vec::new(); li.segments.len()];
        BandStage { li, staged }
    }

    /// Stages string `id`'s postings, interning its segment instances
    /// segment by segment, then world by world.
    fn add(
        &mut self,
        id: u32,
        s: &UncertainString,
        max_instances: usize,
        interner: &mut SegmentInterner,
    ) {
        let li = &mut self.li;
        debug_assert_eq!(s.len(), li.segments.iter().map(|g| g.len).sum::<usize>());
        debug_assert!(
            li.ids.last().is_none_or(|&last| last < id),
            "ids must ascend within a band"
        );
        for (x, seg) in li.segments.iter().enumerate() {
            let worlds = world_count(&s.positions()[seg.start..seg.start + seg.len]);
            if worlds.is_none_or(|n| n > max_instances) {
                // Over-cap segment: postings for it are incomplete from
                // this id on; a query admitting the id treats it as a
                // conservative match for every candidate.
                li.incomplete_from[x] = li.incomplete_from[x].min(id);
                continue;
            }
            let staged = &mut self.staged[x];
            s.visit_substring_worlds(seg.start, seg.len, |w, prob| {
                staged.push(Staged {
                    key: interner.intern(w),
                    id,
                    prob,
                });
                true
            });
        }
        li.ids.push(id);
    }

    /// Heap bytes of the staged postings.
    fn staged_bytes(&self) -> usize {
        self.staged
            .iter()
            .map(|v| v.capacity() * size_of::<Staged>())
            .sum()
    }

    /// The band's index, each segment's staging sealed into its posting
    /// table (and freed) in turn.
    fn seal(self) -> LengthIndex {
        let BandStage { mut li, staged } = self;
        li.inverted = staged.into_iter().map(PostingTable::seal).collect();
        li.ids.shrink_to_fit();
        li
    }
}

/// Source of per-index interner salts: [`EquivCache`] windows are keyed
/// by salt, so two indices must never share one.
static NEXT_INTERNER_SALT: AtomicU64 = AtomicU64::new(0);

/// All per-length indices of the visited part of a collection.
#[derive(Debug)]
pub struct SegmentIndex {
    by_length: HashMap<usize, LengthIndex, FastBuildHasher>,
    /// Shared intern table for every length's segment instances.
    interner: SegmentInterner,
    /// Unique per index (fresh on clone): scopes [`EquivCache`] windows
    /// to the interner that produced their ids.
    interner_salt: u64,
    peak_bytes: usize,
}

impl Default for SegmentIndex {
    fn default() -> Self {
        SegmentIndex {
            by_length: HashMap::default(),
            interner: SegmentInterner::default(),
            // ordering: relaxed — the salt only needs to be unique, no
            // memory is published through it.
            interner_salt: NEXT_INTERNER_SALT.fetch_add(1, Ordering::Relaxed),
            peak_bytes: 0,
        }
    }
}

impl Clone for SegmentIndex {
    fn clone(&self) -> Self {
        SegmentIndex {
            by_length: self.by_length.clone(),
            interner: self.interner.clone(),
            // A clone may diverge from the original, so it gets a fresh
            // salt — cached windows must never cross interners.
            // ordering: relaxed — uniqueness only, as above.
            interner_salt: NEXT_INTERNER_SALT.fetch_add(1, Ordering::Relaxed),
            peak_bytes: self.peak_bytes,
        }
    }
}

impl SegmentIndex {
    /// An empty index.
    pub fn new() -> Self {
        SegmentIndex::default()
    }

    /// The shared segment-instance intern table.
    pub fn interner(&self) -> &SegmentInterner {
        &self.interner
    }

    /// An index of `members` (see [`SegmentIndex::build_bands`]).
    pub fn build<'s>(
        members: impl IntoIterator<Item = (u32, &'s UncertainString)>,
        config: &JoinConfig,
    ) -> Self {
        let mut index = SegmentIndex::new();
        index.build_bands(members, config, &mut NoopRecorder);
        index
    }

    /// Builds the length bands of `members`, each partitioned per
    /// `config`, and emits one [`Counter::IndexInsertions`] event per
    /// member on `rec`.
    ///
    /// Members are interned in the order given, string by string, then
    /// segment by segment, then world by world. Their ids must ascend
    /// within each length, and no member's length may already be indexed:
    /// a band is built once, by one call. Each band's postings are staged,
    /// sorted once per segment and sealed into contiguous runs.
    ///
    /// Length-0 strings are indexed too (as a segment-less
    /// [`LengthIndex`]): their partition has no segments, so Lemma 5 can
    /// never prune at that length and every length-0 id surfaces as a
    /// candidate — which is exactly right, since two empty strings match
    /// with probability 1 and must not be silently dropped by the q-gram
    /// pipelines.
    pub fn build_bands<'s, R: Recorder>(
        &mut self,
        members: impl IntoIterator<Item = (u32, &'s UncertainString)>,
        config: &JoinConfig,
        rec: &mut R,
    ) {
        self.build_with(members, config, || {
            // Failpoint: a crash while building a shard, once per member.
            // A delay action here is an uncounted sleep: the driver hands
            // this entry point its recorder alone, not the `JoinStats`
            // beside it, so a count here would reach one view and not the
            // other. Panic/error actions abort the build and surface
            // through the driver's `Faulted` path.
            usj_fault::fail_point!("index.build");
            rec.counter(Counter::IndexInsertions, 1);
        });
    }

    /// [`SegmentIndex::build_bands`] with `each` run before every member
    /// is staged. The peak watermark counts the staged postings beside
    /// the bands built so far.
    fn build_with<'s>(
        &mut self,
        members: impl IntoIterator<Item = (u32, &'s UncertainString)>,
        config: &JoinConfig,
        mut each: impl FnMut(),
    ) {
        let mut stages: BTreeMap<usize, BandStage> = BTreeMap::new();
        for (id, s) in members {
            each();
            let stage = stages.entry(s.len()).or_insert_with(|| {
                debug_assert!(
                    !self.by_length.contains_key(&s.len()),
                    "band {} is already built",
                    s.len()
                );
                BandStage::new(s.len(), config)
            });
            stage.add(id, s, config.max_segment_instances, &mut self.interner);
        }
        let mut staged: usize = stages.values().map(BandStage::staged_bytes).sum();
        self.peak_bytes = self.peak_bytes.max(self.estimated_bytes() + staged);
        for (len, stage) in stages {
            staged -= stage.staged_bytes();
            self.by_length.insert(len, stage.seal());
            self.peak_bytes = self.peak_bytes.max(self.estimated_bytes() + staged);
        }
    }

    /// Queries candidates of length `indexed_len` for `probe`: walks that
    /// length's segments, looking the probe's window worlds up in each
    /// segment's run map and merging the posting runs hit. Returns the
    /// per-candidate α rows (full rows: every segment walked, a row for
    /// every id touched) and the per-segment over-cap flags; flagged
    /// segments could not be evaluated on the probe side and must be
    /// treated as conservatively matching.
    ///
    /// The query runs through the probe's window table `cache`, so
    /// repeated queries by one probe (against many lengths, or many
    /// shards) enumerate and resolve each window once. The α rows and
    /// over-cap flags are the cache's own, valid until its next query.
    ///
    /// `admit_below = Some(limit)` surfaces only ids `< limit`, as if the
    /// index held nothing from `limit` on: the self-join probes a
    /// fully-built same-length shard but may only see visit-order-earlier
    /// ids. `None` surfaces every indexed id.
    ///
    /// Emits once on `rec`: [`Counter::QgramWindowWorlds`] and
    /// [`Counter::QgramInstancesResolved`] (window worlds this query
    /// enumerated, and those the interner knew), [`Counter::IndexRunLookups`]
    /// (one per segment walked and resolved world of its windows),
    /// [`Counter::IndexPostingsScanned`] and
    /// [`Counter::IndexCandidatesSurfaced`] (α rows produced, conservative
    /// over-cap fallbacks included).
    pub fn query_cached_recorded<'c, R: Recorder>(
        &self,
        probe: &UncertainString,
        indexed_len: usize,
        config: &JoinConfig,
        admit_below: Option<u32>,
        cache: &'c mut EquivCache,
        rec: &mut R,
    ) -> Option<(&'c AlphaVectors, &'c [bool])> {
        let li = self.by_length.get(&indexed_len)?;
        let limit = admit_below.unwrap_or(u32::MAX);
        self.fill(li, probe, config, limit, Walk::Full, cache, rec);
        Some((&cache.alphas, &cache.scratch.over_cap))
    }

    /// The body of [`SegmentIndex::query_cached_recorded`] for length
    /// index `li`: fills the cache's over-cap flags, window ranges,
    /// regions and α rows, walking the segments as `walk` says. A
    /// [`Walk::Lemma5`] walk is full when any segment is over cap.
    #[allow(clippy::too_many_arguments)]
    fn fill<R: Recorder>(
        &self,
        li: &LengthIndex,
        probe: &UncertainString,
        config: &JoinConfig,
        limit: u32,
        walk: Walk,
        cache: &mut EquivCache,
        rec: &mut R,
    ) {
        let EquivCache {
            windows,
            scratch,
            alphas,
        } = cache;
        let LengthScratch {
            over_cap,
            ranges,
            regions,
            hits,
            occs,
            ..
        } = scratch;
        let m = li.segments.len();
        // The partition covers the whole indexed length.
        let indexed_len = li.segments.iter().map(|g| g.len).sum();
        over_cap.clear();
        over_cap.extend(li.incomplete_from.iter().map(|&id| id < limit));
        ranges.clear();
        regions.clear();
        for (x, seg) in li.segments.iter().enumerate() {
            let range = window_range(config.policy, probe.len(), indexed_len, config.k, seg);
            regions.push(range.map(|r| window_region(r, seg.len)));
            let within = range.filter(|&r| within_cap(probe, r, seg.len, config));
            over_cap[x] |= range.is_some() && within.is_none();
            ranges.push(within);
        }
        alphas.reset(m, li.ids.last().map_or(0, |&id| id as usize + 1));
        // Lemma 5 needs `m − k` matched segments; a walk that may prune
        // creates rows only in segments `0..=k` and tracks the most
        // segments any row has matched so far.
        let lemma5 = matches!(walk, Walk::Lemma5) && !over_cap.contains(&true);
        let required = m.saturating_sub(config.k) as u32;
        let mut best = 0u32;
        let (mut postings, mut lookups) = (0u64, 0u64);
        for (x, seg) in li.segments.iter().enumerate() {
            let remaining = (m - x) as u32;
            if lemma5 && x > config.k && best + remaining < required {
                // No row can still reach `m − k` matched segments.
                break;
            }
            let Some((lo, hi)) = ranges[x] else { continue };
            let table = &li.inverted[x];
            hits.clear();
            for start in lo..=hi {
                let (first, end) =
                    windows.window(self.interner_salt, probe, start, seg.len, &self.interner);
                let worlds = &windows.worlds[first as usize..end as usize];
                lookups += worlds.len() as u64;
                hits.extend(worlds.iter().filter_map(|&world| {
                    let run = *table.runs.get(&world.id)?;
                    Some(Hit { world, run })
                }));
            }
            // Instance-major, start-ascending: each instance's occurrences
            // are one run sorted by start, as `combine_occurrences`
            // requires, and instances are merged by ascending id.
            hits.sort_unstable_by_key(|h| u64::from(h.world.id) << 32 | u64::from(h.world.start));
            let create = !lemma5 || x <= config.k;
            for group in hits.chunk_by(|a, b| a.world.id == b.world.id) {
                occs.clear();
                occs.extend(group.iter().map(|h| (h.world.start as usize, h.world.prob)));
                let sym = group[0].world.sym as usize;
                let w = &windows.symbols[sym..sym + seg.len];
                let p_r = combine_occurrences(w, occs, probe, config.alpha_mode);
                if p_r > 0.0 {
                    let run = group[0].run.0 as usize..group[0].run.1 as usize;
                    for (&id, &prob) in table.ids[run.clone()]
                        .iter()
                        .zip(&table.probs[run])
                        .take_while(|&(&id, _)| id < limit)
                    {
                        postings += 1;
                        if let Some(matched) = alphas.add(id, x, p_r * prob, create) {
                            best = best.max(matched);
                        }
                    }
                }
            }
        }
        for a in alphas.data.iter_mut() {
            *a = a.clamp(0.0, 1.0);
        }
        if over_cap.contains(&true) {
            // Conservative fallback: an over-cap segment may hide matches,
            // so every admitted id of this length must surface as a
            // candidate (with zero α where no posting was found).
            for &id in li.ids.iter().take_while(|&&id| id < limit) {
                alphas.row(id, true);
            }
        }
        let (enumerated, resolved) = windows.take_tally();
        rec.counter(Counter::QgramWindowWorlds, enumerated);
        rec.counter(Counter::QgramInstancesResolved, resolved);
        rec.counter(Counter::IndexRunLookups, lookups);
        rec.counter(Counter::IndexPostingsScanned, postings);
        rec.counter(Counter::IndexCandidatesSurfaced, alphas.len() as u64);
    }

    /// The q-gram candidate stage for one indexed length, shared by the
    /// self-join and search: query the length index (through `cache`),
    /// apply the Lemma 5 count condition and the sound Theorem 2 bound,
    /// and push survivors onto `candidates`. With a warm `cache` and
    /// enough room in `candidates`, the stage allocates nothing.
    ///
    /// When no segment is over cap, the query applies Lemma 5 as it walks
    /// the segments: an id first touched past segment `k` gets no α row,
    /// and the walk stops once no row can still reach `m − k` matched
    /// segments. The survivors, their α rows and the prune counts are
    /// those of the full rows [`SegmentIndex::query_cached_recorded`]
    /// returns; fewer rows surface
    /// ([`Counter::IndexCandidatesSurfaced`]) and fewer windows, lookups
    /// and postings are counted.
    ///
    /// `admit_below = Some(limit)` restricts scope to ids `< limit` (see
    /// [`SegmentIndex::query_cached_recorded`]); search passes `None`.
    ///
    /// Returns the number of admitted pairs in scope at this length;
    /// prune-attribution counters ([`Counter::QgramPrunedCount`] /
    /// [`Counter::QgramPrunedBound`]) and the index events of
    /// [`SegmentIndex::query_cached_recorded`] are emitted on `rec` (the
    /// driver's `(stats, recorder)` pair), survivor counting is left to
    /// the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn collect_candidates_recorded<R: Recorder>(
        &self,
        probe: &UncertainString,
        indexed_len: usize,
        config: &JoinConfig,
        admit_below: Option<u32>,
        cache: &mut EquivCache,
        candidates: &mut Vec<u32>,
        rec: &mut R,
    ) -> u64 {
        let Some(li) = self.by_length.get(&indexed_len) else {
            return 0;
        };
        let limit = admit_below.unwrap_or(u32::MAX);
        let admitted = li.ids.partition_point(|&id| id < limit);
        let in_scope = admitted as u64;
        if in_scope == 0 {
            return 0;
        }
        let m = li.segments.len();
        let required = m.saturating_sub(config.k);
        if required == 0 {
            // m ≤ k: Lemma 5 cannot prune anything at this length — every
            // admitted indexed string is a candidate.
            candidates.extend_from_slice(&li.ids[..admitted]);
            return in_scope;
        }
        self.fill(li, probe, config, limit, Walk::Lemma5, cache, rec);
        let EquivCache {
            scratch, alphas, ..
        } = cache;
        let LengthScratch {
            over_cap,
            regions,
            bounder,
            alpha,
            ..
        } = scratch;
        let capped = over_cap.iter().any(|&b| b);
        if !capped && !alphas.is_empty() {
            // Independence structure of this (probe, length): shared
            // across all candidates (see usj_qgram::soundness for why the
            // plain Theorem 2 tail would be unsound here).
            bounder.reset(regions, probe);
        }
        alpha.clear();
        alpha.resize(m, 0.0);
        for (id, row) in alphas.iter() {
            alpha.copy_from_slice(row);
            // Over-cap segments count as matched with α = 1.
            for (a, &oc) in alpha.iter_mut().zip(over_cap.iter()) {
                if oc {
                    *a = 1.0;
                }
            }
            let matched = alpha.iter().filter(|&&a| a > 0.0).count();
            if matched < required {
                rec.counter(Counter::QgramPrunedCount, 1);
                continue;
            }
            let bound = if capped {
                1.0
            } else {
                bounder.bound(alpha, required)
            };
            if bound <= config.tau {
                rec.counter(Counter::QgramPrunedBound, 1);
                continue;
            }
            candidates.push(id);
        }
        // Ids that never surfaced have zero matching segments and were
        // pruned by the count condition implicitly.
        rec.counter(Counter::QgramPrunedCount, in_scope - alphas.len() as u64);
        in_scope
    }

    /// Lengths currently indexed, ascending.
    pub fn lengths(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.by_length.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The index for one length, if present.
    pub fn length_index(&self, len: usize) -> Option<&LengthIndex> {
        self.by_length.get(&len)
    }

    /// Drops indices for lengths `< min_len` — once the (length-sorted)
    /// scan has advanced past `min_len + k`, those can never be queried
    /// again. This is how the paper keeps *peak* memory below the data
    /// size (§7.6).
    pub fn evict_below(&mut self, min_len: usize) {
        self.by_length.retain(|&len, _| len >= min_len);
    }

    /// Heap footprint in bytes, derived from container capacities: the
    /// shared intern table, the band map, and every band's posting tables
    /// and arrays.
    pub fn estimated_bytes(&self) -> usize {
        let bands: usize = self
            .by_length
            .values()
            .map(LengthIndex::estimated_bytes)
            .sum();
        self.interner.estimated_bytes()
            + table_bytes::<(usize, LengthIndex)>(self.by_length.capacity())
            + bands
    }

    /// Largest footprint observed since construction, staged postings of
    /// a band being built included.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Total number of indexed strings across lengths.
    pub fn num_strings(&self) -> usize {
        self.by_length.values().map(LengthIndex::num_strings).sum()
    }

    /// Assembles an index from snapshot parts. The restored index
    /// carries a fresh interner salt (it is a distinct index as far as
    /// window tables are concerned) and a peak-bytes watermark
    /// equal to its current footprint — a cold build without eviction
    /// peaks at full size too, so warm and cold stats agree.
    pub(crate) fn from_image(interner: SegmentInterner, bands: Vec<(usize, LengthIndex)>) -> Self {
        let mut index = SegmentIndex::new();
        index.interner = interner;
        index.by_length.extend(bands);
        index.peak_bytes = index.estimated_bytes();
        index
    }

    /// Rebuilds one length band from the source strings, resolving
    /// segment instances through the shared interner. When the interner
    /// is intact (it holds every instance the original build interned),
    /// the rebuild interns nothing and the band is bit-identical to the
    /// cold build's. Fires no failpoint and counts no insertions.
    pub(crate) fn rebuild_band(
        &mut self,
        len: usize,
        strings: &[UncertainString],
        config: &JoinConfig,
    ) {
        self.by_length.remove(&len);
        let members = (0u32..).zip(strings).filter(|(_, s)| s.len() == len);
        self.build_with(members, config, || {});
    }

    /// Deterministic digest over everything the query path reads:
    /// interner entries in id order, then each band ascending — ids,
    /// over-cap flags, posting keys and lists with probability bits.
    /// Two indices with equal digests answer every probe identically.
    pub(crate) fn content_digest(&self) -> u64 {
        use crate::container::{fnv1a_fold, fold_u64, FNV_SEED};
        let mut h = FNV_SEED;
        let entries = self.interner.entries();
        h = fold_u64(h, entries.len() as u64);
        for inst in entries {
            let packed;
            let w = match inst {
                Instance::Packed(len, key) => {
                    packed = key.to_be_bytes();
                    &packed[8 - len..]
                }
                Instance::Long(w) => w,
            };
            h = fold_u64(h, w.len() as u64);
            h = fnv1a_fold(h, w);
        }
        for len in self.lengths() {
            let li = &self.by_length[&len];
            h = fold_u64(h, len as u64);
            h = fold_u64(h, li.ids.len() as u64);
            for &id in &li.ids {
                h = fold_u64(h, id as u64);
            }
            for &id in &li.incomplete_from {
                h = fold_u64(h, (id != COMPLETE) as u64);
            }
            for t in &li.inverted {
                let runs = t.directory();
                h = fold_u64(h, runs.len() as u64);
                for (key, (start, end)) in runs {
                    h = fold_u64(h, key as u64);
                    h = fold_u64(h, (end - start) as u64);
                    let run = start as usize..end as usize;
                    for (&id, &p) in t.ids[run.clone()].iter().zip(&t.probs[run]) {
                        h = fold_u64(h, id as u64);
                        h = fold_u64(h, p.to_bits());
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;
    use usj_qgram::{alpha_for_segment, EquivalentSet, QGramFilter};

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn config() -> JoinConfig {
        JoinConfig::new(1, 0.1).with_q(2)
    }

    /// `index`'s α rows and over-cap flags for `probe` against the
    /// strings of length `len`, through a fresh window table.
    fn query(
        index: &SegmentIndex,
        probe: &UncertainString,
        len: usize,
        config: &JoinConfig,
    ) -> Option<(AlphaVectors, Vec<bool>)> {
        let mut cache = EquivCache::new();
        index.query_cached_recorded(probe, len, config, None, &mut cache, &mut NoopRecorder)?;
        Some((cache.alphas, cache.scratch.over_cap))
    }

    /// An index of `strings`, string `i` under id `i`.
    fn build(strings: &[UncertainString], config: &JoinConfig) -> SegmentIndex {
        SegmentIndex::build((0u32..).zip(strings), config)
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let config = config();
        let strings = [dna("ACGTAC"), dna("AC{(G,0.6),(T,0.4)}TAC"), dna("TTTTTT")];
        let index = build(&strings, &config);
        let probe = dna("ACGTAC");
        let (alphas, over_cap) = query(&index, &probe, 6, &config).unwrap();
        assert!(over_cap.iter().all(|&b| !b));
        // String 0 matches all three segments with α = 1.
        assert_eq!(alphas.get(0).unwrap(), &[1.0, 1.0, 1.0]);
        // String 1 matches segment 2 with probability 0.6 (GT vs {G,T}T).
        let a1 = alphas.get(1).unwrap();
        assert!((a1[0] - 1.0).abs() < 1e-9);
        assert!((a1[1] - 0.6).abs() < 1e-9);
        assert!((a1[2] - 1.0).abs() < 1e-9);
        // String 2 shares no segment instance.
        assert!(alphas.get(2).is_none());
    }

    /// α values produced through the index equal the direct
    /// filter-computed values for every candidate.
    #[test]
    fn index_alphas_equal_direct_computation() {
        let config = config();
        let strings = [
            dna("G{(A,0.8),(G,0.2)}CT{(A,0.8),(C,0.1),(T,0.1)}C"),
            dna("{(G,0.8),(T,0.2)}GA{(C,0.3),(G,0.2),(T,0.5)}CT"),
            dna("AA{(G,0.9),(T,0.1)}G{(C,0.3),(G,0.2),(T,0.5)}C"),
        ];
        let index = build(&strings, &config);
        let probe = dna("GGAT{(C,0.7),(G,0.3)}C");
        let (alphas, _) = query(&index, &probe, 6, &config).unwrap();
        let filter = QGramFilter::new(config.k, config.tau, config.q);
        for (i, s) in strings.iter().enumerate() {
            let direct = filter.evaluate(&probe, s);
            let via_index = alphas
                .get(i as u32)
                .map(|v| v.to_vec())
                .unwrap_or_else(|| vec![0.0; direct.alphas.len()]);
            for (x, (a, b)) in via_index.iter().zip(&direct.alphas).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9,
                    "string {i} segment {x}: index={a} direct={b}"
                );
            }
        }
        // Cross-check one α against the standalone helper too.
        let segs = partition(6, config.q, config.k);
        let range = window_range(config.policy, 6, 6, config.k, &segs[0]).unwrap();
        let set =
            EquivalentSet::build(&probe, range, segs[0].len, config.alpha_mode, 1 << 14).unwrap();
        let direct0 = alpha_for_segment(&set, &strings[0], &segs[0]);
        let got0 = alphas.get(0).map(|v| v[0]).unwrap_or(0.0);
        assert!((got0 - direct0).abs() < 1e-9);
    }

    #[test]
    fn query_missing_length_is_none() {
        let index = SegmentIndex::new();
        assert!(query(&index, &dna("ACGT"), 4, &config()).is_none());
    }

    #[test]
    fn eviction_frees_memory_and_tracks_peak() {
        let config = config();
        let mut index = build(&[dna("ACGTAC"), dna("ACGTACG")], &config);
        let full = index.estimated_bytes();
        assert!(full > 0);
        index.evict_below(7);
        assert!(index.estimated_bytes() < full);
        assert_eq!(index.lengths(), vec![7]);
        assert!(index.peak_bytes() >= full);
    }

    #[test]
    fn postings_sorted_by_id() {
        let config = config();
        let index = build(&vec![dna("AC{(G,0.5),(T,0.5)}TAC"); 20], &config);
        let li = index.length_index(6).unwrap();
        for table in &li.inverted {
            let runs = table.directory();
            assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
            for (_, (start, end)) in runs {
                let ids = &table.ids[start as usize..end as usize];
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
            }
        }
        assert_eq!(li.num_strings(), 20);
    }

    #[test]
    fn interner_shares_ids_across_lengths() {
        let config = config();
        // Both lengths start with the segment instance "AC" (in alphabet
        // encoding); the interner must hand out one id for it, not one
        // per length.
        let six = dna("ACGTAC");
        let index = build(&[six.clone(), dna("ACGTACG")], &config);
        let interner = index.interner();
        assert!(!interner.is_empty());
        let seg0 = &six.most_probable_world().instance[..2];
        let ac = interner.resolve(seg0);
        assert!(ac.is_some(), "shared segment instance must be interned");
        // Dense first-seen ids: every id is below the table size.
        assert!(ac.unwrap() < interner.len() as u32);
        assert_eq!(interner.resolve(&[u8::MAX, u8::MAX]), None);
        // A clone resolves identically but carries a fresh salt, so
        // cached windows cannot leak across the pair.
        let clone = index.clone();
        assert_eq!(clone.interner().resolve(seg0), ac);
        assert_ne!(clone.interner_salt, index.interner_salt);
    }

    #[test]
    fn over_cap_surfaces_every_id() {
        // With a tiny instance cap, the index cannot enumerate uncertain
        // segments — every id of the length must surface as a candidate
        // so no match can be missed.
        let mut config = config();
        config.max_segment_instances = 2;
        let strings = [
            dna("ACGTAC"),
            dna("{(A,0.5),(C,0.5)}{(A,0.5),(G,0.5)}GTAC"), // 4 instances in segment 1
            dna("TTTTTT"),
        ];
        let index = build(&strings, &config);
        let (alphas, over_cap) = query(&index, &dna("ACGTAC"), 6, &config).unwrap();
        assert!(over_cap.iter().any(|&b| b), "cap must have been hit");
        // Every id surfaces, even TTTTTT with zero posting hits.
        for id in 0..3u32 {
            assert!(alphas.get(id).is_some(), "id {id} missing: {alphas:?}");
        }
    }

    #[test]
    fn probe_over_cap_also_falls_back() {
        // The cap can also be hit on the probe side (q(R,x) too large).
        let mut config = config();
        config.max_segment_instances = 2;
        let index = build(&[dna("ACGTAC")], &config);
        let probe = dna("{(A,0.5),(C,0.5)}{(A,0.5),(G,0.5)}GTAC");
        let (alphas, over_cap) = query(&index, &probe, 6, &config).unwrap();
        assert!(over_cap.iter().any(|&b| b));
        assert!(alphas.get(0).is_some());
    }

    #[test]
    fn empty_string_indexed_as_segmentless_length() {
        // Length-0 strings used to be silently skipped, which made the
        // q-gram pipelines miss (empty, empty) pairs the oracle reports.
        // They are now indexed under a segment-less partition.
        let config = config();
        let index = build(
            &[UncertainString::empty(), UncertainString::empty()],
            &config,
        );
        assert_eq!(index.num_strings(), 2);
        let li = index.length_index(0).unwrap();
        assert!(li.segments().is_empty());
        assert_eq!(li.ids(), &[0, 1]);
        // No segments means Lemma 5 requires zero matches — the candidate
        // stage surfaces every length-0 id rather than querying postings.
        let mut stats = crate::stats::JoinStats::default();
        let mut candidates = Vec::new();
        let scope = index.collect_candidates_recorded(
            &UncertainString::empty(),
            0,
            &config,
            None,
            &mut EquivCache::new(),
            &mut candidates,
            &mut stats,
        );
        assert_eq!(scope, 2);
        assert_eq!(candidates, vec![0, 1]);
    }

    /// One window table shared across a probe's lengths answers each
    /// query bit for bit as a fresh table does, yet enumerates each
    /// `(start, width)` window once: the lengths' window ranges overlap,
    /// so the shared table holds fewer windows and enumerates fewer worlds
    /// than one table per length, while the lookups and postings walked
    /// stay the same.
    #[test]
    fn cached_query_matches_uncached() {
        use usj_obs::CollectingRecorder;
        let config = config();
        let index = build(
            &[
                dna("ACGTAC"),
                dna("AC{(G,0.6),(T,0.4)}TAC"),
                dna("ACGTACG"),
                dna("TTTTTTT"),
            ],
            &config,
        );
        let probe = dna("AC{(G,0.6),(T,0.4)}TACG");
        let bits = |(alphas, over_cap): (&AlphaVectors, &[bool])| {
            let mut rows: Vec<(u32, Vec<u64>)> = alphas
                .iter()
                .map(|(id, row)| (id, row.iter().map(|a| a.to_bits()).collect()))
                .collect();
            rows.sort_unstable();
            (rows, over_cap.to_vec())
        };
        let mut cache = EquivCache::new();
        let mut shared = CollectingRecorder::new();
        let mut fresh = CollectingRecorder::new();
        let mut fresh_windows = 0;
        for len in [6usize, 7] {
            let mut own = EquivCache::new();
            let plain = index
                .query_cached_recorded(&probe, len, &config, None, &mut own, &mut fresh)
                .map(bits);
            fresh_windows += own.windows.windows.len();
            let cached = index
                .query_cached_recorded(&probe, len, &config, None, &mut cache, &mut shared)
                .map(bits);
            assert!(plain.is_some());
            assert_eq!(plain, cached, "len={len}");
        }
        assert!(cache.windows.windows.len() < fresh_windows);
        let total = |rec: &CollectingRecorder, c| rec.counter_total(c);
        assert!(
            total(&shared, Counter::QgramWindowWorlds) < total(&fresh, Counter::QgramWindowWorlds)
        );
        assert!(
            total(&shared, Counter::QgramInstancesResolved)
                <= total(&shared, Counter::QgramWindowWorlds)
        );
        for c in [Counter::IndexRunLookups, Counter::IndexPostingsScanned] {
            assert_eq!(total(&shared, c), total(&fresh, c), "{c:?}");
        }
        cache.clear();
        assert_eq!(cache.windows.windows.len(), 0);
    }

    /// Pinned digests of a seeded dblp-like index at q = 3 and at q = 6
    /// (where segments over 8 symbols resolve through the slice lane
    /// rather than the packed one). A layout change to the posting tables
    /// must leave every interned key, posting and probability bit as it
    /// was; re-record only for a change meant to alter index content.
    #[test]
    fn content_digest_is_pinned() {
        use usj_datagen::{DatasetKind, DatasetSpec};
        let ds = DatasetSpec::new(DatasetKind::Dblp, 300, 31).generate();
        let mut order: Vec<usize> = (0..ds.strings.len()).collect();
        order.sort_by_key(|&i| (ds.strings[i].len(), i));
        let digest = |q: usize| {
            let config = JoinConfig::new(2, 0.1).with_q(q);
            let members = order.iter().map(|&i| (i as u32, &ds.strings[i]));
            SegmentIndex::build(members, &config).content_digest()
        };
        assert_eq!(digest(3), 16269050020789572080);
        assert_eq!(digest(6), 11018953834508236680);
    }

    #[test]
    fn admit_below_limits_scope_and_candidates() {
        let config = config();
        let index = build(&vec![dna("ACGTAC"); 6], &config);
        let probe = dna("ACGTAC");
        let mut stats = crate::stats::JoinStats::default();
        let mut candidates = Vec::new();
        let scope = index.collect_candidates_recorded(
            &probe,
            6,
            &config,
            Some(4),
            &mut EquivCache::new(),
            &mut candidates,
            &mut stats,
        );
        assert_eq!(scope, 4);
        candidates.sort_unstable();
        assert_eq!(candidates, vec![0, 1, 2, 3]);
        // First id of its length: nothing admitted, nothing counted.
        let mut none = Vec::new();
        let scope = index.collect_candidates_recorded(
            &probe,
            6,
            &config,
            Some(0),
            &mut EquivCache::new(),
            &mut none,
            &mut stats,
        );
        assert_eq!(scope, 0);
        assert!(none.is_empty());
    }

    /// Lemma 5 during the walk (k = 1, q = 3: four 3-symbol segments, three
    /// of which must match). String 0 shares only segments 2 and 3 with
    /// the probe, both past `k`, so the candidate stage never gives it a
    /// row, though the full query does. String 1 matches segments 0, 2
    /// and 3 — exactly `m − k`, the last one in the last segment — and
    /// survives.
    #[test]
    fn lemma5_walk_skips_late_only_strings_and_keeps_late_matches() {
        use usj_obs::CollectingRecorder;
        let upper = |text: &str| UncertainString::parse(text, &Alphabet::uppercase()).unwrap();
        let config = JoinConfig::new(1, 0.1).with_q(3);
        let strings = [upper("PQRSTVHIKLMN"), upper("ACDWYPHIKLMN")];
        let index = build(&strings, &config);
        let probe = upper("ACDEFGHIKLMN");
        assert_eq!(index.length_index(12).unwrap().segments().len(), 4);

        let (full, _) = query(&index, &probe, 12, &config).unwrap();
        assert_eq!(full.get(0).unwrap(), &[0.0, 0.0, 1.0, 1.0]);
        assert_eq!(full.get(1).unwrap(), &[1.0, 0.0, 1.0, 1.0]);

        let mut rec = (
            crate::stats::JoinStats::default(),
            CollectingRecorder::new(),
        );
        let mut candidates = Vec::new();
        let scope = index.collect_candidates_recorded(
            &probe,
            12,
            &config,
            None,
            &mut EquivCache::new(),
            &mut candidates,
            &mut rec,
        );
        let (stats, sink) = rec;
        assert_eq!(scope, 2);
        assert_eq!(candidates, vec![1]);
        assert_eq!(sink.counter_total(Counter::IndexCandidatesSurfaced), 1);
        assert_eq!(stats.qgram_pruned_count, 1);
        assert_eq!(stats.qgram_pruned_bound, 0);

        // A probe matching neither string in segments 0..=k stops the
        // walk there: segments 2 and 3 are never enumerated, where the
        // full query enumerates all four windows.
        let late = upper("XXXXXXHIKLMN");
        let worlds = |stage: bool| {
            let mut sink = CollectingRecorder::new();
            let mut cache = EquivCache::new();
            if stage {
                let mut none = Vec::new();
                index.collect_candidates_recorded(
                    &late, 12, &config, None, &mut cache, &mut none, &mut sink,
                );
                assert!(none.is_empty());
            } else {
                index.query_cached_recorded(&late, 12, &config, None, &mut cache, &mut sink);
            }
            sink.counter_total(Counter::QgramWindowWorlds)
        };
        assert_eq!((worlds(true), worlds(false)), (2, 4));
    }
}
