//! A probe's q-gram candidate stage allocates nothing once its window
//! table is warm: windows, sets, over-cap flags, tail regions and family,
//! and α rows all live in buffers the [`EquivCache`] keeps across
//! probes. This binary holds a single test because the counting allocator
//! below is process-wide; the counter itself is per thread so the
//! harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usj_core::obs::NoopRecorder;
use usj_core::{EquivCache, JoinConfig, JoinStats, SegmentIndex};
use usj_datagen::{DatasetKind, DatasetSpec};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_candidate_stage_allocates_nothing() {
    let config = JoinConfig::new(2, 0.1);
    let ds = DatasetSpec::new(DatasetKind::Dblp, 400, 5).generate();
    let mut order: Vec<usize> = (0..ds.strings.len()).collect();
    order.sort_by_key(|&i| (ds.strings[i].len(), i));
    let index = SegmentIndex::build(order.iter().map(|&i| (i as u32, &ds.strings[i])), &config);
    // The longest string with an uncertain position: its k + 1 lengths
    // below are densely populated, and its windows have several worlds.
    let probe = order
        .iter()
        .rev()
        .map(|&i| &ds.strings[i])
        .find(|s| s.positions().iter().any(|p| !p.is_certain()))
        .expect("the generator makes uncertain strings");
    let lengths = probe.len() - config.k..=probe.len();

    let mut cache = EquivCache::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut rec = (JoinStats::default(), NoopRecorder);
    let mut stage = |cache: &mut EquivCache, candidates: &mut Vec<u32>| {
        cache.clear();
        candidates.clear();
        for len in lengths.clone() {
            index.collect_candidates_recorded(
                probe, len, &config, None, cache, candidates, &mut rec,
            );
        }
    };
    stage(&mut cache, &mut candidates);
    let warm = candidates.clone();
    assert!(!warm.is_empty(), "the probe surfaces itself at least");

    const REPEATS: u32 = 1000;
    let before = allocations();
    for _ in 0..REPEATS {
        stage(&mut cache, &mut candidates);
    }
    let made = allocations() - before;

    assert_eq!(candidates, warm);
    assert_eq!(
        made, 0,
        "{REPEATS} warm candidate stages allocated {made} times"
    );
}
