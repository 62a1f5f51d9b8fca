//! Building the segment index allocates per table, not per instance: a
//! band's postings are staged in one growing buffer per segment and sealed
//! into exact-sized arrays, and a new short segment instance is one entry
//! in a packed interner table, so allocations come from buffer and table
//! growth only. This binary holds a single test because the counting
//! allocator below is process-wide; the counter itself is per thread so
//! the harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usj_core::{JoinConfig, SegmentIndex};
use usj_model::{Alphabet, UncertainString};

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

/// Allocations made while building an index of `strings` (ids in order)
/// under `config`, and the index built.
fn counted_build(strings: &[UncertainString], config: &JoinConfig) -> (u64, SegmentIndex) {
    let before = allocations();
    let index = SegmentIndex::build((0u32..).zip(strings), config);
    (allocations() - before, index)
}

/// Allocations a band build may make whatever its string count: each
/// staging buffer, the id array and each interner table grow by doubling,
/// and sealing allocates a fixed number of arrays per table.
const BUILD_BUDGET: u64 = 128;

#[test]
fn band_builds_allocate_per_table_not_per_string_or_instance() {
    let dna = Alphabet::dna();

    // A band of duplicates: the same small budget holds at 1000 strings
    // and at eight times as many.
    let config = JoinConfig::new(2, 0.1);
    let s = UncertainString::parse(
        "AC{(G,0.5),(T,0.5)}TACG{(A,0.4),(C,0.3),(G,0.3)}TTAC{(A,0.5),(G,0.5)}AGGT",
        &dna,
    )
    .unwrap();
    for count in [1000usize, 8000] {
        let strings = vec![s.clone(); count];
        let (made, index) = counted_build(&strings, &config);
        assert_eq!(index.num_strings(), count);
        assert!(
            made <= BUILD_BUDGET,
            "a band of {count} duplicates allocated {made} times"
        );
    }

    // 10,000 new 8-symbol instances: at q = 8, k = 1 a 16-symbol string
    // is two 8-symbol segments. The first spells the string's id in base
    // 4, so every string brings a new instance; the second is shared.
    let config = JoinConfig::new(1, 0.1).with_q(8);
    const NEW: usize = 10_000;
    let strings: Vec<UncertainString> = (0..NEW)
        .map(|i| {
            let head: String = (0..8)
                .map(|d| b"ACGT"[(i >> (2 * d)) & 3] as char)
                .collect();
            UncertainString::parse(&format!("{head}CCCCCCCC"), &dna).unwrap()
        })
        .collect();
    let (made, index) = counted_build(&strings, &config);
    assert_eq!(index.interner().len(), NEW + 1, "one entry per instance");
    assert!(
        made <= BUILD_BUDGET,
        "interning {NEW} new instances allocated {made} times"
    );
}
