//! Indexing a string whose segment instances are all interned already
//! allocates per table growth, not per instance: each instance is one
//! lookup plus one push onto its table's posting arena. This binary holds
//! a single test because the counting allocator below is process-wide;
//! the counter itself is per thread so the harness's own threads cannot
//! disturb it.

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

#[test]
fn duplicate_inserts_allocate_per_table_growth_not_per_instance() {
    let config = JoinConfig::new(2, 0.1);
    let s = UncertainString::parse(
        "AC{(G,0.5),(T,0.5)}TACG{(A,0.4),(C,0.3),(G,0.3)}TTAC{(A,0.5),(G,0.5)}AGGT",
        &Alphabet::dna(),
    )
    .unwrap();
    let mut index = SegmentIndex::new();
    index.insert(0, &s, &config);
    let interned = index.interner().len();

    const DUPLICATES: u32 = 1000;
    let before = allocations();
    for id in 1..=DUPLICATES {
        index.insert(id, &s, &config);
    }
    let made = allocations() - before;

    assert_eq!(
        index.interner().len(),
        interned,
        "duplicates intern nothing"
    );
    assert_eq!(index.num_strings(), DUPLICATES as usize + 1);
    assert!(
        made < u64::from(DUPLICATES),
        "{DUPLICATES} duplicate inserts allocated {made} times"
    );
}
