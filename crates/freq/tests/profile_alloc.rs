//! A frequency profile costs what `FreqProfile::heap_bytes` says: building
//! one makes at most three allocations whatever the alphabet size, and
//! summed over a collection the reported bytes equal the live bytes the
//! allocator saw. This binary holds a single test because the counting
//! allocator below is process-wide; the counters themselves are per
//! thread so the harness's own threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usj_datagen::{DatasetKind, DatasetSpec};
use usj_freq::FreqProfile;
use usj_model::rng::{random_string, Rng};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocations: u64, bytes: i64) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

#[test]
fn profiles_allocate_little_and_report_their_bytes_exactly() {
    // At most three allocations per build, for any σ, from empty and
    // fully certain strings up to many uncertain positions.
    let mut rng = Rng::new(17);
    for sigma in [1u8, 2, 4, 27, 64] {
        for max_alts in [1, 3, 6] {
            for _ in 0..50 {
                let s = random_string(&mut rng, sigma, 0..60, max_alts);
                let before = allocations();
                let profile = FreqProfile::new(&s, usize::from(sigma));
                let made = allocations() - before;
                assert!(
                    made <= 3,
                    "sigma={sigma}: {made} allocations for a {}-position string",
                    s.len()
                );
                drop(profile);
            }
        }
    }

    // Summed over a collection, `heap_bytes` is the live-byte delta.
    let ds = DatasetSpec::new(DatasetKind::Dblp, 2000, 11).generate();
    let sigma = ds.alphabet.size();
    let mut profiles: Vec<FreqProfile> = Vec::with_capacity(ds.strings.len());
    let before = live_bytes();
    profiles.extend(ds.strings.iter().map(|s| FreqProfile::new(s, sigma)));
    let live = live_bytes() - before;
    let reported: usize = profiles.iter().map(FreqProfile::heap_bytes).sum();
    assert_eq!(live, reported as i64);
    assert!(profiles.iter().any(|p| p.total_uncertain() > 0));
}
