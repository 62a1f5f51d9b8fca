//! The segment index costs what `SegmentIndex::estimated_bytes` says:
//! over a 2000-string dblp-like collection the estimate lies within 10% of
//! the live bytes the allocator saw the build leave behind. This binary
//! holds a single test because the counting allocator below is
//! process-wide; the counter itself is per thread so the harness's own
//! threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usj_core::{JoinConfig, SegmentIndex};
use usj_datagen::{DatasetKind, DatasetSpec};

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(bytes: i64) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

#[test]
fn estimated_bytes_match_live_bytes() {
    let ds = DatasetSpec::new(DatasetKind::Dblp, 2000, 11).generate();
    // The paper's dblp defaults, at q = 3 (every instance packs) and at
    // q = 6 (segments over 8 symbols take the boxed-slice table).
    for q in [3, 6] {
        let config = JoinConfig::new(2, 0.1).with_q(q);
        let before = live_bytes();
        let index = SegmentIndex::build((0u32..).zip(&ds.strings), &config);
        let live = live_bytes() - before;
        let estimated = index.estimated_bytes() as i64;
        eprintln!("q={q}: estimated {estimated} bytes, live {live} bytes");
        assert!(
            (estimated - live).abs() * 10 <= live,
            "q={q}: estimate {estimated} is more than 10% off the live {live} bytes"
        );
        assert!(index.peak_bytes() as i64 >= estimated);
    }
}
