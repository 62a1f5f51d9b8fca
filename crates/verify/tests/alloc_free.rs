//! Verification on a warmed verifier performs no heap allocation: the
//! trie, the active-set buffers and the transition's scratch are all
//! reused. This binary holds a single test because the counting
//! allocator below is process-wide; the counter itself is per thread so
//! the harness's own threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usj_model::{Alphabet, UncertainString};
use usj_verify::LazyTrieVerifier;

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
fn warmed_lazy_verifier_does_not_allocate() {
    let alpha = Alphabet::dna();
    let probe = UncertainString::parse(
        "AC{(G,0.5),(T,0.5)}TACG{(A,0.4),(C,0.3),(G,0.3)}TTAC{(A,0.5),(G,0.5)}A",
        &alpha,
    )
    .unwrap();
    let candidate =
        UncertainString::parse("ACGT{(A,0.6),(C,0.4)}CGATT{(A,0.5),(C,0.5)}CAA", &alpha).unwrap();
    // Exact mode walks every live prefix; with early stop the walk fills
    // the same per-depth visit order and returns at its decision.
    for early_stop in [false, true] {
        let verifier = LazyTrieVerifier::new(&probe, 3, 0.3);
        let mut verifier = if early_stop {
            verifier
        } else {
            verifier.without_early_stop()
        };
        let first = verifier.verify(&candidate);
        assert!(first.prob > 0.0, "the pair must exercise the walk");

        let before = allocations();
        let again = verifier.verify(&candidate);
        let made = allocations() - before;

        assert_eq!(
            made, 0,
            "early_stop={early_stop}: re-verification allocated {made} times"
        );
        assert_eq!(again.prob.to_bits(), first.prob.to_bits());
        assert_eq!(again.stats, first.stats);
    }
}
