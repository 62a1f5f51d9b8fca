//! Frequency profiles stay small. Every indexed string keeps one, so
//! their bytes scale with the collection: at the paper's dblp defaults a
//! profile must hold no more than 1.5 KB on the heap on average.
//!
//! Ignored by default because it builds a 20000-string collection, which
//! wants a release build:
//!
//! ```bash
//! cargo test --release --offline -p usj-cli --test profile_memory -- --ignored
//! ```

use usj_datagen::{DatasetKind, DatasetSpec};
use usj_freq::FreqProfile;

/// Heap bytes a profile may hold on average.
const BUDGET_PER_STRING: usize = 1536;

#[test]
#[ignore = "builds a 20000-string collection; run in release with --ignored"]
fn dblp_profiles_fit_the_per_string_budget() {
    let ds = DatasetSpec::new(DatasetKind::Dblp, 20000, 11).generate();
    let sigma = ds.alphabet.size();
    let bytes: usize = ds
        .strings
        .iter()
        .map(|s| FreqProfile::new(s, sigma).heap_bytes())
        .sum();
    let per_string = bytes / ds.strings.len();
    eprintln!("{per_string} heap bytes per profile (sigma {sigma})");
    assert!(
        per_string <= BUDGET_PER_STRING,
        "profiles hold {per_string} bytes per string, over the {BUDGET_PER_STRING}-byte budget"
    );
}
