//! The segment index stays small. Its bytes scale with the collection: at
//! the paper's dblp defaults the index must hold no more than 1946 bytes
//! (1.9 KB) per indexed string.
//!
//! Ignored by default because it builds a 20000-string collection, which
//! wants a release build:
//!
//! ```bash
//! cargo test --release --offline -p usj-cli --test index_memory -- --ignored
//! ```

use usj_core::{IndexedCollection, JoinConfig};
use usj_datagen::{DatasetKind, DatasetSpec};

/// Index bytes allowed per indexed string.
const BUDGET_PER_STRING: usize = 1946;

#[test]
#[ignore = "builds a 20000-string collection; run in release with --ignored"]
fn dblp_index_fits_the_per_string_budget() {
    let ds = DatasetSpec::new(DatasetKind::Dblp, 20000, 11).generate();
    let n = ds.strings.len();
    let sigma = ds.alphabet.size();
    let collection = IndexedCollection::build(JoinConfig::new(2, 0.1), sigma, ds.strings);
    let per_string = collection.index_bytes() / n;
    eprintln!("{per_string} index bytes per string (q = 3, k = 2)");
    assert!(
        per_string <= BUDGET_PER_STRING,
        "the index holds {per_string} bytes per string, over the {BUDGET_PER_STRING}-byte budget"
    );
}
