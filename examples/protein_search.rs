//! Bioinformatics scenario: similarity *search* over uncertain protein
//! fragments.
//!
//! Builds an [`IndexedCollection`] once, then probes it with uncertain
//! query fragments — the standing-collection workflow (the join is
//! repeated search over a growing prefix; this is the direct API).
//!
//! Run with `cargo run --release --example protein_search`.

use uncertain_join::datagen::{DatasetKind, DatasetSpec};
use uncertain_join::join::{IndexedCollection, JoinConfig};
use uncertain_join::model::UncertainString;

fn main() {
    let ds = DatasetSpec::new(DatasetKind::Protein, 800, 21).generate();
    let config = JoinConfig::new(4, 0.01); // paper defaults for protein
    let sigma = ds.alphabet.size();
    let alphabet = ds.alphabet.clone();
    let collection = IndexedCollection::build(config, sigma, ds.strings);
    println!(
        "indexed {} fragments ({} KiB of postings)",
        collection.len(),
        collection.index_bytes() / 1024
    );

    // Probe with noisy copies of indexed fragments: take a fragment's
    // most probable world and re-inject fresh uncertainty.
    for &source in &[3usize, 100, 555] {
        let world = collection.strings()[source].most_probable_world();
        let mut probe_text = String::new();
        for (i, &sym) in world.instance.iter().enumerate() {
            if i % 7 == 3 {
                // every 7th-ish position becomes uncertain
                let alt = alphabet.char_of((sym + 1) % sigma as u8);
                probe_text.push_str(&format!(
                    "{{({},0.7),({},0.3)}}",
                    alphabet.char_of(sym),
                    alt
                ));
            } else {
                probe_text.push(alphabet.char_of(sym));
            }
        }
        let probe = UncertainString::parse(&probe_text, &alphabet).unwrap();
        let (hits, stats) = collection.search_filtered(&probe, |_| true);
        println!(
            "\nprobe derived from fragment #{source} (len {}): {} hits",
            probe.len(),
            hits.len()
        );
        for hit in hits.iter().take(5) {
            println!("  #{:<4} Pr >= {:.3}", hit.id, hit.prob);
        }
        assert!(
            hits.iter().any(|h| h.id == source as u32),
            "the source fragment itself must be found"
        );
        println!(
            "  (scope {}, q-gram kept {}, verified {})",
            stats.pairs_in_scope,
            stats.qgram_survivors,
            stats.verified_pairs()
        );
    }
}
