//! Snapshots stay readable across index layout changes. The fixture
//! under `tests/fixtures/` was written by `usj snapshot write` before the
//! posting tables were sealed into contiguous runs (40 DNA strings,
//! k = 1, q = 2, τ = 0.1); it must still load on the verified rung, into a
//! collection bit-identical to a cold build of its input.

use std::path::Path;

use usj_core::snapshot::{self, LoadRung, SalvageMode};
use usj_core::{IndexedCollection, JoinConfig};
use usj_datagen::DatasetJson;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

#[test]
fn snapshot_from_the_linked_run_layout_loads_verified() {
    let text = std::fs::read_to_string(format!("{FIXTURES}/snapshot_dna40.json")).unwrap();
    let ds = DatasetJson::from_json(&text)
        .unwrap()
        .into_dataset()
        .unwrap();
    assert_eq!(ds.strings.len(), 40);
    let config = JoinConfig::new(1, 0.1).with_q(2);
    let sigma = ds.alphabet.size();

    let cold = IndexedCollection::build(config.clone(), sigma, ds.strings.clone());
    let loaded = snapshot::load(
        Path::new(&format!("{FIXTURES}/snapshot_dna40.usjsnap")),
        &config,
        sigma,
        ds.strings,
        SalvageMode::Strict,
    )
    .unwrap();
    let report = &loaded.report;
    assert_eq!(report.rung, LoadRung::Verified, "{}", report.reason);
    assert!(report.warm);
    assert_eq!(report.bands_rebuilt, 0);
    assert_eq!(report.corruptions_detected, 0);
    assert_eq!(
        snapshot::collection_digest(&loaded.collection),
        snapshot::collection_digest(&cold)
    );
}
