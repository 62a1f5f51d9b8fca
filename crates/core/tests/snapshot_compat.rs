//! Snapshots of an older format version are refused explicitly, not
//! decoded. The fixture under `tests/fixtures/` is a `usj-snapshot v1`
//! text image written by `usj snapshot write` (40 DNA strings, k = 1,
//! q = 2, τ = 0.1). Loading it must fall to the rebuild rung with a
//! reason that names the version, into a collection bit-identical to a
//! cold build of its input; a server booted from it rewrites the image
//! in the current format.

use std::path::Path;

use usj_core::snapshot::{self, LoadRung, SalvageMode, SNAPSHOT_MAGIC};
use usj_core::{IndexedCollection, JoinConfig};
use usj_datagen::DatasetJson;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

#[test]
fn snapshot_of_an_older_version_is_refused_and_rebuilt() {
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
    assert_eq!(report.rung, LoadRung::Rebuilt, "{}", report.reason);
    assert!(
        report.reason.contains("unsupported snapshot version")
            && report.reason.contains("usj-snapshot v1")
            && report.reason.contains(SNAPSHOT_MAGIC),
        "{}",
        report.reason
    );
    assert_eq!(
        snapshot::collection_digest(&loaded.collection),
        snapshot::collection_digest(&cold)
    );
}
