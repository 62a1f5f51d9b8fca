//! One shard of a partitioned serving fleet.
//!
//! A shard is the single-node server of [`crate::server`] bound to one
//! length band of a [`Partition`]: it indexes only its slice of the
//! collection (the per-(length, segment) signature structure makes that
//! slice's index fully self-contained) and serves the ordinary wire
//! protocol. The only sharding-visible behaviours are:
//!
//! * hit and candidate ids on the wire are **collection-global** (the
//!   server remaps its dense local ids through the slice's ascending id
//!   list, so per-shard answers merge into the single-node answer by a
//!   plain sorted merge);
//! * admission fires the `shard.accept` failpoint instead of
//!   `serve.accept`, so fault suites can kill one shard's admission
//!   path while a standalone baseline server stays healthy.
//!
//! Everything else — degradation ladder, deadlines, panic isolation,
//! drain — is inherited unchanged, which is the point: shard death and
//! shard overload look exactly like single-node death and overload, and
//! the coordinator ([`crate::coordinator`]) owns the fleet-level story.

use std::io;
use std::path::{Path, PathBuf};

use usj_core::{IndexedCollection, JoinConfig, Partition, ShardSlice, SnapshotReport};
use usj_model::{Alphabet, UncertainString};

use crate::server::{serve_boot, serve_snapshot_with_map, ServeConfig, ServerHandle};

/// The deterministic length-band partition for `strings`: both `usj
/// shard` and `usj coord` invocations recompute it from the same input
/// file and agree on the layout.
pub fn shard_partition(strings: &[UncertainString], n: usize) -> Partition {
    let lens: Vec<usize> = strings.iter().map(|s| s.len()).collect();
    Partition::by_length(&lens, n)
}

/// Builds shard `shard_idx`'s slice of `strings` into its own
/// [`IndexedCollection`] and serves it. Answers carry collection-global
/// ids. Returns `InvalidInput` when `shard_idx` is out of range.
pub fn serve_shard(
    config: JoinConfig,
    alphabet: Alphabet,
    strings: &[UncertainString],
    partition: &Partition,
    shard_idx: usize,
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let (slice, subset) = shard_subset(strings, partition, shard_idx)?;
    let coll = IndexedCollection::build(config, alphabet.size(), subset);
    serve_boot(coll, alphabet, cfg, Some(slice.ids.clone()), None)
}

/// [`serve_shard`] booting from this shard's own snapshot file (see
/// [`shard_snapshot_path`]): the shard loads its slice through the full
/// recovery ladder (as [`crate::serve_from_snapshot`] does) — warm when
/// the image verifies or salvages, with any band that failed salvage
/// rebuilt before the shard binds, and cold-rebuilt otherwise
/// (re-writing the image for the next restart). The snapshot's
/// fingerprint covers only this shard's slice, so a repartitioned fleet
/// refuses stale images with a diagnosis instead of serving the wrong
/// subset.
pub fn serve_shard_from_snapshot(
    snapshot_path: &Path,
    config: JoinConfig,
    alphabet: Alphabet,
    strings: &[UncertainString],
    partition: &Partition,
    shard_idx: usize,
    cfg: ServeConfig,
) -> io::Result<(ServerHandle, SnapshotReport)> {
    let (slice, subset) = shard_subset(strings, partition, shard_idx)?;
    let path = shard_snapshot_path(snapshot_path, shard_idx);
    serve_snapshot_with_map(
        &path,
        config,
        subset,
        alphabet,
        cfg,
        Some(slice.ids.clone()),
    )
}

/// The per-shard snapshot file derived from the fleet-level base path:
/// `<base>.shard<idx>`. Every shard of a fleet shares one `--snapshot`
/// argument and lands on its own file.
pub fn shard_snapshot_path(base: &Path, shard_idx: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".shard{shard_idx}"));
    PathBuf::from(name)
}

fn shard_subset<'a>(
    strings: &[UncertainString],
    partition: &'a Partition,
    shard_idx: usize,
) -> io::Result<(&'a ShardSlice, Vec<UncertainString>)> {
    let Some(slice) = partition.shards.get(shard_idx) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "shard index {shard_idx} out of range for a {}-shard partition",
                partition.len()
            ),
        ));
    };
    let subset: Vec<UncertainString> = slice
        .ids
        .iter()
        .map(|&id| strings[id as usize].clone())
        .collect();
    Ok((slice, subset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_shard_index_is_rejected() {
        let alpha = Alphabet::dna();
        let strings = vec![UncertainString::parse("ACGT", &alpha).unwrap()];
        let partition = shard_partition(&strings, 2);
        let result = serve_shard(
            JoinConfig::new(1, 0.3),
            alpha,
            &strings,
            &partition,
            5,
            ServeConfig::default(),
        );
        match result {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::InvalidInput),
            Ok(_) => panic!("out-of-range shard index was accepted"),
        }
    }
}
