//! Crash-safe persistent index snapshots.
//!
//! A snapshot is an image of an [`IndexedCollection`]'s sealed segment
//! inverted index, written durably (write-temp, fsync, atomic rename,
//! directory fsync) so the fleet's shards can restart warm instead of
//! paying a full rebuild. Its sections hold the index's arrays as they
//! sit in memory, so a load is one read, one checksum pass, bulk array
//! copies and exactly-sized map inserts, plus the frequency profiles,
//! which are rebuilt from the source records.
//!
//! # On-disk layout
//!
//! A snapshot is a `usj-snapshot v2` image of the crate's one
//! persistence container (the join checkpoint is the other kind): a
//! sealed text header carrying the config + input [`fingerprint`], the
//! concatenated binary sections, and a sealed text footer directory
//! with one `section <name> <offset> <len> <checksum>` row per section.
//! The sections are little-endian binary with `u32` counts. `interner`
//! is the shared segment-instance table in dense id order, each entry
//! its length and either its `u64`
//! [`usj_qgram::pack_instance`] key or, past 8 symbols, its symbol bytes.
//! Each `band.<len>` is the sealed band as it sits in memory: its string
//! ids, each segment's `incomplete_from`, then per segment the run
//! directory (keys ascending, run ends; a run starts where the previous
//! one ends) and the posting `ids` and `probs` (`f64` bits) arrays.
//!
//! Every section carries its own length and FNV checksum in the footer
//! directory, so damage is localised to the section it hit. Decoding
//! also checks what it copies, so a section that checksums clean but
//! does not describe a valid band is rebuilt, never trusted. An image of
//! another format version (such as `usj-snapshot v1`'s text sections) is
//! not decoded: it falls to the rebuild rung.
//!
//! # Recovery ladder
//!
//! [`load`] degrades gracefully, one rung at a time — a damaged snapshot
//! costs load time, never correctness:
//!
//! 1. **Verify-all** — every section checksums clean: decode everything,
//!    warm start ([`LoadRung::Verified`]).
//! 2. **Salvage** — header, footer, and the interner are intact but some
//!    band is corrupt or a band fails salvage (`snapshot.salvage`):
//!    intact bands are admitted as-is and only the damaged ones are
//!    rebuilt from the source records ([`LoadRung::Salvaged`]). Because
//!    the intact interner holds every instance the original build
//!    interned, rebuilding a band replays the cold build exactly.
//!    Under [`SalvageMode::Degraded`], a band that fails salvage is left
//!    out and reported instead; the benchmark's snapshot reload is the
//!    one caller of that mode (servers and shards load strictly).
//! 3. **Refuse** — the header decodes cleanly but its fingerprint does
//!    not match the running config/input: the snapshot belongs to a
//!    different run, and silently rebuilding would mask the operator
//!    error ([`SnapshotError::FingerprintMismatch`]).
//! 4. **Full rebuild** — the file is missing, unreadable, of another
//!    format version, or its header/footer/interner is damaged: cold
//!    build from the source records ([`LoadRung::Rebuilt`]).
//!
//! Fault injection covers the whole I/O path: `snapshot.write`,
//! `snapshot.fsync`, and `snapshot.rename` fire inside the durable
//! write, `snapshot.read` after the image is read back, and
//! `snapshot.salvage` once per band admitted from disk.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::Path;
use std::time::SystemTime;

use usj_model::UncertainString;

use crate::collection::IndexedCollection;
use crate::config::JoinConfig;
use crate::container::{
    self, durable_atomic_write_full, fold_config, fold_string, fold_u64, put_count, put_u32,
    Reader, FNV_SEED,
};
use crate::index::{
    Instance, LengthIndex, PostingTable, SegmentIndex, SegmentInterner, PACKED_MAX,
};

pub use crate::container::{section_directory, SectionEntry};

/// First line of every snapshot image.
pub const SNAPSHOT_MAGIC: &str = "usj-snapshot v2";

/// Why a snapshot could not be written or must not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Rung 3: the snapshot decodes cleanly but was written for a
    /// different configuration or input collection. Loading it would be
    /// wrong and rebuilding silently would mask the operator error.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot header.
        snapshot: u64,
        /// Fingerprint of the running config and input.
        run: u64,
    },
    /// An I/O failure outside the recovery ladder's reach (the durable
    /// write failed, or `verify` could not read the file at all).
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::FingerprintMismatch { snapshot, run } => write!(
                f,
                "snapshot refused: fingerprint mismatch (snapshot {snapshot:016x}, run \
                 {run:016x}) — it was written for a different config or input collection; \
                 delete the snapshot or load it with the inputs it was written for"
            ),
            SnapshotError::Io(msg) => write!(f, "snapshot io: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// How [`load`] treats a band that fails salvage (`snapshot.salvage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageMode {
    /// Rebuild the band from source records inline — the returned
    /// collection is always complete.
    Strict,
    /// Leave the band out and report it in
    /// [`SnapshotReport::degraded_bands`]; the returned collection then
    /// cannot answer for that band's strings. Its one caller is the
    /// benchmark's snapshot reload.
    Degraded,
}

/// Which rung of the recovery ladder a load landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRung {
    /// Every section verified; the whole index came from disk.
    Verified,
    /// Some bands were damaged or failed salvage; intact bands came from
    /// disk, the rest were rebuilt (or degraded).
    Salvaged,
    /// The snapshot was missing or structurally damaged; the index was
    /// rebuilt cold from source records.
    Rebuilt,
}

/// What a [`load`] did, for operator diagnosis and metrics seeding.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// The recovery-ladder rung the load landed on.
    pub rung: LoadRung,
    /// `true` when at least part of the index came from disk.
    pub warm: bool,
    /// Number of length bands the collection needs.
    pub bands_total: usize,
    /// Bands admitted from disk on the salvage rung (0 when verified).
    pub bands_salvaged: usize,
    /// Bands rebuilt from source records.
    pub bands_rebuilt: usize,
    /// Checksum or structural corruptions detected while loading.
    pub corruptions_detected: u64,
    /// Bands left out under [`SalvageMode::Degraded`]; the index holds
    /// none of their strings.
    pub degraded_bands: Vec<usize>,
    /// Snapshot age (now − file mtime) in seconds, when a file was read.
    pub age_seconds: Option<u64>,
    /// Human-readable diagnosis of the path taken.
    pub reason: String,
}

/// A loaded collection plus the report of how it was recovered.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The collection, ready to serve.
    pub collection: IndexedCollection,
    /// What the recovery ladder did to produce it.
    pub report: SnapshotReport,
}

/// What [`write()`] produced.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotWriteReport {
    /// Total image size in bytes.
    pub bytes: usize,
    /// Number of sections written (interner + one per length band).
    pub sections: usize,
    /// The config/input fingerprint recorded in the header.
    pub fingerprint: u64,
}

/// Fingerprint of everything that determines the index a snapshot
/// stores: the output-affecting configuration, the alphabet size, and
/// the input collection in id order. Mirrors the join driver's
/// checkpoint fingerprint minus the wave plan (a snapshot has no waves).
pub fn fingerprint(config: &JoinConfig, sigma: usize, strings: &[UncertainString]) -> u64 {
    let mut h = fold_config(FNV_SEED, config, sigma, strings.len());
    for (id, s) in (0u32..).zip(strings) {
        h = fold_string(h, id, s);
    }
    h
}

/// Deterministic digest of a collection's index content — two
/// collections with equal digests answer every probe identically. Used
/// by `usj snapshot fsck` and the corruption corpus to prove recovery
/// output is bit-identical to a cold rebuild.
pub fn collection_digest(coll: &IndexedCollection) -> u64 {
    let fp = fingerprint(coll.config(), coll.sigma(), coll.strings());
    fold_u64(fp, coll.index().content_digest())
}

// ---------------------------------------------------------------------
// Section codec
// ---------------------------------------------------------------------

/// The `interner` section: the entry count, then each entry in dense id
/// order as its length and either its [`pack_instance`] key (at most
/// [`PACKED_MAX`] symbols) or its symbol bytes.
///
/// [`pack_instance`]: usj_qgram::pack_instance
fn encode_interner(index: &SegmentIndex, out: &mut Vec<u8>) {
    let entries = index.interner().entries();
    put_count(out, entries.len());
    for inst in entries {
        match inst {
            Instance::Packed(len, key) => {
                put_count(out, len);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Instance::Long(w) => {
                put_count(out, w.len());
                out.extend_from_slice(w);
            }
        }
    }
}

/// A `band.<len>` section: segment and id counts, the ids, each
/// segment's `incomplete_from`, then per segment its run directory —
/// run count, keys ascending, run ends — and its posting `ids` and
/// `probs` (as bits). A run starts where the previous one ends.
fn encode_band(li: &LengthIndex, out: &mut Vec<u8>) {
    put_count(out, li.tables().len());
    put_count(out, li.ids().len());
    li.ids().iter().for_each(|&id| put_u32(out, id));
    li.incomplete_from().iter().for_each(|&id| put_u32(out, id));
    for table in li.tables() {
        let runs = table.directory();
        put_count(out, runs.len());
        runs.iter().for_each(|&(key, _)| put_u32(out, key));
        runs.iter().for_each(|&(_, (_, end))| put_u32(out, end));
        table.ids.iter().for_each(|&id| put_u32(out, id));
        for p in &table.probs {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
}

/// The next interner entry: its length, then its packed key or, past
/// [`PACKED_MAX`] symbols, its symbol bytes.
fn instance<'a>(r: &mut Reader<'a>) -> Result<Instance<'a>, String> {
    let len = r.count()?;
    if len > PACKED_MAX {
        return Ok(Instance::Long(r.take(len)?));
    }
    let key = r.u64()?;
    if len < PACKED_MAX && key >> (8 * len) != 0 {
        return Err(format!("key {key:x} is wider than {len} symbols"));
    }
    Ok(Instance::Packed(len, key))
}

/// Restores the interner: one pass checks the entries and counts them
/// per table, a second inserts them into exactly-sized tables.
fn decode_interner(bytes: &[u8]) -> Result<SegmentInterner, String> {
    let mut r = Reader(bytes);
    let n = r.count()?;
    let entries = r;
    let (mut packed, mut long) = ([0usize; PACKED_MAX + 1], 0usize);
    for _ in 0..n {
        match instance(&mut r)? {
            Instance::Packed(len, _) => packed[len] += 1,
            Instance::Long(_) => long += 1,
        }
    }
    r.finish()?;
    let mut interner = SegmentInterner::with_capacity(packed, long);
    let mut r = entries;
    for id in 0..n {
        if interner.insert(instance(&mut r)?) as usize != id {
            return Err(format!("interner entry {id} repeats an earlier one"));
        }
    }
    Ok(interner)
}

/// Restores band `len`, checking everything it copies: the ids must be
/// `members` (the band's source records), and each segment's run
/// directory must hold non-empty runs with keys ascending below
/// `interner_len` and ids ascending within a run and within the band.
fn decode_band(
    bytes: &[u8],
    len: usize,
    members: &[u32],
    interner_len: usize,
    config: &JoinConfig,
) -> Result<LengthIndex, String> {
    let mut r = Reader(bytes);
    let m = r.count()?;
    let n = r.count()?;
    let ids = r.array(n, u32::from_le_bytes)?;
    if ids != members {
        return Err("ids differ from the band's source records".to_string());
    }
    let incomplete_from = r.array(m, u32::from_le_bytes)?;
    let last_id = ids.last().copied().unwrap_or(0);
    let mut tables = Vec::with_capacity(m);
    for x in 0..m {
        let runs = r.count()?;
        let keys = r.array(runs, u32::from_le_bytes)?;
        let ends = r.array(runs, u32::from_le_bytes)?;
        if !keys.windows(2).all(|w| w[0] < w[1])
            || keys.last().is_some_and(|&key| key as usize >= interner_len)
        {
            return Err(format!(
                "segment {x}: keys not ascending below {interner_len}"
            ));
        }
        let postings = ends.last().copied().unwrap_or(0) as usize;
        let table_ids = r.array(postings, u32::from_le_bytes)?;
        let mut start = 0;
        for &end in &ends {
            let run = table_ids
                .get(start as usize..end as usize)
                .unwrap_or_default();
            if run.is_empty()
                || !run.windows(2).all(|w| w[0] < w[1])
                || run.last().is_some_and(|&id| id > last_id)
            {
                return Err(format!("segment {x}: malformed run ending at {end}"));
            }
            start = end;
        }
        let probs = r.array(postings, |b| f64::from_bits(u64::from_le_bytes(b)))?;
        tables.push(PostingTable::from_runs(&keys, &ends, table_ids, probs));
    }
    r.finish()?;
    LengthIndex::from_image(len, config, ids, incomplete_from, tables)
}

/// `coll`'s complete snapshot image and what [`write()`] reports of it.
fn image(coll: &IndexedCollection) -> (Vec<u8>, SnapshotWriteReport) {
    let index = coll.index();
    let fp = fingerprint(coll.config(), coll.sigma(), coll.strings());
    let mut body = Vec::new();
    encode_interner(index, &mut body);
    let mut cuts = vec![("interner".to_string(), body.len())];
    for len in index.lengths() {
        let li = index.length_index(len).expect("listed length is indexed");
        encode_band(li, &mut body);
        cuts.push((format!("band.{len}"), body.len()));
    }
    let mut start = 0;
    let sections: Vec<(String, &[u8])> = cuts
        .into_iter()
        .map(|(name, end)| {
            let section = (name, &body[start..end]);
            start = end;
            section
        })
        .collect();
    let out = container::seal(SNAPSHOT_MAGIC, fp, &sections);
    let report = SnapshotWriteReport {
        bytes: out.len(),
        sections: sections.len(),
        fingerprint: fp,
    };
    (out, report)
}

/// Writes `coll`'s index snapshot to `path` durably: write-temp, fsync,
/// atomic rename, directory fsync, with the `snapshot.write`,
/// `snapshot.fsync`, and `snapshot.rename` failpoints armed along the
/// way. A crash at any point leaves either the old snapshot or the new
/// one — never a torn mix.
pub fn write(path: &Path, coll: &IndexedCollection) -> Result<SnapshotWriteReport, SnapshotError> {
    let (bytes, report) = image(coll);
    durable_atomic_write_full(
        path,
        &bytes,
        "snapshot.write",
        Some("snapshot.fsync"),
        Some("snapshot.rename"),
    )
    .map_err(|e| SnapshotError::Io(e.to_string()))?;
    Ok(report)
}

// ---------------------------------------------------------------------
// Verify (checksum walk only)
// ---------------------------------------------------------------------

/// Checksum status of one section, as reported by [`verify`].
#[derive(Debug, Clone)]
pub struct SectionStatus {
    /// Section name.
    pub name: String,
    /// Section length in bytes.
    pub bytes: usize,
    /// `true` when the section's checksum matches its content.
    pub ok: bool,
}

/// What a checksum walk over a snapshot image found.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The fingerprint recorded in the header (0 if unreadable).
    pub fingerprint: u64,
    /// Per-section checksum status (empty if the directory is damaged).
    pub sections: Vec<SectionStatus>,
    /// `true` when the header, footer, and every section verify.
    pub ok: bool,
    /// Human-readable diagnosis when `ok` is `false`.
    pub diagnosis: String,
}

/// Walks a snapshot image's checksums without decoding or rebuilding
/// anything: header digest, footer digest, then every section against
/// its directory row. Missing files are I/O errors — `verify` has no
/// rebuild rung to fall to.
pub fn verify(path: &Path) -> Result<VerifyReport, SnapshotError> {
    let bytes =
        fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    if let Some(msg) = usj_fault::fire_err("snapshot.read") {
        return Err(SnapshotError::Io(format!("injected fault: {msg}")));
    }
    let image = match container::open(&bytes, SNAPSHOT_MAGIC) {
        Ok(image) => image,
        Err(e) => {
            return Ok(VerifyReport {
                fingerprint: e.fingerprint.unwrap_or(0),
                sections: Vec::new(),
                ok: false,
                diagnosis: e.reason,
            })
        }
    };
    let mut sections = Vec::with_capacity(image.sections.len());
    let mut bad = Vec::new();
    for entry in &image.sections {
        let ok = image.decode(&entry.name, Ok).is_ok();
        if !ok {
            bad.push(entry.name.clone());
        }
        sections.push(SectionStatus {
            name: entry.name.clone(),
            bytes: entry.len,
            ok,
        });
    }
    let ok = bad.is_empty();
    Ok(VerifyReport {
        fingerprint: image.fingerprint,
        sections,
        ok,
        diagnosis: if ok {
            String::new()
        } else {
            format!("corrupt sections: {}", bad.join(", "))
        },
    })
}

// ---------------------------------------------------------------------
// Load (the recovery ladder)
// ---------------------------------------------------------------------

/// Why [`attempt`] could not serve the load from the image.
enum Fallback {
    /// Rung 3: refuse — the snapshot belongs to a different run.
    Refuse { snapshot: u64 },
    /// Rung 4: cold rebuild.
    Cold { reason: String, corruptions: u64 },
}

/// Rungs 1–2: the index read from the image, the bands still to rebuild
/// from source records, and the load report.
type Warm = (SegmentIndex, Vec<usize>, SnapshotReport);

/// Walks the ladder as far as the image at `path` allows. `bands` maps
/// each length the collection needs to the ids of its source records.
fn attempt(
    path: &Path,
    run_fp: u64,
    bands: &BTreeMap<usize, Vec<u32>>,
    config: &JoinConfig,
    mode: SalvageMode,
) -> Result<Warm, Fallback> {
    let cold = |reason: String, corruptions: u64| Fallback::Cold {
        reason,
        corruptions,
    };
    let bytes = fs::read(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => cold("snapshot missing".to_string(), 0),
        _ => cold(format!("snapshot unreadable: {e}"), 0),
    })?;
    if let Some(msg) = usj_fault::fire_err("snapshot.read") {
        return Err(cold(format!("injected read fault: {msg}"), 0));
    }
    let image = container::open(&bytes, SNAPSHOT_MAGIC).map_err(|e| match e.fingerprint {
        // A sound header is refused on its fingerprint even when the
        // footer is damaged; an older version is not damage.
        Some(snapshot) if e.damaged && snapshot != run_fp => Fallback::Refuse { snapshot },
        _ => cold(e.reason, u64::from(e.damaged)),
    })?;
    if image.fingerprint != run_fp {
        return Err(Fallback::Refuse {
            snapshot: image.fingerprint,
        });
    }
    // Without the interner no posting key in any band means anything —
    // the whole snapshot is unusable.
    let interner = image
        .decode("interner", decode_interner)
        .map_err(|e| cold(format!("interner unusable: {e}"), 1))?;
    let mut corruptions = 0u64;
    let mut reasons: Vec<String> = Vec::new();
    let mut admitted = Vec::with_capacity(bands.len());
    let mut repair: Vec<usize> = Vec::new();
    let mut degraded = Vec::new();
    for (&len, members) in bands {
        let decoded = image.decode(&format!("band.{len}"), |b| {
            decode_band(b, len, members, interner.len(), config)
        });
        match decoded {
            Ok(li) => match usj_fault::fire_err("snapshot.salvage") {
                None => admitted.push((len, li)),
                Some(msg) => {
                    reasons.push(format!("band {len} failed salvage: {msg}"));
                    match mode {
                        SalvageMode::Strict => repair.push(len),
                        SalvageMode::Degraded => degraded.push(len),
                    }
                }
            },
            Err(e) => {
                corruptions += 1;
                reasons.push(format!("band {len}: {e}"));
                repair.push(len);
            }
        }
    }
    let clean = reasons.is_empty();
    let report = SnapshotReport {
        rung: if clean {
            LoadRung::Verified
        } else {
            LoadRung::Salvaged
        },
        warm: true,
        bands_total: bands.len(),
        bands_salvaged: if clean { 0 } else { admitted.len() },
        bands_rebuilt: repair.len(),
        corruptions_detected: corruptions,
        degraded_bands: degraded,
        age_seconds: snapshot_age(path),
        reason: if clean {
            "verified".to_string()
        } else {
            reasons.join("; ")
        },
    };
    Ok((SegmentIndex::from_image(interner, admitted), repair, report))
}

fn snapshot_age(path: &Path) -> Option<u64> {
    let modified = fs::metadata(path).and_then(|m| m.modified()).ok()?;
    SystemTime::now()
        .duration_since(modified)
        .ok()
        .map(|d| d.as_secs())
}

/// Loads a collection from `path`, falling down the recovery ladder as
/// far as the damage requires (see the module docs). `strings` are the
/// source records the collection indexes — they are what corrupt bands
/// (or the whole index, on rung 4) are rebuilt from, so a damaged
/// snapshot can cost load time but never correctness.
///
/// Rung 3 — a cleanly-decoded header whose fingerprint does not match
/// `config`/`sigma`/`strings` — returns
/// [`SnapshotError::FingerprintMismatch`] instead of silently
/// rebuilding: the operator pointed the process at the wrong snapshot.
pub fn load(
    path: &Path,
    config: &JoinConfig,
    sigma: usize,
    strings: Vec<UncertainString>,
    mode: SalvageMode,
) -> Result<LoadedSnapshot, SnapshotError> {
    let run_fp = fingerprint(config, sigma, &strings);
    let mut bands: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for (id, s) in (0u32..).zip(&strings) {
        bands.entry(s.len()).or_default().push(id);
    }
    match attempt(path, run_fp, &bands, config, mode) {
        Ok((mut index, repair, report)) => {
            for &len in &repair {
                index.rebuild_band(len, &strings, config);
            }
            Ok(LoadedSnapshot {
                collection: IndexedCollection::from_index(config.clone(), sigma, strings, index),
                report,
            })
        }
        Err(Fallback::Refuse { snapshot }) => Err(SnapshotError::FingerprintMismatch {
            snapshot,
            run: run_fp,
        }),
        Err(Fallback::Cold {
            reason,
            corruptions,
        }) => Ok(LoadedSnapshot {
            collection: IndexedCollection::build(config.clone(), sigma, strings),
            report: SnapshotReport {
                rung: LoadRung::Rebuilt,
                warm: false,
                bands_total: bands.len(),
                bands_salvaged: 0,
                bands_rebuilt: bands.len(),
                corruptions_detected: corruptions,
                degraded_bands: Vec::new(),
                age_seconds: None,
                reason,
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_model::Alphabet;

    fn dna(text: &str) -> UncertainString {
        UncertainString::parse(text, &Alphabet::dna()).unwrap()
    }

    fn strings() -> Vec<UncertainString> {
        vec![
            dna("ACGTACGT"),
            dna("ACG{(T,0.9),(G,0.1)}ACGT"),
            dna("TTTTTTTT"),
            dna("ACGTACG"),
            dna("ACGTACGTAC"),
            dna("AC{(G,0.6),(T,0.4)}TAC"),
        ]
    }

    fn config() -> JoinConfig {
        JoinConfig::new(2, 0.3)
    }

    #[test]
    fn roundtrip_is_bit_identical_to_cold_build() {
        let dir = container::scratch_dir("roundtrip");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Verified);
        assert!(loaded.report.warm);
        assert_eq!(loaded.report.bands_salvaged, 0);
        assert_eq!(loaded.report.bands_rebuilt, 0);
        assert_eq!(loaded.report.corruptions_detected, 0);
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        // Tables restored at exact capacity match the cold build's.
        assert_eq!(loaded.collection.index_bytes(), cold.index_bytes());
        // The loaded index answers probes identically.
        for probe in ["ACGTACGT", "ACGT{(A,0.5),(C,0.5)}CGT", "GGGGGGGG"] {
            let probe = dna(probe);
            assert_eq!(loaded.collection.search(&probe), cold.search(&probe));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_is_deterministic_and_directory_parses() {
        let coll = IndexedCollection::build(config(), 4, strings());
        let (a, _) = image(&coll);
        let (b, _) = image(&coll);
        assert_eq!(a, b, "snapshot encoding must be deterministic");
        let dir = section_directory(&a).unwrap();
        assert_eq!(dir[0].name, "interner");
        // One band per distinct string length plus the interner.
        let mut lens: Vec<usize> = strings().iter().map(|s| s.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        assert_eq!(dir.len(), lens.len() + 1);
        // Sections tile the body exactly.
        for pair in dir.windows(2) {
            assert_eq!(pair[0].offset + pair[0].len, pair[1].offset);
        }
    }

    #[test]
    fn missing_snapshot_falls_to_full_rebuild() {
        let dir = container::scratch_dir("missing");
        let loaded = load(
            &dir.join("absent.snap"),
            &config(),
            4,
            strings(),
            SalvageMode::Strict,
        )
        .unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Rebuilt);
        assert!(!loaded.report.warm);
        assert_eq!(loaded.report.corruptions_detected, 0);
        let cold = IndexedCollection::build(config(), 4, strings());
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_band_is_detected_and_rebuilt_bit_identically() {
        let dir = container::scratch_dir("band");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let entries = section_directory(&bytes).unwrap();
        let band = entries
            .iter()
            .find(|e| e.name.starts_with("band."))
            .unwrap();
        // Flip one bit in the middle of the band section.
        let mid = band.offset + band.len / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Salvaged);
        assert!(loaded.report.warm);
        assert_eq!(loaded.report.corruptions_detected, 1);
        assert_eq!(loaded.report.bands_rebuilt, 1);
        assert!(loaded.report.bands_salvaged >= 1);
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A band whose run directory is damaged but whose checksums were
    /// re-sealed over the damage must fail decode validation, not
    /// panic, and be rebuilt bit-identically.
    #[test]
    fn resealed_damage_to_a_run_directory_is_salvaged() {
        let dir = container::scratch_dir("reseal");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let entries = section_directory(&bytes).unwrap();
        let band = entries.iter().find(|e| e.name == "band.8").unwrap();
        // Segment 0's first run end follows the counts, ids, flags, run
        // count and keys.
        let mut r = Reader(&bytes[band.offset..]);
        let (m, n) = (r.count().unwrap(), r.count().unwrap());
        r.take(4 * (n + m)).unwrap();
        let runs = r.count().unwrap();
        assert!(m > 0 && runs > 0, "band.8 has a run to damage");
        let end0 = bytes.len() - r.0.len() + 4 * runs;
        bytes[end0..end0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let sections: Vec<(String, &[u8])> = entries
            .iter()
            .map(|e| (e.name.clone(), &bytes[e.offset..e.offset + e.len]))
            .collect();
        let fp = fingerprint(&config(), 4, &strings());
        let resealed = container::seal(SNAPSHOT_MAGIC, fp, &sections);
        std::fs::write(&path, &resealed).unwrap();
        assert!(verify(&path).unwrap().ok, "checksums were re-sealed");
        let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Salvaged);
        assert_eq!(loaded.report.corruptions_detected, 1);
        assert_eq!(loaded.report.bands_rebuilt, 1);
        assert!(
            loaded.report.reason.contains("band 8"),
            "{}",
            loaded.report.reason
        );
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_interner_falls_to_full_rebuild() {
        let dir = container::scratch_dir("interner");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let entries = section_directory(&bytes).unwrap();
        let interner = entries.iter().find(|e| e.name == "interner").unwrap();
        bytes[interner.offset + 1] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Rebuilt);
        assert!(loaded.report.corruptions_detected >= 1);
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_with_diagnosis() {
        let dir = container::scratch_dir("fp");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        // Same strings, different tau: the snapshot must be refused, not
        // silently rebuilt.
        let other = JoinConfig::new(2, 0.5);
        let err = load(&path, &other, 4, strings(), SalvageMode::Strict).unwrap_err();
        match err {
            SnapshotError::FingerprintMismatch { snapshot, run } => {
                assert_ne!(snapshot, run);
                let msg = err.to_string();
                assert!(msg.contains("fingerprint mismatch"), "{msg}");
            }
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_fingerprint_line_breaks_header_digest_not_refusal() {
        // A bit flip inside the fingerprint hex must land on the rebuild
        // rung (corrupt header), not masquerade as an operator error.
        let dir = container::scratch_dir("fpline");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = SNAPSHOT_MAGIC.len() + 1 + "fingerprint ".len();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Rebuilt);
        assert_eq!(loaded.report.corruptions_detected, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sealed header whose body length overflows the footer offset is
    /// corrupt, not a panic.
    #[test]
    fn overflowing_body_length_is_rejected() {
        let head = format!(
            "{SNAPSHOT_MAGIC}\nfingerprint {:016x}\nbody {} sections 1\n",
            0,
            usize::MAX
        );
        let sealed = format!("{head}header {:016x}\n", container::fnv1a(head.as_bytes()));
        let err = section_directory(sealed.as_bytes()).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    /// A sealed header declaring `usize::MAX` sections, followed by a
    /// newline-terminated footer, is corrupt, not an overflow panic.
    #[test]
    fn overflowing_section_count_is_rejected() {
        let (max, zero) = (usize::MAX, "0".repeat(16));
        let head = format!("{SNAPSHOT_MAGIC}\nfingerprint {zero}\nbody 0 sections {max}\n");
        let hdigest = container::fnv1a(head.as_bytes());
        let image = format!("{head}header {hdigest:016x}\nfooter 0\ndigest {zero}\n");
        let err = section_directory(image.as_bytes()).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn verify_walks_checksums() {
        let dir = container::scratch_dir("verify");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let report = verify(&path).unwrap();
        assert!(report.ok, "{report:?}");
        assert!(report.sections.iter().all(|s| s.ok));
        // Every single-bit flip anywhere fails: the header and footer by
        // their digests, the sections by their checksums, the digest
        // lines by their lowercase spelling.
        let pristine = std::fs::read(&path).unwrap();
        for pos in 0..pristine.len() {
            for bit in 0..8 {
                let mut bytes = pristine.clone();
                bytes[pos] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                let ok = verify(&path).unwrap().ok;
                assert!(!ok, "flip of bit {bit} at byte {pos} passed verify");
            }
        }
        let mut bytes = pristine;
        let entries = section_directory(&bytes).unwrap();
        let band = entries
            .iter()
            .find(|e| e.name.starts_with("band."))
            .unwrap();
        let name = band.name.clone();
        bytes[band.offset + band.len - 2] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let report = verify(&path).unwrap();
        assert!(!report.ok);
        assert!(report.diagnosis.contains(&name), "{report:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_quarter_is_detected() {
        let dir = container::scratch_dir("trunc");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let full = std::fs::read(&path).unwrap();
        for q in [1usize, 2, 3] {
            let cut = full.len() * q / 4;
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = load(&path, &config(), 4, strings(), SalvageMode::Strict).unwrap();
            assert!(
                loaded.report.corruptions_detected >= 1,
                "truncation at {cut}/{} went undetected",
                full.len()
            );
            assert_eq!(
                collection_digest(&loaded.collection),
                collection_digest(&cold),
                "recovery after truncation at {cut} diverged"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_strings_roundtrip_through_a_segmentless_band() {
        let dir = container::scratch_dir("empty");
        let path = dir.join("index.snap");
        let mut input = strings();
        input.push(UncertainString::empty());
        input.push(UncertainString::empty());
        let cold = IndexedCollection::build(config(), 4, input.clone());
        write(&path, &cold).unwrap();
        let loaded = load(&path, &config(), 4, input, SalvageMode::Strict).unwrap();
        assert_eq!(loaded.report.rung, LoadRung::Verified);
        assert_eq!(
            collection_digest(&loaded.collection),
            collection_digest(&cold)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
