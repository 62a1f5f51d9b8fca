//! Crash-safe persistent index snapshots.
//!
//! A snapshot is an image of an [`IndexedCollection`]'s sealed segment
//! inverted index, written durably (write-temp, fsync, atomic rename,
//! directory fsync — see [`crate::checkpoint`]) so the fleet's shards can
//! restart warm instead of paying a full rebuild. Its sections hold the
//! index's arrays as they sit in memory, so a load is one read, one
//! checksum pass, bulk array copies and exactly-sized map inserts, plus
//! the frequency profiles, which are rebuilt from the source records.
//!
//! # On-disk layout
//!
//! ```text
//! usj-snapshot v2
//! fingerprint <16 hex>                 config + input fingerprint
//! body <bytes> sections <n>            section bytes and count
//! header <16 hex>                      FNV-1a of the three lines above
//! <section 0> … <section n-1>          concatenated binary sections
//! footer <n>
//! section <name> <offset> <len> <16 hex>   one directory row per section
//! digest <16 hex>                      FNV-1a of the footer rows above
//! ```
//!
//! The header and footer are text; the sections are little-endian
//! binary with `u32` counts. `interner` is the shared segment-instance
//! table in dense id order, each entry its length and either its `u64`
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
//!    out and reported instead — the server answers for it in `DEGRADED`
//!    superset mode while a background rebuild readmits it.
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

use crate::checkpoint::{
    durable_atomic_write_full, fnv1a, fold_config, fold_string, fold_u64, FNV_SEED,
};
use crate::collection::IndexedCollection;
use crate::config::JoinConfig;
use crate::index::{
    Instance, LengthIndex, PostingTable, SegmentIndex, SegmentInterner, PACKED_MAX,
};

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
    /// [`SnapshotReport::degraded_bands`] — the server answers for such
    /// bands in `DEGRADED` superset mode while a background rebuild
    /// readmits them.
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
    /// Bands left out under [`SalvageMode::Degraded`]; the index answers
    /// for them only via superset (`DEGRADED`) fallbacks until a rebuild
    /// readmits them.
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

/// One row of the footer's section directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section name (`interner` or `band.<len>`).
    pub name: String,
    /// Absolute byte offset of the section in the image.
    pub offset: usize,
    /// Section length in bytes.
    pub len: usize,
    /// FNV-1a checksum of the section bytes.
    pub check: u64,
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("snapshot counts fit in u32"));
}

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

/// A bounds-checked little-endian cursor over one section.
#[derive(Clone, Copy)]
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let short = || format!("section ends {} bytes short", n - self.0.len());
        let head = self.0.get(..n).ok_or_else(short)?;
        self.0 = &self.0[n..];
        Ok(head)
    }

    /// The next `N` bytes.
    fn word<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut word = [0u8; N];
        word.copy_from_slice(self.take(N)?);
        Ok(word)
    }

    fn count(&mut self) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.word()?) as usize)
    }

    /// `n` values of `N` bytes each, each decoded by `f`.
    fn array<const N: usize, T>(
        &mut self,
        n: usize,
        f: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, String> {
        let bytes = self.take(n.checked_mul(N).ok_or("array length overflows")?)?;
        let word = |b: &[u8]| {
            let mut word = [0u8; N];
            word.copy_from_slice(b);
            f(word)
        };
        Ok(bytes.chunks_exact(N).map(word).collect())
    }

    fn instance(&mut self) -> Result<Instance<'a>, String> {
        let len = self.count()?;
        if len > PACKED_MAX {
            return Ok(Instance::Long(self.take(len)?));
        }
        let key = u64::from_le_bytes(self.word()?);
        if len < PACKED_MAX && key >> (8 * len) != 0 {
            return Err(format!("key {key:x} is wider than {len} symbols"));
        }
        Ok(Instance::Packed(len, key))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

/// Restores the interner: one pass checks the entries and counts them
/// per table, a second inserts them into exactly-sized tables.
fn decode_interner(bytes: &[u8]) -> Result<SegmentInterner, String> {
    let mut r = Reader(bytes);
    let n = r.count()?;
    let entries = r;
    let (mut packed, mut long) = ([0usize; PACKED_MAX + 1], 0usize);
    for _ in 0..n {
        match r.instance()? {
            Instance::Packed(len, _) => packed[len] += 1,
            Instance::Long(_) => long += 1,
        }
    }
    r.finish()?;
    let mut interner = SegmentInterner::with_capacity(packed, long);
    let mut r = entries;
    for id in 0..n {
        if interner.insert(r.instance()?) as usize != id {
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

/// The footer directory of `sections`, laid out back to back from
/// `offset` on.
fn footer(sections: &[(String, &[u8])], mut offset: usize) -> String {
    let mut footer = format!("footer {}\n", sections.len());
    for (name, bytes) in sections {
        footer.push_str(&format!(
            "section {name} {offset} {} {:016x}\n",
            bytes.len(),
            fnv1a(bytes)
        ));
        offset += bytes.len();
    }
    footer.push_str(&format!("digest {:016x}\n", fnv1a(footer.as_bytes())));
    footer
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
    let mut header = format!(
        "{SNAPSHOT_MAGIC}\nfingerprint {fp:016x}\nbody {} sections {}\n",
        body.len(),
        sections.len()
    );
    let hdigest = fnv1a(header.as_bytes());
    header.push_str(&format!("header {hdigest:016x}\n"));
    let footer = footer(&sections, header.len());
    let mut out = Vec::with_capacity(header.len() + body.len() + footer.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(footer.as_bytes());
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
// Framing
// ---------------------------------------------------------------------

struct Header {
    /// The magic line: [`SNAPSHOT_MAGIC`] for an image this build reads.
    version: String,
    fingerprint: u64,
    sections: usize,
    /// Byte offset of the footer: the header's length plus the body's.
    footer: usize,
}

impl Header {
    /// Refuses an image of another format version.
    fn check_version(&self) -> Result<(), String> {
        if self.version == SNAPSHOT_MAGIC {
            return Ok(());
        }
        Err(format!(
            "unsupported snapshot version {:?} (this build reads {SNAPSHOT_MAGIC:?})",
            self.version
        ))
    }
}

fn parse_hex(s: &str) -> Result<u64, String> {
    if s.len() != 16 {
        return Err(format!("expected 16 hex digits, got {:?}", s));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn parse_header(bytes: &[u8]) -> Result<Header, String> {
    let mut pos = 0usize;
    let mut lines: Vec<(usize, usize)> = Vec::with_capacity(4);
    for i in 0..4 {
        let nl = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| format!("truncated header (line {i})"))?;
        lines.push((pos, pos + nl));
        pos = pos + nl + 1;
    }
    let text = |range: (usize, usize)| -> Result<&str, String> {
        std::str::from_utf8(&bytes[range.0..range.1]).map_err(|_| "non-utf8 header".to_string())
    };
    let fp = text(lines[1])?
        .strip_prefix("fingerprint ")
        .ok_or("missing fingerprint line")?;
    let fingerprint = parse_hex(fp)?;
    let mut it = text(lines[2])?.split_whitespace();
    let (body, sections) = match (it.next(), it.next(), it.next(), it.next(), it.next()) {
        (Some("body"), Some(b), Some("sections"), Some(s), None) => (
            b.parse::<usize>()
                .map_err(|e| format!("bad body length: {e}"))?,
            s.parse::<usize>()
                .map_err(|e| format!("bad section count: {e}"))?,
        ),
        _ => return Err("malformed body line".to_string()),
    };
    let digest = text(lines[3])?
        .strip_prefix("header ")
        .ok_or("missing header digest line")?;
    let expect = parse_hex(digest)?;
    let got = fnv1a(&bytes[..lines[3].0]);
    if got != expect {
        return Err(format!(
            "header digest mismatch (got {got:016x}, recorded {expect:016x})"
        ));
    }
    Ok(Header {
        version: text(lines[0])?.to_string(),
        fingerprint,
        sections,
        footer: pos.checked_add(body).ok_or("body length overflows")?,
    })
}

fn parse_footer(bytes: &[u8], offset: usize, sections: usize) -> Result<Vec<SectionEntry>, String> {
    if offset > bytes.len() {
        return Err("footer offset past end of file".to_string());
    }
    let tail = std::str::from_utf8(&bytes[offset..]).map_err(|_| "non-utf8 footer".to_string())?;
    if !tail.ends_with('\n') {
        return Err("footer not newline-terminated".to_string());
    }
    let lines: Vec<&str> = tail.lines().collect();
    if lines.len() != sections + 2 {
        return Err(format!(
            "footer has {} lines, expected {}",
            lines.len(),
            sections + 2
        ));
    }
    let count = lines[0]
        .strip_prefix("footer ")
        .ok_or("missing footer line")?
        .parse::<usize>()
        .map_err(|e| format!("bad footer count: {e}"))?;
    if count != sections {
        return Err(format!(
            "footer lists {count} sections, header says {sections}"
        ));
    }
    let digest_line = lines[lines.len() - 1];
    let expect = parse_hex(
        digest_line
            .strip_prefix("digest ")
            .ok_or("missing footer digest line")?,
    )?;
    let covered = tail.len() - (digest_line.len() + 1);
    let got = fnv1a(&tail.as_bytes()[..covered]);
    if got != expect {
        return Err(format!(
            "footer digest mismatch (got {got:016x}, recorded {expect:016x})"
        ));
    }
    let mut entries = Vec::with_capacity(sections);
    for line in &lines[1..lines.len() - 1] {
        let mut it = line.split_whitespace();
        match (
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
            it.next(),
        ) {
            (Some("section"), Some(name), Some(off), Some(len), Some(check), None) => {
                entries.push(SectionEntry {
                    name: name.to_string(),
                    offset: off.parse().map_err(|e| format!("bad offset: {e}"))?,
                    len: len.parse().map_err(|e| format!("bad length: {e}"))?,
                    check: parse_hex(check)?,
                });
            }
            _ => return Err(format!("malformed directory row {line:?}")),
        }
    }
    Ok(entries)
}

/// Parses the section directory of a snapshot image — the corruption
/// harness uses this to aim injected damage at exact section
/// boundaries.
pub fn section_directory(bytes: &[u8]) -> Result<Vec<SectionEntry>, String> {
    let header = parse_header(bytes)?;
    parse_footer(bytes, header.footer, header.sections)
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
    let header = match parse_header(&bytes) {
        Ok(h) => h,
        Err(e) => {
            return Ok(VerifyReport {
                fingerprint: 0,
                sections: Vec::new(),
                ok: false,
                diagnosis: format!("corrupt header: {e}"),
            })
        }
    };
    if let Err(e) = header.check_version() {
        return Ok(VerifyReport {
            fingerprint: header.fingerprint,
            sections: Vec::new(),
            ok: false,
            diagnosis: e,
        });
    }
    let entries = match parse_footer(&bytes, header.footer, header.sections) {
        Ok(entries) => entries,
        Err(e) => {
            return Ok(VerifyReport {
                fingerprint: header.fingerprint,
                sections: Vec::new(),
                ok: false,
                diagnosis: format!("corrupt footer: {e}"),
            })
        }
    };
    let mut sections = Vec::with_capacity(entries.len());
    let mut bad = Vec::new();
    for entry in &entries {
        let ok = section_bytes(&bytes, entry)
            .map(|slice| fnv1a(slice) == entry.check)
            .unwrap_or(false);
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
        fingerprint: header.fingerprint,
        sections,
        ok,
        diagnosis: if ok {
            String::new()
        } else {
            format!("corrupt sections: {}", bad.join(", "))
        },
    })
}

fn section_bytes<'a>(bytes: &'a [u8], entry: &SectionEntry) -> Option<&'a [u8]> {
    let end = entry.offset.checked_add(entry.len)?;
    bytes.get(entry.offset..end)
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
    let header = parse_header(&bytes).map_err(|e| cold(format!("corrupt header: {e}"), 1))?;
    header.check_version().map_err(|reason| cold(reason, 0))?;
    if header.fingerprint != run_fp {
        return Err(Fallback::Refuse {
            snapshot: header.fingerprint,
        });
    }
    let entries = parse_footer(&bytes, header.footer, header.sections)
        .map_err(|e| cold(format!("corrupt footer: {e}"), 1))?;
    let verified = |name: &str| -> Result<&[u8], String> {
        let entry = entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("{name} section missing from directory"))?;
        let slice =
            section_bytes(&bytes, entry).ok_or_else(|| format!("{name} section out of bounds"))?;
        if fnv1a(slice) != entry.check {
            return Err(format!("{name} section checksum mismatch"));
        }
        Ok(slice)
    };
    // Without the interner no posting key in any band means anything —
    // the whole snapshot is unusable.
    let interner = verified("interner")
        .and_then(decode_interner)
        .map_err(|e| cold(format!("interner unusable: {e}"), 1))?;
    let mut corruptions = 0u64;
    let mut reasons: Vec<String> = Vec::new();
    let mut admitted = Vec::with_capacity(bands.len());
    let mut repair: Vec<usize> = Vec::new();
    let mut degraded = Vec::new();
    for (&len, members) in bands {
        let decoded = verified(&format!("band.{len}"))
            .and_then(|b| decode_band(b, len, members, interner.len(), config));
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
                collection: IndexedCollection::from_restored(config.clone(), sigma, strings, index),
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

    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        // ordering: Relaxed — the counter only needs uniqueness.
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("usj-snapshot-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_is_bit_identical_to_cold_build() {
        let dir = scratch("roundtrip");
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
        let dir = scratch("missing");
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
        let dir = scratch("band");
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
        let dir = scratch("reseal");
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
        let body_end = entries.last().map_or(0, |e| e.offset + e.len);
        let mut resealed = bytes[..body_end].to_vec();
        resealed.extend_from_slice(footer(&sections, entries[0].offset).as_bytes());
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
        let dir = scratch("interner");
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
        let dir = scratch("fp");
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
        let dir = scratch("fpline");
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
        let sealed = format!("{head}header {:016x}\n", fnv1a(head.as_bytes()));
        let err = section_directory(sealed.as_bytes()).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn verify_walks_checksums() {
        let dir = scratch("verify");
        let path = dir.join("index.snap");
        let cold = IndexedCollection::build(config(), 4, strings());
        write(&path, &cold).unwrap();
        let report = verify(&path).unwrap();
        assert!(report.ok, "{report:?}");
        assert!(report.sections.iter().all(|s| s.ok));
        let mut bytes = std::fs::read(&path).unwrap();
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
        let dir = scratch("trunc");
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
        let dir = scratch("empty");
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
