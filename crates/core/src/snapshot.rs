//! Crash-safe persistent index snapshots.
//!
//! A snapshot is a sectioned text image of an [`IndexedCollection`]'s
//! segment inverted index, written durably (write-temp, fsync, atomic
//! rename, directory fsync — see [`crate::checkpoint`]) so the fleet's
//! shards can restart warm instead of paying a full rebuild.
//!
//! # On-disk layout
//!
//! ```text
//! usj-snapshot v1
//! fingerprint <16 hex>                 config + input fingerprint
//! body <bytes> sections <n>            section bytes and count
//! header <16 hex>                      FNV-1a of the three lines above
//! <section 0> … <section n-1>          concatenated section texts
//! footer <n>
//! section <name> <offset> <len> <16 hex>   one directory row per section
//! digest <16 hex>                      FNV-1a of the footer rows above
//! ```
//!
//! Sections are `interner` (the shared segment-instance table, in dense
//! id order) followed by one `band.<len>` per indexed string length.
//! Every section carries its own length and FNV checksum in the footer
//! directory, so damage is localised to the section it hit.
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
//! 4. **Full rebuild** — the file is missing, unreadable, or its
//!    header/footer/interner is damaged: cold build from the source
//!    records ([`LoadRung::Rebuilt`]).
//!
//! Fault injection covers the whole I/O path: `snapshot.write`,
//! `snapshot.fsync`, and `snapshot.rename` fire inside the durable
//! write, `snapshot.read` after the image is read back, and
//! `snapshot.salvage` once per band admitted from disk.

use std::fmt;
use std::fs;
use std::path::Path;
use std::time::SystemTime;

use usj_model::{Symbol, UncertainString};

use crate::checkpoint::{
    durable_atomic_write_full, fnv1a, fold_config, fold_string, fold_u64, FNV_SEED,
};
use crate::collection::IndexedCollection;
use crate::config::JoinConfig;
use crate::index::{BandDump, SegmentIndex};

/// First line of every snapshot image.
pub const SNAPSHOT_MAGIC: &str = "usj-snapshot v1";

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
// Encoding
// ---------------------------------------------------------------------

fn encode_interner(entries: &[Vec<Symbol>]) -> String {
    let mut out = format!("interner {}\n", entries.len());
    for w in entries {
        out.push('w');
        for &sym in w {
            out.push(' ');
            out.push_str(&sym.to_string());
        }
        out.push('\n');
    }
    out
}

fn encode_band(dump: &BandDump) -> String {
    let mut out = format!("band {} segments {}\n", dump.len, dump.postings.len());
    out.push_str(&format!("ids {}", dump.ids.len()));
    for &id in &dump.ids {
        out.push_str(&format!(" {id}"));
    }
    out.push('\n');
    out.push_str("incomplete");
    for &b in &dump.incomplete {
        out.push_str(if b { " 1" } else { " 0" });
    }
    out.push('\n');
    out.push_str(&format!("bytes {}\n", dump.bytes));
    for (x, (keys, lists)) in dump.postings.iter().enumerate() {
        out.push_str(&format!("seg {x} {}\n", keys.len()));
        for (key, list) in keys.iter().zip(lists) {
            out.push_str(&format!("k {key} {}", list.len()));
            for &(id, p) in list {
                out.push_str(&format!(" {id}:{:016x}", p.to_bits()));
            }
            out.push('\n');
        }
    }
    out
}

/// Encodes `coll`'s index as a complete snapshot image.
pub fn encode(coll: &IndexedCollection) -> String {
    let index = coll.index();
    let fp = fingerprint(coll.config(), coll.sigma(), coll.strings());
    let mut sections: Vec<(String, String)> = Vec::new();
    sections.push((
        "interner".to_string(),
        encode_interner(&index.dump_interner()),
    ));
    for len in index.lengths() {
        let dump = index.dump_band(len).expect("listed length must be indexed");
        sections.push((format!("band.{len}"), encode_band(&dump)));
    }
    let body_len: usize = sections.iter().map(|(_, text)| text.len()).sum();
    let mut header = format!(
        "{SNAPSHOT_MAGIC}\nfingerprint {fp:016x}\nbody {body_len} sections {}\n",
        sections.len()
    );
    let hdigest = fnv1a(header.as_bytes());
    header.push_str(&format!("header {hdigest:016x}\n"));

    let mut footer = format!("footer {}\n", sections.len());
    let mut offset = header.len();
    for (name, text) in &sections {
        footer.push_str(&format!(
            "section {name} {offset} {} {:016x}\n",
            text.len(),
            fnv1a(text.as_bytes())
        ));
        offset += text.len();
    }
    footer.push_str(&format!("digest {:016x}\n", fnv1a(footer.as_bytes())));

    let mut out = header;
    for (_, text) in &sections {
        out.push_str(text);
    }
    out.push_str(&footer);
    out
}

/// Writes `coll`'s index snapshot to `path` durably: write-temp, fsync,
/// atomic rename, directory fsync, with the `snapshot.write`,
/// `snapshot.fsync`, and `snapshot.rename` failpoints armed along the
/// way. A crash at any point leaves either the old snapshot or the new
/// one — never a torn mix.
pub fn write(path: &Path, coll: &IndexedCollection) -> Result<SnapshotWriteReport, SnapshotError> {
    let text = encode(coll);
    let sections = 1 + coll.index().lengths().len();
    let fp = fingerprint(coll.config(), coll.sigma(), coll.strings());
    durable_atomic_write_full(
        path,
        &text,
        "snapshot.write",
        Some("snapshot.fsync"),
        Some("snapshot.rename"),
    )
    .map_err(|e| SnapshotError::Io(e.to_string()))?;
    Ok(SnapshotWriteReport {
        bytes: text.len(),
        sections,
        fingerprint: fp,
    })
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Header {
    fingerprint: u64,
    body: usize,
    sections: usize,
    len: usize,
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
    if text(lines[0])? != SNAPSHOT_MAGIC {
        return Err(format!("bad magic {:?}", text(lines[0])?));
    }
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
        fingerprint,
        body,
        sections,
        len: pos,
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
    parse_footer(bytes, header.len + header.body, header.sections)
}

fn decode_interner(text: &str) -> Result<Vec<Vec<Symbol>>, String> {
    let mut lines = text.lines();
    let head = lines.next().ok_or("empty interner section")?;
    let n: usize = head
        .strip_prefix("interner ")
        .ok_or("missing interner line")?
        .parse()
        .map_err(|e| format!("bad interner count: {e}"))?;
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let line = lines
            .next()
            .ok_or_else(|| format!("interner entry {i} missing"))?;
        let rest = line
            .strip_prefix("w")
            .ok_or_else(|| format!("interner entry {i}: malformed {line:?}"))?;
        let syms: Result<Vec<Symbol>, _> = rest
            .split_whitespace()
            .map(|t| t.parse::<Symbol>())
            .collect();
        entries.push(syms.map_err(|e| format!("interner entry {i}: {e}"))?);
    }
    if lines.next().is_some() {
        return Err("trailing data after interner entries".to_string());
    }
    Ok(entries)
}

fn decode_band(text: &str, expected_len: usize) -> Result<BandDump, String> {
    let ctx = |msg: String| format!("band {expected_len}: {msg}");
    let mut lines = text.lines();
    let head = lines.next().ok_or_else(|| ctx("empty section".into()))?;
    let mut it = head.split_whitespace();
    let (len, m) = match (it.next(), it.next(), it.next(), it.next(), it.next()) {
        (Some("band"), Some(l), Some("segments"), Some(m), None) => (
            l.parse::<usize>()
                .map_err(|e| ctx(format!("bad length: {e}")))?,
            m.parse::<usize>()
                .map_err(|e| ctx(format!("bad segment count: {e}")))?,
        ),
        _ => return Err(ctx(format!("malformed band line {head:?}"))),
    };
    if len != expected_len {
        return Err(ctx(format!("section names length {len}")));
    }
    let ids_line = lines.next().ok_or_else(|| ctx("missing ids line".into()))?;
    let mut it = ids_line.split_whitespace();
    if it.next() != Some("ids") {
        return Err(ctx(format!("malformed ids line {ids_line:?}")));
    }
    let count: usize = it
        .next()
        .ok_or_else(|| ctx("missing id count".into()))?
        .parse()
        .map_err(|e| ctx(format!("bad id count: {e}")))?;
    let ids: Result<Vec<u32>, _> = it.map(|t| t.parse::<u32>()).collect();
    let ids = ids.map_err(|e| ctx(format!("bad id: {e}")))?;
    if ids.len() != count {
        return Err(ctx(format!(
            "ids line lists {} ids, declared {count}",
            ids.len()
        )));
    }
    let inc_line = lines
        .next()
        .ok_or_else(|| ctx("missing incomplete line".into()))?;
    let rest = inc_line
        .strip_prefix("incomplete")
        .ok_or_else(|| ctx(format!("malformed incomplete line {inc_line:?}")))?;
    let incomplete: Result<Vec<bool>, String> = rest
        .split_whitespace()
        .map(|t| match t {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(ctx(format!("bad flag {other:?}"))),
        })
        .collect();
    let incomplete = incomplete?;
    if incomplete.len() != m {
        return Err(ctx(format!("{} flags for {m} segments", incomplete.len())));
    }
    let bytes_line = lines
        .next()
        .ok_or_else(|| ctx("missing bytes line".into()))?;
    let bytes: usize = bytes_line
        .strip_prefix("bytes ")
        .ok_or_else(|| ctx(format!("malformed bytes line {bytes_line:?}")))?
        .parse()
        .map_err(|e| ctx(format!("bad byte estimate: {e}")))?;
    let mut postings = Vec::with_capacity(m);
    for x in 0..m {
        let seg_line = lines
            .next()
            .ok_or_else(|| ctx(format!("missing seg {x}")))?;
        let mut it = seg_line.split_whitespace();
        let nkeys = match (it.next(), it.next(), it.next(), it.next()) {
            (Some("seg"), Some(sx), Some(n), None) if sx == x.to_string() => n
                .parse::<usize>()
                .map_err(|e| ctx(format!("seg {x}: bad key count: {e}")))?,
            _ => return Err(ctx(format!("malformed seg line {seg_line:?}"))),
        };
        let mut keys = Vec::with_capacity(nkeys);
        let mut lists = Vec::with_capacity(nkeys);
        for _ in 0..nkeys {
            let line = lines
                .next()
                .ok_or_else(|| ctx(format!("seg {x}: missing key row")))?;
            let mut it = line.split_whitespace();
            if it.next() != Some("k") {
                return Err(ctx(format!("seg {x}: malformed key row {line:?}")));
            }
            let key: u32 = it
                .next()
                .ok_or_else(|| ctx(format!("seg {x}: missing key")))?
                .parse()
                .map_err(|e| ctx(format!("seg {x}: bad key: {e}")))?;
            let np: usize = it
                .next()
                .ok_or_else(|| ctx(format!("seg {x}: missing posting count")))?
                .parse()
                .map_err(|e| ctx(format!("seg {x}: bad posting count: {e}")))?;
            let mut list = Vec::with_capacity(np);
            for tok in it {
                let (id, p) = tok
                    .split_once(':')
                    .ok_or_else(|| ctx(format!("seg {x}: malformed posting {tok:?}")))?;
                let id: u32 = id
                    .parse()
                    .map_err(|e| ctx(format!("seg {x}: bad id: {e}")))?;
                let bits = parse_hex(p).map_err(|e| ctx(format!("seg {x}: {e}")))?;
                list.push((id, f64::from_bits(bits)));
            }
            if list.len() != np {
                return Err(ctx(format!(
                    "seg {x}: key {key} lists {} postings, declared {np}",
                    list.len()
                )));
            }
            keys.push(key);
            lists.push(list);
        }
        postings.push((keys, lists));
    }
    if lines.next().is_some() {
        return Err(ctx("trailing data after posting tables".into()));
    }
    Ok(BandDump {
        len,
        ids,
        incomplete,
        postings,
        bytes,
    })
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
    let entries = match parse_footer(&bytes, header.len + header.body, header.sections) {
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

enum Attempt {
    /// Rungs 1–2: use the snapshot (possibly with band repairs).
    Warm {
        interner: Vec<Vec<Symbol>>,
        admitted: Vec<BandDump>,
        repair: Vec<usize>,
        degraded: Vec<usize>,
        corruptions: u64,
        salvage_failures: usize,
        reason: String,
    },
    /// Rung 3: refuse — the snapshot belongs to a different run.
    Refuse { snapshot: u64 },
    /// Rung 4: cold rebuild.
    Cold { reason: String, corruptions: u64 },
}

fn attempt(path: &Path, run_fp: u64, expected_lens: &[usize], mode: SalvageMode) -> Attempt {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Attempt::Cold {
                reason: "snapshot missing".to_string(),
                corruptions: 0,
            }
        }
        Err(e) => {
            return Attempt::Cold {
                reason: format!("snapshot unreadable: {e}"),
                corruptions: 0,
            }
        }
    };
    if let Some(msg) = usj_fault::fire_err("snapshot.read") {
        return Attempt::Cold {
            reason: format!("injected read fault: {msg}"),
            corruptions: 0,
        };
    }
    let header = match parse_header(&bytes) {
        Ok(h) => h,
        Err(e) => {
            return Attempt::Cold {
                reason: format!("corrupt header: {e}"),
                corruptions: 1,
            }
        }
    };
    if header.fingerprint != run_fp {
        return Attempt::Refuse {
            snapshot: header.fingerprint,
        };
    }
    let entries = match parse_footer(&bytes, header.len + header.body, header.sections) {
        Ok(entries) => entries,
        Err(e) => {
            return Attempt::Cold {
                reason: format!("corrupt footer: {e}"),
                corruptions: 1,
            }
        }
    };
    let mut corruptions = 0u64;
    let mut reasons: Vec<String> = Vec::new();
    let verified_text = |name: &str| -> Result<&str, String> {
        let entry = entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("{name} section missing from directory"))?;
        let slice =
            section_bytes(&bytes, entry).ok_or_else(|| format!("{name} section out of bounds"))?;
        if fnv1a(slice) != entry.check {
            return Err(format!("{name} section checksum mismatch"));
        }
        std::str::from_utf8(slice).map_err(|_| format!("{name} section is not utf-8"))
    };
    let interner = match verified_text("interner").and_then(decode_interner) {
        Ok(entries) => entries,
        Err(e) => {
            // Without the interner no posting key in any band means
            // anything — the whole snapshot is unusable.
            return Attempt::Cold {
                reason: format!("interner unusable: {e}"),
                corruptions: corruptions + 1,
            };
        }
    };
    let mut intact: Vec<BandDump> = Vec::new();
    let mut repair: Vec<usize> = Vec::new();
    for &len in expected_lens {
        match verified_text(&format!("band.{len}")).and_then(|text| decode_band(text, len)) {
            Ok(dump) => intact.push(dump),
            Err(e) => {
                corruptions += 1;
                reasons.push(e);
                repair.push(len);
            }
        }
    }
    let mut admitted = Vec::with_capacity(intact.len());
    let mut degraded = Vec::new();
    let mut salvage_failures = 0usize;
    for dump in intact {
        if let Some(msg) = usj_fault::fire_err("snapshot.salvage") {
            salvage_failures += 1;
            reasons.push(format!("band {} failed salvage: {msg}", dump.len));
            match mode {
                SalvageMode::Strict => repair.push(dump.len),
                SalvageMode::Degraded => degraded.push(dump.len),
            }
            continue;
        }
        admitted.push(dump);
    }
    repair.sort_unstable();
    degraded.sort_unstable();
    Attempt::Warm {
        interner,
        admitted,
        repair,
        degraded,
        corruptions,
        salvage_failures,
        reason: if reasons.is_empty() {
            "verified".to_string()
        } else {
            reasons.join("; ")
        },
    }
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
    let mut lens: Vec<usize> = strings.iter().map(|s| s.len()).collect();
    lens.sort_unstable();
    lens.dedup();
    let age = snapshot_age(path);
    let cold = |reason: String, corruptions: u64, strings: Vec<UncertainString>| LoadedSnapshot {
        collection: IndexedCollection::build(config.clone(), sigma, strings),
        report: SnapshotReport {
            rung: LoadRung::Rebuilt,
            warm: false,
            bands_total: lens.len(),
            bands_salvaged: 0,
            bands_rebuilt: lens.len(),
            corruptions_detected: corruptions,
            degraded_bands: Vec::new(),
            age_seconds: None,
            reason,
        },
    };
    match attempt(path, run_fp, &lens, mode) {
        Attempt::Refuse { snapshot } => Err(SnapshotError::FingerprintMismatch {
            snapshot,
            run: run_fp,
        }),
        Attempt::Cold {
            reason,
            corruptions,
        } => Ok(cold(reason, corruptions, strings)),
        Attempt::Warm {
            interner,
            admitted,
            repair,
            degraded,
            corruptions,
            salvage_failures,
            reason,
        } => {
            let salvaged = admitted.len();
            let index = match SegmentIndex::from_parts(interner, admitted, config) {
                Ok(index) => index,
                Err(e) => {
                    // Defensive: a dump that checksummed clean but cannot
                    // reassemble (config/partition drift the fingerprint
                    // failed to catch) falls to the bottom rung.
                    return Ok(cold(
                        format!("snapshot unassemblable: {e}"),
                        corruptions + 1,
                        strings,
                    ));
                }
            };
            let mut index = index;
            let mut rebuilt = 0usize;
            for &len in &repair {
                index.rebuild_band(len, &strings, config);
                rebuilt += 1;
            }
            let clean = corruptions == 0 && salvage_failures == 0 && repair.is_empty();
            let collection =
                IndexedCollection::from_restored(config.clone(), sigma, strings, index);
            Ok(LoadedSnapshot {
                collection,
                report: SnapshotReport {
                    rung: if clean {
                        LoadRung::Verified
                    } else {
                        LoadRung::Salvaged
                    },
                    warm: true,
                    bands_total: lens.len(),
                    bands_salvaged: if clean { 0 } else { salvaged },
                    bands_rebuilt: rebuilt,
                    corruptions_detected: corruptions,
                    degraded_bands: degraded,
                    age_seconds: age,
                    reason,
                },
            })
        }
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
        let a = encode(&coll);
        let b = encode(&coll);
        assert_eq!(a, b, "snapshot encoding must be deterministic");
        let dir = section_directory(a.as_bytes()).unwrap();
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
