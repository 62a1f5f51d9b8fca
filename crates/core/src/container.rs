//! The one persistence container: index snapshots ([`crate::snapshot`])
//! and join checkpoints ([`crate::checkpoint`]) are both written by
//! [`seal`] and read back by [`open`], differing only in their magic
//! line and what their sections hold.
//!
//! ```text
//! <magic>                              usj-snapshot v2 | usj-checkpoint v2
//! fingerprint <16 hex>                 what the image belongs to
//! body <bytes> sections <n>            section bytes and count
//! header <16 hex>                      FNV-1a of the three lines above
//! <section 0> … <section n-1>          concatenated binary sections
//! footer <n>
//! section <name> <offset> <len> <16 hex>   one directory row per section
//! digest <16 hex>                      FNV-1a of the footer rows above
//! ```
//!
//! Every byte is covered by a digest or a section checksum, and digests
//! are read back only as the 16 lowercase hex digits [`seal`] writes, so
//! any single-bit flip of an image is detected. The module also holds
//! the fingerprint folds, the section [`Reader`] and `put_*` helpers,
//! and [`durable_atomic_write`].

use std::fs;
use std::io;
use std::path::Path;

use usj_model::UncertainString;

use crate::config::JoinConfig;

/// FNV-1a 64, the same dependency-free hash the tracing layer uses; the
/// container uses it to detect corruption and truncation, not
/// adversaries.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_SEED, bytes)
}

/// Hashes `bytes` into a running FNV-1a fingerprint.
pub(crate) fn fnv1a_fold(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes one value into a running FNV-1a fingerprint (little-endian
/// bytes).
pub(crate) fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a_fold(h, &v.to_le_bytes())
}

/// FNV-1a offset basis: the seed of every incremental fingerprint.
pub(crate) const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the output-affecting configuration, the alphabet size and the
/// collection size into a fingerprint. The snapshot fingerprint and the
/// join driver's run fingerprint both start with this fold.
pub(crate) fn fold_config(mut h: u64, config: &JoinConfig, sigma: usize, count: usize) -> u64 {
    h = fold_u64(h, config.k as u64);
    h = fold_u64(h, config.tau.to_bits());
    h = fold_u64(h, config.q as u64);
    h = fnv1a_fold(
        h,
        format!(
            "{:?}/{:?}/{:?}/{:?}",
            config.policy, config.alpha_mode, config.pipeline, config.verifier
        )
        .as_bytes(),
    );
    h = fold_u64(h, config.early_stop as u64);
    h = fold_u64(h, config.max_segment_instances as u64);
    h = fold_u64(h, config.max_trie_nodes as u64);
    h = fold_u64(h, sigma as u64);
    fold_u64(h, count as u64)
}

/// Folds one input string (its id, length, and every position's
/// alternatives with their probability bits) into a fingerprint.
pub(crate) fn fold_string(mut h: u64, id: u32, s: &UncertainString) -> u64 {
    h = fold_u64(h, id as u64);
    h = fold_u64(h, s.len() as u64);
    for pos in s.positions() {
        h = fold_u64(h, pos.num_alternatives() as u64);
        for (sym, prob) in pos.alternatives() {
            h = fold_u64(h, sym as u64);
            h = fold_u64(h, prob.to_bits());
        }
    }
    h
}

/// Writes `text` to `path` durably and atomically: a sibling temp file is
/// written, **fsynced**, renamed over the target, and the parent
/// directory is fsynced — so readers observe either the old contents or
/// the new (never a torn prefix), and a crash immediately after return
/// cannot lose the rename or the data behind it. The named failpoint
/// fires between the temp write and the fsync (the widest window a crash
/// would exploit): an `Error` action removes the temp file and surfaces
/// as an `io::Error`; a `Panic` action unwinds with the temp file in
/// place and the target untouched.
pub fn durable_atomic_write(path: &Path, text: &str, failpoint: &str) -> io::Result<()> {
    durable_atomic_write_full(path, text.as_bytes(), failpoint, None, None)
}

/// The full-fidelity durable write: one failpoint per crash window, in
/// firing order — after the temp bytes land (`fp_write`), after the temp
/// file's fsync (`fp_fsync`), and immediately before the rename
/// (`fp_rename`). [`durable_atomic_write`] threads a single shared point
/// through the first window; the snapshot writer threads all three
/// (`snapshot.write` / `snapshot.fsync` / `snapshot.rename`) so the
/// persistence suite can kill every window independently.
pub(crate) fn durable_atomic_write_full(
    path: &Path,
    bytes: &[u8],
    fp_write: &str,
    fp_fsync: Option<&str>,
    fp_rename: Option<&str>,
) -> io::Result<()> {
    use std::io::Write as _;
    let tmp = {
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".tmp");
        path.with_file_name(name)
    };
    // Any failure past this point removes the temp file so an aborted
    // write never leaves droppings next to the (intact) target.
    let bail = |e: io::Error, tmp: &Path| {
        let _ = fs::remove_file(tmp);
        Err(e)
    };
    let injected = |msg: String| io::Error::other(format!("injected fault: {msg}"));
    let mut file = fs::File::create(&tmp)?;
    if let Err(e) = file.write_all(bytes) {
        return bail(e, &tmp);
    }
    if let Some(msg) = usj_fault::fire_err(fp_write) {
        return bail(injected(msg), &tmp);
    }
    // fsync the data before the rename: without it the rename can become
    // durable while the bytes behind it are not, and a crash would leave
    // the *new* name holding a torn file.
    if let Err(e) = file.sync_all() {
        return bail(e, &tmp);
    }
    if let Some(fp) = fp_fsync {
        if let Some(msg) = usj_fault::fire_err(fp) {
            return bail(injected(msg), &tmp);
        }
    }
    drop(file);
    if let Some(fp) = fp_rename {
        if let Some(msg) = usj_fault::fire_err(fp) {
            return bail(injected(msg), &tmp);
        }
    }
    fs::rename(&tmp, path)?;
    // fsync the parent directory so the rename itself survives a crash;
    // an empty parent means a bare relative file name, i.e. cwd.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

// ---------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `u32` count.
pub(crate) fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("section counts fit in u32"));
}

/// A bounds-checked little-endian cursor over one section.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let short = || format!("section ends {} bytes short", n - self.0.len());
        let head = self.0.get(..n).ok_or_else(short)?;
        self.0 = &self.0[n..];
        Ok(head)
    }

    /// The next `N` bytes.
    pub(crate) fn word<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut word = [0u8; N];
        word.copy_from_slice(self.take(N)?);
        Ok(word)
    }

    /// A `u32` count.
    pub(crate) fn count(&mut self) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.word()?) as usize)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.word()?))
    }

    /// `n` values of `N` bytes each, each decoded by `f`.
    pub(crate) fn array<const N: usize, T>(
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

    pub(crate) fn finish(self) -> Result<(), String> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// One row of the footer's section directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section name (`interner` or `band.<len>` in a snapshot, `state`
    /// or `pairs` in a checkpoint).
    pub name: String,
    /// Absolute byte offset of the section in the image.
    pub offset: usize,
    /// Section length in bytes.
    pub len: usize,
    /// FNV-1a checksum of the section bytes.
    pub check: u64,
}

/// The image of `sections`, laid out back to back in order under a
/// header carrying `magic` and `fingerprint`.
pub(crate) fn seal(magic: &str, fingerprint: u64, sections: &[(String, &[u8])]) -> Vec<u8> {
    let body: usize = sections.iter().map(|(_, bytes)| bytes.len()).sum();
    let mut header = format!(
        "{magic}\nfingerprint {fingerprint:016x}\nbody {body} sections {}\n",
        sections.len()
    );
    header.push_str(&format!("header {:016x}\n", fnv1a(header.as_bytes())));
    let mut footer = format!("footer {}\n", sections.len());
    let mut offset = header.len();
    for (name, bytes) in sections {
        footer.push_str(&format!(
            "section {name} {offset} {} {:016x}\n",
            bytes.len(),
            fnv1a(bytes)
        ));
        offset += bytes.len();
    }
    footer.push_str(&format!("digest {:016x}\n", fnv1a(footer.as_bytes())));
    let mut out = Vec::with_capacity(offset + footer.len());
    out.extend_from_slice(header.as_bytes());
    for (_, bytes) in sections {
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(footer.as_bytes());
    out
}

/// Why [`open`] could not read an image's frame.
pub(crate) struct OpenError {
    /// The fingerprint of a header that verified.
    pub(crate) fingerprint: Option<u64>,
    /// `false` for a sound image of another version, which is not damage.
    pub(crate) damaged: bool,
    /// The diagnosis, naming the header, the footer or the version.
    pub(crate) reason: String,
}

/// An image whose header and footer verified.
pub(crate) struct Image<'a> {
    /// The fingerprint recorded in the header.
    pub(crate) fingerprint: u64,
    /// The footer's section directory, in image order.
    pub(crate) sections: Vec<SectionEntry>,
    bytes: &'a [u8],
}

impl<'a> Image<'a> {
    /// The section called `name`, checked against its checksum and then
    /// decoded by `decode`; an error names the section.
    pub(crate) fn decode<T>(
        &self,
        name: &str,
        decode: impl FnOnce(&'a [u8]) -> Result<T, String>,
    ) -> Result<T, String> {
        let section = |e: &str| format!("{name} section: {e}");
        let entry = self.sections.iter().find(|e| e.name == name);
        let entry = entry.ok_or_else(|| section("missing from directory"))?;
        let end = entry.offset.checked_add(entry.len);
        let slice = end.and_then(|end| self.bytes.get(entry.offset..end));
        let slice = slice.filter(|slice| fnv1a(slice) == entry.check);
        decode(slice.ok_or_else(|| section("checksum mismatch"))?).map_err(|e| section(&e))
    }
}

/// Reads an image's frame: the header, then its version against
/// `magic`, then the footer directory. Sections are checked as they are
/// read ([`Image::decode`]).
pub(crate) fn open<'a>(bytes: &'a [u8], magic: &str) -> Result<Image<'a>, OpenError> {
    let fail = |fingerprint, damaged, reason| OpenError {
        fingerprint,
        damaged,
        reason,
    };
    let header = parse_header(bytes).map_err(|e| {
        // A header that does not parse under another version of the same
        // format says which version it is, for the operator.
        let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
        let first = String::from_utf8_lossy(&first[..first.len().min(64)]);
        let family = magic.split(' ').next().unwrap_or(magic);
        let version = if first.starts_with(family) && first != magic {
            format!("{}: ", unsupported(&first, magic))
        } else {
            String::new()
        };
        fail(None, true, format!("corrupt header: {version}{e}"))
    })?;
    let fp = Some(header.fingerprint);
    if header.version != magic {
        return Err(fail(fp, false, unsupported(&header.version, magic)));
    }
    let sections = parse_footer(bytes, header.footer, header.sections)
        .map_err(|e| fail(fp, true, format!("corrupt footer: {e}")))?;
    Ok(Image {
        fingerprint: header.fingerprint,
        sections,
        bytes,
    })
}

/// Parses the section directory of an image of any version and kind —
/// the corruption harness uses this to aim injected damage at exact
/// section boundaries.
pub fn section_directory(bytes: &[u8]) -> Result<Vec<SectionEntry>, String> {
    let header = parse_header(bytes)?;
    parse_footer(bytes, header.footer, header.sections)
}

/// `unsupported snapshot version "usj-snapshot v1" (this build reads
/// "usj-snapshot v2")`, the file kind taken from `magic`.
fn unsupported(found: &str, magic: &str) -> String {
    let kind = magic.split(' ').next().unwrap_or(magic);
    let kind = kind.strip_prefix("usj-").unwrap_or(kind);
    format!("unsupported {kind} version {found:?} (this build reads {magic:?})")
}

struct Header {
    /// The magic line.
    version: String,
    fingerprint: u64,
    sections: usize,
    /// Byte offset of the footer: the header's length plus the body's.
    footer: usize,
}

/// Exactly the 16 lowercase hex digits [`seal`] writes: a digest line
/// is covered by no checksum, so no other spelling of a value may read
/// back as it.
fn parse_hex(s: &str) -> Result<u64, String> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(format!("expected 16 lowercase hex digits, got {s:?}"));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn parse_header(bytes: &[u8]) -> Result<Header, String> {
    let lines: Vec<&[u8]> = bytes.splitn(5, |&b| b == b'\n').collect();
    let [magic, fp, body, digest, _] = lines[..] else {
        return Err(format!("truncated header ({} lines)", lines.len() - 1));
    };
    let text = |line| std::str::from_utf8(line).map_err(|_| "non-utf8 header".to_string());
    // The header digest covers the first three lines; the body follows
    // the fourth.
    let covered: usize = lines[..3].iter().map(|line| line.len() + 1).sum();
    let body_at = covered + digest.len() + 1;
    let fp = text(fp)?.strip_prefix("fingerprint ");
    let fingerprint = parse_hex(fp.ok_or("missing fingerprint line")?)?;
    let (body, sections) = match text(body)?.split(' ').collect::<Vec<_>>()[..] {
        ["body", b, "sections", s] => (
            b.parse::<usize>()
                .map_err(|e| format!("bad body length: {e}"))?,
            s.parse::<usize>()
                .map_err(|e| format!("bad section count: {e}"))?,
        ),
        _ => return Err("malformed body line".to_string()),
    };
    let digest = text(digest)?.strip_prefix("header ");
    let expect = parse_hex(digest.ok_or("missing header digest line")?)?;
    let got = fnv1a(&bytes[..covered]);
    if got != expect {
        return Err(format!(
            "header digest mismatch (got {got:016x}, recorded {expect:016x})"
        ));
    }
    Ok(Header {
        version: text(magic)?.to_string(),
        fingerprint,
        sections,
        footer: body_at.checked_add(body).ok_or("body length overflows")?,
    })
}

fn parse_footer(bytes: &[u8], offset: usize, sections: usize) -> Result<Vec<SectionEntry>, String> {
    let tail = bytes
        .get(offset..)
        .ok_or("footer offset past end of file")?;
    let tail = std::str::from_utf8(tail).map_err(|_| "non-utf8 footer".to_string())?;
    let rows = tail
        .strip_suffix('\n')
        .ok_or("footer not newline-terminated")?;
    let lines: Vec<&str> = rows.split('\n').collect();
    if lines.len() != sections.checked_add(2).ok_or("section count overflows")? {
        return Err(format!(
            "footer has {} lines for {sections} sections",
            lines.len()
        ));
    }
    if lines[0] != format!("footer {sections}") {
        return Err(format!(
            "footer line {:?} disagrees with the header",
            lines[0]
        ));
    }
    let digest = lines[lines.len() - 1];
    let expect = parse_hex(
        digest
            .strip_prefix("digest ")
            .ok_or("missing footer digest line")?,
    )?;
    let got = fnv1a(&tail.as_bytes()[..tail.len() - (digest.len() + 1)]);
    if got != expect {
        return Err(format!(
            "footer digest mismatch (got {got:016x}, recorded {expect:016x})"
        ));
    }
    let row = |line: &&str| match line.split(' ').collect::<Vec<_>>()[..] {
        ["section", name, off, len, check] => Ok(SectionEntry {
            name: name.to_string(),
            offset: off.parse().map_err(|e| format!("bad offset: {e}"))?,
            len: len.parse().map_err(|e| format!("bad length: {e}"))?,
            check: parse_hex(check)?,
        }),
        _ => Err(format!("malformed directory row {line:?}")),
    };
    lines[1..lines.len() - 1].iter().map(row).collect()
}

/// A fresh, empty directory under the system temp dir, unique per call.
#[cfg(test)]
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // ordering: Relaxed — only uniqueness matters, not ordering.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("usj-core-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_fault::{FaultAction, FaultPlan};

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn durable_write_error_fault_leaves_target_untouched() {
        let dir = scratch_dir("atomic");
        let target = dir.join("out.txt");
        durable_atomic_write(&target, "first\n", "test.atomic").unwrap();

        let _armed = FaultPlan::new()
            .fail_at(
                "test.atomic",
                0,
                FaultAction::Error("disk full".to_string()),
            )
            .arm();
        let err = durable_atomic_write(&target, "second\n", "test.atomic").unwrap_err();
        assert!(err.to_string().contains("disk full"));
        // Old contents intact, no temp residue.
        assert_eq!(fs::read_to_string(&target).unwrap(), "first\n");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("out.txt")]);
        // Disarmed again (plan dropped) the write goes through.
        drop(_armed);
        durable_atomic_write(&target, "third\n", "test.atomic").unwrap();
        assert_eq!(fs::read_to_string(&target).unwrap(), "third\n");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every window of the three-failpoint write aborts cleanly: error
    /// actions surface as io::Errors, the target keeps its previous
    /// contents, and no temp file survives the abort.
    #[test]
    fn full_write_failpoints_abort_each_window_cleanly() {
        let dir = scratch_dir("windows");
        let target = dir.join("out.txt");
        let write = |fp: &str| {
            durable_atomic_write_full(
                &target,
                "next\n".as_bytes(),
                "test.win_write",
                Some("test.win_fsync"),
                Some("test.win_rename"),
            )
            .map_err(|e| format!("{fp}: {e}"))
        };
        write("seed").unwrap();
        fs::write(&target, "old\n").unwrap();
        for fp in ["test.win_write", "test.win_fsync", "test.win_rename"] {
            let _armed = FaultPlan::new()
                .fail_at(fp, 0, FaultAction::Error("no space".to_string()))
                .arm();
            let err = write(fp).unwrap_err();
            assert!(err.contains("no space"), "{err}");
            assert_eq!(fs::read_to_string(&target).unwrap(), "old\n", "{fp}");
            let names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names, vec![std::ffi::OsString::from("out.txt")], "{fp}");
        }
        write("clean").unwrap();
        assert_eq!(fs::read_to_string(&target).unwrap(), "next\n");
        let _ = fs::remove_dir_all(&dir);
    }
}
