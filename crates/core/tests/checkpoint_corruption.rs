//! One corruption corpus for both file kinds of the persistence
//! container: an index snapshot and a join checkpoint.
//!
//! Each case damages a committed image the same way for both kinds: a
//! bit flip at every section boundary, a truncation sweep over byte
//! quantiles, a garbage header and a garbage footer, a zeroed section
//! span and two swapped sections.
//!
//! Snapshot loader: every case must be *detected*
//! (`corruptions_detected ≥ 1`, never a [`LoadRung::Verified`] load) and
//! *recovered from*: the post-ladder index is bit-identical to a cold
//! rebuild ([`snapshot::collection_digest`]).
//!
//! Checkpoint loader: every case must be a [`CheckpointError::Corrupt`],
//! and a resume over the damaged file must fail with that same error,
//! leaving the file as it found it, instead of replaying a partial
//! prefix.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use usj_core::obs::NoopRecorder;
use usj_core::snapshot::{self, LoadRung, SalvageMode, SectionEntry};
use usj_core::{
    run_self_join, Checkpoint, CheckpointError, IndexedCollection, JoinConfig, JoinError,
    JoinStats, RunOptions, SimilarPair,
};
use usj_fault::shield;
use usj_model::{Alphabet, UncertainString};

/// Serialise with the rest of the fault suite: `usj-fault` plans are
/// process-global, and resume runs below go through the same driver.
fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    shield::install();
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn parse(texts: &[&str]) -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    texts
        .iter()
        .map(|s| UncertainString::parse(s, &alpha).unwrap())
        .collect()
}

/// Eight strings over four lengths: an interner and four band sections.
fn snap_strings() -> Vec<UncertainString> {
    let mut v = Vec::new();
    for len in 4..=7usize {
        let base: String = "ACGT".chars().cycle().take(len).collect();
        let tail = format!("{}{}", &base[..len - 1], "{(A,0.7),(G,0.3)}");
        v.extend(parse(&[&base, &tail]));
    }
    v
}

fn snap_config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
}

fn ckpt_strings() -> Vec<UncertainString> {
    parse(&["ACGT", "ACGG", "ACGTA", "ACGTC", "ACGTAC", "ACGTAG"])
}

fn ckpt_config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
        .with_shard_band(1)
        .with_batch_range(1, 2)
}

fn ckpt_opts(dir: &Path, resume: bool) -> RunOptions {
    RunOptions {
        threads: 2,
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
    }
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only needs uniqueness.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("usj-corpus-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

enum Kind {
    Snapshot,
    Checkpoint,
}

/// A committed image of one kind, in the file its loader reads.
struct Subject {
    kind: Kind,
    dir: PathBuf,
    path: PathBuf,
    pristine: Vec<u8>,
    /// The snapshot's cold-build digest that recovery must reproduce.
    want: u64,
}

impl Subject {
    fn new(kind: Kind, tag: &str) -> Subject {
        let dir = scratch(tag);
        let (path, want) = match kind {
            Kind::Snapshot => {
                let cold = IndexedCollection::build(snap_config(), 4, snap_strings());
                let path = dir.join("index.snap");
                snapshot::write(&path, &cold).expect("snapshot commits");
                (path, snapshot::collection_digest(&cold))
            }
            Kind::Checkpoint => {
                run_self_join(
                    ckpt_config(),
                    4,
                    &ckpt_strings(),
                    &ckpt_opts(&dir, false),
                    || NoopRecorder,
                )
                .expect("clean run commits");
                (Checkpoint::path_in(&dir), 0)
            }
        };
        let pristine = std::fs::read(&path).expect("image written");
        Subject {
            kind,
            dir,
            path,
            pristine,
            want,
        }
    }

    fn sections(&self) -> Vec<SectionEntry> {
        let sections = snapshot::section_directory(&self.pristine).expect("directory parses");
        assert!(sections.len() >= 2, "at least two sections");
        sections
    }

    /// Puts `damaged` in place of the image and asserts its loader
    /// catches it; returns the loader's diagnosis.
    fn assert_caught(&self, damaged: &[u8], what: &str) -> String {
        std::fs::write(&self.path, damaged).unwrap();
        match self.kind {
            Kind::Snapshot => {
                let loaded = snapshot::load(
                    &self.path,
                    &snap_config(),
                    4,
                    snap_strings(),
                    SalvageMode::Strict,
                )
                .unwrap_or_else(|e| panic!("{what}: load refused: {e}"));
                let report = loaded.report;
                assert!(
                    report.corruptions_detected >= 1,
                    "{what}: corruption not detected (rung {:?}, reason {:?})",
                    report.rung,
                    report.reason
                );
                assert_ne!(
                    report.rung,
                    LoadRung::Verified,
                    "{what}: damaged image loaded as verified"
                );
                assert_eq!(
                    snapshot::collection_digest(&loaded.collection),
                    self.want,
                    "{what}: recovery is not bit-identical to a cold rebuild (rung {:?})",
                    report.rung
                );
                report.reason
            }
            Kind::Checkpoint => {
                let msg = match Checkpoint::load(&self.dir) {
                    Err(CheckpointError::Corrupt(msg)) => msg,
                    other => panic!("{what}: expected Corrupt, got {other:?}"),
                };
                let resumed = run_self_join(
                    ckpt_config(),
                    4,
                    &ckpt_strings(),
                    &ckpt_opts(&self.dir, true),
                    || NoopRecorder,
                );
                match resumed {
                    Err(JoinError::Checkpoint(CheckpointError::Corrupt(m))) if m == msg => {}
                    Err(e) => panic!("{what}: resume failed with another error: {e}"),
                    Ok(_) => panic!("{what}: resumed over a damaged checkpoint"),
                }
                let after = std::fs::read(&self.path).unwrap();
                assert_eq!(after, damaged, "{what}: the failed resume rewrote the file");
                msg
            }
        }
    }
}

impl Drop for Subject {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Bit-flip the first and last byte of every section, the first byte of
/// the file (header) and the first footer byte: each flip lands in
/// exactly one checksummed region.
fn boundary_flips(s: &Subject) {
    let sections = s.sections();
    let mut targets: Vec<(usize, String)> = vec![(0, "header[0]".into())];
    for e in &sections {
        targets.push((e.offset, format!("{}[0]", e.name)));
        targets.push((e.offset + e.len - 1, format!("{}[-1]", e.name)));
    }
    let body_end = sections.iter().map(|e| e.offset + e.len).max().unwrap();
    targets.push((body_end, "footer[0]".into()));
    for (pos, what) in targets {
        let mut bytes = s.pristine.clone();
        bytes[pos] ^= 0x01;
        s.assert_caught(&bytes, &format!("bit flip at {what} (byte {pos})"));
    }
}

/// Truncate the image at every eighth of its length (a crash that cut
/// the file mid-write, had the rename not been atomic), down to the
/// empty file.
fn truncation_sweep(s: &Subject) {
    for q in 0..8 {
        let cut = s.pristine.len() * q / 8;
        s.assert_caught(
            &s.pristine[..cut],
            &format!("truncation to {cut}B (q={q}/8)"),
        );
    }
}

/// Noise for the whole file, a magic line of another version over a
/// valid body, and a garbage footer after a valid header and body.
fn garbage_header_and_footer(s: &Subject) {
    s.assert_caught(b"not an image at all\n", "garbage file");
    let mut bytes = s.pristine.clone();
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    bytes[nl - 1] = b'9';
    s.assert_caught(&bytes, "garbage header");
    let body_end = s.sections().iter().map(|e| e.offset + e.len).max().unwrap();
    let mut bytes = s.pristine[..body_end].to_vec();
    bytes.extend_from_slice(b"footer what\ndigest 0000000000000000\n");
    s.assert_caught(&bytes, "garbage footer");
}

/// A span of zeros where data was, as a torn sector reads back. Both
/// images are smaller than a page, so each section's span is zeroed in
/// turn.
fn zeroed_spans(s: &Subject) {
    assert!(s.pristine.len() < 4096, "image is larger than a page");
    for e in s.sections() {
        let mut bytes = s.pristine.clone();
        bytes[e.offset..e.offset + e.len].fill(0);
        s.assert_caught(&bytes, &format!("zeroed {}", e.name));
    }
}

/// The last two sections' bytes swapped in place: the directory rows
/// no longer describe what sits at their offsets.
fn swapped_sections(s: &Subject) {
    let sections = s.sections();
    let (a, b) = (&sections[sections.len() - 2], &sections[sections.len() - 1]);
    let mut bytes = s.pristine.clone();
    let swapped = [
        &s.pristine[b.offset..][..b.len],
        &s.pristine[a.offset..][..a.len],
    ]
    .concat();
    bytes[a.offset..b.offset + b.len].copy_from_slice(&swapped);
    assert_ne!(
        bytes, s.pristine,
        "swapping {} and {} changed nothing",
        a.name, b.name
    );
    s.assert_caught(&bytes, &format!("{} swapped with {}", a.name, b.name));
}

fn snapshot_case(case: fn(&Subject)) {
    let _g = lock();
    case(&Subject::new(Kind::Snapshot, "snapshot"));
}

#[test]
fn snapshot_bit_flip_at_every_section_boundary_is_caught() {
    snapshot_case(boundary_flips);
}

#[test]
fn snapshot_truncation_sweep_is_caught_at_every_quantile() {
    snapshot_case(truncation_sweep);
}

#[test]
fn snapshot_garbage_header_and_footer_fall_to_rebuild() {
    snapshot_case(garbage_header_and_footer);
}

#[test]
fn snapshot_zeroed_section_spans_are_caught() {
    snapshot_case(zeroed_spans);
}

#[test]
fn snapshot_swapped_sections_are_caught() {
    snapshot_case(swapped_sections);
}

/// Every case of the corpus over the checkpoint a real driver run
/// committed: each damaged file must be refused, and the resume over it
/// must fail with the same error.
#[test]
fn corrupted_file_on_disk_fails_resume_loudly() {
    let _g = lock();
    let subject = Subject::new(Kind::Checkpoint, "checkpoint");
    for case in [
        boundary_flips,
        truncation_sweep,
        garbage_header_and_footer,
        zeroed_spans,
        swapped_sections,
    ] {
        case(&subject);
    }
}

/// A checkpoint in the retired `usj-checkpoint v1` text format is
/// refused by version; the resume fails instead of starting over or
/// replaying part of it.
#[test]
fn v1_text_checkpoint_is_refused_by_version() {
    let _g = lock();
    let subject = Subject::new(Kind::Checkpoint, "v1");
    let v1 = "usj-checkpoint v1\n\
              fingerprint 00000000deadbeef\n\
              waves 1\n\
              counter pairs_in_scope 3\n\
              pair 0 1 3fe8000000000000\n\
              digest 0123456789abcdef\n";
    let msg = subject.assert_caught(v1.as_bytes(), "v1 text checkpoint");
    assert!(
        msg.contains(r#"unsupported checkpoint version "usj-checkpoint v1""#)
            && msg.contains(r#"this build reads "usj-checkpoint v2""#),
        "{msg}"
    );
}

#[test]
fn roundtrip_is_exact() {
    let _g = lock();
    let dir = scratch("roundtrip");
    let ck = Checkpoint {
        fingerprint: 0x00c0ffee_u64,
        completed_waves: 3,
        funnel: JoinStats {
            pairs_in_scope: 9,
            qgram_survivors: 5,
            freq_survivors: 3,
            cdf_accepted: 1,
            verified_similar: 1,
            ..Default::default()
        },
        pairs: vec![
            SimilarPair {
                left: 0,
                right: 4,
                prob: 0.75,
            },
            SimilarPair {
                left: 2,
                right: 7,
                prob: 0.5000000001,
            },
        ],
    };
    ck.save(&dir).expect("checkpoint commits");
    let loaded = Checkpoint::load(&dir).expect("clean roundtrip");
    assert_eq!(loaded, ck);
    for (a, b) in loaded.pairs.iter().zip(&ck.pairs) {
        assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "bit-exact probability");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
