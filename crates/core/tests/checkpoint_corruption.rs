//! Shared corruption corpus for both persistence codecs.
//!
//! Checkpoint loader: every byte-level defect — truncated lines,
//! bit-flipped FNV digests, garbage records — must be rejected with a
//! *positioned* [`CheckpointError::Corrupt`] (the message names the
//! offending 1-based line), and a resume over a damaged file must fail
//! loudly instead of silently replaying a partial prefix.
//!
//! Snapshot loader: the same defect classes — bit flips at every
//! section boundary, a truncation sweep over byte quantiles, garbage
//! headers and footers — must every one be *detected*
//! (`corruptions_detected ≥ 1`, never a [`LoadRung::Verified`] load)
//! and *recovered from*: the post-ladder index is bit-identical to a
//! cold rebuild ([`snapshot::collection_digest`]).

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use usj_core::obs::NoopRecorder;
use usj_core::snapshot::{self, LoadRung, SalvageMode};
use usj_core::{
    run_self_join, Checkpoint, CheckpointError, IndexedCollection, JoinConfig, JoinStats,
    RunOptions, SimilarPair,
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

/// A well-formed checkpoint with every record kind present.
fn sample() -> Checkpoint {
    let funnel = JoinStats {
        pairs_in_scope: 9,
        qgram_survivors: 5,
        freq_survivors: 3,
        cdf_accepted: 1,
        verified_similar: 1,
        output_pairs: 2,
        ..Default::default()
    };
    Checkpoint {
        fingerprint: 0x00c0ffee_u64,
        completed_waves: 3,
        funnel,
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
    }
}

fn decode_err(text: &str) -> String {
    match Checkpoint::decode(text) {
        Err(CheckpointError::Corrupt(msg)) => msg,
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("corrupted checkpoint decoded successfully"),
    }
}

#[test]
fn roundtrip_is_exact() {
    let ck = sample();
    let decoded = Checkpoint::decode(&ck.encode()).expect("clean roundtrip");
    assert_eq!(decoded.fingerprint, ck.fingerprint);
    assert_eq!(decoded.completed_waves, ck.completed_waves);
    assert_eq!(decoded.pairs.len(), ck.pairs.len());
    for (a, b) in decoded.pairs.iter().zip(&ck.pairs) {
        assert_eq!((a.left, a.right), (b.left, b.right));
        assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "bit-exact probability");
    }
}

#[test]
fn truncated_final_line_is_positioned() {
    let text = sample().encode();
    // Drop the trailing newline: the digest line lost its last byte.
    let cut = &text[..text.len() - 1];
    let msg = decode_err(cut);
    let lines = cut.lines().count();
    assert!(
        msg.contains(&format!("line {lines}")),
        "no position in {msg:?}"
    );
    assert!(msg.contains("truncated"), "{msg:?}");
}

#[test]
fn truncation_losing_the_digest_is_positioned() {
    let text = sample().encode();
    // Cut the whole digest line off (keep the preceding newline).
    let digest_at = text.rfind("digest ").expect("encoded digest");
    let cut = &text[..digest_at];
    let msg = decode_err(cut);
    assert!(msg.contains("missing digest"), "{msg:?}");
    assert!(
        msg.contains(&format!("line {}", cut.lines().count())),
        "no position in {msg:?}"
    );
}

#[test]
fn every_single_bit_flip_in_the_digest_is_caught() {
    let text = sample().encode();
    let digest_at = text.rfind("digest ").expect("encoded digest");
    let hex_start = digest_at + "digest ".len();
    // Flip each hex digit of the digest to a different valid hex digit;
    // the file must be rejected with the digest line's position.
    let digest_line_no = text[..digest_at].matches('\n').count() + 1;
    for i in 0..16 {
        let mut bytes = text.clone().into_bytes();
        let pos = hex_start + i;
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).expect("still utf-8");
        if flipped == text {
            continue;
        }
        let msg = decode_err(&flipped);
        assert!(msg.contains("digest mismatch"), "flip {i}: {msg:?}");
        assert!(
            msg.contains(&format!("line {digest_line_no}")),
            "flip {i}: no position in {msg:?}"
        );
    }
}

#[test]
fn body_byte_flip_breaks_the_digest() {
    let text = sample().encode();
    // Flip one digit inside a pair record; the FNV digest must notice.
    let pair_at = text.find("pair 0 4").expect("first pair record");
    let mut bytes = text.clone().into_bytes();
    bytes[pair_at + 5] = b'9'; // pair 0 -> pair 9
    let msg = decode_err(&String::from_utf8(bytes).expect("still utf-8"));
    assert!(msg.contains("digest mismatch"), "{msg:?}");
}

/// Re-encodes `body` lines with a fresh valid digest, so defects survive
/// the digest check and exercise the record parsers.
fn with_valid_digest(body: &str) -> String {
    // Mirror the file layout: body then `digest <fnv1a(body)>`.
    let mut text = String::from(body);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    text.push_str(&format!("digest {hash:016x}\n"));
    text
}

#[test]
fn garbage_records_are_positioned() {
    // Each (body, expected-position, expected-fragment) triple plants one
    // defect on a known line of an otherwise plausible file.
    let cases = [
        (
            "usj-checkpoint v1\nfingerprint 00c0ffee\nwaves three\n",
            "line 3",
            "is not a number",
        ),
        (
            "usj-checkpoint v1\nfingerprint xyz\nwaves 1\n",
            "line 2",
            "is not hex",
        ),
        (
            "usj-checkpoint v1\nfingerprint 00c0ffee\nwaves 1\ngrble 1 2\n",
            "line 4",
            "unknown record",
        ),
        (
            "usj-checkpoint v1\nfingerprint 00c0ffee\nwaves 1\npair 0\n",
            "line 4",
            "short pair line",
        ),
        (
            "usj-checkpoint v1\nfingerprint 00c0ffee\nwaves 1\ncounter bogus_total 4\n",
            "line 4",
            "unknown counter",
        ),
        (
            "usj-checkpoint v1\nfingerprint 00c0ffee\nwaves 1\npair 0 1 zz\n",
            "line 4",
            "bad probability bits",
        ),
    ];
    for (body, position, fragment) in cases {
        let msg = decode_err(&with_valid_digest(body));
        assert!(msg.contains(position), "{body:?}: no {position} in {msg:?}");
        assert!(msg.contains(fragment), "{body:?}: {msg:?}");
    }
    // Bad magic is always line 1.
    let msg = decode_err(&with_valid_digest("usj-checkpoint v9\nwaves 1\n"));
    assert!(msg.contains("line 1"), "{msg:?}");
    assert!(msg.contains("bad magic"), "{msg:?}");
}

#[test]
fn corrupted_file_on_disk_fails_resume_loudly() {
    let _g = lock();
    // A real driver run commits a checkpoint; damaging the file must turn
    // resume into a positioned error, never a silent partial resume.
    let alpha = Alphabet::dna();
    let strings: Vec<UncertainString> = ["ACGT", "ACGG", "ACGTA", "ACGTC", "ACGTAC", "ACGTAG"]
        .iter()
        .map(|s| UncertainString::parse(s, &alpha).unwrap())
        .collect();
    let config = JoinConfig::new(1, 0.3)
        .with_shard_band(1)
        .with_batch_range(1, 2);
    let dir = std::env::temp_dir().join(format!("usj-ckpt-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        threads: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: false,
    };
    run_self_join(config.clone(), 4, &strings, &opts, || NoopRecorder).expect("clean run commits");
    let path = Checkpoint::path_in(&dir);
    let text = std::fs::read_to_string(&path).expect("checkpoint written");

    // Truncate mid-line on disk.
    std::fs::write(&path, &text[..text.len() - 3]).expect("rewrite");
    let err = Checkpoint::load(&dir).expect_err("truncated file must not load");
    assert!(
        matches!(&err, CheckpointError::Corrupt(msg) if msg.contains("line ")),
        "{err}"
    );

    // Bit-flip the digest on disk and resume through the driver.
    let digest_at = text.rfind("digest ").expect("digest line");
    let mut bytes = text.clone().into_bytes();
    let pos = digest_at + "digest ".len();
    bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, &bytes).expect("rewrite");
    let resume = RunOptions {
        threads: 2,
        checkpoint_dir: Some(dir.clone()),
        resume: true,
    };
    let err = run_self_join(config, 4, &strings, &resume, || NoopRecorder)
        .expect_err("resume over a corrupt checkpoint must fail");
    let msg = err.to_string();
    assert!(msg.contains("digest mismatch"), "{msg}");
    assert!(msg.contains("line "), "no position in {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- snapshot loader: the same corpus, byte-for-byte recovery ----

fn snap_strings() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    let mut v = Vec::new();
    for len in 4..=7usize {
        let base: String = "ACGT".chars().cycle().take(len).collect();
        v.push(UncertainString::parse(&base, &alpha).unwrap());
        let tail = format!("{}{}", &base[..len - 1], "{(A,0.7),(G,0.3)}");
        v.push(UncertainString::parse(&tail, &alpha).unwrap());
    }
    v
}

fn snap_config() -> JoinConfig {
    JoinConfig::new(1, 0.3)
}

fn snap_scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only needs uniqueness.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("usj-snap-corpus-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Load a damaged image: the ladder must (a) *detect* the damage —
/// never a [`LoadRung::Verified`] load with zero corruptions — and
/// (b) recover an index bit-identical to a cold rebuild.
fn assert_detected_and_recovered(dir: &Path, want: u64, what: &str) {
    let path = dir.join("index.snap");
    let loaded = snapshot::load(
        &path,
        &snap_config(),
        4,
        snap_strings(),
        SalvageMode::Strict,
    )
    .unwrap_or_else(|e| panic!("{what}: load refused: {e}"));
    assert!(
        loaded.report.corruptions_detected >= 1,
        "{what}: corruption not detected (rung {:?}, reason {:?})",
        loaded.report.rung,
        loaded.report.reason
    );
    assert_ne!(
        loaded.report.rung,
        LoadRung::Verified,
        "{what}: damaged image loaded as verified"
    );
    assert_eq!(
        snapshot::collection_digest(&loaded.collection),
        want,
        "{what}: recovery is not bit-identical to a cold rebuild (rung {:?})",
        loaded.report.rung
    );
}

/// Bit-flip the first and last byte of every section (header and footer
/// included): each flip lands in exactly one checksummed region, and the
/// loader must detect it and recover bit-identically — salvaging intact
/// bands where the interner survives, rebuilding from source where it
/// does not.
#[test]
fn snapshot_bit_flip_at_every_section_boundary_is_caught() {
    let _g = lock();
    let cold = IndexedCollection::build(snap_config(), 4, snap_strings());
    let want = snapshot::collection_digest(&cold);
    let dir = snap_scratch("flip");
    let path = dir.join("index.snap");
    snapshot::write(&path, &cold).expect("snapshot commits");
    let pristine = std::fs::read(&path).unwrap();
    let sections = snapshot::section_directory(&pristine).expect("directory parses");
    assert!(sections.len() >= 2, "interner plus at least one band");

    // Byte offsets to attack: each section's first and last byte, the
    // first byte of the file (header), and the first footer byte.
    let mut targets: Vec<(usize, String)> = vec![(0, "header[0]".into())];
    for s in &sections {
        targets.push((s.offset, format!("{}[0]", s.name)));
        targets.push((s.offset + s.len - 1, format!("{}[-1]", s.name)));
    }
    let body_end = sections.iter().map(|s| s.offset + s.len).max().unwrap();
    targets.push((body_end, "footer[0]".into()));

    for (pos, what) in targets {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x01; // one flipped bit inside one checksummed region
        std::fs::write(&path, &bytes).unwrap();
        assert_detected_and_recovered(&dir, want, &format!("bit flip at {what} (byte {pos})"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncate the image at every eighth of its length (a crash that cut
/// the file mid-write, had the rename not been atomic): every quantile
/// must be detected and recovered from, down to the empty file.
#[test]
fn snapshot_truncation_sweep_is_caught_at_every_quantile() {
    let _g = lock();
    let cold = IndexedCollection::build(snap_config(), 4, snap_strings());
    let want = snapshot::collection_digest(&cold);
    let dir = snap_scratch("trunc");
    let path = dir.join("index.snap");
    snapshot::write(&path, &cold).expect("snapshot commits");
    let pristine = std::fs::read(&path).unwrap();
    for q in 0..8 {
        let cut = pristine.len() * q / 8;
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert_detected_and_recovered(&dir, want, &format!("truncation to {cut}B (q={q}/8)"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbage where the header or footer should be: the ladder must fall
/// to a full rebuild (no section directory to salvage from) and still
/// produce a bit-identical index.
#[test]
fn snapshot_garbage_header_and_footer_fall_to_rebuild() {
    let _g = lock();
    let cold = IndexedCollection::build(snap_config(), 4, snap_strings());
    let want = snapshot::collection_digest(&cold);
    let dir = snap_scratch("garbage");
    let path = dir.join("index.snap");
    snapshot::write(&path, &cold).expect("snapshot commits");
    let pristine = std::fs::read(&path).unwrap();

    // Whole file replaced with noise.
    std::fs::write(&path, b"not a snapshot at all\n").unwrap();
    assert_detected_and_recovered(&dir, want, "garbage file");

    // Valid body, garbage header: wrong magic on line 1.
    let mut bytes = b"usj-snapshot v9".to_vec();
    bytes.extend_from_slice(&pristine[snapshot::SNAPSHOT_MAGIC.len()..]);
    std::fs::write(&path, &bytes).unwrap();
    assert_detected_and_recovered(&dir, want, "garbage header");

    // Valid header and body, garbage footer.
    let sections = snapshot::section_directory(&pristine).expect("directory parses");
    let body_end = sections.iter().map(|s| s.offset + s.len).max().unwrap();
    let mut bytes = pristine[..body_end].to_vec();
    bytes.extend_from_slice(b"footer what\ndigest 0000000000000000\n");
    std::fs::write(&path, &bytes).unwrap();
    assert_detected_and_recovered(&dir, want, "garbage footer");
    let _ = std::fs::remove_dir_all(&dir);
}
