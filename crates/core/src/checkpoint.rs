//! Wave-granular checkpointing for the self-join.
//!
//! The self-join driver processes length-band **waves** in a fixed,
//! deterministic order, and a wave's output depends only on the
//! configuration and the input collection — never on scheduling. That
//! makes the wave boundary a natural unit of recovery: after each
//! completed wave the driver persists (wave count, emitted pairs, funnel
//! counters, config/input fingerprint), and a resumed run replays index
//! construction for the completed waves while skipping their probes,
//! producing output bit-identical to an uninterrupted run.
//!
//! The on-disk format is deliberately dumb: a line-based text file with a
//! magic header and a trailing FNV-1a digest over everything above it.
//! Truncation loses the digest line, corruption breaks it — both are
//! detected on load and rejected with [`CheckpointError::Corrupt`] rather
//! than silently resumed. Writes go through [`durable_atomic_write`]
//! (write-temp, fsync, atomic rename, directory fsync), so a crash
//! mid-write can never tear the checkpoint that an earlier wave already
//! committed — and a crash right after a commit cannot lose it either.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::JoinConfig;
use crate::join::SimilarPair;
use crate::stats::JoinStats;
use usj_model::UncertainString;
use usj_obs::Counter;

/// File name of the checkpoint inside its `--checkpoint` directory.
pub const CHECKPOINT_FILE: &str = "join.ckpt";

const MAGIC: &str = "usj-checkpoint v1";

/// FNV-1a 64, the same dependency-free hash the tracing layer uses; the
/// checkpoint and snapshot codecs use it to detect corruption and
/// truncation, not adversaries.
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

/// Why a checkpoint could not be saved or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// `--resume` was asked for but no checkpoint file exists yet.
    Missing(PathBuf),
    /// The underlying filesystem operation failed.
    Io(String),
    /// The file exists but fails validation (bad magic, truncation, digest
    /// mismatch, malformed line) — resuming from it would be unsound.
    Corrupt(String),
    /// The checkpoint was written by a run with a different configuration
    /// or input collection; resuming would splice incompatible outputs.
    FingerprintMismatch {
        /// Fingerprint recorded in the checkpoint file.
        checkpoint: u64,
        /// Fingerprint of the run attempting to resume.
        run: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing(path) => {
                write!(f, "no checkpoint at {} to resume from", path.display())
            }
            CheckpointError::Io(msg) => write!(f, "checkpoint io error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint rejected: {msg}"),
            CheckpointError::FingerprintMismatch { checkpoint, run } => write!(
                f,
                "checkpoint fingerprint {checkpoint:016x} does not match this run \
                 ({run:016x}); it was written with a different config or input"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The funnel counters a checkpoint persists, in file order, each under
/// its [`Counter::name`]. Fault/obs bookkeeping (`faults_injected`,
/// `batches_retried`, …) is deliberately absent: a resumed run must
/// reproduce the *uninterrupted* run's funnel, and the uninterrupted run
/// saw no faults.
const FUNNEL: [Counter; 12] = [
    Counter::PairsInScope,
    Counter::QgramSurvivors,
    Counter::QgramPrunedCount,
    Counter::QgramPrunedBound,
    Counter::FreqSurvivors,
    Counter::FreqPrunedLower,
    Counter::FreqPrunedChebyshev,
    Counter::CdfAccepted,
    Counter::CdfRejected,
    Counter::CdfUndecided,
    Counter::VerifiedSimilar,
    Counter::VerifiedDissimilar,
];

/// A committed prefix of a self-join: everything produced by the first
/// `completed_waves` length-band waves.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the output-affecting configuration, the input
    /// collection, and the wave plan; resume refuses on mismatch.
    pub fingerprint: u64,
    /// Waves fully processed (probes run *and* checkpoint committed).
    pub completed_waves: usize,
    /// Funnel counters accumulated over the completed waves (only the
    /// filter-funnel fields are populated).
    pub funnel: JoinStats,
    /// Pairs emitted by the completed waves.
    pub pairs: Vec<SimilarPair>,
}

impl Checkpoint {
    /// The checkpoint file path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(CHECKPOINT_FILE)
    }

    /// Serialises to the line-based text format (magic, fingerprint,
    /// waves, counters, pairs, trailing digest).
    pub fn encode(&self) -> String {
        let mut body = String::new();
        body.push_str(MAGIC);
        body.push('\n');
        body.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        body.push_str(&format!("waves {}\n", self.completed_waves));
        let mut funnel = self.funnel.clone();
        for counter in FUNNEL {
            let value = funnel.counter_mut(counter).map_or(0, |v| *v);
            body.push_str(&format!("counter {} {value}\n", counter.name()));
        }
        for p in &self.pairs {
            // Probabilities round-trip through their bit pattern: the
            // resumed run must replay *exactly* the floats the completed
            // waves emitted, not a decimal approximation of them.
            body.push_str(&format!(
                "pair {} {} {:016x}\n",
                p.left,
                p.right,
                p.prob.to_bits()
            ));
        }
        let digest = fnv1a(body.as_bytes());
        body.push_str(&format!("digest {digest:016x}\n"));
        body
    }

    /// Parses and validates the text format. Any defect — bad magic,
    /// missing or wrong digest, malformed line — is
    /// [`CheckpointError::Corrupt`], with the offending 1-based line
    /// position in the message so a damaged file can be inspected, and
    /// never a silent partial resume.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let corrupt = |msg: String| CheckpointError::Corrupt(msg);
        let total_lines = text.lines().count();
        // Every record — the digest included — is newline-terminated, so a
        // file that does not end in '\n' lost at least its last byte.
        if !text.ends_with('\n') {
            return Err(corrupt(format!(
                "line {total_lines}: file does not end in a newline (truncated?)"
            )));
        }
        let digest_at = text
            .trim_end_matches('\n')
            .rfind("digest ")
            .ok_or_else(|| {
                corrupt(format!(
                    "line {total_lines}: missing digest line (truncated?)"
                ))
            })?;
        // The digest line must start a line, and the digest must cover
        // exactly the bytes before it.
        let digest_line_no = text[..digest_at].matches('\n').count() + 1;
        if digest_at > 0 && text.as_bytes()[digest_at - 1] != b'\n' {
            return Err(corrupt(format!(
                "line {digest_line_no}: digest marker not at start of line"
            )));
        }
        let (body, digest_line) = text.split_at(digest_at);
        let digest_hex = digest_line
            .trim_end()
            .strip_prefix("digest ")
            .ok_or_else(|| corrupt(format!("line {digest_line_no}: malformed digest line")))?;
        let digest = u64::from_str_radix(digest_hex, 16).map_err(|_| {
            corrupt(format!(
                "line {digest_line_no}: digest {digest_hex:?} is not hex"
            ))
        })?;
        let actual = fnv1a(body.as_bytes());
        if digest != actual {
            return Err(corrupt(format!(
                "line {digest_line_no}: digest mismatch \
                 (file says {digest:016x}, contents hash to {actual:016x})"
            )));
        }

        let mut lines = body.lines();
        if lines.next() != Some(MAGIC) {
            return Err(corrupt(format!("line 1: bad magic (expected {MAGIC:?})")));
        }
        let mut fingerprint = None;
        let mut completed_waves = None;
        let mut stats = JoinStats::default();
        let mut pairs = Vec::new();
        // The magic is body line 1; records start on line 2.
        for (idx, line) in lines.enumerate() {
            let ln = idx + 2;
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("fingerprint") => {
                    let hex = parts.next().ok_or_else(|| {
                        corrupt(format!("line {ln}: bare fingerprint line {line:?}"))
                    })?;
                    fingerprint = Some(u64::from_str_radix(hex, 16).map_err(|_| {
                        corrupt(format!("line {ln}: fingerprint {hex:?} is not hex"))
                    })?);
                }
                Some("waves") => {
                    let n = parts
                        .next()
                        .ok_or_else(|| corrupt(format!("line {ln}: bare waves line {line:?}")))?;
                    completed_waves = Some(n.parse::<usize>().map_err(|_| {
                        corrupt(format!("line {ln}: wave count {n:?} is not a number"))
                    })?);
                }
                Some("counter") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| corrupt(format!("line {ln}: bare counter line {line:?}")))?;
                    let v = parts.next().ok_or_else(|| {
                        corrupt(format!("line {ln}: counter {name:?} has no value"))
                    })?;
                    let v: u64 = v.parse().map_err(|_| {
                        corrupt(format!(
                            "line {ln}: counter {name:?} value {v:?} is not a number"
                        ))
                    })?;
                    let field = FUNNEL
                        .iter()
                        .find(|c| c.name() == name)
                        .and_then(|&c| stats.counter_mut(c))
                        .ok_or_else(|| corrupt(format!("line {ln}: unknown counter {name:?}")))?;
                    *field = v;
                }
                Some("pair") => {
                    let mut field = || {
                        parts
                            .next()
                            .ok_or_else(|| corrupt(format!("line {ln}: short pair line {line:?}")))
                    };
                    let left: u32 = field()?
                        .parse()
                        .map_err(|_| corrupt(format!("line {ln}: bad pair id in {line:?}")))?;
                    let right: u32 = field()?
                        .parse()
                        .map_err(|_| corrupt(format!("line {ln}: bad pair id in {line:?}")))?;
                    let bits = u64::from_str_radix(field()?, 16).map_err(|_| {
                        corrupt(format!("line {ln}: bad probability bits in {line:?}"))
                    })?;
                    pairs.push(SimilarPair {
                        left,
                        right,
                        prob: f64::from_bits(bits),
                    });
                }
                Some(other) => return Err(corrupt(format!("line {ln}: unknown record {other:?}"))),
                None => {}
            }
        }
        Ok(Checkpoint {
            fingerprint: fingerprint
                .ok_or_else(|| corrupt("missing fingerprint record".to_string()))?,
            completed_waves: completed_waves
                .ok_or_else(|| corrupt("missing waves record".to_string()))?,
            funnel: stats,
            pairs,
        })
    }

    /// Atomically persists the checkpoint into `dir` (created if absent),
    /// passing through the `checkpoint.write` failpoint. Returns the file
    /// path written.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, CheckpointError> {
        fs::create_dir_all(dir)
            .map_err(|e| CheckpointError::Io(format!("cannot create {}: {e}", dir.display())))?;
        let path = Checkpoint::path_in(dir);
        durable_atomic_write(&path, &self.encode(), "checkpoint.write")
            .map_err(|e| CheckpointError::Io(format!("cannot write {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Loads and validates the checkpoint in `dir`.
    pub fn load(dir: &Path) -> Result<Checkpoint, CheckpointError> {
        let path = Checkpoint::path_in(dir);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(CheckpointError::Missing(path));
            }
            Err(e) => {
                return Err(CheckpointError::Io(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        Checkpoint::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use usj_fault::{FaultAction, FaultPlan};

    fn scratch_dir(tag: &str) -> PathBuf {
        // ordering: Relaxed — only uniqueness matters, not ordering.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("usj-ckpt-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn sample() -> Checkpoint {
        let funnel = JoinStats {
            pairs_in_scope: 40,
            qgram_survivors: 12,
            cdf_accepted: 2,
            verified_similar: 3,
            ..Default::default()
        };
        Checkpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            completed_waves: 2,
            funnel,
            pairs: vec![
                SimilarPair {
                    left: 0,
                    right: 5,
                    prob: 0.75,
                },
                SimilarPair {
                    left: 3,
                    right: 4,
                    prob: 0.265625,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ck = sample();
        let text = ck.encode();
        assert!(text.starts_with(MAGIC));
        assert!(text
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with("digest "));
        assert_eq!(Checkpoint::decode(&text).unwrap(), ck);
    }

    #[test]
    fn save_load_round_trips_and_missing_is_distinct() {
        // An empty plan takes the process-wide plan lock: without it, a
        // concurrently armed `checkpoint.write` fault (see
        // `save_failpoint_preserves_previous_checkpoint`) can fire on this
        // test's save instead of its own.
        let _serial = FaultPlan::new().arm();
        let dir = scratch_dir("roundtrip");
        assert!(matches!(
            Checkpoint::load(&dir),
            Err(CheckpointError::Missing(_))
        ));
        let ck = sample();
        let path = ck.save(&dir).unwrap();
        assert!(path.ends_with(CHECKPOINT_FILE));
        assert_eq!(Checkpoint::load(&dir).unwrap(), ck);
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from(CHECKPOINT_FILE)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let text = sample().encode();
        // Truncating anywhere — even cleanly at a line boundary — loses or
        // breaks the digest.
        for cut in [text.len() - 1, text.len() / 2, 1] {
            let truncated = &text[..cut];
            assert!(
                matches!(
                    Checkpoint::decode(truncated),
                    Err(CheckpointError::Corrupt(_))
                ),
                "cut at {cut} must be rejected"
            );
        }
        // Flipping one byte in the body breaks the digest.
        let mut bytes = text.clone().into_bytes();
        bytes[MAGIC.len() + 15] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            Checkpoint::decode(&tampered),
            Err(CheckpointError::Corrupt(_))
        ));
        // A well-formed digest over garbage content is also rejected.
        assert!(matches!(
            Checkpoint::decode("gibberish\ndigest 0000000000000000\n"),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn prob_bits_round_trip_exactly() {
        let mut ck = sample();
        // A probability with no short decimal representation (one ULP off
        // 0.1, built by bit arithmetic to stay within the MSRV).
        ck.pairs[0].prob = f64::from_bits(0.1f64.to_bits() + 1);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.pairs[0].prob.to_bits(), ck.pairs[0].prob.to_bits());
    }

    #[test]
    fn durable_write_error_fault_leaves_target_untouched() {
        let dir = scratch_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
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
        fs::create_dir_all(&dir).unwrap();
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

    #[test]
    fn save_failpoint_preserves_previous_checkpoint() {
        let dir = scratch_dir("failpoint");
        let mut ck = sample();
        ck.save(&dir).unwrap();

        let _armed = FaultPlan::new()
            .fail_at(
                "checkpoint.write",
                0,
                FaultAction::Error("yanked".to_string()),
            )
            .arm();
        ck.completed_waves = 3;
        assert!(matches!(ck.save(&dir), Err(CheckpointError::Io(_))));
        // The wave-2 checkpoint is still the one on disk, readable.
        assert_eq!(Checkpoint::load(&dir).unwrap().completed_waves, 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
