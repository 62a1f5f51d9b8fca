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
//! A checkpoint is a `usj-checkpoint v2` image of the persistence
//! container index snapshots use too: the header carries the run
//! fingerprint, section `state` the wave count and the `FUNNEL` counters,
//! section `pairs` the emitted pairs. A load is all-or-nothing: any
//! defect, or an image of another version (such as `usj-checkpoint v1`'s
//! text), is [`CheckpointError::Corrupt`], never a partial resume. Writes
//! are durable (write-temp, fsync, atomic rename, directory fsync), so a
//! crash can neither tear the checkpoint an earlier wave committed nor
//! lose one just committed.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::container::{self, durable_atomic_write_full, put_u32, put_u64, Reader};
use crate::join::SimilarPair;
use crate::stats::JoinStats;
use usj_obs::{Counter, Recorder};

/// File name of the checkpoint inside its `--checkpoint` directory.
pub const CHECKPOINT_FILE: &str = "join.ckpt";

const MAGIC: &str = "usj-checkpoint v2";

/// Why a checkpoint could not be saved or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// `--resume` was asked for but no checkpoint file exists yet.
    Missing(PathBuf),
    /// The underlying filesystem operation failed.
    Io(String),
    /// The file exists but fails validation (another version, a damaged
    /// header, footer or section) — resuming from it would be unsound.
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

/// The funnel counters a checkpoint persists. Section `state` stores
/// them by position, one `u64` each in this order with no name, so this
/// order is part of the `usj-checkpoint v2` format. Fault/obs bookkeeping
/// (`faults_injected`, `batches_retried`, …) is deliberately absent: a
/// resumed run must reproduce the *uninterrupted* run's funnel, and the
/// uninterrupted run saw no faults.
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

    /// The container image: sections `state` and `pairs`.
    fn image(&self) -> Vec<u8> {
        let mut state = Vec::with_capacity(8 * (1 + FUNNEL.len()));
        put_u64(&mut state, self.completed_waves as u64);
        for counter in FUNNEL {
            put_u64(&mut state, self.funnel.counter_value(counter).unwrap_or(0));
        }
        let mut pairs = Vec::with_capacity(8 + 16 * self.pairs.len());
        put_u64(&mut pairs, self.pairs.len() as u64);
        for p in &self.pairs {
            put_u32(&mut pairs, p.left);
            put_u32(&mut pairs, p.right);
            // Probabilities round-trip through their bit pattern: the
            // resumed run must replay *exactly* the floats the completed
            // waves emitted.
            put_u64(&mut pairs, p.prob.to_bits());
        }
        let sections = [
            ("state".to_string(), &state[..]),
            ("pairs".to_string(), &pairs[..]),
        ];
        container::seal(MAGIC, self.fingerprint, &sections)
    }

    /// Opens and decodes an image. Any defect is
    /// [`CheckpointError::Corrupt`] naming the region it hit: the
    /// header, the footer, the version or a section.
    fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let image =
            container::open(bytes, MAGIC).map_err(|e| CheckpointError::Corrupt(e.reason))?;
        let names: Vec<&str> = image.sections.iter().map(|e| e.name.as_str()).collect();
        let decoded = match names[..] {
            ["state", "pairs"] => image.decode("state", decode_state).and_then(|state| {
                image
                    .decode("pairs", decode_pairs)
                    .map(|pairs| (state, pairs))
            }),
            _ => Err(format!("sections {names:?}, expected state and pairs")),
        };
        let ((completed_waves, funnel), pairs) = decoded.map_err(CheckpointError::Corrupt)?;
        Ok(Checkpoint {
            fingerprint: image.fingerprint,
            completed_waves,
            funnel,
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
        durable_atomic_write_full(&path, &self.image(), "checkpoint.write", None, None)
            .map_err(|e| CheckpointError::Io(format!("cannot write {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Loads and validates the checkpoint in `dir`.
    pub fn load(dir: &Path) -> Result<Checkpoint, CheckpointError> {
        let path = Checkpoint::path_in(dir);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
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
        Checkpoint::decode(&bytes)
    }
}

/// Section `state`: the completed-wave count, then the [`FUNNEL`]
/// counters in order, each a `u64`.
fn decode_state(bytes: &[u8]) -> Result<(usize, JoinStats), String> {
    let mut r = Reader(bytes);
    let words = r.array(1 + FUNNEL.len(), u64::from_le_bytes)?;
    r.finish()?;
    let mut funnel = JoinStats::default();
    for (&counter, &value) in FUNNEL.iter().zip(&words[1..]) {
        funnel.counter(counter, value);
    }
    let waves = usize::try_from(words[0]).map_err(|_| "wave count overflows")?;
    Ok((waves, funnel))
}

/// Section `pairs`: a `u64` count, then per pair 16 bytes: `left` and
/// `right` as `u32`, then the probability's bits.
fn decode_pairs(bytes: &[u8]) -> Result<Vec<SimilarPair>, String> {
    let mut r = Reader(bytes);
    let n = usize::try_from(r.u64()?).map_err(|_| "pair count overflows")?;
    let pairs = r.array(n, |pair| {
        let pair = u128::from_le_bytes(pair);
        SimilarPair {
            left: pair as u32,
            right: (pair >> 32) as u32,
            prob: f64::from_bits((pair >> 64) as u64),
        }
    })?;
    r.finish()?;
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::scratch_dir;
    use usj_fault::{FaultAction, FaultPlan};

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

    fn corrupt(bytes: &[u8]) -> String {
        match Checkpoint::decode(bytes) {
            Err(CheckpointError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ck = sample();
        let image = ck.image();
        assert!(image.starts_with(format!("{MAGIC}\n").as_bytes()));
        assert_eq!(Checkpoint::decode(&image).unwrap(), ck);
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
        let image = sample().image();
        for cut in [image.len() - 1, image.len() / 2, 1, 0] {
            corrupt(&image[..cut]);
        }
        // Every single-bit flip anywhere is refused.
        for pos in 0..image.len() {
            for bit in 0..8 {
                let mut bytes = image.clone();
                bytes[pos] ^= 1 << bit;
                corrupt(&bytes);
            }
        }
        // A section that checksums clean but does not decode exactly.
        let state = [0u8; 8 * 13];
        let reseal = |state: &[u8], pairs: &[u8]| {
            let sections = [("state".into(), state), ("pairs".into(), pairs)];
            container::seal(MAGIC, 1, &sections)
        };
        assert!(Checkpoint::decode(&reseal(&state, &[0; 8])).is_ok());
        let msg = corrupt(&reseal(&state[1..], &[0; 8]));
        assert!(
            msg.contains("state section: section ends 1 bytes short"),
            "{msg}"
        );
        let msg = corrupt(&reseal(&state, &[0; 9]));
        assert!(msg.contains("pairs section: 1 trailing bytes"), "{msg}");
    }

    #[test]
    fn prob_bits_round_trip_exactly() {
        let mut ck = sample();
        // A probability with no short decimal representation (one ULP off
        // 0.1, built by bit arithmetic to stay within the MSRV).
        ck.pairs[0].prob = f64::from_bits(0.1f64.to_bits() + 1);
        let back = Checkpoint::decode(&ck.image()).unwrap();
        assert_eq!(back.pairs[0].prob.to_bits(), ck.pairs[0].prob.to_bits());
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
