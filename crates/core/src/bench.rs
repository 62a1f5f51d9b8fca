//! Fixed-seed micro/meso benchmarks over the pipeline's hot kernels.
//!
//! This is the suite behind `usj bench` and the `bench_kernels` binary:
//! six benches spanning the cost hierarchy of the paper's join —
//!
//! | bench                        | kernel                                   |
//! |------------------------------|------------------------------------------|
//! | `edit_distance_banded`       | banded Levenshtein DP (`usj-editdist`)   |
//! | `poisson_binomial_segment_dp`| Theorem 2 tail DP (`usj-qgram`)          |
//! | `cdf_bound_recurrence`       | Theorem 4 CDF-bound DP (`usj-cdf`)       |
//! | `posting_list_merge`         | segment-index probe funnel (`filter_candidates`) |
//! | `join_end_to_end`            | full `SimilarityJoin::self_join`         |
//! | `snapshot_load_vs_rebuild`   | warm-restart decode (`snapshot::load`, rung Verified) |
//!
//! Inputs are generated from a caller-supplied xorshift seed, so two runs
//! with the same seed and `n` measure identical work — the timing
//! harness, report schema, and >15% median regression gate live in
//! [`usj_obs::bench`]. The end-to-end bench runs fewer iterations than
//! the micro benches (it is seconds, not microseconds); the report
//! records the per-bench iteration counts, so the regression comparison
//! stays apples-to-apples.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use usj_cdf::cdf_bounds;
use usj_editdist::edit_distance_bounded;
use usj_model::rng::Rng;
use usj_model::{Position, UncertainString};
use usj_obs::bench::{run, BenchReport, BenchSpec};
use usj_qgram::poisson_binomial;

use crate::config::JoinConfig;
use crate::join::SimilarityJoin;
use crate::snapshot::{self, SalvageMode};
use crate::IndexedCollection;

/// Alphabet size of the generated collections (DNA-like).
pub const BENCH_SIGMA: usize = 4;

/// Stable bench names, in run order (pinned by tests and the committed
/// `BENCH_baseline.json`).
pub const BENCH_NAMES: [&str; 6] = [
    "edit_distance_banded",
    "poisson_binomial_segment_dp",
    "cdf_bound_recurrence",
    "posting_list_merge",
    "join_end_to_end",
    "snapshot_load_vs_rebuild",
];

/// A random uncertain string: length 16–47, ~20% uncertain positions
/// with two alternatives.
fn gen_string(rng: &mut Rng) -> UncertainString {
    let len = 16 + rng.below(32);
    let mut positions = Vec::with_capacity(len);
    for i in 0..len {
        let a = rng.below(BENCH_SIGMA) as u8;
        if rng.below(5) == 0 {
            let b = (a + 1 + rng.below(BENCH_SIGMA - 1) as u8) % BENCH_SIGMA as u8;
            let alts = vec![(a, 0.7), (b, 0.3)];
            positions
                .push(Position::uncertain(i, alts).expect("bench alternatives are well-formed"));
        } else {
            positions.push(Position::certain(a));
        }
    }
    UncertainString::new(positions)
}

fn gen_collection(rng: &mut Rng, n: usize) -> Vec<UncertainString> {
    (0..n).map(|_| gen_string(rng)).collect()
}

fn gen_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(BENCH_SIGMA) as u8).collect()
}

/// The paper-default join configuration the meso benches run under.
fn bench_config() -> JoinConfig {
    JoinConfig::new(2, 0.1).with_q(3)
}

/// Runs the ten-kernel suite: `n` strings generated from `seed`, every
/// bench timed under `spec` (the end-to-end join at `spec.iters / 8`,
/// minimum 1). Returns the report ready for `BENCH_<label>.json`.
pub fn kernel_suite(label: &str, n: usize, seed: u64, spec: BenchSpec) -> BenchReport {
    assert!(n >= 8, "bench collections need at least 8 strings");
    let mut report = BenchReport::new(label, seed);
    // The raw-state stream keeps the inputs behind BENCH_baseline.json.
    let mut rng = Rng::from_state(seed);

    // Micro: banded edit-distance DP over 256 deterministic pairs.
    let byte_pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..256)
        .map(|_| {
            let len = 16 + rng.below(48);
            let a = gen_bytes(&mut rng, len);
            let mut b = a.clone();
            // Mutate a few positions so distances straddle the k=4 band.
            for _ in 0..rng.below(8) {
                let i = rng.below(b.len());
                b[i] = rng.below(BENCH_SIGMA) as u8;
            }
            (a, b)
        })
        .collect();
    report.benches.push(run(BENCH_NAMES[0], spec, || {
        for (a, b) in &byte_pairs {
            black_box(edit_distance_bounded(a, b, 4));
        }
    }));

    // Micro: Poisson-binomial segment DP over 256 α-vectors.
    let alpha_sets: Vec<Vec<f64>> = (0..256)
        .map(|_| (0..12).map(|_| rng.below(1000) as f64 / 1000.0).collect())
        .collect();
    report.benches.push(run(BENCH_NAMES[1], spec, || {
        for alphas in &alpha_sets {
            black_box(poisson_binomial(alphas));
        }
    }));

    // Micro: CDF-bound recurrence over 64 uncertain pairs.
    let cdf_pairs: Vec<(UncertainString, UncertainString)> = (0..64)
        .map(|_| (gen_string(&mut rng), gen_string(&mut rng)))
        .collect();
    report.benches.push(run(BENCH_NAMES[2], spec, || {
        for (r, s) in &cdf_pairs {
            black_box(cdf_bounds(r, s, 2));
        }
    }));

    // Meso: posting-list merge + filter funnel against a standing index.
    let strings = gen_collection(&mut rng, n);
    let collection = IndexedCollection::build(bench_config(), BENCH_SIGMA, strings.clone());
    let probes: Vec<UncertainString> = (0..32).map(|_| gen_string(&mut rng)).collect();
    report.benches.push(run(BENCH_NAMES[3], spec, || {
        for p in &probes {
            black_box(collection.filter_candidates(p));
        }
    }));

    // Meso: the full self-join. Far slower per iteration, so it runs
    // spec.iters / 8 (min 1) — recorded in the report's `iters` field.
    let join_spec = BenchSpec {
        warmup: spec.warmup.min(1),
        iters: (spec.iters / 8).max(1),
    };
    report.benches.push(run(BENCH_NAMES[4], join_spec, || {
        let result = SimilarityJoin::new(bench_config(), BENCH_SIGMA).self_join(&strings);
        black_box(result.pairs.len());
    }));

    // Meso: the warm-restart decode path — a committed snapshot of the
    // same n-string collection, loaded back through the recovery ladder
    // with every checksum verified (rung Verified). Its median against
    // a cold `IndexedCollection::build` (what `join_end_to_end` pays
    // before probing) is the warm-restart win the serve layer banks on.
    // One directory per call (pid + counter): concurrent suites must not
    // delete each other's snapshot.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only needs uniqueness.
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let snap_dir =
        std::env::temp_dir().join(format!("usj-bench-snapshot-{}-{call}", std::process::id()));
    let _ = std::fs::create_dir_all(&snap_dir);
    let snap_path = snap_dir.join(format!("{label}.snap"));
    snapshot::write(&snap_path, &collection).expect("bench snapshot commits");
    let snap_config = bench_config();
    report.benches.push(run(BENCH_NAMES[5], spec, || {
        let loaded = snapshot::load(
            &snap_path,
            &snap_config,
            BENCH_SIGMA,
            strings.clone(),
            SalvageMode::Strict,
        )
        .expect("bench snapshot loads");
        black_box(loaded.report.rung);
    }));
    let _ = std::fs::remove_dir_all(&snap_dir);

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_obs::bench::compare_reports;

    fn tiny_suite() -> BenchReport {
        kernel_suite(
            "test",
            16,
            0x5347_4D4F_4421_0006,
            BenchSpec {
                warmup: 0,
                iters: 1,
            },
        )
    }

    #[test]
    fn suite_covers_all_kernels_in_order() {
        let report = tiny_suite();
        let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, BENCH_NAMES);
        assert!(report.benches.iter().all(|b| b.median_ns > 0));
    }

    #[test]
    fn report_roundtrips_and_self_compares_clean() {
        let report = tiny_suite();
        let json = report.to_json();
        let back = BenchReport::parse(&json).expect("own JSON parses");
        assert_eq!(back, report);
        let lines = compare_reports(&report, &report, 0.15);
        assert_eq!(lines.len(), BENCH_NAMES.len());
        assert!(lines.iter().all(|l| !l.regressed));
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = gen_collection(&mut Rng::from_state(0x1234), 10);
        let b = gen_collection(&mut Rng::from_state(0x1234), 10);
        assert_eq!(a, b);
    }
}
