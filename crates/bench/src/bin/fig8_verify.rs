//! Figure 8 — Trie-based vs naive verification.
//!
//! Sweeps θ on both datasets (§7.7) and times the three verifiers on the
//! *same* workload: the candidate pairs that survive frequency + CDF
//! filtering undecided (exactly the pairs the join sends to
//! verification). Paper shape: verification cost grows exponentially with
//! θ for every method, but the trie's shared prefixes and pruned subtrees
//! widen its advantage as worlds multiply; naive enumeration becomes
//! infeasible first (pairs whose joint world count exceeds the budget are
//! skipped and reported — at the highest θ naive simply cannot run, which
//! is the paper's point).

use std::time::{Duration, Instant};

use usj_bench::{dataset, ms, paper_defaults, write_obs_snapshot, write_result, Args, Table};
use usj_cdf::{CdfDecision, CdfFilter};
use usj_core::obs::{CollectingRecorder, Counter, Phase, Recorder};
use usj_datagen::DatasetKind;
use usj_freq::FreqFilter;
use usj_model::UncertainString;
use usj_obs::json::JsonWriter;
use usj_verify::{naive_verify, LazyTrieVerifier, TrieVerifier};

/// Joint-world budget for the naive verifier; pairs above it are skipped.
const NAIVE_WORLD_BUDGET: f64 = 2e6;
/// Node cap for the eager trie; probes above it are skipped.
const EAGER_NODE_CAP: usize = 1 << 22;

fn undecided_pairs(
    strings: &[UncertainString],
    sigma: usize,
    k: usize,
    tau: f64,
) -> Vec<(usize, usize)> {
    let freq = FreqFilter::new(k, tau, sigma);
    let cdf = CdfFilter::new(k, tau);
    let profiles: Vec<_> = strings.iter().map(|s| freq.profile(s)).collect();
    let mut out = Vec::new();
    for i in 0..strings.len() {
        for j in (i + 1)..strings.len() {
            if strings[i].len().abs_diff(strings[j].len()) > k {
                continue;
            }
            if !freq.evaluate(&profiles[i], &profiles[j]).candidate {
                continue;
            }
            if cdf.evaluate(&strings[j], &strings[i]).decision == CdfDecision::Undecided {
                out.push((i, j));
            }
        }
    }
    out
}

fn main() {
    let args = Args::parse(
        "fig8_verify — verification time, lazy trie vs eager trie vs naive (Fig 8)\n\
         flags: --n <strings, default 300>",
    );
    let n = args.get_usize("n", 300);

    let mut table = Table::new(&[
        "dataset",
        "theta",
        "pairs",
        "verifier",
        "verify_ms",
        "skipped",
    ]);
    let mut records = JsonWriter::new_array();

    let sweeps = [
        (DatasetKind::Dblp, vec![0.1, 0.2, 0.3, 0.4]),
        (DatasetKind::Protein, vec![0.05, 0.1, 0.15, 0.2]),
    ];
    for (kind, thetas) in sweeps {
        let defaults = paper_defaults(kind);
        for &theta in &thetas {
            let ds = dataset(kind, n, theta);
            let pairs = undecided_pairs(&ds.strings, ds.alphabet.size(), defaults.k, defaults.tau);
            // Group by probe (j) so trie verifiers amortise T_R.
            let mut by_probe: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for &(i, j) in &pairs {
                by_probe.entry(j).or_default().push(i);
            }

            let mut measurements: Vec<(&str, Duration, usize)> = Vec::new();

            // Lazy trie (this implementation's default), fed through the
            // same recorder the join pipeline uses, so this figure's
            // verify cost and `usj join --stats-json` come from one
            // instrumentation source (per-probe p50/p90/p99 in the
            // snapshot complement the aggregate column below).
            let mut rec = CollectingRecorder::new();
            let start = Instant::now();
            for (&j, partners) in &by_probe {
                rec.probe_start(j as u32);
                let mut v = LazyTrieVerifier::new(&ds.strings[j], defaults.k, defaults.tau);
                for &i in partners {
                    rec.enter_phase(Phase::Verify);
                    let candidate = Instant::now();
                    let similar = v.verify(&ds.strings[i]).similar;
                    rec.exit_phase(Phase::Verify, candidate.elapsed());
                    rec.counter(
                        if similar {
                            Counter::VerifiedSimilar
                        } else {
                            Counter::VerifiedDissimilar
                        },
                        1,
                    );
                    std::hint::black_box(similar);
                }
                rec.probe_end(j as u32);
            }
            measurements.push(("lazy", start.elapsed(), 0));
            let ds_name = format!("{kind:?}").to_lowercase();
            write_obs_snapshot(&format!("fig8_verify_{ds_name}_theta{theta:.2}"), &rec);

            // Eager trie (the paper's §6.2).
            let mut skipped = 0usize;
            let start = Instant::now();
            for (&j, partners) in &by_probe {
                match TrieVerifier::new(&ds.strings[j], defaults.k, defaults.tau, EAGER_NODE_CAP) {
                    Some(mut v) => {
                        for &i in partners {
                            std::hint::black_box(v.verify(&ds.strings[i]).similar);
                        }
                    }
                    None => skipped += partners.len(),
                }
            }
            measurements.push(("eager", start.elapsed(), skipped));

            // Naive all-pairs enumeration.
            let mut skipped = 0usize;
            let start = Instant::now();
            for &(i, j) in &pairs {
                let joint = ds.strings[i].num_worlds() * ds.strings[j].num_worlds();
                if joint > NAIVE_WORLD_BUDGET {
                    skipped += 1;
                    continue;
                }
                std::hint::black_box(
                    naive_verify(
                        &ds.strings[j],
                        &ds.strings[i],
                        defaults.k,
                        defaults.tau,
                        true,
                    )
                    .similar,
                );
            }
            measurements.push(("naive", start.elapsed(), skipped));

            for (name, time, skipped) in measurements {
                table.row(vec![
                    format!("{kind:?}").to_lowercase(),
                    format!("{theta:.2}"),
                    pairs.len().to_string(),
                    name.into(),
                    ms(time),
                    skipped.to_string(),
                ]);
                records
                    .push_object()
                    .field_str("dataset", &format!("{kind:?}").to_lowercase())
                    .field_f64("theta", theta)
                    .field_u64("pairs", pairs.len() as u64)
                    .field_str("verifier", name)
                    .field_f64("verify_ms", time.as_secs_f64() * 1e3)
                    .field_u64("skipped", skipped as u64)
                    .end_object();
            }
        }
    }

    println!(
        "Figure 8: verification cost on the join's undecided pairs (n={n});\n\
         'skipped' counts pairs a method could not attempt within its budget\n\
         (naive: {NAIVE_WORLD_BUDGET:.0e} joint worlds; eager trie: {EAGER_NODE_CAP} nodes)\n"
    );
    table.print();
    write_result("fig8_verify", records);
}
