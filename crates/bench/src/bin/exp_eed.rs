//! §7.9 — Comparison with the expected-edit-distance (EED) join.
//!
//! Quantifies the paper's three qualitative claims against Jestes et
//! al.'s eed approach:
//!
//! 1. **index size** — overlapping q-gram postings (eed-style) vs the
//!    disjoint-segment index (paper reports ≈5× vs ≈2× the data size);
//! 2. **join cost** — the (k,τ) QFCT join vs the eed join, which must
//!    evaluate every length-compatible pair by world enumeration;
//! 3. **verification** — trie-based verification vs the naive
//!    full-enumeration verification eed requires.

use std::time::Instant;

use usj_bench::{dataset, default_config, ms, paper_defaults, run_join, write_result, Args, Table};
use usj_core::{SegmentIndex, VerifierKind};
use usj_datagen::DatasetKind;
use usj_eed::{EedJoin, OverlappingQGramIndex};
use usj_obs::json::JsonWriter;

fn main() {
    let args = Args::parse(
        "exp_eed — comparison with the EED join of Jestes et al. (§7.9)\n\
         flags: --n <strings, default 250>  --d <eed threshold, default k>\n\
                --worlds <per-pair joint world budget, default 65536>",
    );
    let n = args.get_usize("n", 250);
    let kind = DatasetKind::Dblp;
    let defaults = paper_defaults(kind);
    let d = args.get_f64("d", defaults.k as f64);
    // Exact eed needs *all* joint worlds of a pair; without a budget a
    // single high-uncertainty similar pair takes hours (there is no early
    // accept for eed — which is the paper's §7.9 point 3). Pairs above
    // the budget are skipped and reported.
    let world_budget = args.get_usize("worlds", 1 << 16) as u64;

    let ds = dataset(kind, n, defaults.theta);
    let config = default_config(kind);

    // 1. Index sizes.
    let disjoint = SegmentIndex::build((0u32..).zip(&ds.strings), &config);
    let mut overlapping = OverlappingQGramIndex::new(defaults.q);
    for (i, s) in ds.strings.iter().enumerate() {
        overlapping.insert(i as u32, s, 1 << 14);
    }
    // Rough data size: one byte per (symbol, prob) alternative.
    let data_bytes: usize = ds
        .strings
        .iter()
        .map(|s| {
            s.positions()
                .iter()
                .map(|p| p.num_alternatives() * 9 + 1)
                .sum::<usize>()
        })
        .sum();

    // 2. Join times.
    let (qfct_result, qfct_time) = run_join(config.clone(), &ds);
    let eed_start = Instant::now();
    let mut eed_join = EedJoin::new(d);
    eed_join.max_worlds = world_budget;
    let (eed_pairs, eed_stats) = eed_join.self_join(&ds.strings);
    let eed_time = eed_start.elapsed();

    // 3. Verification comparison inside the (k,τ) join.
    let (naive_result, naive_time) = run_join(config.with_verifier(VerifierKind::Naive), &ds);

    let mut table = Table::new(&["metric", "(k,tau) join", "eed join"]);
    table.row(vec![
        "index bytes / data bytes".into(),
        format!(
            "{:.2}",
            disjoint.estimated_bytes() as f64 / data_bytes as f64
        ),
        format!(
            "{:.2}",
            overlapping.estimated_bytes() as f64 / data_bytes as f64
        ),
    ]);
    table.row(vec!["join time (ms)".into(), ms(qfct_time), ms(eed_time)]);
    table.row(vec![
        "pairs fully evaluated".into(),
        qfct_result.stats.verified_pairs().to_string(),
        eed_stats.pairs_evaluated.to_string(),
    ]);
    table.row(vec![
        "pairs skipped (over world budget)".into(),
        "0".into(),
        eed_stats.skipped_over_cap.to_string(),
    ]);
    table.row(vec![
        "output pairs".into(),
        qfct_result.stats.output_pairs.to_string(),
        eed_pairs.len().to_string(),
    ]);
    table.row(vec![
        "verification time (ms)".into(),
        ms(qfct_result.stats.timings.verify),
        format!(
            "{} (naive inside (k,tau): {})",
            "—",
            ms(naive_result.stats.timings.verify)
        ),
    ]);

    println!(
        "§7.9: (k={}, tau={}) join vs eed join (d={d}) on dblp, n={n}\n",
        defaults.k, defaults.tau
    );
    table.print();
    let _ = naive_time;
    let mut json = JsonWriter::new();
    json.field_u64("n", n as u64)
        .field_u64("data_bytes", data_bytes as u64)
        .field_u64("disjoint_index_bytes", disjoint.estimated_bytes() as u64)
        .field_u64(
            "overlapping_index_bytes",
            overlapping.estimated_bytes() as u64,
        )
        .field_f64("qfct_join_ms", qfct_time.as_secs_f64() * 1e3)
        .field_f64("eed_join_ms", eed_time.as_secs_f64() * 1e3)
        .field_u64("qfct_verified_pairs", qfct_result.stats.verified_pairs())
        .field_u64("eed_pairs_evaluated", eed_stats.pairs_evaluated)
        .field_u64("eed_skipped_over_cap", eed_stats.skipped_over_cap)
        .field_u64("qfct_output", qfct_result.stats.output_pairs)
        .field_u64("eed_output", eed_pairs.len() as u64)
        .field_f64(
            "trie_verify_ms",
            qfct_result.stats.timings.verify.as_secs_f64() * 1e3,
        )
        .field_f64(
            "naive_verify_ms",
            naive_result.stats.timings.verify.as_secs_f64() * 1e3,
        );
    write_result("exp_eed", json);
}
