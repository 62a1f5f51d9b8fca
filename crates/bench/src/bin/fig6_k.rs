//! Figure 6 — Effect of the edit-distance threshold k.
//!
//! Sweeps k (dblp 1–4, protein 2–8, as in §7.5) and reports QFCT vs FCT
//! join time. Paper shape: both grow with k (looser q-gram requirement
//! `m−k`, looser bounds, more verification); QFCT's advantage narrows but
//! it still saves a sizeable fraction of FCT's cost at the largest k.

use usj_bench::{dataset, ms, paper_defaults, run_join, write_result, Args, Table};
use usj_core::{JoinConfig, Pipeline};
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;
use usj_obs::Counter;

fn main() {
    let args = Args::parse(
        "fig6_k — join time vs edit threshold (Fig 6)\n\
         flags: --n <strings, default 2000>",
    );
    let n = args.get_usize("n", 2000);

    let mut table = Table::new(&[
        "dataset",
        "k",
        "algorithm",
        "filter_ms",
        "total_ms",
        "output",
    ]);
    let mut records = JsonWriter::new_array();

    let sweeps = [
        (DatasetKind::Dblp, vec![1usize, 2, 3, 4]),
        (DatasetKind::Protein, vec![2usize, 4, 6, 8]),
    ];
    for (kind, ks) in sweeps {
        let defaults = paper_defaults(kind);
        let ds = dataset(kind, n, defaults.theta);
        for &k in &ks {
            for pipeline in [Pipeline::Qfct, Pipeline::Fct] {
                let config = JoinConfig::new(k, defaults.tau)
                    .with_q(defaults.q)
                    .with_pipeline(pipeline);
                let (result, total) = run_join(config, &ds);
                table.row(vec![
                    format!("{kind:?}").to_lowercase(),
                    k.to_string(),
                    pipeline.acronym().into(),
                    ms(result.stats.timings.filtering()),
                    ms(total),
                    result.stats.output_pairs.to_string(),
                ]);
                records
                    .push_object()
                    .field_str("dataset", &format!("{kind:?}").to_lowercase())
                    .field_u64("k", k as u64)
                    .field_str("algorithm", pipeline.acronym())
                    .field_f64(
                        "filter_ms",
                        result.stats.timings.filtering().as_secs_f64() * 1e3,
                    )
                    .field_f64("total_ms", total.as_secs_f64() * 1e3)
                    .field_u64(Counter::OutputPairs.name(), result.stats.output_pairs)
                    .field_u64("verified", result.stats.verified_pairs())
                    .end_object();
            }
        }
    }

    println!("Figure 6: effect of k (n={n})\n");
    table.print();
    write_result("fig6_k", records);
}
