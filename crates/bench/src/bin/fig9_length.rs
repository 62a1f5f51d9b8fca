//! Figure 9 — Effect of string length.
//!
//! Following §7.8, appends every string to itself 0–3 times (capping the
//! number of uncertain positions at 8 so verification stays feasible) and
//! reports QFCT vs FCT join time. Paper shape: costs rise with length for
//! both (longer DP tables, slower world enumeration); frequency filtering
//! is length-independent, letting FCT narrow the gap; output pair counts
//! *fall* with length at fixed k.

use usj_bench::{dataset, default_config, ms, paper_defaults, run_join, write_result, Args, Table};
use usj_core::Pipeline;
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;
use usj_obs::Counter;

fn main() {
    let args = Args::parse(
        "fig9_length — join time vs string length (Fig 9)\n\
         flags: --n <strings, default 800>",
    );
    let n = args.get_usize("n", 800);
    const MAX_UNCERTAIN: usize = 8;

    let mut table = Table::new(&[
        "dataset",
        "appends",
        "avg_len",
        "algorithm",
        "filter_ms",
        "total_ms",
        "output",
    ]);
    let mut records = JsonWriter::new_array();

    for kind in [DatasetKind::Dblp, DatasetKind::Protein] {
        let defaults = paper_defaults(kind);
        let base = dataset(kind, n, defaults.theta);
        for appends in 0usize..=3 {
            let ds = base.self_appended(appends, MAX_UNCERTAIN);
            for pipeline in [Pipeline::Qfct, Pipeline::Fct] {
                let config = default_config(kind).with_pipeline(pipeline);
                let (result, total) = run_join(config, &ds);
                table.row(vec![
                    format!("{kind:?}").to_lowercase(),
                    appends.to_string(),
                    format!("{:.0}", ds.avg_len()),
                    pipeline.acronym().into(),
                    ms(result.stats.timings.filtering()),
                    ms(total),
                    result.stats.output_pairs.to_string(),
                ]);
                records
                    .push_object()
                    .field_str("dataset", &format!("{kind:?}").to_lowercase())
                    .field_u64("appends", appends as u64)
                    .field_f64("avg_len", ds.avg_len())
                    .field_str("algorithm", pipeline.acronym())
                    .field_f64(
                        "filter_ms",
                        result.stats.timings.filtering().as_secs_f64() * 1e3,
                    )
                    .field_f64("verify_ms", result.stats.timings.verify.as_secs_f64() * 1e3)
                    .field_f64("total_ms", total.as_secs_f64() * 1e3)
                    .field_u64(Counter::OutputPairs.name(), result.stats.output_pairs)
                    .end_object();
            }
        }
    }

    println!("Figure 9: effect of string length (n={n}, uncertain positions capped at {MAX_UNCERTAIN})\n");
    table.print();
    write_result("fig9_length", records);
}
