//! Figure 4 — Effect of the uncertainty fraction θ.
//!
//! Sweeps θ on both datasets (dblp 0.1–0.4, protein 0.05–0.2, as in
//! §7.3) and reports QFCT vs FCT join time. Paper shape: both degrade
//! with θ (every phase touches more possible worlds; verification worst),
//! QFCT stays well ahead on dblp, while FCT closes some of the gap on
//! protein where frequency filtering is cheap.

use usj_bench::{dataset, default_config, ms, run_join, write_result, Args, Table};
use usj_core::Pipeline;
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;
use usj_obs::Counter;

fn main() {
    let args = Args::parse(
        "fig4_theta — join time vs uncertainty fraction (Fig 4)\n\
         flags: --n <strings, default 600>",
    );
    let n = args.get_usize("n", 600);

    let mut table = Table::new(&[
        "dataset",
        "theta",
        "algorithm",
        "filter_ms",
        "total_ms",
        "output",
    ]);
    let mut records = JsonWriter::new_array();

    let sweeps = [
        (DatasetKind::Dblp, vec![0.1, 0.2, 0.3, 0.4]),
        (DatasetKind::Protein, vec![0.05, 0.1, 0.15, 0.2]),
    ];
    for (kind, thetas) in sweeps {
        for &theta in &thetas {
            let ds = dataset(kind, n, theta);
            for pipeline in [Pipeline::Qfct, Pipeline::Fct] {
                let config = default_config(kind).with_pipeline(pipeline);
                let (result, total) = run_join(config, &ds);
                table.row(vec![
                    format!("{kind:?}").to_lowercase(),
                    format!("{theta:.2}"),
                    pipeline.acronym().into(),
                    ms(result.stats.timings.filtering()),
                    ms(total),
                    result.stats.output_pairs.to_string(),
                ]);
                records
                    .push_object()
                    .field_str("dataset", &format!("{kind:?}").to_lowercase())
                    .field_f64("theta", theta)
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

    println!("Figure 4: effect of theta (n={n})\n");
    table.print();
    write_result("fig4_theta", records);
}
