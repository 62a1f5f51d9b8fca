//! Figure 5 — Effect of the probability threshold τ.
//!
//! Sweeps τ from 0.001 to 0.4 on both datasets (§7.4) and reports QFCT
//! vs FCT join time plus the candidate accounting the paper plots: pairs
//! rejected by q-gram filtering, pairs accepted outright by the CDF lower
//! bound, and pairs rejected by the CDF upper bound. Paper shape: larger
//! τ makes the q-gram/CDF *upper* bounds more selective while the CDF
//! lower bound accepts fewer pairs; times stay flat over a wide range and
//! improve for large τ.

use usj_bench::{dataset, default_config, ms, paper_defaults, run_join, write_result, Args, Table};
use usj_core::Pipeline;
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;
use usj_obs::Counter;

fn main() {
    let args = Args::parse(
        "fig5_tau — join behaviour vs probability threshold (Fig 5)\n\
         flags: --n <strings, default 2000>",
    );
    let n = args.get_usize("n", 2000);
    let taus = [0.001, 0.01, 0.05, 0.1, 0.2, 0.4];

    let mut table = Table::new(&[
        "dataset",
        "tau",
        "algorithm",
        "total_ms",
        "qgram_rej",
        "cdf_acc",
        "cdf_rej",
        "output",
    ]);
    let mut records = JsonWriter::new_array();

    for kind in [DatasetKind::Dblp, DatasetKind::Protein] {
        let defaults = paper_defaults(kind);
        let ds = dataset(kind, n, defaults.theta);
        for &tau in &taus {
            for pipeline in [Pipeline::Qfct, Pipeline::Fct] {
                let mut config = default_config(kind).with_pipeline(pipeline);
                config.tau = tau;
                let (result, total) = run_join(config, &ds);
                let s = &result.stats;
                let qgram_rejected = s.qgram_pruned_count + s.qgram_pruned_bound;
                table.row(vec![
                    format!("{kind:?}").to_lowercase(),
                    format!("{tau}"),
                    pipeline.acronym().into(),
                    ms(total),
                    qgram_rejected.to_string(),
                    s.cdf_accepted.to_string(),
                    s.cdf_rejected.to_string(),
                    s.output_pairs.to_string(),
                ]);
                records
                    .push_object()
                    .field_str("dataset", &format!("{kind:?}").to_lowercase())
                    .field_f64("tau", tau)
                    .field_str("algorithm", pipeline.acronym())
                    .field_f64("total_ms", total.as_secs_f64() * 1e3)
                    .field_u64("qgram_rejected", qgram_rejected)
                    .field_u64("qgram_rejected_by_bound", s.qgram_pruned_bound)
                    .field_u64(Counter::CdfAccepted.name(), s.cdf_accepted)
                    .field_u64(Counter::CdfRejected.name(), s.cdf_rejected)
                    .field_u64("verified", s.verified_pairs())
                    .field_u64(Counter::OutputPairs.name(), s.output_pairs)
                    .end_object();
            }
        }
    }

    println!("Figure 5: effect of tau (n={n})\n");
    table.print();
    write_result("fig5_tau", records);
}
