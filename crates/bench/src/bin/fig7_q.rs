//! Figure 7 — Effect of the q-gram length q.
//!
//! Sweeps q from 2 to 6 on both datasets (§7.6) and reports the QFCT
//! join's peak index memory, filtering time, q-gram survivor count
//! (effectiveness), and total time. Paper shape: memory grows with q
//! (each segment has more instances) and faster on dblp (higher θ, larger
//! Σ); filtering time improves with q but with exponentially diminishing
//! returns; pruning effectiveness *decays* for larger q on uncertain
//! strings; total time is uni-valley with the sweet spot at q = 3–4.

use usj_bench::{dataset, default_config, ms, paper_defaults, run_join, write_result, Args, Table};
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;
use usj_obs::{Counter, Gauge};

fn main() {
    let args = Args::parse(
        "fig7_q — memory/time/effectiveness vs q-gram length (Fig 7)\n\
         flags: --n <strings, default 1200>",
    );
    let n = args.get_usize("n", 1200);

    let mut table = Table::new(&[
        "dataset",
        "q",
        "peak_index_KiB",
        "filter_ms",
        Counter::QgramSurvivors.name(),
        "total_ms",
    ]);
    let mut records = JsonWriter::new_array();

    for kind in [DatasetKind::Dblp, DatasetKind::Protein] {
        let defaults = paper_defaults(kind);
        let ds = dataset(kind, n, defaults.theta);
        for q in 2usize..=6 {
            let config = default_config(kind).with_q(q);
            let (result, total) = run_join(config, &ds);
            let s = &result.stats;
            table.row(vec![
                format!("{kind:?}").to_lowercase(),
                q.to_string(),
                (s.peak_index_bytes / 1024).to_string(),
                ms(s.timings.filtering()),
                s.qgram_survivors.to_string(),
                ms(total),
            ]);
            records
                .push_object()
                .field_str("dataset", &format!("{kind:?}").to_lowercase())
                .field_u64("q", q as u64)
                .field_u64(Gauge::PeakIndexBytes.name(), s.peak_index_bytes as u64)
                .field_f64("filter_ms", s.timings.filtering().as_secs_f64() * 1e3)
                .field_u64(Counter::QgramSurvivors.name(), s.qgram_survivors)
                .field_u64(Counter::PairsInScope.name(), s.pairs_in_scope)
                .field_f64("total_ms", total.as_secs_f64() * 1e3)
                .end_object();
        }
    }

    println!("Figure 7: effect of q (n={n})\n");
    table.print();
    write_result("fig7_q", records);
}
