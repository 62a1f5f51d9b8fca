//! Figure 3 — Effect of dataset size |S| on the dblp dataset.
//!
//! Sweeps the collection size and reports, for each algorithm variant
//! (QFCT, QFT, QCT, FCT), the filtering time and the total join time.
//! Paper shape: the q-gram-based variants' filtering time grows gently;
//! FCT's grows ~quadratically (it evaluates every length-compatible
//! pair); QFT deteriorates in *total* time for lack of CDF bounds; QFCT
//! (and QCT) scale best, with QFCT ahead by combining cheap q-grams with
//! tight CDF bounds.

use usj_bench::{
    dataset, default_config, ms, run_join_recorded, write_obs_snapshot, write_result, Args, Table,
};
use usj_core::obs::{Counter, Gauge};
use usj_core::{IndexedCollection, Pipeline};
use usj_datagen::DatasetKind;
use usj_obs::json::JsonWriter;

fn main() {
    let args = Args::parse(
        "fig3_scalability — join time vs dataset size (Fig 3)\n\
         flags: --base <smallest n, default 500>  --steps <default 4>  --threads <default 4>",
    );
    let base = args.get_usize("base", 500);
    let steps = args.get_usize("steps", 4);
    let threads = args.get_usize("threads", 4);
    let sizes: Vec<usize> = (0..steps).map(|i| base << i).collect();

    let mut table = Table::new(&["n", "algorithm", "filter_ms", "total_ms", "output"]);
    let mut records = JsonWriter::new_array();

    for &n in &sizes {
        let ds = dataset(DatasetKind::Dblp, n, 0.2);
        for pipeline in Pipeline::all() {
            let config = default_config(DatasetKind::Dblp).with_pipeline(pipeline);
            let (result, total, rec) = run_join_recorded(config, &ds, 1);
            let filtering = result.stats.timings.filtering();
            // Per-phase latency histograms for the largest size, one
            // snapshot per variant — the per-probe view behind this
            // figure's aggregate filter/total columns.
            if Some(&n) == sizes.last() {
                let variant = pipeline.acronym().to_lowercase();
                write_obs_snapshot(&format!("fig3_scalability_{variant}"), &rec);
            }
            table.row(vec![
                n.to_string(),
                pipeline.acronym().into(),
                ms(filtering),
                ms(total),
                result.stats.output_pairs.to_string(),
            ]);
            records
                .push_object()
                .field_u64("n", n as u64)
                .field_str("algorithm", pipeline.acronym())
                .field_f64("filter_ms", filtering.as_secs_f64() * 1e3)
                .field_f64("total_ms", total.as_secs_f64() * 1e3)
                .field_u64(Counter::OutputPairs.name(), result.stats.output_pairs)
                .field_u64("verified", result.stats.verified_pairs())
                .end_object();
        }
    }

    println!("Figure 3: scalability on dblp (k=2, tau=0.1, theta=0.2)\n");
    table.print();
    write_result("fig3_scalability", records);

    // Index-memory before/after the length-banded sharded driver: the
    // pre-sharding parallel join kept the full index resident for the
    // whole run (peak == the built index), while the banded driver only
    // holds the shards a wave can reach. `peak_resident_bytes` comes from
    // the new residency gauge in the merged worker snapshot.
    let mut mem_table = Table::new(&[
        "n",
        "full_index_kb",
        "peak_resident_kb",
        "resident/full",
        "par_total_ms",
    ]);
    let mut mem_records = JsonWriter::new_array();
    for &n in &sizes {
        let ds = dataset(DatasetKind::Dblp, n, 0.2);
        let config = default_config(DatasetKind::Dblp);
        let full = IndexedCollection::build(config.clone(), ds.alphabet.size(), ds.strings.clone())
            .index_bytes() as u64;
        let (result, total, rec) = run_join_recorded(config, &ds, threads);
        let peak = rec.gauge_max(Gauge::PeakResidentBytes);
        if Some(&n) == sizes.last() {
            // The parallel snapshot carries the residency gauges that
            // prove the memory bound (resident_shards, peak_resident_bytes).
            write_obs_snapshot("fig3_scalability_parallel", &rec);
        }
        mem_table.row(vec![
            n.to_string(),
            format!("{:.1}", full as f64 / 1024.0),
            format!("{:.1}", peak as f64 / 1024.0),
            format!("{:.3}", peak as f64 / full as f64),
            ms(total),
        ]);
        mem_records
            .push_object()
            .field_u64("n", n as u64)
            .field_u64("threads", threads as u64)
            .field_u64("full_index_bytes", full)
            .field_u64(Gauge::PeakResidentBytes.name(), peak)
            .field_u64(Counter::OutputPairs.name(), result.stats.output_pairs)
            .field_f64("par_total_ms", total.as_secs_f64() * 1e3)
            .end_object();
    }
    println!("\nIndex memory: full index vs sharded-driver peak resident ({threads} threads)\n");
    mem_table.print();
    write_result("fig3_memory", mem_records);
}
