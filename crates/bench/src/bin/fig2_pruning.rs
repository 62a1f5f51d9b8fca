//! Figure 2 — Effectiveness vs. efficiency of the three filters.
//!
//! For both datasets (θ = 0.2, k = 2, τ = 0.1, as in §7.1), applies each
//! filtering scheme *in isolation* to every length-compatible pair and
//! reports the surviving candidate count and the wall time of the pass.
//! Paper shape: CDF tightest but slowest; q-gram nearly as tight on
//! protein and an order of magnitude faster; frequency cheapest per pair
//! but loosest.

use std::time::Instant;

use usj_bench::{dataset, ms, run_join_recorded, write_obs_snapshot, write_result, Args, Table};
use usj_cdf::{CdfDecision, CdfFilter};
use usj_core::JoinConfig;
use usj_datagen::DatasetKind;
use usj_freq::FreqFilter;
use usj_obs::json::JsonWriter;
use usj_qgram::QGramFilter;

fn main() {
    let args = Args::parse(
        "fig2_pruning — candidates surviving each filter (Fig 2)\n\
         flags: --n <strings, default 800>",
    );
    let n = args.get_usize("n", 800);
    let (k, tau, theta, q) = (2usize, 0.1f64, 0.2f64, 3usize);

    let mut table = Table::new(&["dataset", "filter", "pairs", "candidates", "time_ms"]);
    let mut json = JsonWriter::new();

    for kind in [DatasetKind::Dblp, DatasetKind::Protein] {
        let ds = dataset(kind, n, theta);
        let sigma = ds.alphabet.size();
        let pairs: Vec<(usize, usize)> = (0..ds.strings.len())
            .flat_map(|i| ((i + 1)..ds.strings.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| ds.strings[i].len().abs_diff(ds.strings[j].len()) <= k)
            .collect();

        // q-gram filtering (Theorem 2), applied probe-centrically as the
        // join does: the equivalent sets q(r, x) are built once per
        // (probe, partner length) and reused across partners.
        let qgram = QGramFilter::new(k, tau, q);
        let start = Instant::now();
        let mut by_probe: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for &(i, j) in &pairs {
            by_probe.entry(j).or_default().push(i);
        }
        let mut q_survivors = 0usize;
        for (&probe_id, partners) in &by_probe {
            let probe = &ds.strings[probe_id];
            let mut sets_by_len: std::collections::BTreeMap<usize, _> = Default::default();
            for &i in partners {
                let other = &ds.strings[i];
                let (sets, bounder) = sets_by_len.entry(other.len()).or_insert_with(|| {
                    let sets = qgram.probe_sets(probe, other.len());
                    let regions: Vec<Option<usj_qgram::Region>> = qgram
                        .segments(other.len())
                        .iter()
                        .map(|seg| {
                            usj_qgram::window_range(
                                usj_qgram::SelectionPolicy::default(),
                                probe.len(),
                                other.len(),
                                k,
                                seg,
                            )
                            .map(|r| usj_qgram::window_region(r, seg.len))
                        })
                        .collect();
                    let bounder = usj_qgram::TailBounder::new(&regions, probe);
                    (sets, bounder)
                });
                let segments = qgram.segments(other.len());
                let m = segments.len();
                let required = m.saturating_sub(k);
                let alphas: Vec<f64> = segments
                    .iter()
                    .zip(sets.iter())
                    .map(|(seg, set)| match set {
                        Some(set) => usj_qgram::alpha_for_segment(set, other, seg),
                        None => 0.0,
                    })
                    .collect();
                let matched = alphas.iter().filter(|&&a| a > 0.0).count();
                if matched >= required && (required == 0 || bounder.bound(&alphas, required) > tau)
                {
                    q_survivors += 1;
                }
            }
        }
        let q_time = start.elapsed();

        // Frequency-distance filtering (Lemma 6 + Theorem 3), profiles
        // precomputed as the join would.
        let freq = FreqFilter::new(k, tau, sigma);
        let profiles: Vec<_> = ds.strings.iter().map(|s| freq.profile(s)).collect();
        let start = Instant::now();
        let f_survivors = pairs
            .iter()
            .filter(|&&(i, j)| freq.evaluate(&profiles[j], &profiles[i]).candidate)
            .count();
        let f_time = start.elapsed();

        // CDF bounds (Theorem 4); survivors are the non-rejected pairs.
        let cdf = CdfFilter::new(k, tau);
        let start = Instant::now();
        let c_survivors = pairs
            .iter()
            .filter(|&&(i, j)| {
                cdf.evaluate(&ds.strings[j], &ds.strings[i]).decision != CdfDecision::Reject
            })
            .count();
        let c_time = start.elapsed();

        let name = format!("{kind:?}").to_lowercase();
        for (filter, survivors, time) in [
            ("q-gram", q_survivors, q_time),
            ("frequency", f_survivors, f_time),
            ("cdf", c_survivors, c_time),
        ] {
            table.row(vec![
                name.clone(),
                filter.into(),
                pairs.len().to_string(),
                survivors.to_string(),
                ms(time),
            ]);
            json.begin_object(&format!("{name}_{filter}"))
                .field_u64("pairs", pairs.len() as u64)
                .field_u64("candidates", survivors as u64)
                .field_f64("time_ms", time.as_secs_f64() * 1e3)
                .end_object();
        }

        // The full QFCT pipeline over the same dataset, instrumented:
        // its prune-attribution counters are the join-level counterpart
        // of the isolated passes above, so the figure and `usj join
        // --stats-json` report survivors from one instrumentation source.
        let (_, _, rec) = run_join_recorded(JoinConfig::new(k, tau).with_q(q), &ds, 1);
        write_obs_snapshot(&format!("fig2_pruning_{name}"), &rec);
    }

    println!("Figure 2: effectiveness vs efficiency (n={n}, k={k}, tau={tau}, theta={theta})\n");
    table.print();
    write_result("fig2_pruning", json);
}
