//! Shared harness for the paper-reproduction experiments.
//!
//! Every figure of the paper's §7 has a binary in `src/bin/` that prints
//! the figure's series as an aligned table and writes a machine-readable
//! JSON record under `results/`. Timings of the join, its filter stages
//! and the serving paths come from the repository's `benchmark/` package.
//!
//! Common conventions:
//!
//! * datasets are generated by `usj-datagen` from a fixed seed, scaled
//!   down from the paper's 100K–500K strings to laptop-friendly defaults
//!   (`--n` raises them);
//! * the paper's default parameters are used unless a binary sweeps them:
//!   dblp `k=2, τ=0.1, θ=0.2, q=3`; protein `k=4, τ=0.01, θ=0.1, q=3`;
//! * timings are wall-clock; run with `--release`.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use usj_core::obs::CollectingRecorder;
use usj_core::{JoinConfig, JoinResult, RunOptions, SimilarityJoin};
use usj_datagen::{Dataset, DatasetKind, DatasetSpec};
use usj_obs::json::JsonWriter;

/// Default experiment scale (strings per dataset). The paper uses 100K;
/// the default keeps every figure under a few minutes on a laptop.
pub const DEFAULT_N: usize = 2000;

/// Seed shared by all experiments for reproducibility.
pub const SEED: u64 = 0x5347_4D4F44; // "SGMOD"

/// The paper's default parameters per dataset (§7).
#[derive(Debug, Clone, Copy)]
pub struct PaperDefaults {
    /// Edit-distance threshold.
    pub k: usize,
    /// Probability threshold.
    pub tau: f64,
    /// Uncertainty fraction.
    pub theta: f64,
    /// q-gram length.
    pub q: usize,
}

/// Defaults for a dataset kind.
pub fn paper_defaults(kind: DatasetKind) -> PaperDefaults {
    match kind {
        DatasetKind::Dblp => PaperDefaults {
            k: 2,
            tau: 0.1,
            theta: 0.2,
            q: 3,
        },
        DatasetKind::Protein => PaperDefaults {
            k: 4,
            tau: 0.01,
            theta: 0.1,
            q: 3,
        },
    }
}

/// Generates (or re-generates) a dataset with the paper's defaults.
pub fn dataset(kind: DatasetKind, n: usize, theta: f64) -> Dataset {
    DatasetSpec::new(kind, n, SEED).with_theta(theta).generate()
}

/// Builds the default join configuration for a dataset kind.
pub fn default_config(kind: DatasetKind) -> JoinConfig {
    let d = paper_defaults(kind);
    JoinConfig::new(d.k, d.tau).with_q(d.q)
}

/// Runs one join and returns the result with its wall time.
pub fn run_join(config: JoinConfig, dataset: &Dataset) -> (JoinResult, Duration) {
    let start = Instant::now();
    let result = SimilarityJoin::new(config, dataset.alphabet.size()).self_join(&dataset.strings);
    (result, start.elapsed())
}

/// [`run_join`] on `threads` worker threads with a [`CollectingRecorder`]
/// per worker, merged into the snapshot returned next to the result. The
/// snapshot carries the residency gauges (`resident_shards`,
/// `peak_resident_bytes`). Recording costs a few array writes per probe,
/// so the elapsed time stays comparable to the unrecorded run.
pub fn run_join_recorded(
    config: JoinConfig,
    dataset: &Dataset,
    threads: usize,
) -> (JoinResult, Duration, CollectingRecorder) {
    let start = Instant::now();
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let (result, _, rec) = usj_core::run_self_join(
        config,
        dataset.alphabet.size(),
        &dataset.strings,
        &opts,
        CollectingRecorder::new,
    )
    .unwrap_or_else(|e| panic!("join without deadline or checkpoint failed: {e}"));
    (result, start.elapsed(), rec)
}

/// Writes an observability snapshot to `results/<name>.obs.json` (best
/// effort, like [`write_result`]). The snapshot is already schema-stable
/// JSON (`CollectingRecorder::to_json`), so it is written verbatim — the
/// same format `usj join --stats-json` emits.
pub fn write_obs_snapshot(name: &str, recorder: &CollectingRecorder) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.obs.json"));
    if std::fs::write(&path, recorder.to_json()).is_ok() {
        eprintln!("[wrote {}]", path.display());
    }
}

/// Minimal CLI parsing: `--flag value` pairs (all values numeric) plus a
/// `--help` that prints `usage` and exits.
pub struct Args {
    values: BTreeMap<String, f64>,
}

impl Args {
    /// Parses `std::env::args`, exiting with `usage` on `--help` or
    /// malformed input.
    pub fn parse(usage: &str) -> Args {
        let mut values = BTreeMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            if flag == "--help" || flag == "-h" {
                println!("{usage}");
                std::process::exit(0);
            }
            let Some(name) = flag.strip_prefix("--") else {
                eprintln!("unexpected argument {flag:?}\n{usage}");
                std::process::exit(2);
            };
            let Some(value) = argv.next().and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("flag --{name} needs a numeric value\n{usage}");
                std::process::exit(2);
            };
            values.insert(name.to_string(), value);
        }
        Args { values }
    }

    /// Integer flag with default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.values
            .get(name)
            .map(|&v| v as usize)
            .unwrap_or(default)
    }

    /// Float flag with default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.values.get(name).copied().unwrap_or(default)
    }
}

/// Simple aligned-column table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes a JSON result document to `results/<name>.json` (best effort;
/// the directory is created if missing).
pub fn write_result(name: &str, json: JsonWriter) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, json.finish()).is_ok() {
        eprintln!("[wrote {}]", path.display());
    }
}

/// Milliseconds as a printable string.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn defaults_match_paper() {
        let d = paper_defaults(DatasetKind::Dblp);
        assert_eq!((d.k, d.q), (2, 3));
        assert!((d.tau - 0.1).abs() < 1e-12);
        let p = paper_defaults(DatasetKind::Protein);
        assert_eq!((p.k, p.q), (4, 3));
        assert!((p.tau - 0.01).abs() < 1e-12);
    }

    #[test]
    fn small_end_to_end_join_runs() {
        let ds = dataset(DatasetKind::Dblp, 60, 0.2);
        let (result, _) = run_join(default_config(DatasetKind::Dblp), &ds);
        assert_eq!(result.stats.num_strings, 60);
    }

    /// The acceptance check behind Fig 3's memory columns: the sharded
    /// parallel driver's peak *resident* index bytes undercut the full
    /// index the pre-sharding driver kept in memory, while producing the
    /// same pairs.
    #[test]
    fn parallel_peak_resident_undercuts_full_index() {
        use usj_core::obs::Gauge;
        let ds = dataset(DatasetKind::Dblp, 120, 0.2);
        let config = default_config(DatasetKind::Dblp).with_shard_band(1);
        let full = usj_core::IndexedCollection::build(
            config.clone(),
            ds.alphabet.size(),
            ds.strings.clone(),
        )
        .index_bytes() as u64;
        let (par, _, rec) = run_join_recorded(config.clone(), &ds, 2);
        let peak = rec.gauge_max(Gauge::PeakResidentBytes);
        assert!(peak > 0);
        assert!(peak < full, "peak resident {peak} vs full index {full}");
        let (seq, _) = run_join(config, &ds);
        assert_eq!(par.pairs, seq.pairs);
    }

    #[test]
    fn recorded_join_snapshot_is_valid_json() {
        let ds = dataset(DatasetKind::Dblp, 60, 0.2);
        let (result, _, rec) = run_join_recorded(default_config(DatasetKind::Dblp), &ds, 1);
        assert_eq!(rec.probes(), 60);
        let v = usj_obs::json::parse(&rec.to_json()).unwrap();
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(
            v["counters"]["output_pairs"].as_u64(),
            Some(result.stats.output_pairs)
        );
    }
}
