//! Fixed-seed micro-benchmark harness with a schema-stable JSON report.
//!
//! The ROADMAP's benchmark trajectory wants one `BENCH_<label>.json`
//! per PR at the repo root, diffable across commits: same benches, same
//! keys, only the numbers move. This module is the std-only substrate —
//! the timing loop ([`run`]), the report ([`BenchReport::to_json`] /
//! [`BenchReport::parse`]), and the regression gate ([`compare_reports`])
//! used by `scripts/bench-compare.sh`. The kernel suites themselves live
//! next to the kernels (`usj_core::bench`); the `usj bench` subcommand
//! and `bench_kernels` binary drive them.
//!
//! # Report schema (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "label": "baseline",
//!   "seed": 1397508931,
//!   "benches": [
//!     {"name": "edit_distance_banded", "warmup": 3, "iters": 30,
//!      "mean_ns": 812, "median_ns": 799, "min_ns": 790, "max_ns": 1204}
//!   ]
//! }
//! ```
//!
//! Every bench entry is rendered on one line so the report stays
//! greppable; entries appear in run order.

use std::time::Instant;

use crate::json;

/// Warmup/measurement iteration counts for one bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Untimed warmup calls before measurement (cache/branch warm).
    pub warmup: u32,
    /// Timed iterations; the report stores their mean/median/min/max.
    pub iters: u32,
}

/// One bench's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Stable bench name (snake_case; the compare key).
    pub name: String,
    /// Warmup iterations that ran before measurement.
    pub warmup: u32,
    /// Timed iterations summarised below.
    pub iters: u32,
    /// Mean wall-clock per iteration.
    pub mean_ns: u64,
    /// Median wall-clock per iteration — the regression-gated statistic.
    pub median_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
}

/// Times `f` under `spec` and summarises the per-iteration wall-clock.
/// Wrap computed values in `std::hint::black_box` inside `f` so the
/// optimiser cannot delete the work.
pub fn run<F: FnMut()>(name: &str, spec: BenchSpec, mut f: F) -> BenchResult {
    let iters = spec.iters.max(1);
    for _ in 0..spec.warmup {
        f();
    }
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    summarise(name, spec.warmup, iters, samples)
}

/// Sorts the raw samples and produces the report entry. Split from
/// [`run`] so the statistics are testable on hand-built samples.
fn summarise(name: &str, warmup: u32, iters: u32, mut samples: Vec<u64>) -> BenchResult {
    samples.sort_unstable();
    // u128 accumulation: the sum of u64 samples cannot overflow, so the
    // mean is exact (the old saturating u64 fold silently flattened it).
    let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    let len = samples.len();
    // Even sample counts take the midpoint of the two middle samples —
    // `samples[len / 2]` alone is biased half a rank high.
    let median_ns = if len % 2 == 1 {
        samples[len / 2]
    } else {
        ((u128::from(samples[len / 2 - 1]) + u128::from(samples[len / 2])) / 2) as u64
    };
    BenchResult {
        name: name.to_string(),
        warmup,
        iters,
        mean_ns: (sum / u128::from(iters)) as u64,
        median_ns,
        min_ns: samples[0],
        max_ns: samples[len - 1],
    }
}

/// Version stamp of the report layout; bump on any key change.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// A labelled collection of bench results, serialisable as the
/// schema-stable `BENCH_<label>.json` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Report label (the `<label>` in `BENCH_<label>.json`).
    pub label: String,
    /// The fixed RNG seed the suite ran with.
    pub seed: u64,
    /// Results in run order.
    pub benches: Vec<BenchResult>,
}

impl BenchReport {
    /// An empty report.
    pub fn new(label: &str, seed: u64) -> Self {
        BenchReport {
            label: label.to_string(),
            seed,
            benches: Vec::new(),
        }
    }

    /// Renders the schema-stable JSON document (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"warmup\": {}, \"iters\": {}, \"mean_ns\": {}, \
                 \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}{}\n",
                escape(&b.name),
                b.warmup,
                b.iters,
                b.mean_ns,
                b.median_ns,
                b.min_ns,
                b.max_ns,
                if i + 1 == self.benches.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document produced by [`BenchReport::to_json`].
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let version = doc["schema_version"]
            .as_u64()
            .ok_or_else(|| "missing schema_version".to_string())?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {BENCH_SCHEMA_VERSION})"
            ));
        }
        let label = doc["label"]
            .as_str()
            .ok_or_else(|| "missing label".to_string())?
            .to_string();
        let seed = doc["seed"]
            .as_u64()
            .ok_or_else(|| "missing seed".to_string())?;
        let entries = doc["benches"]
            .as_array()
            .ok_or_else(|| "missing benches".to_string())?;
        let mut benches = Vec::with_capacity(entries.len());
        for entry in entries {
            let name = entry["name"]
                .as_str()
                .ok_or_else(|| "bench entry without a name".to_string())?
                .to_string();
            let want = |key: &str| {
                entry[key]
                    .as_u64()
                    .ok_or_else(|| format!("bench {name:?}: missing {key}"))
            };
            benches.push(BenchResult {
                warmup: want("warmup")? as u32,
                iters: want("iters")? as u32,
                mean_ns: want("mean_ns")?,
                median_ns: want("median_ns")?,
                min_ns: want("min_ns")?,
                max_ns: want("max_ns")?,
                name,
            });
        }
        Ok(BenchReport {
            label,
            seed,
            benches,
        })
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
        .collect()
}

/// One bench's baseline-vs-new verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Bench name (compare key).
    pub name: String,
    /// Human-readable `name: base=… new=… (+x.y%)` line.
    pub rendered: String,
    /// `true` when the median regressed past the threshold.
    pub regressed: bool,
}

/// Compares two reports bench-by-bench on **median** nanoseconds; a bench
/// regresses when `new > base * (1 + threshold)` (`threshold` 0.15 =
/// the 15% gate `scripts/bench-compare.sh` enforces). Benches present in
/// the baseline but missing from the new report also count as
/// regressions — a deleted bench must be removed from the baseline
/// deliberately, not silently. The converse is not an error: benches in
/// the new report with no baseline entry (a freshly added kernel) get an
/// informational line with `regressed = false`, since a stale baseline
/// must not block the suite from growing.
pub fn compare_reports(base: &BenchReport, new: &BenchReport, threshold: f64) -> Vec<CompareLine> {
    let mut lines = Vec::new();
    for b in &base.benches {
        let Some(n) = new.benches.iter().find(|n| n.name == b.name) else {
            lines.push(CompareLine {
                name: b.name.clone(),
                rendered: format!("{}: missing from new report", b.name),
                regressed: true,
            });
            continue;
        };
        let delta_pct = if b.median_ns == 0 {
            0.0
        } else {
            (n.median_ns as f64 - b.median_ns as f64) / b.median_ns as f64 * 100.0
        };
        let regressed = b.median_ns > 0 && delta_pct > threshold * 100.0;
        lines.push(CompareLine {
            name: b.name.clone(),
            rendered: format!(
                "{}: base={}ns new={}ns ({}{:.1}%){}",
                b.name,
                b.median_ns,
                n.median_ns,
                if delta_pct >= 0.0 { "+" } else { "" },
                delta_pct,
                if regressed { " REGRESSION" } else { "" }
            ),
            regressed,
        });
    }
    for n in &new.benches {
        if !base.benches.iter().any(|b| b.name == n.name) {
            lines.push(CompareLine {
                name: n.name.clone(),
                rendered: format!(
                    "{}: new bench (median={}ns), not in baseline",
                    n.name, n.median_ns
                ),
                regressed: false,
            });
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        let mut r = BenchReport::new("baseline", 42);
        r.benches.push(BenchResult {
            name: "edit_distance_banded".into(),
            warmup: 3,
            iters: 30,
            mean_ns: 812,
            median_ns: 799,
            min_ns: 790,
            max_ns: 1204,
        });
        r.benches.push(BenchResult {
            name: "cdf_bounds".into(),
            warmup: 3,
            iters: 30,
            mean_ns: 100,
            median_ns: 90,
            min_ns: 80,
            max_ns: 200,
        });
        r
    }

    #[test]
    fn timing_harness_runs_and_summarises() {
        let mut calls = 0u32;
        let res = run(
            "spin",
            BenchSpec {
                warmup: 2,
                iters: 5,
            },
            || {
                calls += 1;
                std::hint::black_box((0..100u64).sum::<u64>());
            },
        );
        assert_eq!(calls, 7); // 2 warmup + 5 timed
        assert_eq!(res.name, "spin");
        assert_eq!(res.iters, 5);
        assert!(res.min_ns <= res.median_ns);
        assert!(res.median_ns <= res.max_ns);
    }

    #[test]
    fn json_roundtrips() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.ends_with("}\n"));
        let back = BenchReport::parse(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let json = report()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(BenchReport::parse(&json).is_err());
    }

    #[test]
    fn self_compare_has_zero_regressions() {
        let r = report();
        let lines = compare_reports(&r, &r, 0.15);
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| !l.regressed));
        assert!(lines[0].rendered.contains("base=799ns new=799ns (+0.0%)"));
    }

    #[test]
    fn median_regression_past_threshold_is_flagged() {
        let base = report();
        let mut new = report();
        new.benches[1].median_ns = 104; // +15.6% over 90
        let lines = compare_reports(&base, &new, 0.15);
        assert!(!lines[0].regressed);
        assert!(lines[1].regressed);
        assert!(lines[1].rendered.ends_with("REGRESSION"));
        // Just inside the gate is fine.
        new.benches[1].median_ns = 103; // +14.4%
        let lines = compare_reports(&base, &new, 0.15);
        assert!(!lines[1].regressed);
    }

    #[test]
    fn missing_bench_counts_as_regression() {
        let base = report();
        let mut new = report();
        new.benches.remove(1);
        let lines = compare_reports(&base, &new, 0.15);
        assert!(lines[1].regressed);
        assert!(lines[1].rendered.contains("missing"));
    }

    #[test]
    fn new_bench_is_informational_not_regression() {
        // Asymmetric reports: the new report carries a bench the baseline
        // has never seen. That is growth, not a regression.
        let base = report();
        let mut new = report();
        new.benches.push(BenchResult {
            name: "fresh_kernel".into(),
            warmup: 3,
            iters: 30,
            mean_ns: 50,
            median_ns: 45,
            min_ns: 40,
            max_ns: 90,
        });
        let lines = compare_reports(&base, &new, 0.15);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| !l.regressed));
        let added = &lines[2];
        assert_eq!(added.name, "fresh_kernel");
        assert!(added.rendered.contains("new bench"));
        // And the reverse asymmetry still gates (deleted bench).
        let lines = compare_reports(&new, &base, 0.15);
        assert!(lines
            .iter()
            .any(|l| l.regressed && l.rendered.contains("missing")));
    }

    #[test]
    fn even_count_median_averages_middle_pair() {
        // Even count: median is the midpoint of the two middle samples,
        // not the upper one (the old half-rank-high bias).
        let res = summarise("m", 0, 4, vec![100, 10, 40, 200]);
        assert_eq!(res.median_ns, 70); // (40 + 100) / 2
        assert_eq!(res.min_ns, 10);
        assert_eq!(res.max_ns, 200);
        assert_eq!(res.mean_ns, 87); // 350 / 4
                                     // Odd count: unchanged middle sample.
        let res = summarise("m", 0, 5, vec![5, 1, 3, 9, 7]);
        assert_eq!(res.median_ns, 5);
        // Midpoint of a same-valued pair is that value.
        let res = summarise("m", 0, 2, vec![8, 8]);
        assert_eq!(res.median_ns, 8);
    }

    #[test]
    fn mean_is_exact_near_u64_saturation() {
        // Two huge samples used to saturate the u64 fold and report a
        // mean of u64::MAX / iters; u128 accumulation keeps it exact.
        let big = u64::MAX / 2;
        let res = summarise("m", 0, 2, vec![big, big + 10]);
        assert_eq!(res.mean_ns, big + 5);
        assert_eq!(res.median_ns, big + 5);
    }
}
