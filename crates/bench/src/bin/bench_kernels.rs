//! `bench_kernels` — the benchmark-trajectory harness behind
//! `scripts/bench-compare.sh` and the CI `bench` job.
//!
//! Two modes:
//!
//! ```text
//! bench_kernels run [--label L] [--n N] [--seed S] [--iters I] [--warmup W] [--out FILE]
//! bench_kernels compare <baseline.json> <new.json> [--threshold PCT]
//! ```
//!
//! `run` executes the fixed-seed kernel suite ([`usj_core::bench`]) and
//! writes the schema-stable `BENCH_<label>.json` report; `compare` exits
//! nonzero when any bench's median regressed beyond the threshold
//! (default 15%).

use std::process::ExitCode;

use usj_core::bench::kernel_suite;
use usj_core::obs::bench::{compare_reports, BenchReport, BenchSpec};

const USAGE: &str = "bench_kernels — fixed-seed kernel benchmarks

USAGE:
  bench_kernels run [--label L] [--n N] [--seed S] [--iters I] [--warmup W] [--out FILE]
  bench_kernels compare <baseline.json> <new.json> [--threshold PCT]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((mode, rest)) if mode == "run" => cmd_run(rest),
        Some((mode, rest)) if mode == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` scraper: returns the value after `--name`, if present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let flag = format!("--{name}");
    match args.iter().position(|a| *a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for --{name}: {v:?}")),
    }
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let label = flag_value(args, "label")?.unwrap_or("local").to_string();
    let n: usize = parse_or(args, "n", 2000)?;
    if n < 8 {
        return Err("--n must be at least 8".to_string());
    }
    let seed: u64 = parse_or(args, "seed", 0x5347_4D4F_4421_0006)?;
    let iters: u32 = parse_or(args, "iters", 32)?;
    let warmup: u32 = parse_or(args, "warmup", 3)?;
    let report = kernel_suite(&label, n, seed, BenchSpec { warmup, iters });
    let default_out = format!("BENCH_{label}.json");
    let out_path = flag_value(args, "out")?.unwrap_or(default_out.as_str());
    std::fs::write(out_path, report.to_json())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let mut out = String::new();
    for b in &report.benches {
        out.push_str(&format!(
            "{}: median={}ns mean={}ns (iters={})\n",
            b.name, b.median_ns, b.mean_ns, b.iters
        ));
    }
    out.push_str(&format!("# wrote {out_path} (n={n}, seed={seed:#018x})\n"));
    Ok(out)
}

fn cmd_compare(args: &[String]) -> Result<String, String> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            it.next(); // skip the flag's value
        } else {
            positional.push(a);
        }
    }
    let threshold_pct: f64 = parse_or(args, "threshold", 15.0)?;
    let [base_path, new_path] = positional.as_slice() else {
        return Err(format!("compare needs exactly two report paths\n\n{USAGE}"));
    };
    let load = |path: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path} is not a bench report: {e}"))
    };
    let base = load(base_path)?;
    let new = load(new_path)?;
    let mut out = String::new();
    let mut regressed = false;
    for line in compare_reports(&base, &new, threshold_pct / 100.0) {
        regressed |= line.regressed;
        out.push_str(&line.rendered);
        out.push('\n');
    }
    if regressed {
        return Err(format!(
            "median regression beyond {threshold_pct}% vs {base_path}:\n{out}"
        ));
    }
    out.push_str(&format!("# no regressions beyond {threshold_pct}%\n"));
    Ok(out)
}
