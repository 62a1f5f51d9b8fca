//! `usj` — command-line interface for uncertain-string similarity joins.
//!
//! Subcommands:
//!
//! * `usj generate` — write a seeded synthetic dataset as JSON;
//! * `usj join` — self-join a dataset file and print/emit similar pairs;
//! * `usj search` — probe a dataset with one uncertain string;
//! * `usj stats` — dataset summary statistics;
//! * `usj serve` — expose a dataset index as an overload-resilient TCP
//!   query service (bounded admission, degradation ladder, graceful drain);
//! * `usj shard` — serve one length band of a dataset's deterministic
//!   partition (the same server, answering collection-global ids);
//! * `usj snapshot` — write, verify, or fsck a durable on-disk index
//!   image; `usj serve --snapshot FILE` / `usj shard --snapshot FILE`
//!   boot from one through the recovery ladder for warm restarts;
//! * `usj coord` — front a fleet of `usj shard` processes behind the
//!   unchanged wire protocol: length-filter fan-out pruning, hedged
//!   probes, per-shard quarantine, and an explicit partial-result policy;
//! * `usj probe` — query a running `usj serve` instance, with backoff on
//!   `BUSY` and client-side deadline propagation (`--trace-out FILE`
//!   requests and saves the server-side Chrome trace);
//! * `usj metrics` — scrape a running `usj serve` instance's Prometheus
//!   text exposition (`METRICS` on the wire).
//!
//! The library surface exists so the commands are unit-testable; the
//! binary in `main.rs` is a thin wrapper.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use usj_core::obs::json::JsonWriter;
use usj_core::obs::{ChromeTraceRecorder, CollectingRecorder, TraceRecorder};
use usj_core::{FaultReport, JoinConfig, JoinError, Pipeline, RunOptions};
use usj_datagen::{Dataset, DatasetJson, DatasetKind, DatasetSpec};
use usj_model::UncertainString;
use usj_serve::{
    Client, ClientConfig, CoordConfig, CoordinatorHandle, ProbeOutcome, ServeConfig, ServerHandle,
    ShardSpec,
};

/// CLI error type: every failure is a printable message with an exit code
/// of 2.
#[derive(Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Parsed `--flag value` arguments plus positional words.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

impl Flags {
    /// Parses flags from an argument list. Flags normally take a value
    /// (`--name value`); a flag followed by another `--flag` or by the end
    /// of the list is valueless and stored as `"true"`, so boolean
    /// switches can be written bare (`--trace` ≡ `--trace true`).
    pub fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut values = BTreeMap::new();
        let mut iter = args.iter().peekable();
        while let Some(flag) = iter.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| err(format!("unexpected argument {flag:?}")))?;
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            values.insert(name.to_string(), value);
        }
        Ok(Flags { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("invalid value for --{name}: {v:?}"))),
        }
    }

    /// Rejects flags the command does not understand — a typo like
    /// `--treads 4` must error, not silently run with the default.
    fn assert_known(&self, allowed: &[&str]) -> Result<(), CliError> {
        for name in self.values.keys() {
            if !allowed.contains(&name.as_str()) {
                return Err(err(format!(
                    "unknown flag --{name} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Top-level usage text.
pub const USAGE: &str = "usj — similarity joins for uncertain strings

USAGE:
  usj generate --kind <dblp|protein> [--n N] [--theta F] [--seed S] --out FILE
  usj join     --input FILE [--k K] [--tau F] [--q Q] [--pipeline qfct|qct|qft|fct] [--exact true] [--threads N] [--shard-band B] [--batch-min N] [--batch-max N] [--deadline-secs S] [--checkpoint DIR] [--resume] [--out FILE] [--stats-json FILE] [--trace] [--chrome-trace FILE]
  usj search   --input FILE --probe STRING [--k K] [--tau F]
  usj stats    --input FILE
  usj serve    --input FILE [--snapshot FILE] [--k K] [--tau F] [--q Q] [--addr HOST:PORT] [--workers N] [--queue-cap N] [--queue-degrade N] [--io-timeout-secs S] [--default-deadline-ms MS] [--retry-after-ms MS]
  usj shard    --input FILE --shards N --shard-index I [--snapshot FILE] [--k K] [--tau F] [--q Q] [--addr HOST:PORT] [serve flags]
  usj snapshot write|verify|fsck --snapshot FILE [--input FILE] [--k K] [--tau F] [--q Q] [--pipeline qfct|qct|qft|fct] [--exact true]
  usj coord    --input FILE --shard-addrs H:P,H:P,.. [--k K] [--tau F] [--addr HOST:PORT] [--workers N] [--queue-cap N] [--strict] [--hedge-after-ms MS] [--quarantine-after N] [--quarantine-cooldown-ms MS] [--io-timeout-secs S] [--default-deadline-ms MS] [--retry-after-ms MS]
  usj probe    --addr HOST:PORT --probe STRING [--k K] [--tau F] [--deadline-ms MS] [--retries N] [--trace-out FILE]
  usj metrics  --addr HOST:PORT
";

/// Runs a command line (without the program name); returns the text to
/// print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    // `snapshot` takes a positional mode word (`write|verify|fsck`)
    // before its flags, so it parses its own argument tail.
    if command == "snapshot" {
        return cmd_snapshot(rest);
    }
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "join" => cmd_join(&flags),
        "search" => cmd_search(&flags),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "shard" => cmd_shard(&flags),
        "coord" => cmd_coord(&flags),
        "probe" => cmd_probe(&flags),
        "metrics" => cmd_metrics(&flags),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn load_dataset(flags: &Flags) -> Result<Dataset, CliError> {
    let path = flags.require("input")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    DatasetJson::from_json(&text)
        .map_err(|e| err(format!("{path} is not a dataset JSON: {e}")))?
        .into_dataset()
        .map_err(|e| err(format!("{path} contains an invalid distribution: {e}")))
}

fn cmd_generate(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&["kind", "n", "theta", "seed", "out"])?;
    let kind = match flags.require("kind")? {
        "dblp" => DatasetKind::Dblp,
        "protein" => DatasetKind::Protein,
        other => {
            return Err(err(format!(
                "unknown dataset kind {other:?} (dblp|protein)"
            )))
        }
    };
    let n: usize = flags.get_parse("n", 1000)?;
    let seed: u64 = flags.get_parse("seed", 42)?;
    let theta: f64 = flags.get_parse("theta", kind.default_theta())?;
    let out = flags.require("out")?;
    let ds = DatasetSpec::new(kind, n, seed).with_theta(theta).generate();
    let json = DatasetJson::from(&ds).to_json();
    usj_core::durable_atomic_write(std::path::Path::new(out), &json, "cli.write")
        .map_err(|e| err(format!("cannot write {out}: {e}")))?;
    Ok(format!(
        "wrote {n} {kind:?} strings (avg len {:.1}, avg theta {:.2}) to {out}\n",
        ds.avg_len(),
        ds.avg_theta()
    ))
}

fn join_config(flags: &Flags) -> Result<JoinConfig, CliError> {
    let k: usize = flags.get_parse("k", 2)?;
    // The verifiers keep edit distances in a byte.
    if k >= 255 {
        return Err(err(format!("--k must be below 255, got {k}")));
    }
    let tau: f64 = flags.get_parse("tau", 0.1)?;
    if !(0.0..=1.0).contains(&tau) {
        return Err(err(format!("--tau must lie in [0, 1], got {tau}")));
    }
    let q: usize = flags.get_parse("q", 3)?;
    if q == 0 {
        return Err(err("--q must be at least 1"));
    }
    let pipeline = match flags.get("pipeline").unwrap_or("qfct") {
        "qfct" => Pipeline::Qfct,
        "qct" => Pipeline::Qct,
        "qft" => Pipeline::Qft,
        "fct" => Pipeline::Fct,
        other => {
            return Err(err(format!(
                "unknown pipeline {other:?} (qfct|qct|qft|fct)"
            )))
        }
    };
    let exact: bool = flags.get_parse("exact", false)?;
    Ok(JoinConfig::new(k, tau)
        .with_q(q)
        .with_pipeline(pipeline)
        .with_early_stop(!exact))
}

fn cmd_join(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&[
        "input",
        "k",
        "tau",
        "q",
        "pipeline",
        "exact",
        "threads",
        "shard-band",
        "batch-min",
        "batch-max",
        "deadline-secs",
        "checkpoint",
        "resume",
        "out",
        "stats-json",
        "trace",
        "chrome-trace",
    ])?;
    let ds = load_dataset(flags)?;
    let mut config = join_config(flags)?;
    // Parallel-scheduler knobs: how many distinct lengths one wave spans
    // (0 = auto) and the work-stealing batch-size range.
    let shard_band: usize = flags.get_parse("shard-band", config.shard_band)?;
    let batch_min: usize = flags.get_parse("batch-min", config.batch_min)?;
    let batch_max: usize = flags.get_parse("batch-max", config.batch_max)?;
    if batch_min == 0 {
        return Err(err("--batch-min must be at least 1"));
    }
    if batch_max < batch_min {
        return Err(err(format!(
            "--batch-max ({batch_max}) must be at least --batch-min ({batch_min})"
        )));
    }
    config = config
        .with_shard_band(shard_band)
        .with_batch_range(batch_min, batch_max);
    let threads: usize = flags.get_parse("threads", 1)?;
    let trace: bool = flags.get_parse("trace", false)?;
    // Fault-tolerance knobs: a wall-clock deadline, a checkpoint directory
    // committed after every completed wave, and resumption from one.
    let deadline_secs: f64 = flags.get_parse("deadline-secs", 0.0)?;
    if !deadline_secs.is_finite() || deadline_secs < 0.0 {
        return Err(err(format!(
            "--deadline-secs must be a finite non-negative number, got {deadline_secs}"
        )));
    }
    if deadline_secs > 0.0 {
        config = config.with_deadline(Some(std::time::Duration::from_secs_f64(deadline_secs)));
    }
    let resume: bool = flags.get_parse("resume", false)?;
    let checkpoint_dir = flags.get("checkpoint").map(std::path::PathBuf::from);
    if resume && checkpoint_dir.is_none() {
        return Err(err("--resume requires --checkpoint DIR"));
    }
    let opts = RunOptions {
        threads,
        checkpoint_dir,
        resume,
    };
    let stats_json = flags.get("stats-json");
    let chrome_trace = flags.get("chrome-trace");
    // One statically-known recorder shape for every run: the collector
    // gathers the JSON snapshot, the tracer writes per-probe lines to
    // stderr only under --trace, and the Chrome recorder buffers
    // trace-event spans only under --chrome-trace (silent lanes cost a
    // branch per event). Each worker gets its own tuple (lock-free hot
    // loop); they are merged after the join.
    let make = || {
        let tracer = if trace {
            TraceRecorder::stderr()
        } else {
            TraceRecorder::silent()
        };
        let chrome = if chrome_trace.is_some() {
            ChromeTraceRecorder::new()
        } else {
            ChromeTraceRecorder::silent()
        };
        (CollectingRecorder::new(), (tracer, chrome))
    };
    let (result, report, (collected, (_tracer, chrome))) =
        usj_core::run_self_join(config, ds.alphabet.size(), &ds.strings, &opts, make)
            .map_err(report_join_error)?;
    if let Some(path) = stats_json {
        usj_core::durable_atomic_write(
            std::path::Path::new(path),
            &collected.to_json(),
            "cli.write",
        )
        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = chrome_trace {
        // finish() is Some exactly when --chrome-trace enabled the lane.
        let json = chrome
            .finish()
            .unwrap_or_else(|| "{\"traceEvents\":[]}".to_string());
        usj_core::durable_atomic_write(std::path::Path::new(path), &json, "cli.write")
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    for pair in &result.pairs {
        let _ = writeln!(
            out,
            "{}\t{}\t{:.6}\t{}\t{}",
            pair.left,
            pair.right,
            pair.prob,
            ds.strings[pair.left as usize].display(&ds.alphabet),
            ds.strings[pair.right as usize].display(&ds.alphabet),
        );
    }
    let _ = writeln!(out, "# {}", result.stats.summary());
    append_fault_report(&mut out, &report);
    if let Some(path) = flags.get("out") {
        let mut records = JsonWriter::new_array();
        for p in &result.pairs {
            records
                .push_object()
                .field_u64("left", u64::from(p.left))
                .field_u64("right", u64::from(p.right))
                .field_f64("prob", p.prob)
                .end_object();
        }
        let text = records.finish();
        usj_core::durable_atomic_write(std::path::Path::new(path), &text, "cli.write")
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    Ok(out)
}

/// Renders the fault-tolerant driver's [`FaultReport`] as `#`-comment
/// lines after the summary, so recovered faults are visible without
/// disturbing the tab-separated pair records.
fn append_fault_report(out: &mut String, report: &FaultReport) {
    if !report.quarantined.is_empty() {
        let ids: Vec<String> = report.quarantined.iter().map(u32::to_string).collect();
        let _ = writeln!(
            out,
            "# WARNING: results incomplete; quarantined probes: {}",
            ids.join(", ")
        );
    }
    if report.waves_resumed > 0
        || report.batches_retried > 0
        || report.faults_injected > 0
        || !report.quarantined.is_empty()
    {
        let _ = writeln!(
            out,
            "# fault-tolerance: waves_resumed={} batches_retried={} probes_quarantined={} faults_injected={}",
            report.waves_resumed,
            report.batches_retried,
            report.quarantined.len(),
            report.faults_injected
        );
    }
}

/// Turns a [`JoinError`] into the structured multi-line report the CLI
/// prints on stderr (via `error: {message}`): the first line says what
/// happened, the indented lines carry machine-checkable fields, and a
/// resume hint is included whenever a checkpoint survived.
fn report_join_error(e: JoinError) -> CliError {
    let mut msg = format!("join failed: {e}\n");
    let (kind, wave, completed, checkpoint) = match &e {
        JoinError::Deadline {
            completed_waves,
            checkpoint,
            ..
        } => ("deadline", None, Some(*completed_waves), checkpoint.clone()),
        JoinError::Faulted {
            wave,
            completed_waves,
            checkpoint,
            ..
        } => (
            "fault",
            Some(*wave),
            Some(*completed_waves),
            checkpoint.clone(),
        ),
        JoinError::Checkpoint(_) => ("checkpoint", None, None, None),
    };
    let _ = writeln!(msg, "  kind: {kind}");
    if let Some(w) = wave {
        let _ = writeln!(msg, "  wave: {w}");
    }
    if let Some(c) = completed {
        let _ = writeln!(msg, "  completed_waves: {c}");
    }
    match &checkpoint {
        Some(path) => {
            let _ = writeln!(msg, "  checkpoint: {}", path.display());
            let _ = write!(
                msg,
                "  hint: re-run with --checkpoint {} --resume to continue",
                path.parent().unwrap_or(std::path::Path::new(".")).display()
            );
        }
        None => {
            let _ = write!(msg, "  checkpoint: none");
        }
    }
    CliError(msg)
}

fn cmd_search(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&["input", "probe", "k", "tau", "q", "pipeline", "exact"])?;
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    let probe_text = flags.require("probe")?;
    let probe = UncertainString::parse(probe_text, &ds.alphabet)
        .map_err(|e| err(format!("invalid probe: {e}")))?;
    let collection =
        usj_core::IndexedCollection::build(config, ds.alphabet.size(), ds.strings.clone());
    let hits = collection.search(&probe);
    let mut out = String::new();
    for hit in &hits {
        let _ = writeln!(
            out,
            "{}\t{:.6}\t{}",
            hit.id,
            hit.prob,
            ds.strings[hit.id as usize].display(&ds.alphabet)
        );
    }
    let _ = writeln!(out, "# {} hits", hits.len());
    Ok(out)
}

fn cmd_stats(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&["input"])?;
    let ds = load_dataset(flags)?;
    let mut worlds_exceeding = 0usize;
    let mut max_uncertain = 0usize;
    for s in &ds.strings {
        max_uncertain = max_uncertain.max(s.num_uncertain());
        if s.num_worlds_capped(1 << 20).is_none() {
            worlds_exceeding += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "strings:              {}", ds.strings.len());
    let _ = writeln!(out, "alphabet size:        {}", ds.alphabet.size());
    let _ = writeln!(out, "avg length:           {:.2}", ds.avg_len());
    let _ = writeln!(out, "avg theta:            {:.3}", ds.avg_theta());
    let _ = writeln!(out, "max uncertain pos:    {max_uncertain}");
    let _ = writeln!(out, "strings > 2^20 worlds: {worlds_exceeding}");
    Ok(out)
}

/// Flags shared by every serving topology (`usj serve` / `usj shard`).
const SERVE_FLAGS: &[&str] = &[
    "input",
    "snapshot",
    "k",
    "tau",
    "q",
    "pipeline",
    "exact",
    "addr",
    "workers",
    "queue-cap",
    "queue-degrade",
    "io-timeout-secs",
    "default-deadline-ms",
    "retry-after-ms",
];

/// Parses the frame flags every front takes (`serve`, `shard` and
/// `coord`) onto `$cfg`, a [`ServeConfig`] or a [`CoordConfig`], over its
/// own values, and returns from the caller on a bad value. A
/// `--default-deadline-ms` of 0 (its default) keeps the front's default
/// deadline.
macro_rules! parse_frame_flags {
    ($flags:expr, $cfg:expr) => {
        $cfg.workers = $flags.get_parse("workers", $cfg.workers)?;
        if $cfg.workers == 0 {
            return Err(err("--workers must be at least 1"));
        }
        $cfg.queue_cap = $flags.get_parse("queue-cap", $cfg.queue_cap)?;
        if $cfg.queue_cap == 0 {
            return Err(err("--queue-cap must be at least 1"));
        }
        let io_timeout_secs: f64 = $flags.get_parse("io-timeout-secs", 5.0)?;
        if !io_timeout_secs.is_finite() || io_timeout_secs <= 0.0 {
            return Err(err(format!(
                "--io-timeout-secs must be a finite positive number, got {io_timeout_secs}"
            )));
        }
        $cfg.io_timeout = std::time::Duration::from_secs_f64(io_timeout_secs);
        let default_deadline_ms: u64 = $flags.get_parse("default-deadline-ms", 0)?;
        if default_deadline_ms > 0 {
            $cfg.default_deadline = Some(std::time::Duration::from_millis(default_deadline_ms));
        }
        $cfg.retry_after_ms = $flags.get_parse("retry-after-ms", $cfg.retry_after_ms)?;
    };
}

/// Parses the single-server tuning flags into a [`ServeConfig`].
fn serve_config_from_flags(flags: &Flags, default_addr: &str) -> Result<ServeConfig, CliError> {
    let mut cfg = ServeConfig {
        addr: flags.get("addr").unwrap_or(default_addr).to_string(),
        ..ServeConfig::default()
    };
    parse_frame_flags!(flags, cfg);
    cfg.degrade.queue_degrade = flags.get_parse("queue-degrade", cfg.degrade.queue_degrade)?;
    Ok(cfg)
}

/// Builds the index and starts the query service without blocking —
/// split from [`cmd_serve`] so tests can reach the bound address and
/// drive the drain themselves.
fn start_serve(flags: &Flags) -> Result<ServerHandle, CliError> {
    flags.assert_known(SERVE_FLAGS)?;
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    let cfg = serve_config_from_flags(flags, "127.0.0.1:7878")?;
    let k = config.k;
    let tau = config.tau;
    let n = ds.strings.len();
    let (handle, boot) = match flags.get("snapshot") {
        Some(snap) => {
            let (handle, report) = usj_serve::serve_from_snapshot(
                std::path::Path::new(snap),
                config,
                ds.strings,
                ds.alphabet,
                cfg,
            )
            .map_err(|e| err(format!("cannot serve snapshot {snap}: {e}")))?;
            (handle, describe_boot(&report))
        }
        None => {
            let collection =
                usj_core::IndexedCollection::build(config, ds.alphabet.size(), ds.strings);
            let handle = usj_serve::serve(collection, ds.alphabet, cfg)
                .map_err(|e| err(format!("cannot bind query service: {e}")))?;
            (handle, "cold build".to_string())
        }
    };
    // The banner goes to stderr: stdout is reserved for the final stats
    // snapshot flushed on drain.
    eprintln!(
        "usj-serve listening on {} (k={k} tau={tau}, {n} strings, {boot}); \
         send SHUTDOWN to drain",
        handle.addr(),
    );
    Ok(handle)
}

/// One-line boot summary for the serve/shard banners: warm/cold, the
/// recovery-ladder rung and the snapshot age.
fn describe_boot(report: &usj_core::SnapshotReport) -> String {
    let mut s = format!(
        "{} start, rung {:?}",
        if report.warm { "warm" } else { "cold" },
        report.rung
    );
    if let Some(age) = report.age_seconds {
        let _ = write!(s, ", snapshot age {age}s");
    }
    s
}

fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let handle = start_serve(flags)?;
    // Blocks until a wire-level SHUTDOWN drains the server; the returned
    // snapshot is the flushed final stats.
    let stats = handle.wait();
    Ok(format!("{stats}\n"))
}

/// Starts one length-band shard of an `--shards`-way fleet. Every shard
/// process must be launched from the same dataset file with the same
/// `--shards` count so the fleet's partitions agree.
fn start_shard(flags: &Flags) -> Result<ServerHandle, CliError> {
    let mut known: Vec<&str> = SERVE_FLAGS.to_vec();
    known.extend(["shards", "shard-index"]);
    flags.assert_known(&known)?;
    let shards: usize = flags.get_parse("shards", 0)?;
    if shards == 0 {
        return Err(err("--shards must be at least 1"));
    }
    let shard_index: usize = flags.get_parse("shard-index", shards)?;
    if shard_index >= shards {
        return Err(err(format!(
            "--shard-index must lie in 0..{shards}, got {shard_index}"
        )));
    }
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    // Shards default to an ephemeral port: the operator pastes the bound
    // addresses into the coordinator's --shard-addrs.
    let cfg = serve_config_from_flags(flags, "127.0.0.1:0")?;
    let k = config.k;
    let tau = config.tau;
    let partition = usj_serve::shard_partition(&ds.strings, shards);
    let handle = match flags.get("snapshot") {
        // The flag names the fleet-wide base path; each shard derives
        // its own `<base>.shard<idx>` image.
        Some(base) => {
            let (handle, report) = usj_serve::serve_shard_from_snapshot(
                std::path::Path::new(base),
                config,
                ds.alphabet,
                &ds.strings,
                &partition,
                shard_index,
                cfg,
            )
            .map_err(|e| err(format!("cannot serve shard snapshot {base}: {e}")))?;
            eprintln!("usj-serve shard {shard_index}: {}", describe_boot(&report));
            handle
        }
        None => usj_serve::serve_shard(
            config,
            ds.alphabet,
            &ds.strings,
            &partition,
            shard_index,
            cfg,
        )
        .map_err(|e| err(format!("cannot bind shard: {e}")))?,
    };
    let slice = &partition.shards[shard_index];
    let band = if slice.ids.is_empty() {
        "empty band".to_string()
    } else {
        format!("lengths {}..={}", slice.min_len, slice.max_len)
    };
    eprintln!(
        "usj-serve shard {shard_index}/{shards} listening on {} (k={k} tau={tau}, {band}, {} strings); \
         send SHUTDOWN to drain",
        handle.addr(),
        slice.ids.len()
    );
    Ok(handle)
}

fn cmd_shard(flags: &Flags) -> Result<String, CliError> {
    let handle = start_shard(flags)?;
    let stats = handle.wait();
    Ok(format!("{stats}\n"))
}

/// Flags of the `usj snapshot` modes: the image path plus the dataset
/// and configuration needed to build (or fingerprint) the index.
const SNAPSHOT_FLAGS: &[&str] = &["snapshot", "input", "k", "tau", "q", "pipeline", "exact"];

/// `usj snapshot <write|verify|fsck>` — the durable index-image
/// toolbox. The mode is positional (before the flags) because the
/// three verbs take different flag subsets.
fn cmd_snapshot(args: &[String]) -> Result<String, CliError> {
    let Some((mode, rest)) = args.split_first() else {
        return Err(err(
            "usage: usj snapshot <write|verify|fsck> --snapshot FILE [--input FILE] [config flags]",
        ));
    };
    let flags = Flags::parse(rest)?;
    match mode.as_str() {
        "write" => snapshot_write(&flags),
        "verify" => snapshot_verify(&flags),
        "fsck" => snapshot_fsck(&flags),
        other => Err(err(format!(
            "unknown snapshot mode {other:?} (write|verify|fsck)"
        ))),
    }
}

/// Builds the index from the dataset and commits it durably (write a
/// temporary, fsync, atomic rename — see `usj_core::snapshot`).
fn snapshot_write(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(SNAPSHOT_FLAGS)?;
    let path = flags.require("snapshot")?;
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    let coll = usj_core::IndexedCollection::build(config, ds.alphabet.size(), ds.strings);
    let report = usj_core::snapshot::write(std::path::Path::new(path), &coll)
        .map_err(|e| err(format!("cannot write snapshot {path}: {e}")))?;
    Ok(format!(
        "wrote snapshot {path}: {} bytes, {} sections, fingerprint {:016x}\n",
        report.bytes, report.sections, report.fingerprint
    ))
}

/// Checksum walk only — header, footer, and every section, with a
/// per-section verdict. Any corruption is a hard error (exit code 2),
/// so scripts can gate restarts on `usj snapshot verify`.
fn snapshot_verify(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&["snapshot"])?;
    let path = flags.require("snapshot")?;
    let report = usj_core::snapshot::verify(std::path::Path::new(path))
        .map_err(|e| err(format!("cannot verify snapshot {path}: {e}")))?;
    let mut out = format!("snapshot {path}: fingerprint {:016x}\n", report.fingerprint);
    for s in &report.sections {
        let _ = writeln!(
            out,
            "  {:<12} {:>8} bytes  {}",
            s.name,
            s.bytes,
            if s.ok { "ok" } else { "CORRUPT" }
        );
    }
    if report.ok {
        out.push_str("verify: ok\n");
        Ok(out)
    } else {
        Err(err(format!("{out}verify FAILED: {}", report.diagnosis)))
    }
}

/// Full repair check: walks the checksums, then drives the recovery
/// ladder against the dataset (strict salvage, rebuilding damaged
/// bands inline) and reports the rung the load landed on.
fn snapshot_fsck(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(SNAPSHOT_FLAGS)?;
    let path = flags.require("snapshot")?;
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    let checksums = usj_core::snapshot::verify(std::path::Path::new(path));
    let loaded = usj_core::snapshot::load(
        std::path::Path::new(path),
        &config,
        ds.alphabet.size(),
        ds.strings,
        usj_core::SalvageMode::Strict,
    )
    .map_err(|e| err(format!("fsck {path}: {e}")))?;
    let r = &loaded.report;
    let mut out = String::new();
    match checksums {
        Ok(v) if v.ok => {
            let _ = writeln!(out, "fsck {path}: checksums ok");
        }
        Ok(v) => {
            let _ = writeln!(out, "fsck {path}: {}", v.diagnosis);
        }
        Err(e) => {
            let _ = writeln!(out, "fsck {path}: unreadable: {e}");
        }
    }
    let _ = writeln!(
        out,
        "recovery: rung {:?}, {} bands ({} salvaged, {} rebuilt), {} corruption(s) detected",
        r.rung, r.bands_total, r.bands_salvaged, r.bands_rebuilt, r.corruptions_detected
    );
    let _ = writeln!(out, "diagnosis: {}", r.reason);
    Ok(out)
}

/// Flags accepted by the coordinator: the shared serving tuning knobs
/// minus the single-node degrade thresholds, plus the fleet topology and
/// hedging/quarantine policy.
const COORD_FLAGS: &[&str] = &[
    "input",
    "k",
    "tau",
    "q",
    "pipeline",
    "exact",
    "addr",
    "workers",
    "queue-cap",
    "io-timeout-secs",
    "default-deadline-ms",
    "retry-after-ms",
    "shard-addrs",
    "strict",
    "hedge-after-ms",
    "quarantine-after",
    "quarantine-cooldown-ms",
];

/// Starts the scatter-gather coordinator in front of an already-running
/// shard fleet. The dataset file is loaded only to recompute the length
/// bands — the coordinator holds no index of its own.
fn start_coord(flags: &Flags) -> Result<CoordinatorHandle, CliError> {
    flags.assert_known(COORD_FLAGS)?;
    let ds = load_dataset(flags)?;
    let config = join_config(flags)?;
    let addrs: Vec<String> = flags
        .require("shard-addrs")?
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(err("--shard-addrs needs at least one HOST:PORT entry"));
    }
    let partition = usj_serve::shard_partition(&ds.strings, addrs.len());
    let specs = ShardSpec::from_partition(&partition, &addrs).map_err(err)?;
    let mut cfg = CoordConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7979").to_string(),
        k: config.k,
        tau: config.tau,
        strict: flags.get_parse("strict", false)?,
        ..CoordConfig::default()
    };
    parse_frame_flags!(flags, cfg);
    let hedge_after_ms: u64 =
        flags.get_parse("hedge-after-ms", cfg.hedge_after.as_millis() as u64)?;
    cfg.hedge_after = std::time::Duration::from_millis(hedge_after_ms);
    cfg.quarantine_after = flags.get_parse("quarantine-after", cfg.quarantine_after)?;
    if cfg.quarantine_after == 0 {
        return Err(err("--quarantine-after must be at least 1"));
    }
    let cooldown_ms: u64 = flags.get_parse(
        "quarantine-cooldown-ms",
        cfg.quarantine_cooldown.as_millis() as u64,
    )?;
    cfg.quarantine_cooldown = std::time::Duration::from_millis(cooldown_ms);
    let k = cfg.k;
    let tau = cfg.tau;
    let strict = cfg.strict;
    let n = specs.len();
    let handle = usj_serve::coordinate(specs, ds.alphabet, cfg)
        .map_err(|e| err(format!("cannot bind coordinator: {e}")))?;
    eprintln!(
        "usj-coord listening on {} (k={k} tau={tau}, {n} shards, {} partial results); \
         send SHUTDOWN to drain",
        handle.addr(),
        if strict { "refusing" } else { "marking" }
    );
    Ok(handle)
}

fn cmd_coord(flags: &Flags) -> Result<String, CliError> {
    let handle = start_coord(flags)?;
    let stats = handle.wait();
    Ok(format!("{stats}\n"))
}

fn cmd_probe(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&[
        "addr",
        "probe",
        "k",
        "tau",
        "deadline-ms",
        "retries",
        "trace-out",
    ])?;
    let addr = flags.require("addr")?;
    let probe = flags.require("probe")?;
    let k: usize = flags.get_parse("k", 2)?;
    let tau: f64 = flags.get_parse("tau", 0.1)?;
    let max_retries = flags.get_parse("retries", ClientConfig::default().max_retries)?;
    let deadline_ms: u64 = flags.get_parse("deadline-ms", 0)?;
    let cfg = ClientConfig {
        max_retries,
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        ..ClientConfig::default()
    };
    let mut client = Client::new(addr, cfg);
    let trace_out = flags.get("trace-out");
    let mut trace_note = String::new();
    let outcome = if let Some(path) = trace_out {
        // Traced probe: mint a trace id, send it with the request, and
        // save the server-echoed Chrome trace-event JSON for Perfetto.
        let (outcome, probe_trace) = client
            .probe_traced(k, tau, probe)
            .map_err(|e| err(format!("probe failed: {e}")))?;
        match probe_trace {
            Some(t) => {
                usj_core::durable_atomic_write(std::path::Path::new(path), &t.json, "cli.write")
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(trace_note, "# trace {:016x} written to {path}", t.trace_id);
            }
            None => {
                let _ = writeln!(
                    trace_note,
                    "# no trace returned (request answered pre-probe)"
                );
            }
        }
        outcome
    } else {
        client
            .probe(k, tau, probe)
            .map_err(|e| err(format!("probe failed: {e}")))?
    };
    let mut out = String::new();
    match outcome {
        ProbeOutcome::Exact(hits) => {
            for (id, prob) in &hits {
                let _ = writeln!(out, "{id}\t{prob:.6}");
            }
            let _ = writeln!(out, "# {} hits (exact)", hits.len());
        }
        ProbeOutcome::Degraded { ids, shards } => {
            for id in &ids {
                let _ = writeln!(out, "{id}");
            }
            match shards {
                Some((ok, total)) => {
                    let _ = writeln!(
                        out,
                        "# {} candidates (DEGRADED: partial fleet, {ok}/{total} shards answered)",
                        ids.len()
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "# {} candidates (DEGRADED: filter-only superset, server under load)",
                        ids.len()
                    );
                }
            }
        }
    }
    out.push_str(&trace_note);
    Ok(out)
}

fn cmd_metrics(flags: &Flags) -> Result<String, CliError> {
    flags.assert_known(&["addr"])?;
    let addr = flags.require("addr")?;
    let mut client = Client::new(addr, ClientConfig::default());
    client
        .metrics()
        .map_err(|e| err(format!("metrics scrape failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use usj_core::obs::json;

    /// The pair lines of a command's output (everything but `#` stats).
    fn pairs(out: &str) -> Vec<&str> {
        out.lines().filter(|l| !l.starts_with('#')).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn tmpfile(name: &str) -> String {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A fresh directory per call (pid + counter): concurrent test
        // processes and threads never share, or clobber, a file.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // ordering: Relaxed — the counter only needs uniqueness.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("usj-cli-tests-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_join_search_roundtrip() {
        let data = tmpfile("roundtrip.json");
        let out = run(&args(&[
            "generate", "--kind", "dblp", "--n", "60", "--seed", "5", "--out", &data,
        ]))
        .unwrap();
        assert!(out.contains("wrote 60"));

        let joined = run(&args(&[
            "join", "--input", &data, "--k", "2", "--tau", "0.1",
        ]))
        .unwrap();
        assert!(joined.contains("# n=60"), "{joined}");

        let stats = run(&args(&["stats", "--input", &data])).unwrap();
        assert!(stats.contains("strings:              60"));

        // Probe with an indexed string's most probable world: must hit.
        let ds_text = std::fs::read_to_string(&data).unwrap();
        let ds = DatasetJson::from_json(&ds_text)
            .unwrap()
            .into_dataset()
            .unwrap();
        let probe = ds
            .alphabet
            .decode(&ds.strings[0].most_probable_world().instance);
        let found = run(&args(&[
            "search", "--input", &data, "--probe", &probe, "--k", "2", "--tau", "0.05",
        ]))
        .unwrap();
        assert!(found.lines().any(|l| l.starts_with("0\t")), "{found}");
    }

    #[test]
    fn join_writes_pairs_json() {
        let data = tmpfile("pairs-in.json");
        let pairs = tmpfile("pairs-out.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "50", "--seed", "9", "--out", &data,
        ]))
        .unwrap();
        run(&args(&["join", "--input", &data, "--out", &pairs])).unwrap();
        let parsed = json::parse(&std::fs::read_to_string(&pairs).unwrap()).unwrap();
        assert!(parsed.as_array().is_some());
    }

    #[test]
    fn pipeline_flag_variants_agree() {
        let data = tmpfile("pipelines.json");
        run(&args(&[
            "generate", "--kind", "protein", "--n", "40", "--seed", "3", "--out", &data,
        ]))
        .unwrap();
        let mut outputs = Vec::new();
        for p in ["qfct", "qct", "qft", "fct"] {
            let out = run(&args(&[
                "join",
                "--input",
                &data,
                "--k",
                "4",
                "--tau",
                "0.01",
                "--pipeline",
                p,
            ]))
            .unwrap();
            let pairs: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
            outputs.push(pairs.join("\n"));
        }
        assert!(outputs.windows(2).all(|w| {
            // Pair ids identical (probabilities can differ under early stop).
            let ids = |s: &str| -> Vec<(String, String)> {
                s.lines()
                    .map(|l| {
                        let mut it = l.split('\t');
                        (it.next().unwrap().into(), it.next().unwrap().into())
                    })
                    .collect()
            };
            ids(&w[0]) == ids(&w[1])
        }));
    }

    #[test]
    fn parallel_join_flag_matches_sequential() {
        let data = tmpfile("parallel.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "60", "--seed", "2", "--out", &data,
        ]))
        .unwrap();
        let seq = run(&args(&["join", "--input", &data])).unwrap();
        let par = run(&args(&["join", "--input", &data, "--threads", "3"])).unwrap();
        let pairs = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').take(2).collect::<Vec<_>>().join(","))
                .collect()
        };
        assert_eq!(pairs(&seq), pairs(&par));

        // The scheduler knobs change the wave plan and batching, never
        // the output.
        let banded = run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "3",
            "--shard-band",
            "1",
            "--batch-min",
            "1",
            "--batch-max",
            "4",
        ]))
        .unwrap();
        assert_eq!(pairs(&seq), pairs(&banded));
    }

    #[test]
    fn scheduler_knobs_are_validated() {
        let data = tmpfile("knobs.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "20", "--seed", "4", "--out", &data,
        ]))
        .unwrap();
        let e = run(&args(&["join", "--input", &data, "--batch-min", "0"])).unwrap_err();
        assert!(e.0.contains("--batch-min"), "{e:?}");
        let e = run(&args(&[
            "join",
            "--input",
            &data,
            "--batch-min",
            "8",
            "--batch-max",
            "2",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--batch-max"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--shard-band", "x"])).unwrap_err();
        assert!(e.0.contains("--shard-band"), "{e:?}");
    }

    /// `--stats-json` writes the observability snapshot; its schema is
    /// pinned here so downstream tooling can rely on the keys, and the
    /// snapshot must agree with the collection (probes == n).
    #[test]
    fn stats_json_snapshot_has_stable_schema() {
        let data = tmpfile("obs-in.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "60", "--seed", "7", "--out", &data,
        ]))
        .unwrap();
        for threads in ["1", "3"] {
            let snap = tmpfile(&format!("obs-{threads}.json"));
            let out = run(&args(&[
                "join",
                "--input",
                &data,
                "--threads",
                threads,
                "--stats-json",
                &snap,
            ]))
            .unwrap();
            let v = json::parse(&std::fs::read_to_string(&snap).unwrap()).unwrap();
            assert_eq!(v["schema_version"].as_u64(), Some(1), "threads={threads}");
            assert_eq!(v["probes"].as_u64(), Some(60), "threads={threads}");
            for key in [
                "pairs_in_scope",
                "qgram_survivors",
                "freq_survivors",
                "output_pairs",
            ] {
                assert!(
                    v["counters"][key].as_u64().is_some(),
                    "missing counter {key}"
                );
            }
            for key in ["index_bytes", "peak_index_bytes", "num_strings"] {
                assert!(v["gauges"][key].as_u64().is_some(), "missing gauge {key}");
            }
            for phase in ["qgram", "freq", "cdf", "verify", "index", "total"] {
                for field in ["probes", "total_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
                    assert!(
                        v["phases"][phase][field].as_u64().is_some(),
                        "phases.{phase}.{field}"
                    );
                }
            }
            assert!(v["per_probe"]["pairs_in_scope"]["sum"].as_u64().is_some());
            assert_eq!(
                v["gauges"]["num_strings"].as_u64(),
                Some(60),
                "threads={threads}"
            );
            // The snapshot's pair count matches the printed pairs.
            let printed = out.lines().filter(|l| !l.starts_with('#')).count() as u64;
            assert_eq!(v["counters"]["output_pairs"].as_u64().unwrap(), printed);
        }
    }

    /// `--trace` is a bare switch: parses without a value and must not
    /// change the join output.
    #[test]
    fn trace_flag_is_valueless_and_output_preserving() {
        let data = tmpfile("trace-in.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "40", "--seed", "11", "--out", &data,
        ]))
        .unwrap();
        let plain = run(&args(&["join", "--input", &data])).unwrap();
        // Bare --trace followed by another flag: value defaults to "true".
        let traced = run(&args(&["join", "--trace", "--input", &data])).unwrap();
        // Compare pair lines only — the `#` summary line carries timings.
        assert_eq!(pairs(&plain), pairs(&traced));
        // A non-boolean value for --trace is rejected like any bad parse.
        let e = run(&args(&["join", "--input", &data, "--trace", "maybe"])).unwrap_err();
        assert!(e.0.contains("--trace"), "{e:?}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args(&["bogus"])).is_err());
        // Unknown flags must error, not be silently ignored.
        let e = run(&args(&["join", "--treads", "4", "--input", "x.json"])).unwrap_err();
        assert!(e.0.contains("unknown flag --treads"), "{e:?}");
        assert!(run(&args(&["join"])).is_err());
        assert!(run(&args(&["join", "--input", "/definitely/missing.json"])).is_err());
        assert!(run(&args(&[
            "generate",
            "--kind",
            "klingon",
            "--out",
            "/tmp/x.json"
        ]))
        .is_err());
        let e = run(&args(&["join", "--input", "x", "--tau", "7"])).unwrap_err();
        assert!(e.0.contains("cannot read") || e.0.contains("tau"));
    }

    /// Every malformed flag takes the error path with a message naming
    /// the offending flag or path — never a silent default.
    #[test]
    fn flag_error_paths_name_the_culprit() {
        let data = tmpfile("errpaths.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "20", "--seed", "6", "--out", &data,
        ]))
        .unwrap();

        // Non-numeric scheduler knobs are parse errors, not defaults.
        let e = run(&args(&["join", "--input", &data, "--batch-min", "two"])).unwrap_err();
        assert!(e.0.contains("invalid value for --batch-min"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--batch-max", "2.5"])).unwrap_err();
        assert!(e.0.contains("invalid value for --batch-max"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--shard-band", "-1"])).unwrap_err();
        assert!(e.0.contains("invalid value for --shard-band"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--threads", "many"])).unwrap_err();
        assert!(e.0.contains("invalid value for --threads"), "{e:?}");

        // Threshold validation happens after parsing.
        let e = run(&args(&["join", "--input", &data, "--tau", "1.5"])).unwrap_err();
        assert!(e.0.contains("--tau must lie in [0, 1]"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--q", "0"])).unwrap_err();
        assert!(e.0.contains("--q must be at least 1"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--k", "255"])).unwrap_err();
        assert!(e.0.contains("--k must be below 255"), "{e:?}");

        // Positional junk is rejected by the flag parser itself.
        let e = run(&args(&["join", "extra", "--input", &data])).unwrap_err();
        assert!(e.0.contains("unexpected argument"), "{e:?}");

        // Missing required flags name themselves.
        let e = run(&args(&["generate", "--kind", "dblp"])).unwrap_err();
        assert!(e.0.contains("missing required flag --out"), "{e:?}");

        // An unparsable probe reports the probe, not a panic.
        let e = run(&args(&["search", "--input", &data, "--probe", "{bad"])).unwrap_err();
        assert!(e.0.contains("invalid probe"), "{e:?}");
    }

    /// Unwritable output targets (`--stats-json`, `--out`) fail with the
    /// path in the message instead of discarding the join results
    /// silently.
    #[test]
    fn malformed_output_targets_are_reported() {
        let data = tmpfile("badout.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "20", "--seed", "8", "--out", &data,
        ]))
        .unwrap();
        // `data` is a file, so treating it as a directory cannot work.
        let bad = format!("{data}/nope/target.json");
        let e = run(&args(&["join", "--input", &data, "--stats-json", &bad])).unwrap_err();
        assert!(e.0.contains("cannot write"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--out", &bad])).unwrap_err();
        assert!(e.0.contains("cannot write"), "{e:?}");
        let e = run(&args(&[
            "generate", "--kind", "dblp", "--n", "5", "--out", &bad,
        ]))
        .unwrap_err();
        assert!(e.0.contains("cannot write"), "{e:?}");
    }

    /// `--checkpoint` commits per-wave state; `--resume` replays it. With
    /// no faults injected the resumed run of an already-complete
    /// checkpoint must reproduce the uninterrupted output bit-for-bit.
    #[test]
    fn checkpoint_and_resume_flags_roundtrip() {
        let data = tmpfile("ckpt-in.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "50", "--seed", "13", "--out", &data,
        ]))
        .unwrap();
        let dir = tmpfile("ckpt-dir");
        std::fs::create_dir_all(&dir).unwrap();

        let plain = run(&args(&["join", "--input", &data, "--threads", "2"])).unwrap();
        let ckpt = run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "2",
            "--checkpoint",
            &dir,
        ]))
        .unwrap();
        assert_eq!(pairs(&plain), pairs(&ckpt));
        let file = std::path::Path::new(&dir).read_dir().unwrap().count();
        assert!(file >= 1, "checkpoint directory left empty");

        let resumed = run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "2",
            "--checkpoint",
            &dir,
            "--resume",
        ]))
        .unwrap();
        assert_eq!(pairs(&plain), pairs(&resumed));
        assert!(
            resumed.contains("# fault-tolerance: waves_resumed="),
            "{resumed}"
        );

        // Resuming under a different config must be rejected with the
        // structured report, not silently merged.
        let e = run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "2",
            "--tau",
            "0.2",
            "--checkpoint",
            &dir,
            "--resume",
        ]))
        .unwrap_err();
        assert!(e.0.contains("kind: checkpoint"), "{e:?}");
    }

    /// The fault-tolerance flags are validated before any work happens.
    #[test]
    fn fault_tolerance_flags_are_validated() {
        let data = tmpfile("ftflags.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "20", "--seed", "14", "--out", &data,
        ]))
        .unwrap();
        let e = run(&args(&["join", "--input", &data, "--resume"])).unwrap_err();
        assert!(e.0.contains("--resume requires --checkpoint"), "{e:?}");
        let e = run(&args(&["join", "--input", &data, "--deadline-secs", "-1"])).unwrap_err();
        assert!(e.0.contains("--deadline-secs"), "{e:?}");
        let e = run(&args(&[
            "join",
            "--input",
            &data,
            "--deadline-secs",
            "soon",
        ]))
        .unwrap_err();
        assert!(e.0.contains("invalid value for --deadline-secs"), "{e:?}");
    }

    /// An unmeetable deadline produces the structured report with the
    /// `deadline` kind and a checkpoint pointer when one was committed.
    #[test]
    fn deadline_produces_structured_report() {
        let data = tmpfile("deadline.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "50", "--seed", "15", "--out", &data,
        ]))
        .unwrap();
        let e = run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "2",
            "--deadline-secs",
            "0.000000001",
        ]))
        .unwrap_err();
        assert!(e.0.contains("join failed: deadline exceeded"), "{e:?}");
        assert!(e.0.contains("kind: deadline"), "{e:?}");
        assert!(e.0.contains("completed_waves: 0"), "{e:?}");
        assert!(e.0.contains("checkpoint: none"), "{e:?}");
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&[]).is_err());
    }

    /// `--chrome-trace` writes a Chrome trace-event file that is valid
    /// JSON with nested probe/phase spans, without changing the pairs.
    #[test]
    fn join_chrome_trace_writes_loadable_trace_events() {
        let data = tmpfile("chrome-in.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "40", "--seed", "17", "--out", &data,
        ]))
        .unwrap();
        let trace = tmpfile("chrome-out.json");
        let plain = run(&args(&["join", "--input", &data])).unwrap();
        let traced = run(&args(&["join", "--input", &data, "--chrome-trace", &trace])).unwrap();
        assert_eq!(pairs(&plain), pairs(&traced));
        let text = std::fs::read_to_string(&trace).unwrap();
        let v = json::parse(&text).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty(), "trace has spans");
        // Complete events with span/parent nesting and µs timestamps.
        for e in events {
            assert_eq!(e["ph"].as_str(), Some("X"), "{e:?}");
            assert!(e["ts"].as_i64().is_some(), "{e:?}");
            assert!(e["dur"].as_i64().is_some(), "{e:?}");
            assert!(e["args"]["span"].as_u64().is_some(), "{e:?}");
            assert!(e["args"]["parent"].as_u64().is_some(), "{e:?}");
        }
        assert!(events.iter().any(|e| e["cat"].as_str() == Some("probe")));
        assert!(events
            .iter()
            .any(|e| e["cat"].as_str() == Some("phase")
                && e["args"]["parent"].as_u64().unwrap() != 0));
        // The parallel path merges per-worker Chrome lanes.
        let trace_par = tmpfile("chrome-out-par.json");
        run(&args(&[
            "join",
            "--input",
            &data,
            "--threads",
            "3",
            "--chrome-trace",
            &trace_par,
        ]))
        .unwrap();
        let v = json::parse(&std::fs::read_to_string(&trace_par).unwrap()).unwrap();
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
    }

    /// `usj metrics` scrapes the Prometheus exposition from a running
    /// server, and `usj probe --trace-out` round-trips the server-side
    /// Chrome trace.
    #[test]
    fn metrics_and_traced_probe_roundtrip_over_loopback() {
        let data = tmpfile("metrics.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "30", "--seed", "23", "--out", &data,
        ]))
        .unwrap();
        let flags = Flags::parse(&args(&[
            "--input",
            &data,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ]))
        .unwrap();
        let handle = start_serve(&flags).unwrap();
        let addr = handle.addr().to_string();

        let ds_text = std::fs::read_to_string(&data).unwrap();
        let ds = DatasetJson::from_json(&ds_text)
            .unwrap()
            .into_dataset()
            .unwrap();
        let probe = ds
            .alphabet
            .decode(&ds.strings[0].most_probable_world().instance);

        let trace = tmpfile("probe-trace.json");
        let served = run(&args(&[
            "probe",
            "--addr",
            &addr,
            "--probe",
            &probe,
            "--trace-out",
            &trace,
        ]))
        .unwrap();
        assert!(served.contains("hits (exact)"), "{served}");
        assert!(served.contains("# trace "), "{served}");
        let v = json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        // Every span carries the client-minted trace id the server echoed.
        let id_hex = served
            .lines()
            .find(|l| l.starts_with("# trace "))
            .and_then(|l| l.split_whitespace().nth(2))
            .unwrap()
            .to_string();
        assert!(events
            .iter()
            .all(|e| e["args"]["trace"].as_str() == Some(id_hex.as_str())));

        let scraped = run(&args(&["metrics", "--addr", &addr])).unwrap();
        assert!(
            scraped.contains("# TYPE usj_probes_total counter"),
            "{scraped}"
        );
        assert!(scraped.contains("usj_probes_total 1"), "{scraped}");
        assert!(
            scraped.contains("usj_funnel_candidates_total{band="),
            "{scraped}"
        );
        handle.shutdown();
    }

    /// End-to-end over loopback: `usj serve` (via the non-blocking
    /// half) answers a `usj probe` with the same hits as a local
    /// `usj search`, and drains cleanly.
    #[test]
    fn serve_and_probe_roundtrip() {
        let data = tmpfile("serve.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "30", "--seed", "21", "--out", &data,
        ]))
        .unwrap();
        let flags = Flags::parse(&args(&[
            "--input",
            &data,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ]))
        .unwrap();
        let handle = start_serve(&flags).unwrap();
        let addr = handle.addr().to_string();

        let ds_text = std::fs::read_to_string(&data).unwrap();
        let ds = DatasetJson::from_json(&ds_text)
            .unwrap()
            .into_dataset()
            .unwrap();
        let probe = ds
            .alphabet
            .decode(&ds.strings[0].most_probable_world().instance);
        let local = run(&args(&["search", "--input", &data, "--probe", &probe])).unwrap();
        let served = run(&args(&["probe", "--addr", &addr, "--probe", &probe])).unwrap();
        assert!(served.contains("hits (exact)"), "{served}");
        let ids = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            ids(&local),
            ids(&served),
            "served hits diverge from local search"
        );
        assert!(ids(&served).contains(&"0".to_string()), "{served}");

        // Mismatched parameters are refused, not silently wrong.
        let e = run(&args(&[
            "probe", "--addr", &addr, "--probe", &probe, "--k", "5",
        ]))
        .unwrap_err();
        assert!(e.0.contains("indexed for"), "{e:?}");

        let stats = handle.shutdown();
        assert!(stats.contains("\"serve_full\""), "{stats}");
    }

    #[test]
    fn serve_and_probe_flags_are_validated() {
        let data = tmpfile("serveflags.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "10", "--seed", "22", "--out", &data,
        ]))
        .unwrap();
        let e = run(&args(&["serve"])).unwrap_err();
        assert!(e.0.contains("missing required flag --input"), "{e:?}");
        let bad = |extra: &[&str]| {
            let mut a = vec!["serve", "--input", data.as_str()];
            a.extend_from_slice(extra);
            run(&args(&a)).unwrap_err()
        };
        let e = bad(&["--workers", "0"]);
        assert!(e.0.contains("--workers must be at least 1"), "{e:?}");
        let e = bad(&["--queue-cap", "0"]);
        assert!(e.0.contains("--queue-cap must be at least 1"), "{e:?}");
        let e = bad(&["--io-timeout-secs", "-2"]);
        assert!(e.0.contains("--io-timeout-secs"), "{e:?}");
        let e = bad(&["--queue-shed", "16"]);
        assert!(e.0.contains("unknown flag --queue-shed"), "{e:?}");
        let e = bad(&["--listeners", "2"]);
        assert!(e.0.contains("unknown flag --listeners"), "{e:?}");

        let e = run(&args(&["probe", "--probe", "ABC"])).unwrap_err();
        assert!(e.0.contains("missing required flag --addr"), "{e:?}");
        let e = run(&args(&["probe", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(e.0.contains("missing required flag --probe"), "{e:?}");
        // A dead endpoint is a reported transport failure, not a hang.
        let e = run(&args(&[
            "probe",
            "--addr",
            "127.0.0.1:1",
            "--probe",
            "ABC",
            "--retries",
            "0",
        ]))
        .unwrap_err();
        assert!(e.0.contains("probe failed:"), "{e:?}");
    }

    /// `usj snapshot write|verify|fsck` and a warm `usj serve
    /// --snapshot` boot agree with a cold build end to end, and a
    /// flipped byte turns `verify` into a hard failure.
    #[test]
    fn snapshot_write_verify_fsck_and_warm_serve_roundtrip() {
        let data = tmpfile("snaproll.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "20", "--seed", "27", "--out", &data,
        ]))
        .unwrap();
        let snap = tmpfile("snaproll.snap");
        let wrote = run(&args(&[
            "snapshot",
            "write",
            "--input",
            &data,
            "--snapshot",
            &snap,
        ]))
        .unwrap();
        assert!(wrote.contains("fingerprint"), "{wrote}");
        let verified = run(&args(&["snapshot", "verify", "--snapshot", &snap])).unwrap();
        assert!(verified.contains("verify: ok"), "{verified}");
        assert!(verified.contains("interner"), "{verified}");
        let fsck = run(&args(&[
            "snapshot",
            "fsck",
            "--input",
            &data,
            "--snapshot",
            &snap,
        ]))
        .unwrap();
        assert!(fsck.contains("rung Verified"), "{fsck}");

        // Warm boot from the image answers like a local search.
        let flags = Flags::parse(&args(&[
            "--input",
            &data,
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            &snap,
        ]))
        .unwrap();
        let handle = start_serve(&flags).unwrap();
        let addr = handle.addr().to_string();
        let ds_text = std::fs::read_to_string(&data).unwrap();
        let ds = DatasetJson::from_json(&ds_text)
            .unwrap()
            .into_dataset()
            .unwrap();
        let probe = ds
            .alphabet
            .decode(&ds.strings[0].most_probable_world().instance);
        let local = run(&args(&["search", "--input", &data, "--probe", &probe])).unwrap();
        let served = run(&args(&["probe", "--addr", &addr, "--probe", &probe])).unwrap();
        assert!(served.contains("hits (exact)"), "{served}");
        let ids = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            ids(&local),
            ids(&served),
            "warm hits diverge from local search"
        );
        handle.shutdown();

        // A single flipped byte fails verification with a diagnosis.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        let e = run(&args(&["snapshot", "verify", "--snapshot", &snap])).unwrap_err();
        assert!(e.0.contains("verify FAILED"), "{e:?}");
        // fsck still recovers it — strict salvage rebuilds the damage.
        let fsck = run(&args(&[
            "snapshot",
            "fsck",
            "--input",
            &data,
            "--snapshot",
            &snap,
        ]))
        .unwrap();
        assert!(!fsck.contains("rung Verified"), "{fsck}");
        assert!(fsck.contains("corruption"), "{fsck}");
    }

    #[test]
    fn snapshot_flags_are_validated() {
        let e = run(&args(&["snapshot"])).unwrap_err();
        assert!(e.0.contains("usage: usj snapshot"), "{e:?}");
        let e = run(&args(&["snapshot", "defrag"])).unwrap_err();
        assert!(e.0.contains("unknown snapshot mode"), "{e:?}");
        let e = run(&args(&["snapshot", "verify"])).unwrap_err();
        assert!(e.0.contains("missing required flag --snapshot"), "{e:?}");
        let e = run(&args(&["snapshot", "write", "--snapshot", "x.snap"])).unwrap_err();
        assert!(e.0.contains("missing required flag --input"), "{e:?}");
        let e = run(&args(&[
            "snapshot",
            "verify",
            "--snapshot",
            "/nonexistent/x.snap",
        ]))
        .unwrap_err();
        assert!(e.0.contains("cannot verify snapshot"), "{e:?}");
        let e = run(&args(&[
            "snapshot",
            "write",
            "--snapshot",
            "x",
            "--input",
            "x",
            "--workers",
            "2",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag --workers"), "{e:?}");
    }

    #[test]
    fn shard_and_coord_fleet_matches_single_node_over_loopback() {
        let data = tmpfile("fleet.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "30", "--seed", "25", "--out", &data,
        ]))
        .unwrap();

        // Two shards on ephemeral ports, then a coordinator fronting
        // them. The shards boot through the snapshot path (a cold miss
        // on the first run: each rebuilds and re-writes its own
        // `<base>.shard<idx>` image for the next restart).
        let snap_base = tmpfile("fleet.snap");
        let shard_flags = |idx: &str| {
            Flags::parse(&args(&[
                "--input",
                &data,
                "--addr",
                "127.0.0.1:0",
                "--shards",
                "2",
                "--shard-index",
                idx,
                "--snapshot",
                &snap_base,
            ]))
            .unwrap()
        };
        let shard0 = start_shard(&shard_flags("0")).unwrap();
        let shard1 = start_shard(&shard_flags("1")).unwrap();
        let fleet = format!("{},{}", shard0.addr(), shard1.addr());
        let coord_flags = Flags::parse(&args(&[
            "--input",
            &data,
            "--addr",
            "127.0.0.1:0",
            "--shard-addrs",
            &fleet,
        ]))
        .unwrap();
        let coord = start_coord(&coord_flags).unwrap();
        let addr = coord.addr().to_string();

        let ds_text = std::fs::read_to_string(&data).unwrap();
        let ds = DatasetJson::from_json(&ds_text)
            .unwrap()
            .into_dataset()
            .unwrap();
        let probe = ds
            .alphabet
            .decode(&ds.strings[0].most_probable_world().instance);
        let local = run(&args(&["search", "--input", &data, "--probe", &probe])).unwrap();
        let served = run(&args(&["probe", "--addr", &addr, "--probe", &probe])).unwrap();
        assert!(served.contains("hits (exact)"), "{served}");
        let ids = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            ids(&local),
            ids(&served),
            "fleet hits diverge from local search"
        );

        // Parameter mismatches are refused at the coordinator, before any
        // shard is bothered.
        let e = run(&args(&[
            "probe", "--addr", &addr, "--probe", &probe, "--k", "5",
        ]))
        .unwrap_err();
        assert!(e.0.contains("indexed for"), "{e:?}");

        coord.shutdown();
        shard0.shutdown();
        shard1.shutdown();
    }

    #[test]
    fn shard_and_coord_flags_are_validated() {
        let data = tmpfile("fleetflags.json");
        run(&args(&[
            "generate", "--kind", "dblp", "--n", "10", "--seed", "26", "--out", &data,
        ]))
        .unwrap();
        let e = run(&args(&["shard", "--input", &data])).unwrap_err();
        assert!(e.0.contains("--shards must be at least 1"), "{e:?}");
        let e = run(&args(&[
            "shard",
            "--input",
            &data,
            "--shards",
            "2",
            "--shard-index",
            "2",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--shard-index must lie in 0..2"), "{e:?}");
        let e = run(&args(&["coord", "--input", &data])).unwrap_err();
        assert!(e.0.contains("missing required flag --shard-addrs"), "{e:?}");
        let e = run(&args(&["coord", "--input", &data, "--shard-addrs", " , "])).unwrap_err();
        assert!(e.0.contains("at least one HOST:PORT"), "{e:?}");
        let e = run(&args(&[
            "coord",
            "--input",
            &data,
            "--shard-addrs",
            "127.0.0.1:1",
            "--quarantine-after",
            "0",
        ]))
        .unwrap_err();
        assert!(
            e.0.contains("--quarantine-after must be at least 1"),
            "{e:?}"
        );
        let e = run(&args(&[
            "coord",
            "--input",
            &data,
            "--shard-addrs",
            "127.0.0.1:1",
            "--queue-degrade",
            "2",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown flag --queue-degrade"), "{e:?}");
    }
}
