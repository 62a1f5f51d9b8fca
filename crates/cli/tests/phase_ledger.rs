//! The phase ledger reconciles with the wall clock. On a one-thread join
//! the `qgram`, `freq`, `cdf`, `verify` and `index` spans of the
//! `--stats-json` snapshot are disjoint parts of the run, so together
//! they must cover most of its `total` and never exceed it: work that
//! lands in no phase, or in two, shows up here.
//!
//! Ignored by default because it times a 4000-string join, which wants a
//! release build:
//!
//! ```bash
//! cargo test --release --offline -p usj-cli --test phase_ledger -- --ignored
//! ```

use std::path::PathBuf;
use std::process::Command;

use usj_core::obs::json;

fn usj(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_usj"))
        .args(args)
        .output()
        .expect("spawn usj binary");
    assert!(
        out.status.success(),
        "usj {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("usj-phase-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
#[ignore = "times a 4000-string join; run in release with --ignored"]
fn one_thread_phases_add_up_to_the_total() {
    let dir = tmpdir();
    let data = dir.join("dblp.json");
    let snap = dir.join("stats.json");
    let (data, snap) = (data.to_str().unwrap(), snap.to_str().unwrap());
    usj(&[
        "generate", "--kind", "dblp", "--n", "4000", "--seed", "102", "--out", data,
    ]);
    usj(&[
        "join",
        "--input",
        data,
        "--threads",
        "1",
        "--stats-json",
        snap,
    ]);
    let v = json::parse(&std::fs::read_to_string(snap).unwrap()).unwrap();
    let ns = |phase: &str| {
        v["phases"][phase]["total_ns"]
            .as_u64()
            .unwrap_or_else(|| panic!("no {phase} phase in the snapshot"))
    };
    let parts: u64 = ["qgram", "freq", "cdf", "verify", "index"]
        .iter()
        .map(|p| ns(p))
        .sum();
    let total = ns("total");
    let share = parts as f64 / total as f64;
    assert!(
        (0.85..=1.0).contains(&share),
        "phases cover {:.1}% of the total ({parts} of {total} ns)",
        share * 100.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}
