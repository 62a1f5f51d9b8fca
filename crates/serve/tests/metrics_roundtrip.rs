//! Wire-level tests for the observability surface of the query service:
//! the `METRICS` Prometheus exposition must cover the complete golden
//! schema (every counter, gauge, phase series, and funnel band × stage)
//! after real probes, and a `trace_id=`-carrying probe must come back
//! with a `TRACE` line holding loadable Chrome trace-event JSON with
//! nested probe → phase spans.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use usj_model::{Alphabet, UncertainString};
use usj_obs::{band_label, json, Counter, Gauge, Phase, FUNNEL_BANDS};
use usj_serve::{
    serve, serve_from_snapshot, Client, ClientConfig, ProbeOutcome, Response, ServeConfig,
    ServerHandle,
};

const K: usize = 1;
const TAU: f64 = 0.3;

fn strings() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    [
        "ACGTAC",
        "ACGTAT",
        "ACG{(T,0.9),(G,0.1)}AC",
        "TTTTTT",
        "ACGACG",
        "AC{(G,0.7),(A,0.3)}TAC",
        "GGGCCC",
        "ACGTACGT",
    ]
    .iter()
    .map(|t| UncertainString::parse(t, &alpha).unwrap())
    .collect()
}

fn start() -> ServerHandle {
    let alpha = Alphabet::dna();
    let coll = usj_core::IndexedCollection::build(
        usj_core::JoinConfig::new(K, TAU),
        alpha.size(),
        strings(),
    );
    serve(coll, Alphabet::dna(), ServeConfig::default()).expect("bind loopback")
}

fn client(handle: &ServerHandle) -> Client {
    Client::new(handle.addr().to_string(), ClientConfig::default())
}

/// One raw request, reading exactly `lines` response lines (no client
/// machinery, so multi-line answers stay visible).
fn raw_lines(handle: &ServerHandle, line: &str, lines: usize) -> Vec<String> {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .expect("send");
    let mut reader = BufReader::new(stream);
    (0..lines)
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read");
            assert!(!reply.is_empty(), "connection closed early");
            reply.trim_end().to_string()
        })
        .collect()
}

#[test]
fn metrics_exposition_covers_the_golden_schema_after_probes() {
    let handle = start();
    let mut c = client(&handle);
    // Two real probes so the funnel and phase series carry weight.
    let out = c.probe(K, TAU, "ACGTAC").expect("probe");
    assert!(matches!(out, ProbeOutcome::Exact(_)));
    c.probe(K, TAU, "ACGTACGT").expect("probe");
    let text = c.metrics().expect("METRICS");
    // Schema-pinned: the full golden counter/gauge set...
    for counter in Counter::ALL {
        assert!(
            text.contains(&format!("usj_{}_total ", counter.name())),
            "missing counter {}",
            counter.name()
        );
    }
    for gauge in Gauge::ALL {
        assert!(
            text.contains(&format!("\nusj_{} ", gauge.name())),
            "missing gauge {}",
            gauge.name()
        );
    }
    // ...every phase total and latency quantile...
    for phase in Phase::ALL {
        assert!(text.contains(&format!("usj_phase_ns_total{{phase=\"{}\"}}", phase.name())));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(text.contains(&format!(
                "usj_phase_latency_ns{{phase=\"{}\",quantile=\"{q}\"}}",
                phase.name()
            )));
        }
    }
    // ...and the complete band × stage funnel, even at zero.
    for band in 0..FUNNEL_BANDS {
        for stage in [
            "pairs_in",
            "qgram_out",
            "freq_out",
            "cdf_accepted",
            "cdf_rejected",
            "cdf_undecided",
            "verified_similar",
            "verified_dissimilar",
            "output",
        ] {
            assert!(
                text.contains(&format!(
                    "usj_funnel_candidates_total{{band=\"{}\",stage=\"{stage}\"}}",
                    band_label(band)
                )),
                "missing funnel series band={band} stage={stage}"
            );
        }
    }
    // Exposition shape: every non-comment line is `name{labels} value`.
    let mut probes_total = None;
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE usj_"), "bad header: {line}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(name.starts_with("usj_"), "bad series: {line}");
        let value: u64 = value.parse().expect("integer value");
        if name == "usj_probes_total" {
            probes_total = Some(value);
        }
    }
    assert_eq!(probes_total, Some(2), "both probes folded");
    // The 6- and 8-char probes land in band 0-7 and 8-15 respectively.
    assert!(!text.contains("usj_funnel_candidates_total{band=\"0-7\",stage=\"pairs_in\"} 0\n"));
    // The handle-side accessor renders the same registry.
    assert_eq!(handle.metrics_text().lines().count(), text.lines().count());
    // STATS and METRICS render one aggregate: every counter and gauge
    // reads the same in both, the frame's own admission events included.
    // Both reads go through the handle, so no admission lands between.
    let metrics = handle.metrics_text();
    let stats = json::parse(&handle.stats_json()).expect("STATS is JSON");
    let stats_value = |section: &str, name: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| panic!("STATS lacks {section}.{name}"))
    };
    for counter in Counter::ALL {
        let name = counter.name();
        let v = stats_value("counters", name);
        assert!(
            metrics.contains(&format!("\nusj_{name}_total {v}\n")),
            "counter {name} differs: STATS {v}\n{metrics}"
        );
    }
    for gauge in Gauge::ALL {
        let name = gauge.name();
        let v = stats_value("gauges", name);
        assert!(
            metrics.contains(&format!("\nusj_{name} {v}\n")),
            "gauge {name} differs: STATS {v}\n{metrics}"
        );
    }
    handle.shutdown();
}

#[test]
fn sharding_metrics_are_pinned_in_the_golden_schema() {
    // The coordinator's counters and gauge live in the same golden
    // schema every server renders — a single-node exposition carries
    // them at zero, so dashboards work unchanged across topologies.
    let handle = start();
    let text = handle.metrics_text();
    for name in [
        "hedges_sent",
        "hedges_won",
        "shards_quarantined",
        "partial_responses",
    ] {
        assert!(
            text.contains(&format!("\nusj_{name}_total 0\n")),
            "missing zero-valued counter {name}"
        );
    }
    assert!(
        text.contains("\nusj_shard_healthy 0\n"),
        "missing shard_healthy gauge"
    );
    // The snapshot counters live in the same schema: a cold server
    // carries them at zero, so restart dashboards need no special case.
    for name in [
        "snapshot_bands_salvaged",
        "snapshot_bands_rebuilt",
        "snapshot_corruptions_detected",
        "warm_restarts",
    ] {
        assert!(
            text.contains(&format!("\nusj_{name}_total 0\n")),
            "missing zero-valued counter {name}"
        );
    }
    assert!(
        text.contains("\nusj_snapshot_age_seconds 0\n"),
        "missing snapshot_age_seconds gauge"
    );
    handle.shutdown();
}

/// Warm restart end to end: a server booted from a committed snapshot
/// answers identically to a cold-built one, reports `warm=true` plus
/// the snapshot age in `HEALTH` (on the wire and through
/// [`Client::health_report`]), and folds `warm_restarts` into the
/// metrics exposition — while a cold server reports `warm=false` and
/// omits the age token.
#[test]
fn warm_restart_reports_health_and_metrics() {
    let alpha = Alphabet::dna();
    let config = usj_core::JoinConfig::new(K, TAU);
    let coll = usj_core::IndexedCollection::build(config.clone(), alpha.size(), strings());
    let dir = std::env::temp_dir().join(format!("usj-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("index.snap");
    usj_core::snapshot::write(&path, &coll).expect("snapshot commits");

    let cold = start();
    let (warm, report) = serve_from_snapshot(
        &path,
        config,
        strings(),
        Alphabet::dna(),
        ServeConfig::default(),
    )
    .expect("warm boot");
    assert!(report.warm, "verified snapshot must boot warm: {report:?}");

    // Same answers, probe for probe.
    let mut cold_client = client(&cold);
    let mut warm_client = Client::new(warm.addr().to_string(), ClientConfig::default());
    for probe in ["ACGTAC", "ACGTACGT", "TTTTTT"] {
        assert_eq!(
            warm_client.probe(K, TAU, probe).expect("warm probe"),
            cold_client.probe(K, TAU, probe).expect("cold probe"),
            "warm and cold answers diverged for {probe}"
        );
    }

    // HEALTH carries the warm markers, on the wire and via the client.
    let health = warm_client.health_report().expect("HEALTH");
    assert_eq!(health.warm, Some(true));
    assert!(health.snapshot_age_s.is_some(), "warm start has an age");
    let line = &raw_lines(&warm, "HEALTH", 1)[0];
    assert!(line.contains(" warm=true"), "no warm marker in {line:?}");
    assert!(line.contains(" snapshot_age_s="), "no age in {line:?}");

    let cold_health = cold_client.health_report().expect("HEALTH");
    assert_eq!(cold_health.warm, Some(false));
    assert_eq!(cold_health.snapshot_age_s, None);
    let line = &raw_lines(&cold, "HEALTH", 1)[0];
    assert!(line.contains(" warm=false"), "no warm marker in {line:?}");
    assert!(!line.contains("snapshot_age_s="), "cold start has no age");

    // The warm boot is visible in the exposition from the first scrape.
    let text = warm.metrics_text();
    assert!(
        text.contains("\nusj_warm_restarts_total 1\n"),
        "warm restart not counted:\n{text}"
    );
    warm.shutdown();
    cold.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_probe_returns_its_trace_id_and_nested_chrome_spans() {
    let handle = start();
    let mut c = client(&handle);
    let baseline = c.probe(K, TAU, "ACGTAC").expect("probe");
    let (outcome, trace) = c.probe_traced(K, TAU, "ACGTAC").expect("traced probe");
    assert_eq!(outcome, baseline, "tracing never changes the answer");
    let trace = trace.expect("full-pipeline probes always come back traced");
    assert_ne!(trace.trace_id, 0);
    // The JSON is single-line Chrome trace-event format...
    assert!(!trace.json.contains('\n'));
    assert!(trace.json.starts_with("{\"traceEvents\":["));
    assert!(trace.json.ends_with("]}"));
    // ...with complete events carrying the echoed trace id...
    assert!(trace.json.contains("\"ph\":\"X\""));
    assert!(trace
        .json
        .contains(&format!("\"trace\":\"{:016x}\"", trace.trace_id)));
    // ...and nested spans: a probe span plus at least one phase span
    // pointing at a parent.
    assert!(trace.json.contains("\"cat\":\"probe\""));
    assert!(trace.json.contains("\"cat\":\"phase\""));
    assert!(trace.json.contains("\"parent\":"));
    handle.shutdown();
}

#[test]
fn trace_line_precedes_the_answer_on_the_wire() {
    let handle = start();
    let lines = raw_lines(&handle, "PROBE 1 0.3 trace_id=00000000deadbeef ACGTAC", 2);
    let trace = Response::parse(&lines[0]).expect("first line parses");
    match trace {
        Response::Trace { trace_id, json } => {
            assert_eq!(trace_id, 0xdead_beef);
            assert!(json.starts_with("{\"traceEvents\":["));
        }
        other => panic!("expected TRACE first, got {other:?}"),
    }
    assert!(matches!(
        Response::parse(&lines[1]).expect("second line parses"),
        Response::Ok(_)
    ));
    // An untraced probe answers with exactly one line.
    let lines = raw_lines(&handle, "PROBE 1 0.3 ACGTAC", 1);
    assert!(matches!(
        Response::parse(&lines[0]).expect("answer parses"),
        Response::Ok(_)
    ));
    handle.shutdown();
}
