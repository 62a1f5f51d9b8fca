//! End-to-end overload and fault suite for the query service: a real
//! server on a loopback port, driven past saturation with fault-plan
//! delays, must shed with `BUSY`, degrade with superset answers, never
//! serve a corrupted result, never lose the listener to a panic, and
//! drain cleanly on shutdown.
//!
//! All tests serialise on a file-local mutex: `usj-fault` plans are
//! process-global, so a concurrently running test would consume another
//! plan's scheduled hits.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use usj_fault::{shield, FaultAction, FaultPlan};
use usj_model::{Alphabet, UncertainString};
use usj_serve::degrade::DegradeConfig;
use usj_serve::{
    serve, Client, ClientConfig, ClientError, ProbeOutcome, Response, ServeConfig, ServerHandle,
};

fn lock() -> MutexGuard<'static, ()> {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    shield::install();
    // A poisoned lock only means an earlier test failed; the guard
    // protects no data.
    TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const K: usize = 1;
const TAU: f64 = 0.3;

/// Certain and uncertain DNA strings with matches at `k = 1`.
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

fn indexed() -> usj_core::IndexedCollection {
    let alpha = Alphabet::dna();
    usj_core::IndexedCollection::build(usj_core::JoinConfig::new(K, TAU), alpha.size(), strings())
}

fn start(cfg: ServeConfig) -> ServerHandle {
    serve(indexed(), Alphabet::dna(), cfg).expect("bind loopback")
}

fn client(handle: &ServerHandle, cfg: ClientConfig) -> Client {
    Client::new(handle.addr().to_string(), cfg)
}

/// Local oracle: exact hit set for `probe` against the same index.
fn oracle(probe: &str) -> Vec<(u32, f64)> {
    let alpha = Alphabet::dna();
    let probe = UncertainString::parse(probe, &alpha).unwrap();
    indexed()
        .search(&probe)
        .into_iter()
        .map(|h| (h.id, h.prob))
        .collect()
}

/// One raw request/response round-trip (no client retry machinery).
fn raw_roundtrip(handle: &ServerHandle, line: &str) -> String {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply.trim().to_string()
}

#[test]
fn exact_probes_match_local_search_bit_identically() {
    let _guard = lock();
    let handle = start(ServeConfig::default());
    let mut client = client(&handle, ClientConfig::default());
    for text in ["ACGTAC", "AC{(G,0.7),(A,0.3)}TAC", "TTTTTT", "GGGCCC"] {
        let expected = oracle(text);
        match client.probe(K, TAU, text).expect("probe") {
            ProbeOutcome::Exact(hits) => {
                assert_eq!(hits.len(), expected.len(), "{text}");
                for ((id, prob), (oid, oprob)) in hits.iter().zip(&expected) {
                    assert_eq!(id, oid, "{text}");
                    assert_eq!(prob.to_bits(), oprob.to_bits(), "bit-exact for {text}");
                }
            }
            other => panic!("unloaded server must answer exactly, got {other:?}"),
        }
    }
    let (level, queue, _inflight) = client.health().expect("health");
    assert_eq!(level, 0, "unloaded server serves at full level");
    assert_eq!(queue, 0);
    let stats = client.stats().expect("stats");
    assert!(!stats.contains('\n'), "STATS is one line");
    assert!(stats.contains("\"serve_accepted\""), "{stats}");
    assert!(stats.contains("\"serve_full\": 4"), "{stats}");
    let final_stats = handle.shutdown();
    assert!(final_stats.contains("\"serve_full\": 4"), "{final_stats}");
}

#[test]
fn saturated_server_sheds_degrades_and_never_corrupts() {
    let _guard = lock();
    // One worker, a slow probe stage, a tiny admission queue and a low
    // degrade threshold: concurrent clients must overrun the service.
    let mut plan = FaultPlan::new();
    for nth in 0..16 {
        plan = plan.fail_at(
            "serve.probe",
            nth,
            FaultAction::Delay(Duration::from_millis(60)),
        );
    }
    let armed = plan.arm();
    let handle = start(ServeConfig {
        workers: 1,
        queue_cap: 3,
        degrade: DegradeConfig {
            queue_degrade: 2,
            ..DegradeConfig::default()
        },
        ..ServeConfig::default()
    });
    let text = "ACGTAC";
    let expected = oracle(text);
    let expected_ids: BTreeSet<u32> = expected.iter().map(|(id, _)| *id).collect();

    const CLIENTS: usize = 8;
    let barrier = Barrier::new(CLIENTS);
    let outcomes: Vec<Result<ProbeOutcome, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let barrier = &barrier;
                let mut client = client(
                    &handle,
                    ClientConfig {
                        max_retries: 0, // surface BUSY instead of retrying
                        jitter_seed: 100 + i as u64,
                        ..ClientConfig::default()
                    },
                );
                scope.spawn(move || {
                    barrier.wait();
                    client.probe(K, TAU, text)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut exact = 0;
    let mut degraded = 0;
    let mut shed = 0;
    for outcome in outcomes {
        match outcome {
            Ok(ProbeOutcome::Exact(hits)) => {
                exact += 1;
                assert_eq!(hits.len(), expected.len());
                for ((id, prob), (oid, oprob)) in hits.iter().zip(&expected) {
                    assert_eq!(id, oid);
                    assert_eq!(prob.to_bits(), oprob.to_bits(), "served result corrupted");
                }
            }
            Ok(ProbeOutcome::Degraded { ids, .. }) => {
                degraded += 1;
                let got: BTreeSet<u32> = ids.iter().copied().collect();
                assert_eq!(got.len(), ids.len(), "duplicate candidate ids");
                assert!(
                    got.is_superset(&expected_ids),
                    "degraded answer {got:?} lost exact hits {expected_ids:?}"
                );
            }
            Err(ClientError::Busy { .. }) => shed += 1,
            Err(other) => panic!("unexpected client failure: {other}"),
        }
    }
    assert!(
        shed >= 1,
        "a saturated queue must shed (exact={exact} degraded={degraded})"
    );
    assert!(
        degraded >= 1,
        "a deep queue must degrade (exact={exact} shed={shed})"
    );
    assert_eq!(exact + degraded + shed, CLIENTS);

    drop(armed);
    // METRICS counts every shed the clients saw, admission sheds
    // included, not only the load ladder's.
    let metrics = handle.metrics_text();
    assert!(
        metrics.contains(&format!("\nusj_serve_shed_total {shed}\n")),
        "clients saw {shed} BUSY:\n{metrics}"
    );
    // The overloaded server is still alive and drains cleanly.
    let final_stats = handle.shutdown();
    assert!(final_stats.contains("\"serve_shed\""), "{final_stats}");
    assert!(final_stats.contains("\"serve_degraded\""), "{final_stats}");
}

#[test]
fn one_slow_probe_degrades_but_never_wedges_the_server() {
    let _guard = lock();
    // One probe slower than any latency threshold fills a 4-sample
    // window with a 2.1 s p99. The ladder must only degrade on it: every
    // later request is admitted and answered, and fast degraded answers
    // slide the slow sample out of the window.
    let armed = FaultPlan::new()
        .fail_at(
            "serve.probe",
            0,
            FaultAction::Delay(Duration::from_millis(2100)),
        )
        .arm();
    let handle = start(ServeConfig {
        workers: 1,
        degrade: DegradeConfig {
            window: 4,
            ..DegradeConfig::default()
        },
        ..ServeConfig::default()
    });
    let text = "ACGTAC";
    let expected = oracle(text);
    let expected_ids: BTreeSet<u32> = expected.iter().map(|(id, _)| *id).collect();
    let mut client = client(
        &handle,
        ClientConfig {
            max_retries: 0, // surface BUSY instead of retrying
            ..ClientConfig::default()
        },
    );
    match client.probe(K, TAU, text).expect("slow probe") {
        ProbeOutcome::Exact(hits) => assert_eq!(hits, expected),
        other => panic!("the slow probe started at full level, got {other:?}"),
    }
    drop(armed);
    let (level, _, _) = client.health().expect("HEALTH after the slow probe");
    assert_eq!(level, 1, "a slow p99 degrades the server");
    for i in 0..4 {
        match client.probe(K, TAU, text) {
            Ok(ProbeOutcome::Degraded { ids, .. }) => {
                let got: BTreeSet<u32> = ids.iter().copied().collect();
                assert!(
                    got.is_superset(&expected_ids),
                    "degraded answer {got:?} lost exact hits {expected_ids:?}"
                );
            }
            other => panic!("probe {i} behind the slow one must degrade, got {other:?}"),
        }
    }
    match client.probe(K, TAU, text).expect("recovered probe") {
        ProbeOutcome::Exact(hits) => assert_eq!(hits, expected),
        other => panic!("the window slid past the slow probe, got {other:?}"),
    }
    let (level, _, _) = client.health().expect("HEALTH after recovery");
    assert_eq!(level, 0, "the ladder comes back down");
    client.shutdown().expect("a wire SHUTDOWN answers BYE");
    handle.wait();
}

#[test]
fn injected_probe_panic_is_isolated_from_the_listener() {
    let _guard = lock();
    let armed = FaultPlan::new()
        .fail_at("serve.probe", 0, FaultAction::Panic)
        .arm();
    let handle = start(ServeConfig::default());
    let reply = raw_roundtrip(&handle, &format!("PROBE {K} {TAU} ACGTAC"));
    assert!(reply.starts_with("ERR internal panic:"), "{reply}");
    drop(armed);
    // The listener and workers survived: the next probe is exact.
    let mut client = client(&handle, ClientConfig::default());
    match client.probe(K, TAU, "ACGTAC").expect("post-panic probe") {
        ProbeOutcome::Exact(hits) => assert_eq!(
            hits.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            oracle("ACGTAC")
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
        ),
        other => panic!("expected exact answer, got {other:?}"),
    }
    let final_stats = handle.shutdown();
    assert!(final_stats.contains("\"serve_panics\": 1"), "{final_stats}");
}

#[test]
fn parse_and_accept_panics_are_isolated() {
    let _guard = lock();
    let armed = FaultPlan::new()
        .fail_at("serve.parse", 0, FaultAction::Panic)
        .arm();
    let handle = start(ServeConfig::default());
    let reply = raw_roundtrip(&handle, "HEALTH");
    assert!(reply.starts_with("ERR internal panic:"), "{reply}");
    drop(armed);

    // An admission-path panic drops one connection without a reply; the
    // listener keeps accepting.
    let armed = FaultPlan::new()
        .fail_at("serve.accept", 0, FaultAction::Panic)
        .arm();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    let n = BufReader::new(stream).read_line(&mut reply).expect("read");
    assert_eq!(
        n, 0,
        "panicked admission closes without a reply, got {reply:?}"
    );
    drop(armed);

    let reply = raw_roundtrip(&handle, "HEALTH");
    assert!(reply.starts_with("HEALTH level="), "{reply}");
    let final_stats = handle.shutdown();
    assert!(final_stats.contains("\"serve_panics\": 2"), "{final_stats}");
}

#[test]
fn per_request_deadline_is_enforced_inside_the_probe() {
    let _guard = lock();
    let armed = FaultPlan::new()
        .fail_at(
            "serve.probe",
            0,
            FaultAction::Delay(Duration::from_millis(120)),
        )
        .arm();
    let handle = start(ServeConfig::default());
    // The injected stall outlives the 30ms budget: the server must
    // refuse to return partial results and say how long it spent.
    let reply = raw_roundtrip(&handle, &format!("PROBE {K} {TAU} deadline_ms=30 ACGTAC"));
    assert!(reply.starts_with("DEADLINE elapsed_ms="), "{reply}");
    let elapsed: u64 = reply
        .trim_start_matches("DEADLINE elapsed_ms=")
        .parse()
        .expect("elapsed_ms");
    assert!(elapsed >= 30, "deadline fired early at {elapsed}ms");
    drop(armed);
    // Without a deadline the same probe completes exactly.
    let reply = raw_roundtrip(&handle, &format!("PROBE {K} {TAU} ACGTAC"));
    assert!(reply.starts_with("OK "), "{reply}");
    let final_stats = handle.shutdown();
    assert!(
        final_stats.contains("\"serve_deadline\": 1"),
        "{final_stats}"
    );
}

#[test]
fn malformed_requests_get_err_and_mismatched_parameters_are_refused() {
    let _guard = lock();
    let handle = start(ServeConfig::default());
    let reply = raw_roundtrip(&handle, "FROBNICATE");
    assert!(reply.starts_with("ERR "), "{reply}");
    let reply = raw_roundtrip(&handle, "PROBE 1 0.3 AC(broken");
    assert!(reply.starts_with("ERR bad probe:"), "{reply}");
    // The index is built for (k, τ); other parameters are an explicit
    // protocol error, never a silently wrong answer.
    let reply = raw_roundtrip(&handle, "PROBE 3 0.3 ACGTAC");
    assert!(
        reply.starts_with("ERR this server is indexed for"),
        "{reply}"
    );
    handle.shutdown();
}

#[test]
fn wire_shutdown_drains_in_flight_work() {
    let _guard = lock();
    let mut plan = FaultPlan::new();
    for nth in 0..4 {
        plan = plan.fail_at(
            "serve.probe",
            nth,
            FaultAction::Delay(Duration::from_millis(50)),
        );
    }
    let armed = plan.arm();
    let handle = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let probes: Vec<_> = (0..2)
        .map(|_| {
            let mut client = Client::new(addr.to_string(), ClientConfig::default());
            std::thread::spawn(move || client.probe(K, TAU, "ACGTAC"))
        })
        .collect();
    // Let the probes reach the queue, then drain over the wire.
    std::thread::sleep(Duration::from_millis(20));
    let mut shutdown_client = Client::new(addr.to_string(), ClientConfig::default());
    shutdown_client.shutdown().expect("SHUTDOWN acknowledged");
    // Queued work still completes: drain finishes in-flight requests.
    for probe in probes {
        match probe.join().unwrap() {
            Ok(_) => {}
            Err(e) => panic!("in-flight probe lost during drain: {e}"),
        }
    }
    let final_stats = handle.wait();
    assert!(final_stats.contains("\"serve_accepted\""), "{final_stats}");
    drop(armed);
    // The drained server is gone: new connections are refused or closed.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let mut reply = String::new();
            matches!(BufReader::new(stream).read_line(&mut reply), Ok(0) | Err(_))
        }
    };
    assert!(refused, "a drained server must not serve new work");
}

#[test]
fn responses_roundtrip_through_the_public_proto_api() {
    // No server needed: guards the client-facing re-exports.
    let resp = Response::Ok(vec![(7, 0.25)]);
    assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
}
