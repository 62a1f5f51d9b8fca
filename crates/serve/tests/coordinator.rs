//! Fleet-level suite for the scatter-gather coordinator: a real
//! coordinator over real length-band shards on loopback ports must be
//! bit-identical to the single-node server, prune fan-out with the
//! length filter, survive a panic at every coordinator failpoint, win
//! hedged races against stalled shards, and — the soak — keep serving
//! explicitly-marked supersets while one shard is dead, quarantine it,
//! and readmit it through a half-open trial once it returns.
//!
//! All tests serialise on a file-local mutex: `usj-fault` plans are
//! process-global and the shards run in-process.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use usj_core::{IndexedCollection, JoinConfig};
use usj_fault::{shield, FaultAction, FaultPlan};
use usj_model::{Alphabet, UncertainString};
use usj_serve::{
    coordinate, serve, serve_shard, shard_partition, Client, ClientConfig, CoordConfig,
    CoordinatorHandle, ProbeOutcome, ServeConfig, ServerHandle, ShardSpec, ShardState,
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

/// The overload suite's collection: mostly length-6 strings, so every
/// shard of a 3-way partition is relevant to a length-6 probe.
fn uniform_strings() -> Vec<UncertainString> {
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

/// Strictly increasing lengths 4..=12, so a 3-way partition has
/// disjoint bands and the length filter visibly prunes fan-out.
fn diverse_strings() -> Vec<UncertainString> {
    let alpha = Alphabet::dna();
    [
        "ACGT",
        "ACGTA",
        "ACGTAC",
        "ACGTACG",
        "ACGTACGT",
        "ACGTACGTA",
        "ACGTACGTAC",
        "ACGTACGTACGT",
    ]
    .iter()
    .map(|t| UncertainString::parse(t, &alpha).unwrap())
    .collect()
}

/// Local oracle: the single-node exact hit set for `probe`.
fn oracle(strings: &[UncertainString], probe: &str) -> Vec<(u32, f64)> {
    let alpha = Alphabet::dna();
    let probe = UncertainString::parse(probe, &alpha).unwrap();
    IndexedCollection::build(JoinConfig::new(K, TAU), alpha.size(), strings.to_vec())
        .search(&probe)
        .into_iter()
        .map(|h| (h.id, h.prob))
        .collect()
}

struct Fleet {
    shards: Vec<ServerHandle>,
    coord: CoordinatorHandle,
}

impl Fleet {
    /// `n` in-process shards over `strings` plus a coordinator; shard
    /// `proxied` (if any) is reached through `via` instead of directly.
    fn start(
        strings: &[UncertainString],
        n: usize,
        proxied: Option<(usize, SocketAddr)>,
        tweak: impl FnOnce(&mut CoordConfig),
    ) -> Fleet {
        let partition = shard_partition(strings, n);
        let shards: Vec<ServerHandle> = (0..n)
            .map(|i| {
                serve_shard(
                    JoinConfig::new(K, TAU),
                    Alphabet::dna(),
                    strings,
                    &partition,
                    i,
                    ServeConfig::default(),
                )
                .expect("bind shard")
            })
            .collect();
        let mut addrs: Vec<String> = shards.iter().map(|h| h.addr().to_string()).collect();
        if let Some((idx, via)) = proxied {
            addrs[idx] = via.to_string();
        }
        let specs = ShardSpec::from_partition(&partition, &addrs).expect("specs");
        let mut cfg = CoordConfig {
            k: K,
            tau: TAU,
            ..CoordConfig::default()
        };
        tweak(&mut cfg);
        let coord = coordinate(specs, Alphabet::dna(), cfg).expect("bind coordinator");
        Fleet { shards, coord }
    }

    fn client(&self, cfg: ClientConfig) -> Client {
        Client::new(self.coord.addr().to_string(), cfg)
    }

    fn stop(self) {
        self.coord.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// One raw request/response round-trip against the coordinator (no
/// client retry machinery, so `ERR` lines stay visible).
fn raw_roundtrip(coord: &CoordinatorHandle, line: &str) -> String {
    let stream = TcpStream::connect(coord.addr()).expect("connect");
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

/// Pulls the scalar value of `"name": <n>` out of the stats JSON (the
/// per-probe block for the same name opens with `{`, so it never
/// matches).
fn stat_u64(stats: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    let mut from = 0;
    while let Some(at) = stats[from..].find(&needle) {
        let rest = &stats[from + at + needle.len()..];
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            return digits.parse().unwrap();
        }
        from += at + needle.len();
    }
    panic!("no scalar {name} in {stats}");
}

fn assert_exact(outcome: ProbeOutcome, expected: &[(u32, f64)], context: &str) {
    match outcome {
        ProbeOutcome::Exact(hits) => {
            assert_eq!(hits.len(), expected.len(), "{context}");
            for ((id, prob), (oid, oprob)) in hits.iter().zip(expected) {
                assert_eq!(id, oid, "{context}");
                assert_eq!(prob.to_bits(), oprob.to_bits(), "bit-exact: {context}");
            }
        }
        other => panic!("{context}: expected exact answer, got {other:?}"),
    }
}

#[test]
fn fleets_of_one_and_three_match_the_single_node_answer_bit_identically() {
    let _guard = lock();
    let strings = uniform_strings();
    let probes = [
        "ACGTAC",
        "AC{(G,0.7),(A,0.3)}TAC",
        "TTTTTT",
        "GGGCCC",
        "ACGTACGT",
        "ACGTACGTACGTACGTACGT", // longer than every band + k: zero fan-out
    ];
    for n in [1usize, 3] {
        let fleet = Fleet::start(&strings, n, None, |_| {});
        let mut client = fleet.client(ClientConfig::default());
        for text in probes {
            let expected = oracle(&strings, text);
            let outcome = client.probe(K, TAU, text).expect("probe");
            assert_exact(outcome, &expected, &format!("n={n} probe={text}"));
        }
        // The coordinator speaks the whole verb set too.
        let (level, _queue, _inflight) = client.health().expect("health");
        assert_eq!(level, 0, "all shards healthy");
        assert_eq!(
            client.shards().expect("shards"),
            vec![ShardState::Healthy; n]
        );
        fleet.stop();
    }
}

/// Spaces are symbols of the names alphabet, so a probe that starts or
/// ends with one must reach the index as sent: through one server and
/// through a coordinator it gets exactly `IndexedCollection::search`'s
/// answer for the untrimmed string.
#[test]
fn probes_with_leading_and_trailing_spaces_are_answered_as_sent() {
    let _guard = lock();
    let alpha = Alphabet::names();
    let strings: Vec<UncertainString> = [
        " ann lee",
        "ann lee ",
        " ann lee ",
        "ann lee",
        "an{(n,0.6),(m,0.4)} lee ",
        " bob ray",
    ]
    .iter()
    .map(|t| UncertainString::parse(t, &alpha).unwrap())
    .collect();
    let config = JoinConfig::new(K, TAU);
    let coll = IndexedCollection::build(config.clone(), alpha.size(), strings.clone());
    let server = serve(coll.clone(), alpha.clone(), ServeConfig::default()).expect("bind server");
    let partition = shard_partition(&strings, 1);
    let shard = serve_shard(
        config.clone(),
        alpha.clone(),
        &strings,
        &partition,
        0,
        ServeConfig::default(),
    )
    .expect("bind shard");
    let specs = ShardSpec::from_partition(&partition, &[shard.addr().to_string()]).expect("specs");
    let coord_cfg = CoordConfig {
        k: K,
        tau: TAU,
        ..CoordConfig::default()
    };
    let coord = coordinate(specs, alpha.clone(), coord_cfg).expect("bind coordinator");
    for text in [" ann lee ", " ann lee", "ann lee ", "  bob ray"] {
        let probe = UncertainString::parse(text, &alpha).unwrap();
        let expected: Vec<(u32, f64)> = coll
            .search(&probe)
            .into_iter()
            .map(|h| (h.id, h.prob))
            .collect();
        assert!(!expected.is_empty(), "probe {text:?} must hit");
        for (via, addr) in [("server", server.addr()), ("coordinator", coord.addr())] {
            let mut client = Client::new(addr.to_string(), ClientConfig::default());
            let outcome = client.probe(K, TAU, text).expect("probe");
            assert_exact(outcome, &expected, &format!("{via} probe={text:?}"));
        }
    }
    coord.shutdown();
    shard.shutdown();
    server.shutdown();
}

#[test]
fn length_filter_prunes_dead_irrelevant_shards_out_of_strict_requests() {
    let _guard = lock();
    let strings = diverse_strings();
    // Bands: shard 0 = lengths 4..=6, shard 1 = 7..=9, shard 2 = 10..=12.
    let fleet = Fleet::start(&strings, 3, None, |cfg| {
        cfg.strict = true;
        cfg.client = ClientConfig {
            max_retries: 1,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        cfg.default_deadline = Some(Duration::from_millis(800));
    });
    let mut client = fleet.client(ClientConfig::default());
    // Kill the long-strings shard outright.
    let mut shards = fleet.shards;
    shards.pop().expect("three shards").shutdown();
    // A short probe's band [3, 5] only touches shard 0: strict mode
    // still answers exactly because the dead shard is never dialed.
    let expected = oracle(&strings, "ACGT");
    assert!(!expected.is_empty(), "oracle sanity");
    let outcome = client.probe(K, TAU, "ACGT").expect("pruned probe");
    assert_exact(outcome, &expected, "short probe, dead long shard");
    // A long probe needs the dead shard: strict mode refuses rather
    // than serving a silent subset.
    match client.probe(K, TAU, "ACGTACGTACGT") {
        Err(usj_serve::ClientError::Server(msg)) => {
            assert!(msg.contains("strict partial-result policy"), "{msg}");
            assert!(
                msg.contains("0/1"),
                "only the dead shard was relevant: {msg}"
            );
        }
        other => panic!("strict fleet must refuse, got {other:?}"),
    }
    fleet.coord.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn a_panic_at_every_coordinator_failpoint_poisons_one_request_not_the_fleet() {
    let _guard = lock();
    let strings = uniform_strings();
    let text = "ACGTAC";
    let expected = oracle(&strings, text);
    // The two pure-coordinator points fire unconditionally per request.
    for point in ["coord.dispatch", "coord.gather"] {
        let fleet = Fleet::start(&strings, 3, None, |_| {});
        let mut client = fleet.client(ClientConfig::default());
        assert_exact(
            client.probe(K, TAU, text).expect("warmup"),
            &expected,
            point,
        );
        let armed = FaultPlan::one_shot_panic(point).arm();
        let reply = raw_roundtrip(&fleet.coord, &format!("PROBE {K} {TAU} {text}"));
        assert!(
            reply.starts_with("ERR internal panic:"),
            "{point}: perimeter must answer the poisoned request: {reply}"
        );
        drop(armed);
        assert_exact(
            client.probe(K, TAU, text).expect("fleet survived"),
            &expected,
            point,
        );
        fleet.stop();
    }
    // shard.accept fires on one shard's admission: its connection dies,
    // the coordinator's per-shard client retries, and the request must
    // still come back bit-identical without any ERR escaping.
    {
        let fleet = Fleet::start(&strings, 3, None, |_| {});
        let mut client = fleet.client(ClientConfig::default());
        let armed = FaultPlan::one_shot_panic("shard.accept").arm();
        assert_exact(
            client.probe(K, TAU, text).expect("retry absorbs the kill"),
            &expected,
            "shard.accept",
        );
        drop(armed);
        assert_exact(
            client.probe(K, TAU, text).expect("fleet survived"),
            &expected,
            "shard.accept aftermath",
        );
        fleet.stop();
    }
    // coord.hedge only fires when a hedge is actually sent: stall every
    // primary so the hedge pass triggers, and panic there.
    {
        let fleet = Fleet::start(&strings, 3, None, |cfg| {
            cfg.hedge_after = Duration::from_millis(10);
        });
        let mut client = fleet.client(ClientConfig::default());
        let mut plan = FaultPlan::new().fail_at("coord.hedge", 0, FaultAction::Panic);
        for nth in 0..3 {
            plan = plan.fail_at(
                "serve.probe",
                nth,
                FaultAction::Delay(Duration::from_millis(120)),
            );
        }
        let armed = plan.arm();
        let reply = raw_roundtrip(&fleet.coord, &format!("PROBE {K} {TAU} {text}"));
        assert!(
            reply.starts_with("ERR internal panic:"),
            "coord.hedge: {reply}"
        );
        drop(armed);
        assert_exact(
            client.probe(K, TAU, text).expect("fleet survived"),
            &expected,
            "coord.hedge aftermath",
        );
        fleet.stop();
    }
}

#[test]
fn hedged_second_requests_win_over_a_stalled_shard() {
    let _guard = lock();
    let strings = uniform_strings();
    let text = "ACGTAC";
    let expected = oracle(&strings, text);
    let fleet = Fleet::start(&strings, 3, None, |cfg| {
        cfg.hedge_after = Duration::from_millis(10);
        cfg.default_deadline = Some(Duration::from_secs(2));
    });
    let mut client = fleet.client(ClientConfig::default());
    // Stall every shard's first probe execution well past the hedge
    // delay; the hedged re-sends are fresh executions and run at full
    // speed, so they answer first.
    let mut plan = FaultPlan::new();
    for nth in 0..3 {
        plan = plan.fail_at(
            "serve.probe",
            nth,
            FaultAction::Delay(Duration::from_millis(200)),
        );
    }
    let armed = plan.arm();
    let outcome = client.probe(K, TAU, text).expect("hedged probe");
    drop(armed);
    assert_exact(outcome, &expected, "hedged answer is still bit-exact");
    let stats = fleet.coord.stats_json();
    assert!(
        stat_u64(&stats, "hedges_sent") >= 1,
        "a stalled shard must be hedged: {stats}"
    );
    assert!(
        stat_u64(&stats, "hedges_won") >= 1,
        "the unstalled twin must win: {stats}"
    );
    fleet.stop();
}

// ---------------------------------------------------------------------
// Kill-a-shard soak: a TCP proxy in front of one shard lets the test
// kill and revive that shard's connectivity without touching the others.
// ---------------------------------------------------------------------

struct Proxy {
    addr: SocketAddr,
    killed: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Proxy {
    fn start(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().unwrap();
        let killed = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let killed2 = Arc::clone(&killed);
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                // ordering: SeqCst — test-only control flags; strongest
                // ordering, no performance concern.
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                // Dead shard: accept and immediately sever, so the
                // coordinator's client sees a clean connection loss.
                // ordering: SeqCst — test-only control flag.
                if killed2.load(Ordering::SeqCst) {
                    drop(conn);
                    continue;
                }
                let Ok(up) = TcpStream::connect(upstream) else {
                    drop(conn);
                    continue;
                };
                let (Ok(conn_r), Ok(up_r)) = (conn.try_clone(), up.try_clone()) else {
                    continue;
                };
                std::thread::spawn(move || pump(conn_r, up));
                std::thread::spawn(move || pump(up_r, conn));
            }
        });
        Proxy {
            addr,
            killed,
            stop,
            thread: Some(thread),
        }
    }

    fn kill(&self) {
        // ordering: SeqCst — test-only control flag.
        self.killed.store(true, Ordering::SeqCst);
    }

    fn revive(&self) {
        // ordering: SeqCst — test-only control flag.
        self.killed.store(false, Ordering::SeqCst);
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        // ordering: SeqCst — test-only control flag.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream) {
    let _ = from.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(std::net::Shutdown::Both);
}

#[test]
fn killing_a_shard_mid_soak_degrades_quarantines_and_readmits() {
    let _guard = lock();
    let strings = uniform_strings();
    let text = "ACGTAC";
    let expected = oracle(&strings, text);
    let expected_ids: Vec<u32> = expected.iter().map(|(id, _)| *id).collect();

    // Shard 1 owns ids {3, 4, 5} of the (length, id)-sorted partition;
    // it is reached through the killable proxy.
    let partition = shard_partition(&strings, 3);
    let victim_ids = partition.shards[1].ids.clone();
    let surviving_expected: Vec<u32> = expected_ids
        .iter()
        .copied()
        .filter(|id| !victim_ids.contains(id))
        .collect();
    assert!(
        !surviving_expected.is_empty() && surviving_expected.len() < expected_ids.len(),
        "soak needs hits on both sides of the kill: {expected_ids:?} vs {victim_ids:?}"
    );

    // Boot the real shard first so the proxy knows its upstream.
    let pre = Fleet::start(&strings, 3, None, |_| {});
    let victim_addr = pre.shards[1].addr();
    let proxy = Proxy::start(victim_addr);
    let coord = {
        let addrs: Vec<String> = pre
            .shards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                if i == 1 {
                    proxy.addr.to_string()
                } else {
                    h.addr().to_string()
                }
            })
            .collect();
        let specs = ShardSpec::from_partition(&partition, &addrs).expect("specs");
        coordinate(
            specs,
            Alphabet::dna(),
            CoordConfig {
                k: K,
                tau: TAU,
                strict: false,
                quarantine_after: 2,
                quarantine_cooldown: Duration::from_millis(250),
                hedge_after: Duration::from_millis(100),
                default_deadline: Some(Duration::from_millis(800)),
                client: ClientConfig {
                    max_retries: 1,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(5),
                    ..ClientConfig::default()
                },
                ..CoordConfig::default()
            },
        )
        .expect("bind coordinator")
    };
    // Retire the unused pre-built coordinator; keep its shards.
    pre.coord.shutdown();
    let shards = pre.shards;
    let mut client = Client::new(coord.addr().to_string(), ClientConfig::default());

    // Healthy fleet: bit-identical, through the proxy and all.
    assert_exact(
        client.probe(K, TAU, text).expect("healthy fleet"),
        &expected,
        "soak warmup",
    );

    // Kill the shard. Every answer until readmission must be a marked
    // superset of what the surviving shards hold — never a clean OK.
    proxy.kill();
    for round in 0..2 {
        match client.probe(K, TAU, text).expect("degraded answer") {
            ProbeOutcome::Degraded { ids, shards } => {
                assert_eq!(
                    shards,
                    Some((2, 3)),
                    "round {round}: partiality must be marked"
                );
                assert_eq!(
                    ids, surviving_expected,
                    "round {round}: exact union of the surviving shards"
                );
            }
            other => panic!("round {round}: dead shard must mark the answer, got {other:?}"),
        }
    }
    // Two consecutive failures tripped the quarantine.
    assert_eq!(
        client.shards().expect("SHARDS"),
        vec![
            ShardState::Healthy,
            ShardState::Quarantined,
            ShardState::Healthy
        ]
    );
    let metrics = coord.metrics_text();
    assert!(
        metrics.contains("usj_shard_up{shard=\"1\"} 0"),
        "quarantined shard exported down: {metrics}"
    );
    assert!(
        metrics.contains("usj_shard_up{shard=\"0\"} 1"),
        "healthy shard exported up: {metrics}"
    );

    // While quarantined the dead shard is not even dialed; answers stay
    // marked and the fleet stays fast.
    match client.probe(K, TAU, text).expect("quarantined answer") {
        ProbeOutcome::Degraded { ids, shards } => {
            assert_eq!(shards, Some((2, 3)));
            assert_eq!(ids, surviving_expected);
        }
        other => panic!("quarantine must keep the marker, got {other:?}"),
    }

    // Revive the shard and wait out the cooldown: the health machine
    // half-opens, a trial probe succeeds, and the shard is readmitted.
    proxy.revive();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        client.shards().expect("SHARDS"),
        vec![
            ShardState::Healthy,
            ShardState::HalfOpen,
            ShardState::Healthy
        ]
    );
    assert_exact(
        client.probe(K, TAU, text).expect("half-open trial"),
        &expected,
        "readmitted fleet is bit-identical again",
    );
    assert_eq!(
        client.shards().expect("SHARDS"),
        vec![ShardState::Healthy; 3]
    );

    let stats = coord.stats_json();
    assert!(stat_u64(&stats, "shards_quarantined") >= 1, "{stats}");
    assert!(stat_u64(&stats, "partial_responses") >= 3, "{stats}");
    coord.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

// ---------------------------------------------------------------------
// A shard that accepts connections and never replies: the coordinator's
// dispatch stalls until the request's budget runs out.
// ---------------------------------------------------------------------

struct SilentShard {
    addr: SocketAddr,
    /// One message per connection the shard accepted (and holds open).
    accepted: mpsc::Receiver<()>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SilentShard {
    fn start() -> SilentShard {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent shard");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, accepted) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                // ordering: SeqCst — test-only control flag.
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(conn) = conn {
                    held.push(conn);
                    let _ = tx.send(());
                }
            }
        });
        SilentShard {
            addr,
            accepted,
            stop,
            thread: Some(thread),
        }
    }

    /// A one-shard fleet whose band holds every probe this suite sends.
    fn specs(&self) -> Vec<ShardSpec> {
        vec![ShardSpec {
            addr: self.addr.to_string(),
            band: Some((1, 64)),
        }]
    }
}

impl Drop for SilentShard {
    fn drop(&mut self) {
        // ordering: SeqCst — test-only control flag.
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[test]
fn a_strict_probe_whose_own_budget_runs_out_answers_deadline() {
    let _guard = lock();
    let shard = SilentShard::start();
    // The default budget is far longer than the probe's own: the probe's
    // `deadline_ms` is the one that runs out.
    let coord = coordinate(
        shard.specs(),
        Alphabet::dna(),
        CoordConfig {
            k: K,
            tau: TAU,
            strict: true,
            default_deadline: Some(Duration::from_secs(3)),
            ..CoordConfig::default()
        },
    )
    .expect("bind coordinator");
    let reply = raw_roundtrip(&coord, &format!("PROBE {K} {TAU} deadline_ms=200 ACGT"));
    assert!(reply.starts_with("DEADLINE elapsed_ms="), "{reply}");
    let stats = coord.stats_json();
    assert_eq!(stat_u64(&stats, "serve_deadline"), 1, "{stats}");
    coord.shutdown();
}

#[test]
fn a_coordinator_with_a_full_queue_sheds_with_busy() {
    let _guard = lock();
    let shard = SilentShard::start();
    let coord = coordinate(
        shard.specs(),
        Alphabet::dna(),
        CoordConfig {
            k: K,
            tau: TAU,
            workers: 1,
            queue_cap: 1,
            default_deadline: Some(Duration::from_secs(2)),
            ..CoordConfig::default()
        },
    )
    .expect("bind coordinator");
    // The one worker takes the first connection and stalls in the
    // gather: the silent shard has accepted its dispatch.
    let mut stalled = TcpStream::connect(coord.addr()).expect("connect");
    stalled
        .write_all(format!("PROBE {K} {TAU} ACGT\n").as_bytes())
        .unwrap();
    shard
        .accepted
        .recv_timeout(Duration::from_secs(10))
        .expect("the probe reached the shard");
    // The second connection fills the queue; the third is shed.
    let queued = TcpStream::connect(coord.addr()).expect("connect");
    let shed = TcpStream::connect(coord.addr()).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = String::new();
    BufReader::new(&shed).read_line(&mut reply).expect("read");
    assert!(reply.starts_with("BUSY retry_after_ms="), "{reply}");
    let stats = coord.stats_json();
    assert_eq!(stat_u64(&stats, "serve_shed"), 1, "{stats}");
    assert_eq!(stat_u64(&stats, "serve_accepted"), 2, "{stats}");
    drop((queued, shed));
    // The drain answers the stalled probe once its budget runs out.
    coord.shutdown();
    drop(stalled);
}

#[test]
fn attempts_stalled_on_a_silent_shard_do_not_delay_a_healthy_shards_answer() {
    let _guard = lock();
    let strings = uniform_strings();
    let partition = shard_partition(&strings, 1);
    let healthy = serve_shard(
        JoinConfig::new(K, TAU),
        Alphabet::dna(),
        &strings,
        &partition,
        0,
        ServeConfig::default(),
    )
    .expect("bind shard");
    let silent = SilentShard::start();
    let mut specs =
        ShardSpec::from_partition(&partition, &[healthy.addr().to_string()]).expect("specs");
    specs.extend(silent.specs());
    const PROBES: usize = 4;
    let coord = coordinate(
        specs,
        Alphabet::dna(),
        CoordConfig {
            k: K,
            tau: TAU,
            workers: PROBES,
            // The hedge delay outlasts every probe's budget: whatever
            // answers, answers before any hedge.
            hedge_after: Duration::from_secs(30),
            quarantine_after: 100,
            ..CoordConfig::default()
        },
    )
    .expect("bind coordinator");
    let probe = "ACGTAC";
    let expected: Vec<u32> = oracle(&strings, probe).iter().map(|&(id, _)| id).collect();
    assert!(!expected.is_empty(), "oracle sanity");
    // Concurrent probes each leave one attempt stalled on the silent
    // shard until the probe's budget runs out. Each probe's attempt at
    // the healthy shard must still run, on a thread of its own, and
    // answer inside that budget.
    let addr = coord.addr().to_string();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PROBES)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::new(
                        addr,
                        ClientConfig {
                            max_retries: 0,
                            deadline: Some(Duration::from_millis(1500)),
                            ..ClientConfig::default()
                        },
                    );
                    client.probe(K, TAU, probe)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for outcome in outcomes {
        match outcome {
            Ok(ProbeOutcome::Degraded { ids, shards }) => {
                // Under load the shard may itself answer a degraded
                // superset; either way every exact hit is there.
                assert!(
                    expected.iter().all(|id| ids.contains(id)),
                    "the healthy shard's hits {expected:?} in {ids:?}"
                );
                assert_eq!(shards, Some((1, 2)), "only the healthy shard answered");
            }
            other => panic!("expected the healthy shard's marked answer, got {other:?}"),
        }
    }
    let mut held = 0;
    while silent.accepted.try_recv().is_ok() {
        held += 1;
    }
    assert!(
        held >= PROBES,
        "every probe stalled an attempt on the silent shard: {held}"
    );
    let stats = coord.stats_json();
    assert_eq!(stat_u64(&stats, "hedges_sent"), 0, "{stats}");
    coord.shutdown();
    healthy.shutdown();
}
