//! Line protocol for the query service.
//!
//! Requests and responses are single UTF-8 lines, so the protocol can be
//! driven by `nc` and inspected in logs. Hit probabilities travel as
//! 16-digit hex `f64` bit patterns — the same convention as the
//! checkpoint format — so a served result is bit-identical to a local
//! [`usj_core::IndexedCollection::search`], never a decimal
//! approximation.
//!
//! ```text
//! -> PROBE <k> <tau> [deadline_ms=<n>] [trace_id=<16-hex>] <uncertain-string>
//! <- TRACE <16-hex> <chrome-trace-json>   only for traced probes, before the answer
//! <- OK <n> <id>:<prob-bits> ...          exact answer
//! <- DEGRADED [shards=<ok>/<total>] <n> <id> ...   superset answer
//! <- BUSY retry_after_ms=<n>              shed; retry after the hint
//! <- DEADLINE elapsed_ms=<n>              per-request deadline expired
//! -> HEALTH                               -> HEALTH level=.. queue=.. inflight=..
//! -> STATS                                -> STATS <one-line obs JSON>
//! -> METRICS                              -> METRICS <escaped Prometheus text>
//! -> SHARDS                               -> SHARDS <n> <idx>:<state> ...
//! -> SHUTDOWN                             -> BYE (starts graceful drain)
//! <- ERR <message>                        any malformed/failed request
//! ```
//!
//! `DEGRADED` is one verb with two provenances sharing the superset
//! contract: a single server under load answers filter-only candidates
//! (no `shards=` marker), while a coordinator that lost shards marks how
//! much of the fleet answered (`shards=<ok>/<total>`) — the ids are then
//! the union of what the surviving shards returned. `SHARDS` is answered
//! by the coordinator with each shard's health-machine state
//! (`healthy` / `quarantined` / `half_open`); a plain single-node server
//! answers `SHARDS 0` (it fronts no fleet).
//!
//! The uncertain-string operand is the *remainder* of the line (it may
//! contain spaces: `jo{(h,0.7),(n,0.3)}n doe`), so options precede it.
//!
//! A probe carrying a nonzero `trace_id` (client-minted, 16 hex digits)
//! is answered with an extra `TRACE` line *before* its result line: the
//! echoed trace id plus the server-side Chrome trace-event JSON for that
//! request (already single-line). The Prometheus exposition in `METRICS`
//! is multi-line text; on the wire each backslash becomes `\\` and each
//! newline `\n`, and [`Response::parse`] undoes the escaping.

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A (k, τ)-similarity probe against the served collection.
    Probe {
        /// Edit-distance threshold; must match the serving index.
        k: usize,
        /// Probability threshold; must match the serving index.
        tau: f64,
        /// Per-request deadline in milliseconds, if the client set one.
        deadline_ms: Option<u64>,
        /// Client-minted trace id (nonzero) requesting a `TRACE` line.
        trace_id: Option<u64>,
        /// Uncertain-string text (unparsed; the worker owns the alphabet).
        text: String,
    },
    /// Liveness + degradation-level probe.
    Health,
    /// Full observability snapshot as one-line JSON.
    Stats,
    /// Prometheus text exposition of the live metrics registry.
    Metrics,
    /// Per-shard health states (coordinator topology introspection).
    Shards,
    /// Begin graceful drain: stop accepting, finish in-flight, flush.
    Shutdown,
}

/// One shard's position in the coordinator's health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving traffic normally.
    Healthy,
    /// Benched after consecutive failures; not probed until the
    /// cooldown elapses.
    Quarantined,
    /// Cooldown elapsed: the next relevant probe is a recovery trial.
    HalfOpen,
}

impl ShardState {
    /// Wire token for the state.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Quarantined => "quarantined",
            ShardState::HalfOpen => "half_open",
        }
    }

    /// Parses a wire token.
    pub fn parse(tok: &str) -> Result<ShardState, String> {
        match tok {
            "healthy" => Ok(ShardState::Healthy),
            "quarantined" => Ok(ShardState::Quarantined),
            "half_open" => Ok(ShardState::HalfOpen),
            other => Err(format!("unknown shard state {other:?}")),
        }
    }
}

/// Splits the first whitespace-delimited token off `s` after skipping
/// leading whitespace, returning `(token, rest)`: `rest` starts right
/// after the one separator character that ended the token.
fn split_token(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.char_indices().find(|&(_, c)| c.is_whitespace()) {
        Some((at, sep)) => (&s[..at], &s[at + sep.len_utf8()..]),
        None => (s, ""),
    }
}

/// Parses one request line. Errors are protocol-level messages sent back
/// verbatim in an `ERR` response.
///
/// Only the line terminator is stripped: a `PROBE` operand is everything
/// after the single separator that follows the last option, so a probe
/// string may begin or end with spaces (legal symbols in some alphabets).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let line = line.strip_suffix('\r').unwrap_or(line);
    let (verb, rest) = split_token(line);
    match verb {
        "PROBE" => {
            let (k_tok, rest) = split_token(rest);
            let k: usize = k_tok
                .parse()
                .map_err(|_| format!("bad k {k_tok:?} (expected a non-negative integer)"))?;
            let (tau_tok, rest) = split_token(rest);
            let tau: f64 = tau_tok
                .parse()
                .map_err(|_| format!("bad tau {tau_tok:?} (expected a number in [0, 1))"))?;
            if !(0.0..1.0).contains(&tau) {
                return Err(format!("tau {tau} out of range [0, 1)"));
            }
            let mut deadline_ms = None;
            let mut trace_id = None;
            let mut rest = rest;
            loop {
                let (tok, tail) = split_token(rest);
                if let Some(value) = tok.strip_prefix("deadline_ms=") {
                    deadline_ms = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad deadline_ms {value:?}"))?,
                    );
                } else if let Some(value) = tok.strip_prefix("trace_id=") {
                    let id = u64::from_str_radix(value, 16)
                        .map_err(|_| format!("bad trace_id {value:?} (expected hex)"))?;
                    if id == 0 {
                        return Err("trace_id must be nonzero".to_string());
                    }
                    trace_id = Some(id);
                } else {
                    break;
                }
                rest = tail;
            }
            if rest.is_empty() {
                return Err("PROBE needs an uncertain-string operand".to_string());
            }
            Ok(Request::Probe {
                k,
                tau,
                deadline_ms,
                trace_id,
                text: rest.to_string(),
            })
        }
        "HEALTH" => Ok(Request::Health),
        "STATS" => Ok(Request::Stats),
        "METRICS" => Ok(Request::Metrics),
        "SHARDS" => Ok(Request::Shards),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "" => Err("empty request".to_string()),
        other => Err(format!(
            "unknown verb {other:?} (expected PROBE/HEALTH/STATS/METRICS/SHARDS/SHUTDOWN)"
        )),
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Exact answer: `(id, Pr(ed ≤ k))` per hit, ascending by id.
    Ok(Vec<(u32, f64)>),
    /// Degraded answer: candidate ids forming a sound superset of the
    /// exact hit ids, ascending.
    Degraded {
        /// The superset candidate ids.
        ids: Vec<u32>,
        /// `Some((answered, total))` when a coordinator served from a
        /// subset of its fleet; `None` for a single server's filter-only
        /// degradation.
        shards: Option<(u32, u32)>,
    },
    /// Shed: retry after the hinted backoff.
    Busy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The per-request deadline expired mid-probe; no partial results.
    Deadline {
        /// Time spent before the probe was abandoned.
        elapsed_ms: u64,
    },
    /// Liveness report.
    Health {
        /// A server's degradation-ladder level (0 full, 1 degraded); a
        /// coordinator's fleet coverage (0 all shards, 1 some, 2 none).
        level: u8,
        /// Current admission-queue depth.
        queue: usize,
        /// Requests currently being processed by workers.
        inflight: usize,
        /// Whether this server started warm (from an on-disk snapshot);
        /// `None` from peers that predate the field (its wire token is
        /// simply absent, which old parsers already skip).
        warm: Option<bool>,
        /// Age in seconds of the snapshot a warm server started from.
        snapshot_age_s: Option<u64>,
    },
    /// One-line observability snapshot JSON.
    Stats(String),
    /// Prometheus text exposition (multi-line; escaped on the wire).
    Metrics(String),
    /// Per-shard health states, in shard-index order.
    Shards(Vec<ShardState>),
    /// Chrome trace-event JSON for one traced probe, echoing the
    /// client-minted trace id; sent before the probe's result line.
    Trace {
        /// The trace id the client attached to the probe.
        trace_id: u64,
        /// Single-line Chrome trace-event JSON (`{"traceEvents":[...]}`).
        json: String,
    },
    /// Graceful-drain acknowledgement.
    Bye,
    /// Request-level failure (parse error, isolated panic, bad probe).
    Err(String),
}

/// Escapes multi-line payloads onto one protocol line: `\` → `\\`,
/// newline → `\n`.
fn escape_line(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_line`]. A trailing lone backslash is an error.
fn unescape_line(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

impl Response {
    /// Encodes the response as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Ok(hits) => {
                let mut out = format!("OK {}", hits.len());
                for (id, prob) in hits {
                    out.push_str(&format!(" {id}:{:016x}", prob.to_bits()));
                }
                out
            }
            Response::Degraded { ids, shards } => {
                let mut out = String::from("DEGRADED");
                if let Some((ok, total)) = shards {
                    out.push_str(&format!(" shards={ok}/{total}"));
                }
                out.push_str(&format!(" {}", ids.len()));
                for id in ids {
                    out.push_str(&format!(" {id}"));
                }
                out
            }
            Response::Busy { retry_after_ms } => format!("BUSY retry_after_ms={retry_after_ms}"),
            Response::Deadline { elapsed_ms } => format!("DEADLINE elapsed_ms={elapsed_ms}"),
            Response::Health {
                level,
                queue,
                inflight,
                warm,
                snapshot_age_s,
            } => {
                let mut out = format!("HEALTH level={level} queue={queue} inflight={inflight}");
                if let Some(warm) = warm {
                    out.push_str(&format!(" warm={warm}"));
                }
                if let Some(age) = snapshot_age_s {
                    out.push_str(&format!(" snapshot_age_s={age}"));
                }
                out
            }
            Response::Stats(json) => format!("STATS {json}"),
            Response::Metrics(text) => format!("METRICS {}", escape_line(text)),
            Response::Shards(states) => {
                let mut out = format!("SHARDS {}", states.len());
                for (idx, state) in states.iter().enumerate() {
                    out.push_str(&format!(" {idx}:{}", state.as_str()));
                }
                out
            }
            Response::Trace { trace_id, json } => {
                format!("TRACE {trace_id:016x} {}", json.replace('\n', " "))
            }
            Response::Bye => "BYE".to_string(),
            Response::Err(msg) => format!("ERR {}", msg.replace('\n', " ")),
        }
    }

    /// Parses one response line (the client half of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let line = line.trim();
        let (verb, rest) = split_token(line);
        let count = |rest: &str| -> Result<(usize, String), String> {
            let (n_tok, tail) = split_token(rest);
            let n = n_tok
                .parse::<usize>()
                .map_err(|_| format!("bad count {n_tok:?}"))?;
            Ok((n, tail.to_string()))
        };
        match verb {
            "OK" => {
                let (n, tail) = count(rest)?;
                let mut hits = Vec::with_capacity(n);
                for tok in tail.split_whitespace() {
                    let (id, bits) = tok
                        .split_once(':')
                        .ok_or_else(|| format!("bad hit {tok:?}"))?;
                    let id: u32 = id.parse().map_err(|_| format!("bad hit id {id:?}"))?;
                    let bits = u64::from_str_radix(bits, 16)
                        .map_err(|_| format!("bad probability bits {bits:?}"))?;
                    hits.push((id, f64::from_bits(bits)));
                }
                if hits.len() != n {
                    return Err(format!("OK count {n} but {} hits", hits.len()));
                }
                Ok(Response::Ok(hits))
            }
            "DEGRADED" => {
                let (first, after) = split_token(rest);
                let (shards, rest) = match first.strip_prefix("shards=") {
                    Some(frac) => {
                        let (ok, total) = frac
                            .split_once('/')
                            .ok_or_else(|| format!("bad shards marker {first:?}"))?;
                        let ok: u32 = ok
                            .parse()
                            .map_err(|_| format!("bad shards marker {first:?}"))?;
                        let total: u32 = total
                            .parse()
                            .map_err(|_| format!("bad shards marker {first:?}"))?;
                        if ok > total || total == 0 {
                            return Err(format!("bad shards marker {first:?}"));
                        }
                        (Some((ok, total)), after)
                    }
                    None => (None, rest),
                };
                let (n, tail) = count(rest)?;
                let ids: Vec<u32> = tail
                    .split_whitespace()
                    .map(|tok| tok.parse().map_err(|_| format!("bad candidate id {tok:?}")))
                    .collect::<Result<_, _>>()?;
                if ids.len() != n {
                    return Err(format!("DEGRADED count {n} but {} ids", ids.len()));
                }
                Ok(Response::Degraded { ids, shards })
            }
            "BUSY" => {
                let ms = rest
                    .strip_prefix("retry_after_ms=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad BUSY line {line:?}"))?;
                Ok(Response::Busy { retry_after_ms: ms })
            }
            "DEADLINE" => {
                let ms = rest
                    .strip_prefix("elapsed_ms=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad DEADLINE line {line:?}"))?;
                Ok(Response::Deadline { elapsed_ms: ms })
            }
            "HEALTH" => {
                let mut level = None;
                let mut queue = None;
                let mut inflight = None;
                let mut warm = None;
                let mut snapshot_age_s = None;
                for tok in rest.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("level=") {
                        level = v.parse().ok();
                    } else if let Some(v) = tok.strip_prefix("queue=") {
                        queue = v.parse().ok();
                    } else if let Some(v) = tok.strip_prefix("inflight=") {
                        inflight = v.parse().ok();
                    } else if let Some(v) = tok.strip_prefix("warm=") {
                        warm = v.parse().ok();
                    } else if let Some(v) = tok.strip_prefix("snapshot_age_s=") {
                        snapshot_age_s = v.parse().ok();
                    }
                }
                match (level, queue, inflight) {
                    (Some(level), Some(queue), Some(inflight)) => Ok(Response::Health {
                        level,
                        queue,
                        inflight,
                        warm,
                        snapshot_age_s,
                    }),
                    _ => Err(format!("bad HEALTH line {line:?}")),
                }
            }
            "STATS" => Ok(Response::Stats(rest.to_string())),
            "METRICS" => Ok(Response::Metrics(unescape_line(rest)?)),
            "SHARDS" => {
                let (n, tail) = count(rest)?;
                let mut states = Vec::with_capacity(n);
                for tok in tail.split_whitespace() {
                    let (idx, state) = tok
                        .split_once(':')
                        .ok_or_else(|| format!("bad shard entry {tok:?}"))?;
                    let idx: usize = idx
                        .parse()
                        .map_err(|_| format!("bad shard index {idx:?}"))?;
                    if idx != states.len() {
                        return Err(format!("shard entries out of order at {tok:?}"));
                    }
                    states.push(ShardState::parse(state)?);
                }
                if states.len() != n {
                    return Err(format!("SHARDS count {n} but {} entries", states.len()));
                }
                Ok(Response::Shards(states))
            }
            "TRACE" => {
                let (id_tok, json) = split_token(rest);
                let trace_id = u64::from_str_radix(id_tok, 16)
                    .map_err(|_| format!("bad trace id {id_tok:?}"))?;
                Ok(Response::Trace {
                    trace_id,
                    json: json.to_string(),
                })
            }
            "BYE" => Ok(Response::Bye),
            "ERR" => Ok(Response::Err(rest.to_string())),
            other => Err(format!("unknown response verb {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_requests_parse_with_options_and_spaces() {
        assert_eq!(
            parse_request("PROBE 2 0.3 ACGT").unwrap(),
            Request::Probe {
                k: 2,
                tau: 0.3,
                deadline_ms: None,
                trace_id: None,
                text: "ACGT".to_string(),
            }
        );
        assert_eq!(
            parse_request("PROBE 1 0.5 deadline_ms=250 jo{(h,0.7),(n,0.3)}n doe").unwrap(),
            Request::Probe {
                k: 1,
                tau: 0.5,
                deadline_ms: Some(250),
                trace_id: None,
                text: "jo{(h,0.7),(n,0.3)}n doe".to_string(),
            }
        );
        // Options compose in either order; trace ids are 16-hex.
        assert_eq!(
            parse_request("PROBE 1 0.5 trace_id=00ab0cd0ef012345 deadline_ms=9 ACGT").unwrap(),
            Request::Probe {
                k: 1,
                tau: 0.5,
                deadline_ms: Some(9),
                trace_id: Some(0x00ab_0cd0_ef01_2345),
                text: "ACGT".to_string(),
            }
        );
    }

    #[test]
    fn probe_operand_keeps_its_own_spaces() {
        let text = |line: &str| match parse_request(line).unwrap() {
            Request::Probe { text, .. } => text,
            other => panic!("{line:?} parsed as {other:?}"),
        };
        // Everything after the single separator is the operand; only the
        // line terminator is stripped.
        assert_eq!(text("PROBE 2 0.1  ann lee \n"), " ann lee ");
        assert_eq!(text("PROBE 2 0.1 deadline_ms=9  ann lee \r\n"), " ann lee ");
        assert_eq!(text("PROBE 2 0.1 ann lee  "), "ann lee  ");
        assert_eq!(text("  PROBE 2 0.1 ann"), "ann");
    }

    #[test]
    fn metrics_request_parses() {
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("  METRICS  ").unwrap(), Request::Metrics);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, fragment) in [
            ("PROBE x 0.3 ACGT", "bad k"),
            ("PROBE 1 nope ACGT", "bad tau"),
            ("PROBE 1 1.5 ACGT", "out of range"),
            ("PROBE 1 0.3 deadline_ms=abc ACGT", "bad deadline_ms"),
            ("PROBE 1 0.3 trace_id=zzzz ACGT", "bad trace_id"),
            ("PROBE 1 0.3 trace_id=0 ACGT", "trace_id must be nonzero"),
            ("PROBE 1 0.3", "needs an uncertain-string"),
            ("PROBE 1 0.3 deadline_ms=5", "needs an uncertain-string"),
            ("PROBE 1 0.3 trace_id=1f", "needs an uncertain-string"),
            ("FROBNICATE", "unknown verb"),
            ("", "empty request"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(fragment), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        let cases = [
            Response::Ok(vec![(3, 0.75), (9, 0.5000000001)]),
            Response::Ok(Vec::new()),
            Response::Degraded {
                ids: vec![1, 2, 8],
                shards: None,
            },
            Response::Degraded {
                ids: vec![0, 7],
                shards: Some((2, 3)),
            },
            Response::Degraded {
                ids: Vec::new(),
                shards: Some((1, 1)),
            },
            Response::Shards(vec![
                ShardState::Healthy,
                ShardState::Quarantined,
                ShardState::HalfOpen,
            ]),
            Response::Shards(Vec::new()),
            Response::Busy { retry_after_ms: 40 },
            Response::Deadline { elapsed_ms: 17 },
            Response::Health {
                level: 1,
                queue: 4,
                inflight: 2,
                warm: None,
                snapshot_age_s: None,
            },
            Response::Health {
                level: 0,
                queue: 0,
                inflight: 1,
                warm: Some(true),
                snapshot_age_s: Some(77),
            },
            Response::Health {
                level: 0,
                queue: 0,
                inflight: 0,
                warm: Some(false),
                snapshot_age_s: None,
            },
            Response::Stats("{\"probes\":3}".to_string()),
            Response::Metrics("# TYPE usj_probes_total counter\nusj_probes_total 3\n".to_string()),
            Response::Metrics("label=\"a\\b\"\n".to_string()),
            Response::Trace {
                trace_id: 0x00ab_cdef_0123_4567,
                json: "{\"traceEvents\":[]}".to_string(),
            },
            Response::Bye,
            Response::Err("bad probe".to_string()),
        ];
        for resp in cases {
            let line = resp.encode();
            assert!(!line.contains('\n'));
            let parsed = Response::parse(&line).unwrap();
            if let (Response::Ok(a), Response::Ok(b)) = (&resp, &parsed) {
                for ((ia, pa), (ib, pb)) in a.iter().zip(b) {
                    assert_eq!(ia, ib);
                    assert_eq!(pa.to_bits(), pb.to_bits(), "bit-exact probabilities");
                }
            }
            assert_eq!(parsed, resp, "{line:?}");
        }
    }

    #[test]
    fn count_mismatch_is_a_protocol_error() {
        assert!(Response::parse("OK 2 1:3fe8000000000000").is_err());
        assert!(Response::parse("DEGRADED 1").is_err());
        assert!(Response::parse("DEGRADED shards=1/3 2 5").is_err());
        assert!(Response::parse("SHARDS 2 0:healthy").is_err());
    }

    #[test]
    fn shards_request_parses() {
        assert_eq!(parse_request("SHARDS").unwrap(), Request::Shards);
        assert_eq!(parse_request("  SHARDS ").unwrap(), Request::Shards);
    }

    #[test]
    fn degraded_shard_markers_are_validated() {
        // Wire form places the marker between verb and count.
        assert_eq!(
            Response::Degraded {
                ids: vec![4],
                shards: Some((1, 2)),
            }
            .encode(),
            "DEGRADED shards=1/2 1 4"
        );
        for bad in [
            "DEGRADED shards=3 1 4",   // no slash
            "DEGRADED shards=a/b 1 4", // not numeric
            "DEGRADED shards=3/2 1 4", // answered > total
            "DEGRADED shards=0/0 1 4", // empty fleet cannot answer
        ] {
            let err = Response::parse(bad).unwrap_err();
            assert!(err.contains("bad shards marker"), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn shard_state_lines_are_validated() {
        assert_eq!(
            Response::parse("SHARDS 2 0:healthy 1:half_open").unwrap(),
            Response::Shards(vec![ShardState::Healthy, ShardState::HalfOpen])
        );
        assert!(Response::parse("SHARDS 1 0:sleepy").is_err());
        assert!(Response::parse("SHARDS 1 zero:healthy").is_err());
        assert!(Response::parse("SHARDS 2 1:healthy 0:healthy").is_err());
    }

    #[test]
    fn metrics_escaping_is_lossless_and_single_line() {
        let text = "a\nb\\c\nd\\\\e\n";
        let line = Response::Metrics(text.to_string()).encode();
        assert!(!line.contains('\n'));
        assert_eq!(
            Response::parse(&line).unwrap(),
            Response::Metrics(text.to_string())
        );
        // A dangling escape is a protocol error, not silent truncation.
        assert!(Response::parse("METRICS trailing\\").is_err());
        assert!(Response::parse("TRACE nothex {}").is_err());
    }
}
