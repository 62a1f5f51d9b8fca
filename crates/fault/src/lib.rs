//! `usj-fault` — deterministic failpoint injection for the join pipeline.
//!
//! Production-scale joins die in ways unit tests never exercise: a worker
//! panic mid-wave, a slow verifier stalling a batch, an output writer
//! failing between temp-write and rename. This crate makes those failures
//! **reproducible**: code marks named failpoints with [`fail_point!`], and
//! a test (or the `USJ_FAULT_PLAN` environment variable) arms a
//! [`FaultPlan`] that says exactly *which firing* of *which failpoint*
//! panics, delays, or errors. Nothing is random at injection time — a
//! seeded plan ([`FaultPlan::seeded`]) derives its choices from the seed,
//! so every fault run can be replayed bit-for-bit.
//!
//! Disarmed cost is one relaxed atomic load per failpoint crossing, so
//! failpoints stay compiled into release builds (the fault-tolerance
//! machinery they exercise ships too) without measurable overhead.
//!
//! Injected panics carry an [`InjectedFault`] payload, so `catch_unwind`
//! sites can tell a scripted fault from an organic bug. The [`shield`]
//! module suppresses the default panic-hook backtrace for panics that a
//! driver intends to catch — a recovered fault must not spray stderr.
//!
//! This crate is **std-only by design**, like `usj-obs` and `usj-tidy`:
//! it must build where crates.io is unreachable.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

pub mod shield;

/// What an armed failpoint does when its scheduled firing is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an [`InjectedFault`] payload (`panic_any`, so no format
    /// machinery runs and catch sites can downcast the payload).
    Panic,
    /// Sleep for the given duration, then continue normally — models a
    /// pathologically slow probe/verifier without changing its result.
    Delay(Duration),
    /// Surface an error message to the failpoint's handler (the
    /// two-argument [`fail_point!`] form). At a failpoint with no handler
    /// an `Error` action escalates to a panic — errors must never be
    /// silently swallowed.
    Error(String),
}

/// One scheduled injection: the `nth` time (0-based, counted per point
/// since arming) the named failpoint fires, perform `action`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    point: String,
    nth: u64,
    action: FaultAction,
}

/// A deterministic injection plan: a set of `(point, nth, action)`
/// triples. Arm it with [`FaultPlan::arm`]; while armed, every crossing
/// of a failpoint consults the plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// An empty plan (arms to a no-op; useful as a builder seed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `action` for the `nth` firing (0-based) of `point`.
    pub fn fail_at(mut self, point: &str, nth: u64, action: FaultAction) -> Self {
        self.entries.push(Entry {
            point: point.to_string(),
            nth,
            action,
        });
        self
    }

    /// Convenience: panic the first firing of `point`.
    pub fn one_shot_panic(point: &str) -> Self {
        FaultPlan::new().fail_at(point, 0, FaultAction::Panic)
    }

    /// Derives a plan from a seed: picks one of `points`, a firing index
    /// below `max_nth`, and one of the three actions — all from an
    /// xorshift stream, so equal seeds give equal plans and a failing
    /// fault run can be reported and replayed by its seed alone.
    pub fn seeded(seed: u64, points: &[&str], max_nth: u64) -> Self {
        // xorshift64: deterministic, dependency-free; seed 0 would be a
        // fixed point, so displace it.
        let mut x = seed.wrapping_mul(2685821657736338717).max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        if points.is_empty() {
            return FaultPlan::new();
        }
        let point = points[(next() % points.len() as u64) as usize];
        let nth = next() % max_nth.max(1);
        let action = match next() % 3 {
            0 => FaultAction::Panic,
            1 => FaultAction::Delay(Duration::from_millis(1 + next() % 10)),
            _ => FaultAction::Error(format!("injected error (seed {seed})")),
        };
        FaultPlan::new().fail_at(point, nth, action)
    }

    /// Parses the `USJ_FAULT_PLAN` textual form: `;`-separated
    /// `point#nth=action` clauses where `action` is `panic`, `delay:<ms>`,
    /// or `error:<message>`. Example:
    /// `parallel.batch#2=panic;cli.write#0=error:disk full`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (point_nth, action) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?}: expected `point#nth=action`"))?;
            let (point, nth) = point_nth
                .split_once('#')
                .ok_or_else(|| format!("clause {clause:?}: expected `point#nth` before `=`"))?;
            let nth: u64 = nth
                .parse()
                .map_err(|_| format!("clause {clause:?}: firing index {nth:?} is not a number"))?;
            let action = if action == "panic" {
                FaultAction::Panic
            } else if let Some(ms) = action.strip_prefix("delay:") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("clause {clause:?}: delay {ms:?} is not milliseconds"))?;
                FaultAction::Delay(Duration::from_millis(ms))
            } else if let Some(msg) = action.strip_prefix("error:") {
                FaultAction::Error(msg.to_string())
            } else {
                return Err(format!(
                    "clause {clause:?}: unknown action {action:?} (panic | delay:<ms> | error:<msg>)"
                ));
            };
            plan = plan.fail_at(point, nth, action);
        }
        Ok(plan)
    }

    /// Arms the plan process-wide. The returned guard keeps it armed;
    /// dropping the guard disarms. Arming serialises on a global lock so
    /// concurrent tests cannot interleave plans — do **not** arm twice on
    /// one thread (self-deadlock), hold one guard at a time.
    pub fn arm(self) -> ArmedPlan {
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = Some(PlanState {
            entries: self.entries,
            hits: HashMap::new(),
        });
        // ordering: Relaxed suffices — the ACTIVE mutex above is the real
        // synchronisation for the plan contents; this flag is only a fast
        // "probably disarmed" screen, and a stale `false` merely skips an
        // injection on a thread spawned before arming (tests arm first).
        ARMED.store(true, Ordering::Relaxed);
        ArmedPlan { _serial: serial }
    }
}

/// Guard for an armed [`FaultPlan`]; dropping it disarms all failpoints.
#[must_use = "dropping the guard disarms the plan immediately"]
pub struct ArmedPlan {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        // ordering: Relaxed for the same reason as in `arm` — the ACTIVE
        // mutex carries the data, the flag is only a screen.
        ARMED.store(false, Ordering::Relaxed);
        *ACTIVE.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Arms a plan from the `USJ_FAULT_PLAN` environment variable, if set.
/// `Ok(None)` when the variable is absent or empty; `Err` when it is
/// present but malformed (the caller should refuse to run — a mistyped
/// plan silently doing nothing would invalidate the fault test).
pub fn arm_from_env() -> Result<Option<ArmedPlan>, String> {
    match std::env::var("USJ_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => Ok(Some(FaultPlan::parse(&spec)?.arm())),
        _ => Ok(None),
    }
}

/// Panic payload of an injected [`FaultAction::Panic`]: catch sites
/// downcast to this type to distinguish scripted faults from organic
/// bugs (e.g. to count `faults_injected` precisely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint that fired.
    pub point: String,
    /// Which firing of the point this was (0-based since arming).
    pub hit: u64,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}#{}", self.point, self.hit)
    }
}

/// Best-effort extraction of a panic payload's human-readable message:
/// an [`InjectedFault`] reads as its `Display` form, a `&str` or
/// `String` payload as itself, anything else as a fixed placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        fault.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

struct PlanState {
    entries: Vec<Entry>,
    hits: HashMap<String, u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ACTIVE: Mutex<Option<PlanState>> = Mutex::new(None);
static SERIAL: Mutex<()> = Mutex::new(());

/// Consults the armed plan for `point`'s next firing. Returns the action
/// scheduled for this hit (with the hit index), counting the hit either
/// way. The ACTIVE guard is released before returning, so panicking or
/// sleeping on an action never holds the plan lock.
fn consult(point: &str) -> Option<(FaultAction, u64)> {
    // ordering: Relaxed — fast screen only; the mutex below synchronises.
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut guard = ACTIVE.lock().unwrap_or_else(PoisonError::into_inner);
    let state = guard.as_mut()?;
    let hit = {
        let h = state.hits.entry(point.to_string()).or_insert(0);
        let hit = *h;
        *h += 1;
        hit
    };
    state
        .entries
        .iter()
        .find(|e| e.point == point && e.nth == hit)
        .map(|e| (e.action.clone(), hit))
}

/// The plain failpoint hook (use via [`fail_point!`]). Returns `true`
/// when a [`FaultAction::Delay`] fired (so call sites can count it);
/// panics with [`InjectedFault`] on [`FaultAction::Panic`] — and on
/// [`FaultAction::Error`], which has no handler to land in here.
pub fn fire(point: &str) -> bool {
    match consult(point) {
        None => false,
        Some((FaultAction::Delay(d), _)) => {
            std::thread::sleep(d);
            true
        }
        Some((FaultAction::Panic | FaultAction::Error(_), hit)) => {
            std::panic::panic_any(InjectedFault {
                point: point.to_string(),
                hit,
            })
        }
    }
}

/// The error-capable failpoint hook (use via the two-argument
/// [`fail_point!`]). [`FaultAction::Error`] returns its message for the
/// handler; `Delay` sleeps and returns `None`; `Panic` panics.
pub fn fire_err(point: &str) -> Option<String> {
    match consult(point) {
        None => None,
        Some((FaultAction::Delay(d), _)) => {
            std::thread::sleep(d);
            None
        }
        Some((FaultAction::Error(msg), _)) => Some(msg),
        Some((FaultAction::Panic, hit)) => std::panic::panic_any(InjectedFault {
            point: point.to_string(),
            hit,
        }),
    }
}

/// Marks a named failpoint.
///
/// * `fail_point!("name")` — evaluates to `bool`: `true` when a delay
///   fault fired here (callers count it as an injected fault); panics
///   with [`InjectedFault`] on a panic/error action.
/// * `fail_point!("name", |msg: String| ...)` — on an error action,
///   **returns from the enclosing function** with the handler's value
///   (mirroring the `fail` crate); the handler typically builds an `Err`.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        $crate::fire($name)
    };
    ($name:expr, $handler:expr) => {
        if let ::std::option::Option::Some(msg) = $crate::fire_err($name) {
            return ($handler)(msg);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disarmed_failpoints_are_noops() {
        assert!(!fire("never.armed"));
        assert_eq!(fire_err("never.armed"), None);
    }

    #[test]
    fn plan_fires_on_exact_hit_only() {
        let _armed = FaultPlan::new()
            .fail_at("t.delay", 1, FaultAction::Delay(Duration::from_millis(1)))
            .arm();
        assert!(!fire("t.delay")); // hit 0
        assert!(fire("t.delay")); // hit 1: delay fires
        assert!(!fire("t.delay")); // hit 2
                                   // Other points are untouched.
        assert!(!fire("t.other"));
    }

    #[test]
    fn panic_action_carries_injected_payload() {
        let _armed = FaultPlan::one_shot_panic("t.panic").arm();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fire("t.panic");
        }))
        .unwrap_err();
        let fault = payload.downcast_ref::<InjectedFault>().unwrap();
        assert_eq!(fault.point, "t.panic");
        assert_eq!(fault.hit, 0);
        assert_eq!(fault.to_string(), "injected fault at t.panic#0");
        // One-shot: the second firing is clean.
        assert!(!fire("t.panic"));
    }

    #[test]
    fn error_action_reaches_the_handler() {
        fn guarded() -> Result<u32, String> {
            fail_point!("t.error", |msg: String| Err(format!("failed: {msg}")));
            Ok(7)
        }
        let _armed = FaultPlan::new()
            .fail_at("t.error", 0, FaultAction::Error("boom".to_string()))
            .arm();
        assert_eq!(guarded(), Err("failed: boom".to_string()));
        assert_eq!(guarded(), Ok(7));
    }

    #[test]
    fn error_action_without_handler_escalates_to_panic() {
        let _armed = FaultPlan::new()
            .fail_at("t.loud", 0, FaultAction::Error("x".to_string()))
            .arm();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            fire("t.loud");
        }))
        .unwrap_err();
        assert!(payload.downcast_ref::<InjectedFault>().is_some());
    }

    #[test]
    fn panic_message_reads_every_payload_kind() {
        let fault = InjectedFault {
            point: "t.msg".to_string(),
            hit: 3,
        };
        assert_eq!(panic_message(&fault), "injected fault at t.msg#3");
        assert_eq!(panic_message(&"static text"), "static text");
        assert_eq!(panic_message(&"owned text".to_string()), "owned text");
        assert_eq!(panic_message(&42u32), "panic with non-string payload");
    }

    #[test]
    fn disarm_on_drop() {
        {
            let _armed = FaultPlan::one_shot_panic("t.scoped").arm();
        }
        assert!(!fire("t.scoped"));
    }

    #[test]
    fn parse_round_trips_every_action() {
        let plan = FaultPlan::parse("a.b#2=panic; c.d#0=delay:25 ;e.f#7=error:disk full").unwrap();
        let want = FaultPlan::new()
            .fail_at("a.b", 2, FaultAction::Panic)
            .fail_at("c.d", 0, FaultAction::Delay(Duration::from_millis(25)))
            .fail_at("e.f", 7, FaultAction::Error("disk full".to_string()));
        assert_eq!(plan, want);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
        assert!(FaultPlan::parse("a.b=panic").is_err()); // missing #nth
        assert!(FaultPlan::parse("a.b#x=panic").is_err()); // bad index
        assert!(FaultPlan::parse("a.b#0=explode").is_err()); // bad action
        assert!(FaultPlan::parse("a.b#0").is_err()); // missing action
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let points = ["p.one", "p.two", "p.three"];
        let a = FaultPlan::seeded(42, &points, 8);
        let b = FaultPlan::seeded(42, &points, 8);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), 1);
        assert!(points.contains(&a.entries[0].point.as_str()));
        assert!(a.entries[0].nth < 8);
        // Across many seeds, every action kind shows up — the plan space
        // is actually explored, not collapsed to one corner.
        let mut kinds = [false; 3];
        for seed in 0..64 {
            match FaultPlan::seeded(seed, &points, 8).entries[0].action {
                FaultAction::Panic => kinds[0] = true,
                FaultAction::Delay(_) => kinds[1] = true,
                FaultAction::Error(_) => kinds[2] = true,
            }
        }
        assert_eq!(kinds, [true; 3]);
        assert_eq!(FaultPlan::seeded(1, &[], 4), FaultPlan::new());
    }

    #[test]
    fn shielded_catch_runs_and_restores() {
        let _armed = FaultPlan::one_shot_panic("t.shield").arm();
        let caught = shield::shielded(|| {
            catch_unwind(AssertUnwindSafe(|| {
                fire("t.shield");
            }))
        });
        assert!(caught.is_err());
        // The thread-local flag is restored even after an unwind.
        assert!(!shield::is_shielded());
    }
}
