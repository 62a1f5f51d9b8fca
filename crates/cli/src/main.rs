//! Binary entry point for the `usj` command. All logic lives in the
//! library so it can be unit-tested.
//!
//! The binary owns two process-wide concerns the library must not touch:
//! arming a deterministic fault-injection plan from `USJ_FAULT_PLAN`
//! (used by the integration suite), and the panic perimeter — the CLI's
//! contract is that every failure is a structured `error:` report on
//! stderr with a nonzero exit code, never a raw panic backtrace.

use std::panic::{catch_unwind, AssertUnwindSafe};

use usj_fault::panic_message;

fn main() {
    // Deterministic fault injection: a plan in USJ_FAULT_PLAN stays armed
    // for the whole invocation (the guard disarms on exit). A malformed
    // plan is an operator error, reported like any other flag mistake.
    let _armed = match usj_fault::arm_from_env() {
        Ok(armed) => armed,
        Err(msg) => {
            eprintln!("error: invalid USJ_FAULT_PLAN: {msg}");
            std::process::exit(2);
        }
    };
    // Silence the default panic hook (it prints "thread panicked at ..."
    // plus a backtrace); the catch below converts any panic that escapes
    // the library — including injected ones — into the structured report.
    std::panic::set_hook(Box::new(|_| {}));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match catch_unwind(AssertUnwindSafe(|| usj_cli::run(&args))) {
        Ok(Ok(output)) => print!("{output}"),
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Err(payload) => {
            eprintln!("error: internal panic: {}", panic_message(&*payload));
            eprintln!("  kind: panic");
            std::process::exit(3);
        }
    }
}
