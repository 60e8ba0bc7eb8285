//! `h2p events`: event-log ingestion.

use h2p_simulator::audit;
use h2p_telemetry::lifecycle;

use crate::flags::{fail, Flags};

/// `h2p events PATH|-`: parse a JSON-lines event log with the hardened
/// typed parser and reconcile it through the audit replay. Exits
/// nonzero on any parse error (with its line number).
pub fn main(args: &[String]) {
    let flags = Flags::new("events", args, &[]);
    let Some(path) = flags.operands_at_most(1).first() else {
        fail("events needs a path (or '-')")
    };
    let log = crate::read_event_log(path);
    println!(
        "{} task header(s), {} event(s), {} task id(s), {} lifecycle event(s)",
        log.tasks.len(),
        log.events.len(),
        log.task_count(),
        log.lifecycle.len()
    );
    let violations = lifecycle::validate(&log.lifecycle);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("lifecycle: {v}");
        }
        eprintln!("{} lifecycle violation(s)", violations.len());
        std::process::exit(1);
    }
    match audit::replay(log.task_count(), &log.events) {
        Ok(spans) => {
            let done: Vec<_> = spans.iter().flatten().collect();
            let last = done.iter().map(|s| s.end_ms).fold(0.0f64, f64::max);
            println!(
                "replay: {} of {} task(s) completed, last finish at {last:.2} ms",
                done.len(),
                log.task_count()
            );
        }
        Err(e) => println!("replay: not reconstructible ({e})"),
    }
}
