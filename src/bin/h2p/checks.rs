//! The checks that look at the program rather than at one planned run:
//! `events` (event-log ingestion) and `lint --source` (the workspace
//! determinism lints).

use std::path::Path;

use h2p_analyze::SourceMutation;
use h2p_simulator::audit;
use h2p_telemetry::lifecycle;

use crate::flags::{fail, Flags};

/// `h2p lint --source`: the workspace determinism lint pass
/// (H2P010–H2P013), or — with `--mutant CLASS` — a seeded hazard
/// snippet that must make the lint exit nonzero.
pub fn source_lint(flags: &Flags) -> ! {
    if let Some((flag, _)) = flags.last(&["--soc", "--scheme", "--corrupt"]) {
        fail(format!("lint --source does not take {flag}"))
    }
    let root = flags
        .operands_at_most(1)
        .first()
        .map_or(".", String::as_str);
    let mutant = flags.read(
        "--mutant",
        "hash-iteration, wall-clock, unordered-reduction or unseeded-rng",
        SourceMutation::parse,
    );
    let diags = if let Some(m) = mutant {
        eprintln!(
            "linting seeded '{}' hazard (expecting {})",
            m.name(),
            m.expected_code().code()
        );
        h2p_analyze::lint_source(&format!("<mutant:{}>", m.name()), "core", m.snippet())
    } else {
        h2p_analyze::lint_workspace(Path::new(root)).unwrap_or_else(|e| {
            eprintln!("source lint failed reading {root}: {e}");
            std::process::exit(2);
        })
    };
    if flags.has("--json") {
        print!("{}", diags.to_json_lines());
    } else {
        print!("{diags}");
    }
    std::process::exit(i32::from(diags.should_fail(flags.has("--deny-warnings"))));
}

/// `h2p events PATH|-`: parse a JSON-lines event log with the hardened
/// typed parser and reconcile it through the audit replay. Exits
/// nonzero on any parse error (with its line number).
pub fn events(args: &[String]) {
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
