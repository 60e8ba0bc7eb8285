//! The checks that look at the program rather than at one planned run:
//! `events` (event-log ingestion), `modelcheck` (the schedule-space
//! model checker) and `lint --source` (the workspace determinism lints).

use std::path::Path;

use h2p_analyze::SourceMutation;
use h2p_check::{CheckOptions, InjectedFault, ModelReport};
use h2p_simulator::audit;
use h2p_telemetry::lifecycle;

use crate::flags::{fail, positive, Arity::*, Flags, Spec};

const MODELCHECK: Spec = &[
    ("--exhaustive", Switch),
    ("--seeds", Value),
    ("--min-schedules", Value),
    ("--inject", Value),
    ("--expect-violation", Switch),
];

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

/// `h2p modelcheck`: run the schedule-space model suite (cursor
/// partition/error rule, tables cache, partition memo, DP scratch pool,
/// planner bit-identity, recovery rounds) under the controlled scheduler, or —
/// with `--inject` — seed a claim bug and verify the checker catches it.
pub fn modelcheck(args: &[String]) -> ! {
    let flags = Flags::new("modelcheck", args, MODELCHECK);
    flags.operands_at_most(0);
    let mut opts = if flags.has("--exhaustive") {
        CheckOptions::default()
    } else {
        // Quick mode: capped DFS plus a lean PCT pass.
        CheckOptions {
            exhaustive_cap: 2_000,
            pct_seeds: 8,
            ..CheckOptions::default()
        }
    };
    if let Some(s) = flags.read("--seeds", "a positive integer", positive) {
        opts.pct_seeds = s;
    }
    let min_schedules: usize = flags.num("--min-schedules", "an integer").unwrap_or(0);
    let inject = flags.read(
        "--inject",
        "skip-claim or split-claim",
        InjectedFault::parse,
    );

    if let Some(fault) = inject {
        let report = h2p_check::run_injected(fault, opts);
        print_model_report(&report);
        let caught = report.violations > 0;
        if !flags.has("--expect-violation") {
            std::process::exit(i32::from(caught));
        }
        let (name, n) = (fault.name(), report.schedules);
        if caught {
            println!("injected '{name}' bug caught after {n} schedule(s) — checker is live");
        } else {
            println!("injected '{name}' bug was NOT caught in {n} schedule(s)");
        }
        std::process::exit(i32::from(!caught));
    }

    let reports = h2p_check::run_standard(opts);
    let mut schedules = 0usize;
    let mut steps = 0usize;
    let mut violations = 0usize;
    for r in &reports {
        print_model_report(r);
        schedules += r.schedules;
        steps += r.steps;
        violations += r.violations;
    }
    println!(
        "model check: {schedules} schedule(s), {steps} step(s), \
         {violations} violation(s) across {} model(s)",
        reports.len()
    );
    if violations > 0 {
        std::process::exit(1);
    }
    if schedules < min_schedules {
        eprintln!("model check explored {schedules} schedule(s) < required {min_schedules}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn print_model_report(r: &ModelReport) {
    println!(
        "{:<36} {:>7} schedule(s) {:>9} step(s)  {}  {} violation(s)",
        r.name,
        r.schedules,
        r.steps,
        if r.complete { "complete" } else { "capped  " },
        r.violations,
    );
    for s in &r.samples {
        println!("    sample: {s}");
    }
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
