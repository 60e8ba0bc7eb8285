//! The subcommands that plan, lower and run one request set: `plan`,
//! `run`, `gantt`, `trace`, `export` and `lint`.

use std::rc::Rc;

use h2p_analyze::{Diagnostics, Mutation, PlanIr};
use h2p_baselines::{pipe_it, Scheme};
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::eventlog::task_header_line;
use h2p_simulator::export::{
    add_audit_instants, add_planner_spans, chrome_trace, record_trace_metrics, ENGINE_PID,
};
use h2p_simulator::{audit, EngineEvent, FaultSpec, ProcessorId, SocSpec, TaskSpec, Trace};
use h2p_telemetry::{MetricsRegistry, Telemetry};
use hetero2pipe::executor::request_slices;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{run_with_recovery, RecoveryOutcome, RecoveryPolicy};
use hetero2pipe::report::{PlanSummary, ReportSummary};

use crate::flags::{fail, Arity::*, Flags, Spec};
use crate::{graphs, jsonl, write_out};

const TRACE: Spec = &[
    ("--soc", Value),
    ("--scheme", Value),
    ("--audit", Switch),
    ("--summary", Switch),
    ("--corrupt", Optional(&["overlap", "stretch"])),
    ("--events", Value),
    ("--faults", Value),
];

const EXPORT: Spec = &[
    ("--soc", Value),
    ("--scheme", Value),
    ("--trace", Value),
    ("--metrics", Value),
];

const LINT: Spec = &[
    ("--soc", Value),
    ("--scheme", Value),
    ("--json", Switch),
    ("--deny-warnings", Switch),
    ("--corrupt", Value),
];

fn processor_names(soc: &SocSpec) -> Vec<&str> {
    soc.processors.iter().map(|p| p.name.as_str()).collect()
}

/// `h2p plan`: print the Hetero²Pipe plan.
pub fn plan(args: &[String]) {
    let flags = Flags::new("plan", args, &[("--soc", Value)]);
    let soc = flags.soc();
    let planner = Planner::new(&soc).expect("planner");
    let planned = planner.plan(&graphs(&flags.models())).expect("plan");
    println!("plan on {}:", soc.name);
    print!("{}", PlanSummary::new(&planned.plan, &soc));
}

/// `h2p run`: execute one scheme and print its report.
pub fn run(args: &[String]) {
    let flags = Flags::new("run", args, &[("--soc", Value), ("--scheme", Value)]);
    let (soc, scheme) = (flags.soc(), flags.scheme());
    let report = scheme.run(&soc, &graphs(&flags.models())).expect("run");
    println!("{} on {}:", scheme.name(), soc.name);
    print!("{}", ReportSummary::new(&report));
}

/// `h2p gantt`: render the planned run as a Gantt chart.
pub fn gantt(args: &[String]) {
    let flags = Flags::new("gantt", args, &[("--soc", Value)]);
    let soc = flags.soc();
    let planner = Planner::new(&soc).expect("planner");
    let planned = planner.plan(&graphs(&flags.models())).expect("plan");
    let report = planned.execute(&soc).expect("execute");
    print!("{}", report.trace.render_gantt(&processor_names(&soc), 100));
    println!(
        "latency {:.1} ms, throughput {:.2} inf/s",
        report.makespan_ms, report.throughput_per_sec
    );
}

/// `h2p trace`: run one scheme, render its trace, and optionally audit
/// it, summarise it, corrupt it (demo) or write its event log; with
/// `--faults`, run under scripted faults through the recovery runner.
pub fn trace(args: &[String]) {
    let flags = Flags::new("trace", args, TRACE);
    let (soc, scheme, models) = (flags.soc(), flags.scheme(), flags.models());
    if let Some(faults) = flags.faults(&soc) {
        return trace_faulted(&soc, scheme, &models, &faults, flags.value("--events"));
    }
    // Every scheme lowers through `Scheme::lower -> LoweredPlan`, so the
    // trace-audit gate covers the baselines too, not just the
    // Hetero²Pipe planner.
    let lowered = scheme.lower(&soc, &graphs(&models)).expect("lower");
    let tasks = lowered.simulation().tasks().to_vec();
    let (mut report, events) = lowered.execute_logged().expect("execute");

    if flags.has("--corrupt") {
        let class = flags.value("--corrupt").unwrap_or("overlap");
        if class == "stretch" {
            corrupt_stretch(&mut report.trace, &soc, &tasks);
        } else {
            corrupt_trace(&mut report.trace);
        }
        eprintln!("trace deliberately corrupted (--corrupt {class})");
    }

    let names = processor_names(&soc);
    print!("{}", report.trace.render_gantt(&names, 100));
    for (p, name) in names.iter().enumerate() {
        let id = ProcessorId(p);
        println!(
            "{:<8} busy {:>8.2} ms  util {:>5.1}%  spans {}",
            name,
            report.trace.busy_ms(id),
            report.trace.utilization(id) * 100.0,
            report
                .trace
                .spans
                .iter()
                .filter(|s| s.processor == id)
                .count()
        );
    }
    println!(
        "latency {:.1} ms, throughput {:.2} inf/s, bubbles {:.1} ms, {} events",
        report.makespan_ms,
        report.throughput_per_sec,
        report.trace.idle_bubble_ms(),
        events.len()
    );

    if flags.has("--summary") {
        let metrics = MetricsRegistry::new();
        record_trace_metrics(&soc, &report.trace, &metrics);
        print!("{}", metrics.snapshot().render_table());
    }

    if let Some(path) = flags.value("--events") {
        // Task headers, the engine events, and the causal request
        // lifecycle of the same run, so a saved log carries enough
        // history for `h2p report --from` to rebuild latency and SLO
        // accounting.
        let lines = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| task_header_line(i, t))
            .chain(events.iter().map(EngineEvent::json_line))
            .chain(crate::batch_lifecycle(&models, &report).json_lines());
        write_out(path, &jsonl(lines), "event log");
    }

    if flags.has("--audit") {
        // The reconciled audit: envelope checks plus the replay of the
        // logged piecewise interference rates, which also catches
        // in-envelope corruption (--corrupt stretch).
        let audit_report = audit::audit_with_events(&soc, &tasks, &events, &report.trace);
        print!("{audit_report}");
        if !audit_report.is_clean() {
            std::process::exit(1);
        }
    }
}

/// Human-readable description of one scripted fault, with processor
/// names resolved against the target SoC.
fn fault_desc(soc: &SocSpec, f: &FaultSpec) -> String {
    let proc_name = |p: ProcessorId| {
        soc.processors
            .get(p.index())
            .map_or_else(|| format!("processor {}", p.index()), |s| s.name.clone())
    };
    match f {
        FaultSpec::ProcessorDropout { processor, at_ms } => {
            format!("drop {} at {at_ms:.1} ms", proc_name(*processor))
        }
        FaultSpec::ThermalThrottle {
            processor,
            from_ms,
            until_ms,
            factor,
        } => format!(
            "throttle {} to {factor:.2}x over {from_ms:.1}..{until_ms:.1} ms",
            proc_name(*processor)
        ),
        FaultSpec::TransientFailure { request, failures } => {
            format!("fail request {request} transiently {failures} time(s)")
        }
        FaultSpec::CostMisprediction { scale } => {
            format!("scale every real task duration by {scale:.2}x")
        }
    }
}

/// Returns a copy of `e` with its timestamp shifted by `offset_ms`,
/// used to splice per-round (time-zero-based) recovery logs onto the
/// global timeline.
fn shift_event(e: &EngineEvent, offset_ms: f64) -> EngineEvent {
    let mut e = e.clone();
    match &mut e {
        EngineEvent::Ready { time_ms, .. }
        | EngineEvent::Start { time_ms, .. }
        | EngineEvent::Rate { time_ms, .. }
        | EngineEvent::Finish { time_ms, .. }
        | EngineEvent::ProcessorDown { time_ms, .. }
        | EngineEvent::Throttle { time_ms, .. }
        | EngineEvent::TaskFailed { time_ms, .. } => *time_ms += offset_ms,
    }
    e
}

/// `h2p trace --faults SPEC`: run the request set through the recovery
/// runner under scripted faults, print the per-round recovery story,
/// and exit nonzero only if any round's faulted audit found a contract
/// violation (a typed degraded outcome is a valid, reported terminal
/// state).
fn trace_faulted(
    soc: &SocSpec,
    scheme: Scheme,
    models: &[ModelId],
    faults: &[FaultSpec],
    events: Option<&str>,
) {
    if scheme != Scheme::Hetero2Pipe {
        fail(format!(
            "--faults recovers through the h2p planner; --scheme {} is not supported",
            scheme.name()
        ))
    }
    println!(
        "injecting {} scripted fault(s) on {}:",
        faults.len(),
        soc.name
    );
    for f in faults {
        println!("  - {}", fault_desc(soc, f));
    }
    let planner = Planner::new(soc).expect("planner");
    let report = run_with_recovery(
        &planner,
        &graphs(models),
        faults,
        &RecoveryPolicy::default(),
    )
    .expect("recovery");
    for (i, round) in report.rounds.iter().enumerate() {
        println!(
            "round {i}: starts at {:.2} ms, {} events, {} request(s) completed, \
             {} fault(s), audit {}",
            round.offset_ms,
            round.events.len(),
            round.completed,
            round.faults,
            if round.audit_clean { "clean" } else { "DIRTY" }
        );
    }
    let completed = report.completed.iter().filter(|&&c| c).count();
    println!(
        "{} replan(s), {} retry(ies), {} fault(s), {:.2} ms elapsed, {}/{} requests completed",
        report.replans,
        report.retries,
        report.faults,
        report.elapsed_ms,
        completed,
        report.completed.len()
    );
    match &report.outcome {
        RecoveryOutcome::Recovered => println!("outcome: recovered"),
        RecoveryOutcome::Degraded(e) => println!("outcome: degraded — {e}"),
    }
    if let Some(path) = events {
        // The per-round logs on the global timeline, then the causal
        // request lifecycle the recovery runner recorded. Task ids
        // restart per round, so the log documents the recovery story
        // rather than a single replayable run.
        let lines = report
            .rounds
            .iter()
            .flat_map(|round| {
                round
                    .events
                    .iter()
                    .map(|e| shift_event(e, round.offset_ms).json_line())
            })
            .chain(planner.telemetry().lifecycle.json_lines());
        write_out(path, &jsonl(lines), "event log");
    }
    if !report.all_rounds_audit_clean() {
        eprintln!("audit violation in at least one recovery round");
        std::process::exit(1);
    }
}

/// `h2p export`: write a planned run as Chrome Trace JSON and/or its
/// metrics snapshot.
pub fn export(args: &[String]) {
    let flags = Flags::new("export", args, EXPORT);
    let (soc, scheme, models) = (flags.soc(), flags.scheme(), flags.models());
    let (trace_out, metrics_out) = (flags.value("--trace"), flags.value("--metrics"));
    if trace_out.is_none() && metrics_out.is_none() {
        fail("export needs --trace PATH and/or --metrics PATH")
    }
    let reqs = graphs(&models);
    let telemetry = Rc::new(Telemetry::new());
    // Plan-producing schemes run through a planner that shares this
    // telemetry sink, so the export carries planner phase spans and
    // planning metrics; task-graph schemes lower directly and export
    // engine-side telemetry only.
    let (lowered, mitigation) = match crate::scheme_planner(&soc, scheme) {
        Some(mut planner) => {
            planner.set_telemetry(Rc::clone(&telemetry));
            let planned = planner.plan(&reqs).expect("plan");
            let mit = planned.mitigation.clone();
            (planned.lower(&soc).expect("lower"), mit)
        }
        None => (scheme.lower(&soc, &reqs).expect("lower"), None),
    };
    let tasks = lowered.simulation().tasks().to_vec();
    let (report, events) = lowered.execute_logged().expect("execute");

    let audit_report = audit::audit_with_events(&soc, &tasks, &events, &report.trace);
    telemetry
        .metrics
        .add("audit.checks", audit_report.checks as u64);
    telemetry
        .metrics
        .add("audit.violations", audit_report.violations.len() as u64);

    let mut doc = chrome_trace(&soc, &tasks, &events);
    add_planner_spans(&mut doc, &telemetry.spans.records());
    // One async slice per request: first dispatch to completion.
    let slices = request_slices(&report.trace);
    for (r, slice) in slices.iter().enumerate() {
        let Some((start, end)) = slice else { continue };
        let name = models.get(r).map_or_else(
            || format!("request:{r}"),
            |m| format!("request:{r}:{}", m.name()),
        );
        doc.async_slice(
            ENGINE_PID,
            0,
            r as u64,
            name,
            "request",
            start * 1000.0,
            end * 1000.0,
        );
    }
    // Instant markers for the mitigation pass's relocations, anchored
    // where the moved request actually started.
    if let Some(m) = &mitigation {
        for (pos, &orig) in m.order.iter().enumerate() {
            if pos == orig {
                continue;
            }
            let ts_us = slices
                .get(orig)
                .copied()
                .flatten()
                .map_or(0.0, |(s, _)| s * 1000.0);
            doc.instant(
                ENGINE_PID,
                0,
                format!("relocated:{orig}->{pos}"),
                "relocation",
                ts_us,
                'g',
                Vec::new(),
            );
        }
    }
    add_audit_instants(&mut doc, &audit_report, &report.trace);
    record_trace_metrics(&soc, &report.trace, &telemetry.metrics);

    if let Err(err) = doc.validate() {
        eprintln!("internal error: exported trace fails its schema check: {err}");
        std::process::exit(1);
    }
    if let Some(path) = trace_out {
        write_out(path, &doc.to_json(), "chrome trace");
    }
    if let Some(path) = metrics_out {
        write_out(
            path,
            &telemetry.metrics.snapshot().to_json(),
            "metrics snapshot",
        );
    }
    if !audit_report.is_clean() {
        print!("{audit_report}");
        std::process::exit(1);
    }
}

/// `h2p lint`: statically verify one scheme's plan or task graph.
pub fn lint(args: &[String]) {
    let flags = Flags::new("lint", args, LINT);
    let (soc, scheme, models) = (flags.soc(), flags.scheme(), flags.models());
    let classes = Mutation::ALL.map(Mutation::name).join(", ");
    let mutation = flags.read(
        "--corrupt",
        &format!("a class ({classes})"),
        Mutation::parse,
    );
    let diags = lint_scheme(&soc, scheme, &graphs(&models), mutation);
    if flags.has("--json") {
        print!("{}", diags.to_json_lines());
    } else {
        print!("{diags}");
    }
    if diags.should_fail(flags.has("--deny-warnings")) {
        std::process::exit(1);
    }
}

/// Builds the scheme's plan (or lowered task graph) without executing
/// it and runs the static verifier over the result.
///
/// Plan-producing schemes (h2p, noct, pipeit) are linted at the
/// pipeline-plan level, where `--corrupt` can inject damage before the
/// checks run. Task-graph schemes (mnn, band, dart) never build a
/// `PipelinePlan`, so they are linted at the lowered task-graph level
/// and do not support `--corrupt`.
fn lint_scheme(
    soc: &SocSpec,
    scheme: Scheme,
    reqs: &[ModelGraph],
    mutation: Option<Mutation>,
) -> Diagnostics {
    let ir = if let Some(planner) = crate::scheme_planner(soc, scheme) {
        let planned = planner.plan(reqs).expect("plan");
        if mutation.is_none() {
            return planned.lint(soc);
        }
        planned.plan_ir()
    } else if scheme == Scheme::PipeIt {
        let plan = pipe_it::plan(soc, reqs).expect("plan");
        let refs: Vec<&ModelGraph> = reqs.iter().collect();
        hetero2pipe::lint::plan_ir(&plan, &refs)
    } else {
        if mutation.is_some() {
            fail(format!(
                "--corrupt needs a plan-producing scheme (h2p, noct or pipeit); {} \
                 lowers straight to a task graph",
                scheme.name()
            ))
        }
        return scheme.lower(soc, reqs).expect("lower").lint();
    };
    match mutation {
        Some(m) => lint_corrupted(soc, ir, m),
        None => h2p_analyze::lint_plan(soc, &ir),
    }
}

/// Applies `m` to the plan IR, then lints the damaged plan.
fn lint_corrupted(soc: &SocSpec, mut ir: PlanIr, m: Mutation) -> Diagnostics {
    if !h2p_analyze::apply(&mut ir, m) {
        eprintln!("plan has no structure for --corrupt {}", m.name());
        std::process::exit(2);
    }
    eprintln!("plan deliberately corrupted (--corrupt {})", m.name());
    h2p_analyze::lint_plan(soc, &ir)
}

/// Deliberately violates the simulator contracts in a finished trace so
/// `trace --audit --corrupt` demonstrates a nonzero exit: overlaps the
/// two earliest spans on the busiest processor and makes one span beat
/// its solo time.
fn corrupt_trace(trace: &mut Trace) {
    let busiest = (0..trace.processor_count).max_by_key(|&p| {
        trace
            .spans
            .iter()
            .filter(|s| s.processor.index() == p)
            .count()
    });
    if let Some(p) = busiest {
        let mut on_proc: Vec<usize> = (0..trace.spans.len())
            .filter(|&i| trace.spans[i].processor.index() == p)
            .collect();
        on_proc.sort_by(|&a, &b| trace.spans[a].start_ms.total_cmp(&trace.spans[b].start_ms));
        if let [first, second, ..] = on_proc[..] {
            let duration = trace.spans[second].end_ms - trace.spans[second].start_ms;
            trace.spans[second].start_ms = trace.spans[first].start_ms;
            trace.spans[second].end_ms = trace.spans[second].start_ms + duration;
        }
    }
    if let Some(span) = trace.spans.first_mut() {
        span.end_ms = span.start_ms + span.solo_ms * 0.5;
    }
}

/// In-envelope duration corruption for `trace --audit --corrupt
/// stretch`: lengthens the globally-last span towards — but strictly
/// within — the audit's conservative duration upper bound. The plain
/// envelope audit waves the stretched trace through; only the
/// event-log replay reconciliation exposes it, which is exactly the
/// gap ROADMAP's "tighten the conservative bound" item describes.
fn corrupt_stretch(trace: &mut Trace, soc: &SocSpec, tasks: &[TaskSpec]) {
    let Some(last) = (0..trace.spans.len())
        .max_by(|&a, &b| trace.spans[a].end_ms.total_cmp(&trace.spans[b].end_ms))
    else {
        return;
    };
    let bound = audit::conservative_bound_ms(soc, tasks, trace, last);
    let span = &mut trace.spans[last];
    let duration = span.end_ms - span.start_ms;
    // Midway between the real duration and the envelope bound; if the
    // envelope is already tight, fall back to an unmistakable stretch.
    let target = if bound - duration < 1e-3 {
        duration * 1.5
    } else {
        (duration + bound) / 2.0
    };
    span.end_ms = span.start_ms + target;
}
