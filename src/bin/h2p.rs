//! `h2p` — command-line front end for the Hetero²Pipe reproduction.
//!
//! ```text
//! h2p socs                               # list SoC presets
//! h2p zoo                                # list zoo models
//! h2p plan  --soc kirin990 bert yolov4   # print a pipeline plan
//! h2p plan  --threads 4 bert yolov4      # explicit planner threads
//! h2p run   --soc sd870 --scheme band resnet50 vit squeezenet
//! h2p gantt --soc kirin990 bert mobilenetv2 resnet50
//! h2p trace --soc kirin990 --audit bert resnet50
//! h2p trace --scheme band --audit bert   # audit a baseline's trace
//! h2p trace --audit --corrupt bert       # exits nonzero (audit demo)
//! h2p trace --events - mobilenetv2       # JSON-lines event log
//! h2p trace --summary bert resnet50      # per-processor metrics table
//! h2p lint  --soc kirin990 bert yolov4   # static plan verification
//! h2p lint  --json --deny-warnings bert  # machine-readable, strict
//! h2p lint  --corrupt drop-layer bert    # exits nonzero (lint demo)
//! h2p export --trace t.json --metrics m.json bert resnet50
//! h2p trace --faults drop:NPU@5 bert resnet50   # fault-injected run
//! h2p report --soc kirin990 bert resnet50 mobilenetv2  # serving report
//! h2p report --chaos-seed 3 --json       # report on a chaos scenario
//! h2p report --from log.jsonl            # report from an event log
//! h2p chaos --seeds 8                    # seeded fault-recovery sweep
//! h2p chaos --seeds 8 --json             # machine-readable per-seed
//! h2p events log.jsonl                   # parse + replay an event log
//! h2p lint --source --deny-warnings      # workspace determinism lints
//! h2p lint --source --mutant wall-clock  # exits nonzero (lint demo)
//! h2p modelcheck --exhaustive            # schedule-space model checker
//! h2p modelcheck --inject skip-claim --expect-violation
//! ```

use std::path::Path;
use std::sync::Arc;

use h2p_analyze::{Mutation, SourceMutation};
use h2p_baselines::{pipe_it, Scheme};
use h2p_check::{CheckOptions, InjectedFault};
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::request_of_label;
use h2p_simulator::eventlog::{self, json_escape};
use h2p_simulator::export::{
    add_audit_instants, add_planner_spans, chrome_trace, record_trace_metrics, ENGINE_PID,
};
use h2p_simulator::faults::parse_fault_specs;
use h2p_simulator::{audit, EngineEvent, FaultSpec, SocSpec, TaskSpec};
use h2p_telemetry::analytics::{
    ExecSpan, LatencyProfile, OccupancyProfile, SloEntry, SloSummary, UtilizationTimeline,
};
use h2p_telemetry::lifecycle::{self, LifecycleLog, LifecycleStage, QosClass, RequestId, TraceId};
use h2p_telemetry::{MetricsRegistry, Telemetry};
use hetero2pipe::executor::{record_request_lifecycle, request_slices};
use hetero2pipe::planner::{Planner, PlannerConfig};
use hetero2pipe::recovery::{chaos_faults, run_with_recovery, RecoveryOutcome, RecoveryPolicy};
use hetero2pipe::report::{PlanSummary, ReportSummary};
use hetero2pipe::workload::random_models;
use hetero2pipe::PlanError;

fn parse_soc(name: &str) -> Option<SocSpec> {
    match name
        .to_ascii_lowercase()
        .replace(['-', '_', ' '], "")
        .as_str()
    {
        "kirin990" | "kirin" => Some(SocSpec::kirin_990()),
        "sd778g" | "snapdragon778g" | "778g" => Some(SocSpec::snapdragon_778g()),
        "sd870" | "snapdragon870" | "870" => Some(SocSpec::snapdragon_870()),
        _ => None,
    }
}

fn parse_model(name: &str) -> Option<ModelId> {
    let n = name.to_ascii_lowercase().replace(['-', '_'], "");
    ModelId::ALL
        .into_iter()
        .find(|m| m.name().to_ascii_lowercase().replace(['-', '_'], "") == n)
        .or(match n.as_str() {
            "yolo" | "yolov4" => Some(ModelId::YoloV4),
            "mobilenet" | "mobilenetv2" => Some(ModelId::MobileNetV2),
            "inception" | "inceptionv4" => Some(ModelId::InceptionV4),
            "vgg" | "vgg16" => Some(ModelId::Vgg16),
            _ => None,
        })
}

fn parse_scheme(name: &str) -> Option<Scheme> {
    match name.to_ascii_lowercase().as_str() {
        "mnn" | "serial" => Some(Scheme::MnnSerial),
        "pipeit" | "pipe-it" => Some(Scheme::PipeIt),
        "band" => Some(Scheme::Band),
        "dart" => Some(Scheme::Dart),
        "noct" | "no-ct" => Some(Scheme::NoCt),
        "h2p" | "hetero2pipe" => Some(Scheme::Hetero2Pipe),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  h2p socs\n  h2p zoo\n  h2p plan  [--soc NAME] [--threads N] MODEL...\n  h2p run   [--soc NAME] [--scheme NAME] MODEL...\n  h2p gantt [--soc NAME] MODEL...\n  h2p trace [--soc NAME] [--scheme NAME] [--audit] [--summary]\n            [--corrupt [CLASS]] [--events PATH|-] [--faults SPEC] MODEL...\n  h2p report [--soc NAME] [--scheme NAME] [--json] [--slo-budget F] MODEL...\n  h2p report --chaos-seed N [--soc NAME] [--json]\n  h2p report --faults SPEC [--soc NAME] [--json] MODEL...\n  h2p report --from PATH|- [--soc NAME] [--json]\n  h2p chaos [--soc NAME] --seeds N [--json]\n  h2p serve [--soc NAME] [--qps F | --qps-sweep LO..HI] [--steps N]\n            [--seed N] [--requests N] [--window N] [--max-batch N]\n            [--chaos] [--json] [--events PATH|-]\n  h2p events PATH|-\n  h2p lint  [--soc NAME] [--scheme NAME] [--json] [--deny-warnings]\n            [--corrupt CLASS] MODEL...\n  h2p lint  --source [--deny-warnings] [--json] [--mutant CLASS] [ROOT]\n  h2p modelcheck [--exhaustive] [--seeds N] [--min-schedules N]\n            [--inject CLASS] [--expect-violation]\n  h2p export [--soc NAME] [--scheme NAME] [--trace PATH|-]\n            [--metrics PATH|-] MODEL...\n\nsocs: kirin990 (default), sd778g, sd870\nschemes: mnn, pipeit, band, noct, h2p (default)\n\nplan flags:\n  --threads N     planner worker threads; 0 or omitted = available\n                  parallelism (plans are identical for every N)\n\ntrace flags:\n  --scheme NAME   lower and trace the named scheme (default h2p)\n  --audit         validate the trace against the simulator contracts,\n                  including the event-log replay reconciliation; exit\n                  nonzero on any violation\n  --summary       print the per-processor metrics snapshot table\n                  (busy/idle/bubble/stretch ms)\n  --corrupt [CLASS] deliberately corrupt the trace before auditing\n                  (demo); CLASS is overlap (default) or stretch — an\n                  in-envelope duration corruption only the replay\n                  reconciliation catches\n  --events PATH   write the JSON-lines event log to PATH ('-' = stdout)\n  --faults SPEC   run under scripted faults with recovery (h2p scheme\n                  only); SPEC is comma-separated:\n                    drop:<PROC>@<t>                   processor dropout\n                    throttle:<PROC>@<from>..<until>x<f>  rate throttle\n                    flaky:<request>x<count>           transient failures\n                    mispredict:<scale>                cost misprediction\n\nreport flags:\n  Serving-grade observability: per-QoS-class latency quantiles\n  (p50/p95/p99), per-processor utilization and bubble timelines,\n  contention-window occupancy, and deadline/SLO burn-rate accounting.\n  Every number is cross-checked against the audit replay of the run's\n  event log — a reconciliation mismatch or a causally invalid request\n  lifecycle exits nonzero.\n  --chaos-seed N  report on chaos scenario N (same workload and faults\n                  as seed N of `h2p chaos`), through the recovery\n                  runner\n  --faults SPEC   report on a scripted-fault recovery run (spec syntax\n                  as under `h2p trace --faults`)\n  --from PATH     report from a saved `--events` JSON-lines log instead\n                  of a live run ('-' = stdin)\n  --slo-budget F  allowed deadline-miss fraction per class (default\n                  0.01, i.e. a 99% on-deadline objective)\n  --json          one `h2p-report/v1` JSON object instead of the tables\n\nchaos flags:\n  --seeds N       run N seeded random fault scenarios through the\n                  recovery runner; every scenario must end recovered\n                  with audit-clean rounds or in a typed degraded\n                  outcome — exit nonzero otherwise\n  --json          one JSON object per seed plus a summary object\n\nserve flags:\n  Overload-robust virtual-time serving loop: seeded open-loop arrivals\n  flow through admission control (per-class token buckets + queue depth\n  limits), deadline-aware load shedding, lightweight-model batching,\n  incremental window planning, and bounded retry. Every request ends in\n  exactly one typed outcome; any invariant violation exits nonzero.\n  --qps F         offered load for a single point (default 50)\n  --qps-sweep LO..HI  sweep offered load from LO to HI qps\n  --steps N       sweep points, linearly spaced (default 6)\n  --seed N        load-generator / chaos seed (default 42); a fixed\n                  seed makes the whole run bit-identical\n  --requests N    requests per sweep point (default 64)\n  --window N      dispatch window / batch drain quantum (default 4)\n  --max-batch N   batching cap for adjacent identical lightweight\n                  models (default 8)\n  --chaos         inject seeded faults; execution runs through the\n                  recovery machinery and failures degrade, typed\n  --events PATH   write the last point's lifecycle event log as JSON\n                  lines ('-' = stdout), ingestible by `h2p report\n                  --from` and `h2p events`\n  --json          one `h2p-serve/v1` JSON object per point plus a\n                  summary object\n\nlint flags:\n  --json            emit one JSON object per finding plus a summary line\n  --deny-warnings   exit nonzero on warnings, not just errors\n  --corrupt CLASS   corrupt the plan before linting (demo); CLASS is one\n                    of: drop-layer, duplicate-slot, bad-proc,\n                    inflate-makespan\n  --source          lint workspace sources for determinism hazards\n                    (H2P010-H2P013) instead of linting a plan; ROOT\n                    defaults to '.'\n  --mutant CLASS    lint a seeded hazard snippet instead of the\n                    workspace (demo; must exit nonzero); CLASS is one\n                    of: hash-iteration, wall-clock, unordered-reduction,\n                    unseeded-rng\n\nmodelcheck flags:\n  --exhaustive      full DFS enumeration of the standard model suite\n                    (cursor partition/error-rule, tables cache,\n                    partition memo, DP scratch pool, planner\n                    bit-identity, recovery rounds)\n  --seeds N         PCT schedules for the randomized models (default 24)\n  --min-schedules N exit nonzero unless at least N distinct schedules\n                    were explored in total\n  --inject CLASS    seed a claim bug into the cursor path; CLASS is\n                    skip-claim (dropped claim) or split-claim (torn\n                    claim)\n  --expect-violation invert the exit code: succeed only if the injected\n                    bug was caught (self-test of the checker)\n\nexport flags:\n  --trace PATH    write the run as Chrome Trace Event JSON, loadable in\n                  chrome://tracing or ui.perfetto.dev ('-' = stdout)\n  --metrics PATH  write the metrics snapshot JSON ('-' = stdout)"
    );
    std::process::exit(2);
}

/// Which trace corruption `h2p trace --corrupt [CLASS]` injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceCorruption {
    /// Overlap two spans and beat a solo time — the plain envelope
    /// audit catches this.
    Overlap,
    /// Stretch the last span towards (but within) the conservative
    /// duration bound — only the replay reconciliation catches this.
    Stretch,
}

struct Args {
    soc: SocSpec,
    scheme: Scheme,
    models: Vec<ModelId>,
    audit: bool,
    corrupt: Option<TraceCorruption>,
    events: Option<String>,
    json: bool,
    deny_warnings: bool,
    mutation: Option<Mutation>,
    threads: usize,
    summary: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    faults: Option<String>,
}

/// Parses the common tail of the argument list. `lint` switches
/// `--corrupt` from the trace subcommand's bare flag to the lint
/// subcommand's `--corrupt CLASS` form.
fn parse_args(rest: &[String], lint: bool) -> Args {
    let mut soc = SocSpec::kirin_990();
    let mut scheme = Scheme::Hetero2Pipe;
    let mut models = Vec::new();
    let mut audit = false;
    let mut corrupt = None;
    let mut events = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut mutation = None;
    let mut threads = 0usize;
    let mut summary = false;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut faults = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--soc" => {
                i += 1;
                soc = rest.get(i).and_then(|s| parse_soc(s)).unwrap_or_else(|| {
                    eprintln!("unknown soc");
                    usage()
                });
            }
            "--scheme" => {
                i += 1;
                scheme = rest
                    .get(i)
                    .and_then(|s| parse_scheme(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scheme");
                        usage()
                    });
            }
            "--threads" => {
                i += 1;
                threads = rest.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a non-negative integer");
                    usage()
                });
            }
            "--audit" => audit = true,
            "--corrupt" if lint => {
                i += 1;
                mutation = Some(rest.get(i).and_then(|s| Mutation::parse(s)).unwrap_or_else(
                    || {
                        eprintln!(
                            "--corrupt needs a class: {}",
                            Mutation::ALL.map(Mutation::name).join(", ")
                        );
                        usage()
                    },
                ));
            }
            // The class operand is optional (legacy `--corrupt MODEL...`
            // keeps meaning overlap), so peek before consuming it.
            "--corrupt" => {
                corrupt = Some(match rest.get(i + 1).map(String::as_str) {
                    Some("overlap") => {
                        i += 1;
                        TraceCorruption::Overlap
                    }
                    Some("stretch") => {
                        i += 1;
                        TraceCorruption::Stretch
                    }
                    _ => TraceCorruption::Overlap,
                });
            }
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--summary" => summary = true,
            "--events" => {
                i += 1;
                events = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--events needs a path (or '-')");
                    usage()
                }));
            }
            "--trace" => {
                i += 1;
                trace_out = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--trace needs a path (or '-')");
                    usage()
                }));
            }
            "--metrics" => {
                i += 1;
                metrics_out = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--metrics needs a path (or '-')");
                    usage()
                }));
            }
            "--faults" => {
                i += 1;
                faults = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--faults needs a comma-separated fault spec");
                    usage()
                }));
            }
            m => match parse_model(m) {
                Some(id) => models.push(id),
                None => {
                    eprintln!("unknown model: {m}");
                    usage()
                }
            },
        }
        i += 1;
    }
    if models.is_empty() {
        eprintln!("no models given");
        usage()
    }
    Args {
        soc,
        scheme,
        models,
        audit,
        corrupt,
        events,
        json,
        deny_warnings,
        mutation,
        threads,
        summary,
        trace_out,
        metrics_out,
        faults,
    }
}

/// Writes `content` to `path`, with `-` meaning stdout.
fn write_out(path: &str, content: &str, what: &str) {
    if path == "-" {
        println!("{content}");
    } else {
        std::fs::write(path, content).expect("write output file");
        eprintln!("{what} written to {path}");
    }
}

fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
    ids.iter().map(|m| m.graph()).collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    match cmd.as_str() {
        "socs" => {
            for soc in SocSpec::evaluation_platforms() {
                let procs: Vec<String> = soc
                    .processors
                    .iter()
                    .map(|p| format!("{} ({:.0} GFLOPS)", p.name, p.peak_gflops))
                    .collect();
                println!("{:<16} {}", soc.name, procs.join(", "));
            }
        }
        "zoo" => {
            for id in ModelId::ALL {
                let g = id.graph();
                println!(
                    "{:<12} {:>3} layers  {:>7.1} MB  {:>6.2} GFLOPs  NPU: {}",
                    id.name(),
                    g.len(),
                    g.weight_bytes() as f64 / (1024.0 * 1024.0),
                    g.total_flops() / 1e9,
                    if g.fully_npu_supported() {
                        "yes"
                    } else {
                        "fallback"
                    }
                );
            }
        }
        "plan" => {
            let args = parse_args(&argv[1..], false);
            let config = hetero2pipe::planner::PlannerConfig {
                threads: args.threads,
                ..hetero2pipe::planner::PlannerConfig::default()
            };
            let planner = Planner::with_config(&args.soc, config).expect("planner");
            let planned = planner.plan(&graphs(&args.models)).expect("plan");
            println!(
                "plan on {} ({} planner thread{}):",
                args.soc.name,
                config.effective_threads(),
                if config.effective_threads() == 1 {
                    ""
                } else {
                    "s"
                }
            );
            print!("{}", PlanSummary::new(&planned.plan, &args.soc));
        }
        "run" => {
            let args = parse_args(&argv[1..], false);
            let report = args
                .scheme
                .run(&args.soc, &graphs(&args.models))
                .expect("run");
            println!("{} on {}:", args.scheme.name(), args.soc.name);
            print!("{}", ReportSummary::new(&report));
        }
        "gantt" => {
            let args = parse_args(&argv[1..], false);
            let planner = Planner::new(&args.soc).expect("planner");
            let planned = planner.plan(&graphs(&args.models)).expect("plan");
            let report = planned.execute(&args.soc).expect("execute");
            let names: Vec<&str> = args
                .soc
                .processors
                .iter()
                .map(|p| p.name.as_str())
                .collect();
            print!("{}", report.trace.render_gantt(&names, 100));
            println!(
                "latency {:.1} ms, throughput {:.2} inf/s",
                report.makespan_ms, report.throughput_per_sec
            );
        }
        "trace" => {
            let args = parse_args(&argv[1..], false);
            if let Some(spec) = args.faults.clone() {
                run_trace_faulted(&args, &spec);
                return;
            }
            // Every scheme lowers through `Scheme::lower -> LoweredPlan`,
            // so the trace-audit gate covers the baselines too, not just
            // the Hetero²Pipe planner.
            let lowered = args
                .scheme
                .lower(&args.soc, &graphs(&args.models))
                .expect("lower");
            let tasks = lowered.simulation().tasks().to_vec();
            let (mut report, events) = lowered.execute_logged().expect("execute");

            match args.corrupt {
                Some(TraceCorruption::Overlap) => {
                    corrupt_trace(&mut report.trace);
                    eprintln!("trace deliberately corrupted (--corrupt overlap)");
                }
                Some(TraceCorruption::Stretch) => {
                    corrupt_stretch(&mut report.trace, &args.soc, &tasks);
                    eprintln!("trace deliberately corrupted (--corrupt stretch)");
                }
                None => {}
            }

            let names: Vec<&str> = args
                .soc
                .processors
                .iter()
                .map(|p| p.name.as_str())
                .collect();
            print!("{}", report.trace.render_gantt(&names, 100));
            for (p, name) in names.iter().enumerate() {
                let id = h2p_simulator::ProcessorId(p);
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

            if args.summary {
                let metrics = MetricsRegistry::new();
                record_trace_metrics(&args.soc, &report.trace, &metrics);
                print!("{}", metrics.snapshot().render_table());
            }

            if let Some(path) = &args.events {
                let mut lines = String::new();
                for (i, t) in tasks.iter().enumerate() {
                    lines.push_str(&format!(
                        "{{\"event\":\"task\",\"task\":{i},\"label\":\"{}\",\"processor\":{},\"solo_ms\":{}}}\n",
                        json_escape(&t.label),
                        t.processor.index(),
                        t.solo_ms
                    ));
                }
                for e in &events {
                    lines.push_str(&e.json_line());
                    lines.push('\n');
                }
                // The causal request lifecycle for the same run, so a
                // saved log carries enough history for `h2p report
                // --from` to rebuild latency and SLO accounting.
                let lifecycle_log = LifecycleLog::new();
                let trace_id = TraceId::of_names(args.models.iter().map(|m| m.name()));
                for r in 0..args.models.len() {
                    lifecycle_log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
                    lifecycle_log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Plan);
                }
                record_request_lifecycle(&lifecycle_log, trace_id, &report, 0.0);
                for line in lifecycle_log.json_lines() {
                    lines.push_str(&line);
                    lines.push('\n');
                }
                if path == "-" {
                    print!("{lines}");
                } else {
                    std::fs::write(path, lines).expect("write events");
                    eprintln!("event log written to {path}");
                }
            }

            if args.audit {
                // The reconciled audit: envelope checks plus the replay
                // of the logged piecewise interference rates, which also
                // catches in-envelope corruption (--corrupt stretch).
                let audit_report =
                    audit::audit_with_events(&args.soc, &tasks, &events, &report.trace);
                print!("{audit_report}");
                if !audit_report.is_clean() {
                    std::process::exit(1);
                }
            }
        }
        "export" => {
            let args = parse_args(&argv[1..], false);
            if args.trace_out.is_none() && args.metrics_out.is_none() {
                eprintln!("export needs --trace PATH and/or --metrics PATH");
                usage()
            }
            let reqs = graphs(&args.models);
            let telemetry = Arc::new(Telemetry::new());
            // Plan-producing schemes run through a planner that shares
            // this telemetry sink, so the export carries planner phase
            // spans and planning metrics; task-graph schemes lower
            // directly and export engine-side telemetry only.
            let (lowered, mitigation) = match args.scheme {
                Scheme::Hetero2Pipe | Scheme::NoCt => {
                    let config = if args.scheme == Scheme::NoCt {
                        PlannerConfig::no_ct()
                    } else {
                        PlannerConfig::default()
                    };
                    let mut planner = Planner::with_config(&args.soc, config).expect("planner");
                    planner.set_telemetry(Arc::clone(&telemetry));
                    let planned = planner.plan(&reqs).expect("plan");
                    let mit = planned.mitigation.clone();
                    (planned.lower(&args.soc).expect("lower"), mit)
                }
                _ => (args.scheme.lower(&args.soc, &reqs).expect("lower"), None),
            };
            let tasks = lowered.simulation().tasks().to_vec();
            let (report, events) = lowered.execute_logged().expect("execute");

            let audit_report = audit::audit_with_events(&args.soc, &tasks, &events, &report.trace);
            telemetry
                .metrics
                .add("audit.checks", audit_report.checks as u64);
            telemetry
                .metrics
                .add("audit.violations", audit_report.violations.len() as u64);

            let mut doc = chrome_trace(&args.soc, &tasks, &events);
            add_planner_spans(&mut doc, &telemetry.spans.records());
            // One async slice per request: first dispatch to completion.
            let slices = request_slices(&report.trace);
            for (r, slice) in slices.iter().enumerate() {
                let Some((start, end)) = slice else { continue };
                let name = args.models.get(r).map_or_else(
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
            // Instant markers for the mitigation pass's relocations,
            // anchored where the moved request actually started.
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
            record_trace_metrics(&args.soc, &report.trace, &telemetry.metrics);

            if let Err(err) = doc.validate() {
                eprintln!("internal error: exported trace fails its schema check: {err}");
                std::process::exit(1);
            }
            if let Some(path) = &args.trace_out {
                write_out(path, &doc.to_json(), "chrome trace");
            }
            if let Some(path) = &args.metrics_out {
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
        "report" => {
            run_report(&argv[1..]);
        }
        "chaos" => {
            run_chaos(&argv[1..]);
        }
        "events" => {
            run_events(&argv[1..]);
        }
        "serve" => {
            run_serve(&argv[1..]);
        }
        "lint" => {
            // `--source` switches to the workspace determinism lints,
            // which take no models — intercept before the common parser
            // (it requires at least one model).
            if argv[1..].iter().any(|a| a == "--source") {
                run_source_lint(&argv[1..]);
            }
            let args = parse_args(&argv[1..], true);
            let diags = run_lint(&args);
            if args.json {
                print!("{}", diags.to_json_lines());
            } else {
                print!("{diags}");
            }
            if diags.should_fail(args.deny_warnings) {
                std::process::exit(1);
            }
        }
        "modelcheck" => {
            run_modelcheck(&argv[1..]);
        }
        _ => usage(),
    }
}

/// Human-readable description of one scripted fault, with processor
/// names resolved against the target SoC.
fn fault_desc(soc: &SocSpec, f: &FaultSpec) -> String {
    let proc_name = |p: h2p_simulator::ProcessorId| {
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
fn run_trace_faulted(args: &Args, spec: &str) {
    if args.scheme != Scheme::Hetero2Pipe {
        eprintln!(
            "--faults recovers through the h2p planner; --scheme {} is not supported",
            args.scheme.name()
        );
        usage()
    }
    let faults = match parse_fault_specs(spec, &args.soc) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("bad --faults spec: {err}");
            usage()
        }
    };
    println!(
        "injecting {} scripted fault(s) on {}:",
        faults.len(),
        args.soc.name
    );
    for f in &faults {
        println!("  - {}", fault_desc(&args.soc, f));
    }
    let planner = Planner::new(&args.soc).expect("planner");
    let report = run_with_recovery(
        &planner,
        &graphs(&args.models),
        &faults,
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
    if let Some(path) = &args.events {
        // Concatenate the per-round logs on the global timeline. Task
        // ids restart per round, so the log documents the recovery
        // story rather than a single replayable run.
        let mut lines = String::new();
        for round in &report.rounds {
            for e in &round.events {
                lines.push_str(&shift_event(e, round.offset_ms).json_line());
                lines.push('\n');
            }
        }
        // The recovery runner records the causal request lifecycle
        // (admit → plan → recover → execute → complete/degrade) into the
        // planner's telemetry; append it so the log tells the whole
        // per-request story, not just the engine's task view.
        for line in planner.telemetry().lifecycle.json_lines() {
            lines.push_str(&line);
            lines.push('\n');
        }
        if path == "-" {
            print!("{lines}");
        } else {
            std::fs::write(path, lines).expect("write events");
            eprintln!("event log written to {path}");
        }
    }
    if !report.all_rounds_audit_clean() {
        eprintln!("audit violation in at least one recovery round");
        std::process::exit(1);
    }
}

/// Checks one chaos scenario's report against the sweep's invariants;
/// returns a violation description, or `None` if the scenario is
/// acceptable (recovered audit-clean, or degraded with a typed reason).
fn chaos_violation(
    report: &hetero2pipe::recovery::RecoveryReport,
    policy: &RecoveryPolicy,
    n_req: usize,
) -> Option<String> {
    if !report.all_rounds_audit_clean() {
        return Some("a recovery round failed its faulted audit".to_owned());
    }
    if let RecoveryOutcome::Degraded(e) = &report.outcome {
        let typed = matches!(
            e,
            PlanError::RetriesExhausted { .. }
                | PlanError::DeadlineExceeded { .. }
                | PlanError::NoSurvivingProcessors
        );
        if !typed {
            return Some(format!("untyped degraded outcome: {e}"));
        }
    }
    if report.retries > policy.max_retries * n_req {
        return Some(format!(
            "retry budget breached: {} retries granted for {} request(s)",
            report.retries, n_req
        ));
    }
    // No task may ever start on a processor that dropped out — within a
    // round or in any later round.
    let mut down_before: Vec<bool> = Vec::new();
    for round in &report.rounds {
        let mut down = down_before.clone();
        for e in &round.events {
            match e {
                EngineEvent::ProcessorDown { processor, .. } => {
                    let p = processor.index();
                    if down.len() <= p {
                        down.resize(p + 1, false);
                    }
                    down[p] = true;
                }
                EngineEvent::Start {
                    processor, task, ..
                } if down.get(processor.index()).copied().unwrap_or(false) => {
                    return Some(format!(
                        "task {task} started on down processor {}",
                        processor.index()
                    ));
                }
                _ => {}
            }
        }
        down_before = down;
    }
    None
}

/// `h2p chaos --seeds N`: run N seeded random fault scenarios through
/// the recovery runner and assert every one ends recovered audit-clean
/// or in a typed degraded outcome — never a panic, an audit violation,
/// an unbounded retry storm, or a task on a down processor.
fn run_chaos(rest: &[String]) {
    let mut soc = SocSpec::kirin_990();
    let mut seeds: Option<u64> = None;
    let mut json = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--soc" => {
                i += 1;
                soc = rest.get(i).and_then(|s| parse_soc(s)).unwrap_or_else(|| {
                    eprintln!("unknown soc");
                    usage()
                });
            }
            "--seeds" => {
                i += 1;
                seeds = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--seeds needs a positive integer");
                            usage()
                        }),
                );
            }
            "--json" => json = true,
            other => {
                eprintln!("unknown chaos flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    let Some(seeds) = seeds else {
        eprintln!("chaos needs --seeds N");
        usage()
    };
    let planner = Planner::new(&soc).expect("planner");
    let policy = RecoveryPolicy::default();
    let mut failures = 0usize;
    for seed in 0..seeds {
        let len = 2 + (seed % 3) as usize;
        let models = random_models(seed.wrapping_mul(0x9E37).wrapping_add(17), len);
        let reqs = graphs(&models);
        let faults = chaos_faults(&soc, reqs.len(), seed);
        let verdict = match run_with_recovery(&planner, &reqs, &faults, &policy) {
            Err(e) => Some(format!("hard planning error: {e}")),
            Ok(report) => {
                let violation = chaos_violation(&report, &policy, reqs.len());
                if violation.is_none() {
                    let outcome = match &report.outcome {
                        RecoveryOutcome::Recovered => "recovered".to_owned(),
                        RecoveryOutcome::Degraded(e) => format!("degraded ({e})"),
                    };
                    if json {
                        println!(
                            "{{\"seed\":{seed},\"ok\":true,\"requests\":{},\
                             \"faults\":{},\"rounds\":{},\"replans\":{},\
                             \"retries\":{},\"outcome\":\"{}\"}}",
                            reqs.len(),
                            faults.len(),
                            report.rounds.len(),
                            report.replans,
                            report.retries,
                            json_escape(&outcome),
                        );
                    } else {
                        println!(
                            "seed {seed:>3}: {} request(s), {} fault(s), {} round(s), \
                             {} replan(s), {} retry(ies) — {outcome}",
                            reqs.len(),
                            faults.len(),
                            report.rounds.len(),
                            report.replans,
                            report.retries,
                        );
                    }
                }
                violation
            }
        };
        if let Some(why) = verdict {
            if json {
                println!(
                    "{{\"seed\":{seed},\"ok\":false,\"why\":\"{}\"}}",
                    json_escape(&why)
                );
            } else {
                println!("seed {seed:>3}: FAIL — {why}");
            }
            failures += 1;
        }
    }
    if json {
        println!(
            "{{\"summary\":true,\"soc\":\"{}\",\"seeds\":{seeds},\"failures\":{failures}}}",
            json_escape(&soc.name)
        );
    } else {
        println!(
            "chaos sweep on {}: {}/{} scenario(s) ok",
            soc.name,
            seeds - failures as u64,
            seeds
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Tolerance for reconciling replayed completions against the trace's
/// and lifecycle's completion times: both derive from the same engine
/// floats, so anything beyond rounding noise is a real discrepancy.
const RECONCILE_EPS: f64 = 1e-6;

/// Per-request deadlines from a lowered task graph: each request's solo
/// time sum scaled by its class multiplier. Requests that lowered to
/// nothing get no deadline.
fn deadlines_from_tasks(tasks: &[TaskSpec], classes: &[QosClass]) -> Vec<Option<f64>> {
    let mut solo = vec![0.0f64; classes.len()];
    for t in tasks {
        if let Some(r) = request_of_label(&t.label) {
            if r < solo.len() {
                solo[r] += t.solo_ms;
            }
        }
    }
    classes
        .iter()
        .zip(&solo)
        .map(|(&c, &s)| (s > 0.0).then(|| h2p_serve::slo_multiplier(c) * s))
        .collect()
}

/// Everything `h2p report` renders, assembled per source mode (live
/// run, recovery run, or saved event log).
struct ReportData {
    /// One-line description of where the numbers came from.
    source: String,
    processor_names: Vec<String>,
    /// Replayed execution spans (global timeline).
    spans: Vec<ExecSpan>,
    /// Per-request model names.
    names: Vec<String>,
    classes: Vec<QosClass>,
    /// Completion time per request; `None` = never completed.
    latencies: Vec<Option<f64>>,
    deadlines: Vec<Option<f64>>,
    /// Audit-replay totals: tasks reconstructed / tasks described, and
    /// the last replayed finish instant.
    replay_done: usize,
    replay_total: usize,
    replay_last_ms: f64,
    lifecycle_events: usize,
    lifecycle_violations: Vec<String>,
    /// Reconciliation failures between the replay, the trace, and the
    /// lifecycle stream (empty = everything reconciles).
    mismatches: Vec<String>,
    /// Non-fatal caveats (e.g. a log without task headers).
    notes: Vec<String>,
}

/// Folds a span's end into the per-request completion envelope.
fn fold_request_ends(ends: &mut [Option<f64>], spans: &[ExecSpan]) {
    for s in spans {
        if let Some(r) = s.request {
            if let Some(slot) = ends.get_mut(r) {
                *slot = Some(slot.map_or(s.end_ms, |e| e.max(s.end_ms)));
            }
        }
    }
}

/// Report source: one live batch run (any scheme), reconciled three
/// ways — trace completions, audit-replayed spans, and the lifecycle
/// stream must all agree.
fn report_from_live(soc: &SocSpec, scheme: Scheme, models: &[ModelId]) -> ReportData {
    let reqs = graphs(models);
    let lowered = scheme.lower(soc, &reqs).expect("lower");
    let tasks = lowered.simulation().tasks().to_vec();
    let (report, events) = lowered.execute_logged().expect("execute");
    let replayed = match audit::replay(tasks.len(), &events) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report: event-log replay failed: {e}");
            std::process::exit(1);
        }
    };
    let mut spans = Vec::new();
    let mut replay_done = 0usize;
    let mut replay_last_ms = 0.0f64;
    for (t, rs) in replayed.iter().enumerate() {
        let Some(rs) = rs else { continue };
        replay_done += 1;
        replay_last_ms = replay_last_ms.max(rs.end_ms);
        spans.push(ExecSpan {
            request: request_of_label(&tasks[t].label),
            processor: tasks[t].processor.index(),
            start_ms: rs.start_ms,
            end_ms: rs.end_ms,
        });
    }
    let n = reqs.len();
    let mut latencies: Vec<Option<f64>> = vec![None; n];
    fold_request_ends(&mut latencies, &spans);
    let mut mismatches = Vec::new();
    for (r, lat) in latencies.iter().enumerate() {
        let reported = report.request_latency_ms.get(r).copied().unwrap_or(0.0);
        match lat {
            Some(l) if (l - reported).abs() > RECONCILE_EPS => mismatches.push(format!(
                "request {r}: replayed completion {l:.6} ms != trace completion {reported:.6} ms"
            )),
            None => mismatches.push(format!(
                "request {r}: no replayed spans but trace completed at {reported:.6} ms"
            )),
            _ => {}
        }
    }

    // The same lifecycle stream the `--events` writer emits, validated
    // and reconciled against the replay.
    let lifecycle_log = LifecycleLog::new();
    let trace_id = TraceId::of_names(models.iter().map(|m| m.name()));
    for r in 0..n {
        lifecycle_log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
        lifecycle_log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Plan);
    }
    record_request_lifecycle(&lifecycle_log, trace_id, &report, 0.0);
    let lf = lifecycle_log.records();
    let lifecycle_violations: Vec<String> = lifecycle::validate(&lf)
        .iter()
        .map(ToString::to_string)
        .collect();
    for e in &lf {
        if let LifecycleStage::Complete { latency_ms } = e.stage {
            match latencies.get(e.request.0).copied().flatten() {
                Some(l) if (l - latency_ms).abs() <= RECONCILE_EPS => {}
                _ => mismatches.push(format!(
                    "request {}: lifecycle completion {latency_ms:.6} ms does not \
                     reconcile with the replay",
                    e.request.0
                )),
            }
        }
    }

    let classes: Vec<QosClass> = reqs
        .iter()
        .map(|g| h2p_serve::qos_class(g.total_flops()))
        .collect();
    let deadlines = deadlines_from_tasks(&tasks, &classes);
    ReportData {
        source: format!("{} on {} ({} request(s))", scheme.name(), soc.name, n),
        processor_names: soc.processors.iter().map(|p| p.name.clone()).collect(),
        spans,
        names: models.iter().map(|m| m.name().to_owned()).collect(),
        classes,
        latencies,
        deadlines,
        replay_done,
        replay_total: tasks.len(),
        replay_last_ms,
        lifecycle_events: lf.len(),
        lifecycle_violations,
        mismatches,
        notes: Vec::new(),
    }
}

/// Report source: a recovery run under faults (scripted or chaos).
/// Every round's event log is replayed independently and spliced onto
/// the global timeline through the round offsets; the lifecycle stream
/// the recovery runner recorded is the authority for completions and
/// must reconcile with the replayed span envelopes exactly.
fn report_from_recovery(
    soc: &SocSpec,
    models: &[ModelId],
    faults: &[FaultSpec],
    source: String,
) -> ReportData {
    let reqs = graphs(models);
    let planner = Planner::new(soc).expect("planner");
    let report =
        run_with_recovery(&planner, &reqs, faults, &RecoveryPolicy::default()).expect("recovery");
    let lf = planner.telemetry().lifecycle.records();
    let lifecycle_violations: Vec<String> = lifecycle::validate(&lf)
        .iter()
        .map(ToString::to_string)
        .collect();

    let mut spans = Vec::new();
    let mut replay_done = 0usize;
    let mut replay_total = 0usize;
    let mut replay_last_ms = 0.0f64;
    let mut mismatches = Vec::new();
    for (i, round) in report.rounds.iter().enumerate() {
        let replayed = match audit::replay(round.labels.len(), &round.events) {
            Ok(r) => r,
            Err(e) => {
                mismatches.push(format!("round {i}: event-log replay failed: {e}"));
                continue;
            }
        };
        let mut proc_of = vec![0usize; round.labels.len()];
        for e in &round.events {
            if let EngineEvent::Start {
                task, processor, ..
            } = e
            {
                if let Some(slot) = proc_of.get_mut(*task) {
                    *slot = processor.index();
                }
            }
        }
        replay_total += replayed.len();
        for (t, rs) in replayed.iter().enumerate() {
            let Some(rs) = rs else { continue };
            replay_done += 1;
            let end = round.offset_ms + rs.end_ms;
            replay_last_ms = replay_last_ms.max(end);
            spans.push(ExecSpan {
                request: round.labels.get(t).and_then(|l| request_of_label(l)),
                processor: proc_of[t],
                start_ms: round.offset_ms + rs.start_ms,
                end_ms: end,
            });
        }
    }

    let n = reqs.len();
    let mut latencies: Vec<Option<f64>> = vec![None; n];
    for e in &lf {
        if let LifecycleStage::Complete { latency_ms } = e.stage {
            if let Some(slot) = latencies.get_mut(e.request.0) {
                *slot = Some(latency_ms);
            }
        }
    }
    // Reconcile the lifecycle completions against the per-round replay
    // envelopes and the runner's own completion flags.
    let mut span_ends: Vec<Option<f64>> = vec![None; n];
    fold_request_ends(&mut span_ends, &spans);
    for r in 0..n {
        match (latencies[r], span_ends[r]) {
            (Some(c), Some(e)) if (c - e).abs() > RECONCILE_EPS => mismatches.push(format!(
                "request {r}: lifecycle completion {c:.6} ms != replayed last span end {e:.6} ms"
            )),
            (Some(c), None) => mismatches.push(format!(
                "request {r}: lifecycle completion {c:.6} ms but no replayed spans"
            )),
            _ => {}
        }
        if report.completed.get(r).copied().unwrap_or(false) != latencies[r].is_some() {
            mismatches.push(format!(
                "request {r}: recovery runner and lifecycle disagree on completion"
            ));
        }
    }

    // Deadline basis: the fault-free lowering of the same workload (a
    // separate planner so its lifecycle stream stays untouched).
    let classes: Vec<QosClass> = reqs
        .iter()
        .map(|g| h2p_serve::qos_class(g.total_flops()))
        .collect();
    let basis = Planner::new(soc)
        .expect("planner")
        .plan(&reqs)
        .expect("plan")
        .lower(soc)
        .expect("lower");
    let deadlines = deadlines_from_tasks(basis.simulation().tasks(), &classes);

    let mut notes = Vec::new();
    match &report.outcome {
        RecoveryOutcome::Recovered => {}
        RecoveryOutcome::Degraded(e) => notes.push(format!("degraded outcome: {e}")),
    }
    ReportData {
        source,
        processor_names: soc.processors.iter().map(|p| p.name.clone()).collect(),
        spans,
        names: models.iter().map(|m| m.name().to_owned()).collect(),
        classes,
        latencies,
        deadlines,
        replay_done,
        replay_total,
        replay_last_ms,
        lifecycle_events: lf.len(),
        lifecycle_violations,
        mismatches,
        notes,
    }
}

/// Report source: a saved `--events` JSON-lines log. Batch logs replay
/// fully (task headers + engine events + lifecycle). Recovery logs
/// concatenate rounds with restarting task ids, so their engine stream
/// is not replayable — the report then falls back to the lifecycle
/// completions and says so.
fn report_from_log(soc: &SocSpec, path: &str) -> ReportData {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let log = match eventlog::parse_event_log(&text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for w in &log.warnings {
        eprintln!("warning: {w}");
    }
    let n_tasks = log.task_count();
    let mut headers: Vec<Option<&eventlog::TaskHeader>> = vec![None; n_tasks];
    for h in &log.tasks {
        if let Some(slot) = headers.get_mut(h.task) {
            *slot = Some(h);
        }
    }
    let lifecycle_violations: Vec<String> = lifecycle::validate(&log.lifecycle)
        .iter()
        .map(ToString::to_string)
        .collect();

    // Request universe: everything the labels or the lifecycle mention.
    let mut n = log
        .lifecycle
        .iter()
        .map(|e| e.request.0 + 1)
        .max()
        .unwrap_or(0);
    for h in log.tasks.iter() {
        if let Some(r) = request_of_label(&h.label) {
            n = n.max(r + 1);
        }
    }
    let mut names: Vec<String> = (0..n).map(|r| format!("request{r}")).collect();
    let mut classes: Vec<QosClass> = vec![QosClass::Standard; n];
    let mut solo_known = false;
    for h in &log.tasks {
        if let Some(r) = request_of_label(&h.label) {
            if r < n {
                solo_known = true;
                let model = h.label.split('#').next().unwrap_or("");
                names[r] = model.to_owned();
                if let Some(id) = parse_model(model) {
                    classes[r] = h2p_serve::qos_class(id.graph().total_flops());
                }
            }
        }
    }
    let header_specs: Vec<TaskSpec> = log
        .tasks
        .iter()
        .map(|h| TaskSpec::new(h.label.clone(), h.processor, h.solo_ms))
        .collect();
    let deadlines = if solo_known {
        deadlines_from_tasks(&header_specs, &classes)
    } else {
        vec![None; n]
    };

    let mut notes = Vec::new();
    let mut mismatches = Vec::new();
    let mut spans = Vec::new();
    let mut replay_done = 0usize;
    let mut replay_last_ms = 0.0f64;
    let mut latencies: Vec<Option<f64>> = vec![None; n];
    for e in &log.lifecycle {
        if let LifecycleStage::Complete { latency_ms } = e.stage {
            if let Some(slot) = latencies.get_mut(e.request.0) {
                *slot = Some(latency_ms);
            }
        }
    }
    if log.tasks.is_empty() && log.events.is_empty() && !log.lifecycle.is_empty() {
        // Lifecycle-only log (e.g. `h2p serve --events`): there is no
        // engine stream to reconcile against, so the lifecycle
        // completions stand on their own.
        notes.push(
            "lifecycle-only log (no engine stream); completions from the lifecycle stream"
                .to_owned(),
        );
    } else {
        match audit::replay(n_tasks, &log.events) {
            Ok(replayed) => {
                let mut proc_of: Vec<usize> = headers
                    .iter()
                    .map(|h| h.map_or(0, |h| h.processor.index()))
                    .collect();
                for e in &log.events {
                    if let EngineEvent::Start {
                        task, processor, ..
                    } = e
                    {
                        if let Some(slot) = proc_of.get_mut(*task) {
                            *slot = processor.index();
                        }
                    }
                }
                for (t, rs) in replayed.iter().enumerate() {
                    let Some(rs) = rs else { continue };
                    replay_done += 1;
                    replay_last_ms = replay_last_ms.max(rs.end_ms);
                    spans.push(ExecSpan {
                        request: headers
                            .get(t)
                            .copied()
                            .flatten()
                            .and_then(|h| request_of_label(&h.label)),
                        processor: proc_of.get(t).copied().unwrap_or(0),
                        start_ms: rs.start_ms,
                        end_ms: rs.end_ms,
                    });
                }
                let mut span_ends: Vec<Option<f64>> = vec![None; n];
                fold_request_ends(&mut span_ends, &spans);
                if log.lifecycle.is_empty() {
                    // Pre-lifecycle log: the replay envelopes are all there is.
                    latencies = span_ends;
                    notes.push("log has no lifecycle stream; completions from replay".to_owned());
                } else {
                    for r in 0..n {
                        match (latencies[r], span_ends[r]) {
                            (Some(c), Some(e)) if (c - e).abs() > RECONCILE_EPS => {
                                mismatches.push(format!(
                                    "request {r}: lifecycle completion {c:.6} ms != replayed \
                                 last span end {e:.6} ms"
                                ));
                            }
                            (Some(c), None) => mismatches.push(format!(
                                "request {r}: lifecycle completion {c:.6} ms but no replayed spans"
                            )),
                            _ => {}
                        }
                    }
                }
            }
            Err(e) => {
                notes.push(format!(
                    "engine stream not replayable ({e}); utilization omitted, \
                     completions from the lifecycle stream"
                ));
            }
        }
    }

    // Without task headers there is no solo-time basis for deadlines.
    if !solo_known && n > 0 {
        notes.push("log has no task headers; no deadline basis, QoS class defaults".to_owned());
    }
    let proc_count = spans.iter().map(|s| s.processor + 1).max().unwrap_or(0);
    let processor_names: Vec<String> = (0..proc_count)
        .map(|p| {
            soc.processors
                .get(p)
                .map_or_else(|| format!("proc{p}"), |s| s.name.clone())
        })
        .collect();
    ReportData {
        source: format!("event log {path} ({n} request(s))"),
        processor_names,
        spans,
        names,
        classes,
        latencies,
        deadlines,
        replay_done,
        replay_total: n_tasks,
        replay_last_ms,
        lifecycle_events: log.lifecycle.len(),
        lifecycle_violations,
        mismatches,
        notes,
    }
}

/// `h2p report`: the serving-grade observability report — per-QoS-class
/// latency quantiles, per-processor utilization/bubble timelines,
/// occupancy, and deadline/SLO accounting, every number cross-checked
/// against the audit replay. Exits nonzero on a reconciliation mismatch
/// or a causally invalid lifecycle stream.
fn run_report(rest: &[String]) -> ! {
    let mut soc = SocSpec::kirin_990();
    let mut scheme = Scheme::Hetero2Pipe;
    let mut models: Vec<ModelId> = Vec::new();
    let mut json = false;
    let mut from: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut faults: Option<String> = None;
    let mut budget = SloSummary::DEFAULT_BUDGET;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--soc" => {
                i += 1;
                soc = rest.get(i).and_then(|s| parse_soc(s)).unwrap_or_else(|| {
                    eprintln!("unknown soc");
                    usage()
                });
            }
            "--scheme" => {
                i += 1;
                scheme = rest
                    .get(i)
                    .and_then(|s| parse_scheme(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scheme");
                        usage()
                    });
            }
            "--json" => json = true,
            "--from" => {
                i += 1;
                from = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--from needs a path (or '-')");
                    usage()
                }));
            }
            "--chaos-seed" => {
                i += 1;
                chaos_seed = Some(rest.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--chaos-seed needs a non-negative integer");
                    usage()
                }));
            }
            "--faults" => {
                i += 1;
                faults = Some(rest.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--faults needs a comma-separated fault spec");
                    usage()
                }));
            }
            "--slo-budget" => {
                i += 1;
                budget = rest
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&b: &f64| b > 0.0 && b <= 1.0)
                    .unwrap_or_else(|| {
                        eprintln!("--slo-budget needs a fraction in (0, 1]");
                        usage()
                    });
            }
            m => match parse_model(m) {
                Some(id) => models.push(id),
                None => {
                    eprintln!("unknown model: {m}");
                    usage()
                }
            },
        }
        i += 1;
    }

    let data = if let Some(path) = from {
        if !models.is_empty() || faults.is_some() || chaos_seed.is_some() {
            eprintln!("--from reports on a saved log; drop the models/faults flags");
            usage()
        }
        report_from_log(&soc, &path)
    } else if let Some(seed) = chaos_seed {
        if !models.is_empty() || faults.is_some() {
            eprintln!("--chaos-seed derives its workload from the seed; drop the models");
            usage()
        }
        // Exactly the scenario `h2p chaos` runs for this seed.
        let len = 2 + (seed % 3) as usize;
        let models = random_models(seed.wrapping_mul(0x9E37).wrapping_add(17), len);
        let fault_list = chaos_faults(&soc, models.len(), seed);
        let source = format!(
            "chaos seed {seed} on {} ({} request(s), {} fault(s))",
            soc.name,
            models.len(),
            fault_list.len()
        );
        report_from_recovery(&soc, &models, &fault_list, source)
    } else if let Some(spec) = faults {
        if models.is_empty() {
            eprintln!("no models given");
            usage()
        }
        let fault_list = match parse_fault_specs(&spec, &soc) {
            Ok(f) => f,
            Err(err) => {
                eprintln!("bad --faults spec: {err}");
                usage()
            }
        };
        let source = format!(
            "faulted h2p on {} ({} request(s), {} scripted fault(s))",
            soc.name,
            models.len(),
            fault_list.len()
        );
        report_from_recovery(&soc, &models, &fault_list, source)
    } else {
        if models.is_empty() {
            eprintln!("no models given");
            usage()
        }
        report_from_live(&soc, scheme, &models)
    };

    if json {
        println!("{}", render_report_json(&data, budget));
    } else {
        print_report_text(&data, budget);
    }
    let ok = data.mismatches.is_empty() && data.lifecycle_violations.is_empty();
    if !ok {
        for m in &data.mismatches {
            eprintln!("report: reconciliation: {m}");
        }
        for v in &data.lifecycle_violations {
            eprintln!("report: lifecycle: {v}");
        }
    }
    std::process::exit(i32::from(!ok));
}

/// Per-class completed-latency samples, in [`QosClass::ALL`] order.
fn class_samples(data: &ReportData) -> Vec<(QosClass, Vec<f64>)> {
    QosClass::ALL
        .iter()
        .map(|&class| {
            let sample: Vec<f64> = data
                .classes
                .iter()
                .zip(&data.latencies)
                .filter(|&(&c, _)| c == class)
                .filter_map(|(_, l)| *l)
                .collect();
            (class, sample)
        })
        .collect()
}

/// SLO entries for [`SloSummary::compute`], one per request.
fn slo_entries(data: &ReportData) -> Vec<SloEntry> {
    data.classes
        .iter()
        .zip(&data.latencies)
        .zip(&data.deadlines)
        .map(|((&class, &latency_ms), &deadline_ms)| SloEntry {
            class,
            latency_ms,
            deadline_ms,
        })
        .collect()
}

/// Renders the human-readable report tables.
fn print_report_text(data: &ReportData, budget: f64) {
    println!("report: {}", data.source);
    for note in &data.notes {
        println!("note: {note}");
    }

    println!("requests:");
    for r in 0..data.names.len() {
        let deadline = data.deadlines[r].map_or_else(
            || "no deadline".to_owned(),
            |d| format!("{d:>9.2} ms deadline"),
        );
        let (latency, verdict) = match data.latencies[r] {
            Some(l) => {
                let miss = data.deadlines[r].is_some_and(|d| l > d + RECONCILE_EPS);
                (format!("{l:>9.2} ms"), if miss { "MISS" } else { "ok" })
            }
            None => ("  degraded —".to_owned(), "MISS"),
        };
        println!(
            "  r{r:<3} {:<14} {:<12} {latency}  {deadline}  {verdict}",
            data.names[r],
            data.classes[r].name(),
        );
    }

    println!("latency quantiles by QoS class (ms):");
    println!(
        "  {:<12} {:>4} {:>9} {:>9} {:>9} {:>9}",
        "class", "n", "p50", "p95", "p99", "max"
    );
    for (class, sample) in class_samples(data) {
        match LatencyProfile::compute(&sample) {
            Some(p) => println!(
                "  {:<12} {:>4} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                class.name(),
                p.count,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.max_ms
            ),
            None => println!(
                "  {:<12} {:>4}         —         —         —         —",
                class.name(),
                0
            ),
        }
    }

    let slo = SloSummary::compute(&slo_entries(data), budget);
    println!("slo (budget {budget}):");
    println!(
        "  {:<12} {:>9} {:>7} {:>8} {:>8}",
        "class", "deadlines", "misses", "miss%", "burn"
    );
    for s in &slo {
        println!(
            "  {:<12} {:>9} {:>7} {:>7.1}% {:>7.2}x",
            s.class.name(),
            s.with_deadline,
            s.misses,
            s.miss_rate * 100.0,
            s.burn_rate
        );
    }
    let total_misses: usize = slo.iter().map(|s| s.misses).sum();
    let total_deadlines: usize = slo.iter().map(|s| s.with_deadline).sum();
    println!("  total: {total_misses} miss(es) across {total_deadlines} deadline(s)");

    let timeline = UtilizationTimeline::compute(&data.spans, data.processor_names.len());
    if !data.spans.is_empty() {
        println!("utilization:");
        for u in &timeline.processors {
            let bubble: f64 = timeline
                .bubbles
                .iter()
                .filter(|b| b.processor == u.processor)
                .fold(0.0, |a, b| a + b.duration_ms());
            println!(
                "  {:<8} busy {:>9.2} ms  util {:>5.1}%  spans {:>3}  bubble {:>8.2} ms",
                data.processor_names[u.processor],
                u.busy_ms,
                u.utilization * 100.0,
                u.span_count,
                bubble
            );
        }
        let top = timeline.top_bubbles(5);
        if top.is_empty() {
            println!("top bubbles: none");
        } else {
            println!("top bubbles:");
            for b in top {
                println!(
                    "  {:<8} {:>9.2} .. {:>9.2} ms  ({:>7.2} ms)",
                    data.processor_names[b.processor],
                    b.start_ms,
                    b.end_ms,
                    b.duration_ms()
                );
            }
        }
        let occ = OccupancyProfile::compute(&data.spans, data.processor_names.len());
        println!(
            "occupancy: co-execution {:.1}%, idle {:.1}%, horizon {:.2} ms, \
             total bubble {:.2} ms",
            occ.co_execution_fraction() * 100.0,
            occ.idle_fraction() * 100.0,
            occ.horizon_ms,
            timeline.total_bubble_ms()
        );
    }

    println!(
        "replay: {}/{} task(s) reconstructed, last finish {:.2} ms",
        data.replay_done, data.replay_total, data.replay_last_ms
    );
    println!(
        "lifecycle: {} event(s), {} violation(s); {}",
        data.lifecycle_events,
        data.lifecycle_violations.len(),
        if data.mismatches.is_empty() {
            "replay and lifecycle reconcile"
        } else {
            "RECONCILIATION FAILED"
        }
    );
}

/// Renders a float for JSON: finite values verbatim, everything else
/// `null`.
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Renders `Option<f64>` for JSON.
fn jopt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_owned(), jnum)
}

/// Renders the machine-readable `h2p-report/v1` object.
fn render_report_json(data: &ReportData, budget: f64) -> String {
    let mut out = String::from("{\"schema\":\"h2p-report/v1\"");
    out.push_str(&format!(",\"source\":\"{}\"", json_escape(&data.source)));

    out.push_str(",\"requests\":[");
    for r in 0..data.names.len() {
        if r > 0 {
            out.push(',');
        }
        let miss = match (data.latencies[r], data.deadlines[r]) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(l), Some(d)) => l > d + RECONCILE_EPS,
        };
        out.push_str(&format!(
            "{{\"request\":{r},\"model\":\"{}\",\"class\":\"{}\",\"latency_ms\":{},\
             \"deadline_ms\":{},\"miss\":{miss}}}",
            json_escape(&data.names[r]),
            data.classes[r].name(),
            jopt(data.latencies[r]),
            jopt(data.deadlines[r]),
        ));
    }
    out.push(']');

    let slo = SloSummary::compute(&slo_entries(data), budget);
    out.push_str(",\"classes\":[");
    for (i, ((class, sample), s)) in class_samples(data).iter().zip(&slo).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let p = LatencyProfile::compute(sample);
        out.push_str(&format!(
            "{{\"class\":\"{}\",\"count\":{},\"completed\":{},\"p50_ms\":{},\"p95_ms\":{},\
             \"p99_ms\":{},\"max_ms\":{},\"with_deadline\":{},\"misses\":{},\
             \"miss_rate\":{},\"burn_rate\":{}}}",
            class.name(),
            s.total,
            sample.len(),
            jopt(p.as_ref().map(|p| p.p50_ms)),
            jopt(p.as_ref().map(|p| p.p95_ms)),
            jopt(p.as_ref().map(|p| p.p99_ms)),
            jopt(p.as_ref().map(|p| p.max_ms)),
            s.with_deadline,
            s.misses,
            jnum(s.miss_rate),
            jnum(s.burn_rate),
        ));
    }
    out.push(']');

    let timeline = UtilizationTimeline::compute(&data.spans, data.processor_names.len());
    out.push_str(",\"processors\":[");
    for (i, u) in timeline.processors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"processor\":{},\"name\":\"{}\",\"busy_ms\":{},\"utilization\":{},\
             \"spans\":{}}}",
            u.processor,
            json_escape(&data.processor_names[u.processor]),
            jnum(u.busy_ms),
            jnum(u.utilization),
            u.span_count,
        ));
    }
    out.push(']');

    out.push_str(",\"top_bubbles\":[");
    for (i, b) in timeline.top_bubbles(5).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"processor\":{},\"start_ms\":{},\"end_ms\":{}}}",
            b.processor,
            jnum(b.start_ms),
            jnum(b.end_ms),
        ));
    }
    out.push(']');

    let occ = OccupancyProfile::compute(&data.spans, data.processor_names.len());
    out.push_str(&format!(
        ",\"total_bubble_ms\":{},\"co_execution_fraction\":{},\"idle_fraction\":{},\
         \"horizon_ms\":{}",
        jnum(timeline.total_bubble_ms()),
        jnum(occ.co_execution_fraction()),
        jnum(occ.idle_fraction()),
        jnum(occ.horizon_ms),
    ));

    out.push_str(&format!(
        ",\"replay\":{{\"tasks_done\":{},\"task_count\":{},\"last_finish_ms\":{}}}",
        data.replay_done,
        data.replay_total,
        jnum(data.replay_last_ms),
    ));
    out.push_str(&format!(
        ",\"lifecycle\":{{\"events\":{},\"violations\":{}}}",
        data.lifecycle_events,
        data.lifecycle_violations.len(),
    ));
    out.push_str(&format!(
        ",\"slo_budget\":{},\"reconciled\":{}}}",
        jnum(budget),
        data.mismatches.is_empty(),
    ));
    out
}

/// `h2p lint --source`: the workspace determinism lint pass
/// (H2P010–H2P013), or — with `--mutant CLASS` — a seeded hazard
/// snippet that must make the lint exit nonzero.
fn run_source_lint(rest: &[String]) -> ! {
    let mut deny_warnings = false;
    let mut json = false;
    let mut mutant: Option<SourceMutation> = None;
    let mut root: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--source" => {}
            "--deny-warnings" => deny_warnings = true,
            "--json" => json = true,
            "--mutant" => {
                i += 1;
                mutant = Some(
                    rest.get(i)
                        .and_then(|s| SourceMutation::parse(s))
                        .unwrap_or_else(|| {
                            eprintln!(
                                "unknown source mutant class (want hash-iteration, \
                                 wall-clock, unordered-reduction or unseeded-rng)"
                            );
                            usage()
                        }),
                );
            }
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(other.to_owned());
            }
            other => {
                eprintln!("unknown lint --source flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    let diags = if let Some(m) = mutant {
        eprintln!(
            "linting seeded '{}' hazard (expecting {})",
            m.name(),
            m.expected_code().code()
        );
        h2p_analyze::lint_source(&format!("<mutant:{}>", m.name()), "core", m.snippet())
    } else {
        let root = root.unwrap_or_else(|| ".".to_owned());
        match h2p_analyze::lint_workspace(Path::new(&root)) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("source lint failed reading {root}: {e}");
                std::process::exit(2);
            }
        }
    };
    if json {
        print!("{}", diags.to_json_lines());
    } else {
        print!("{diags}");
    }
    std::process::exit(i32::from(diags.should_fail(deny_warnings)));
}

/// `h2p modelcheck`: run the schedule-space model suite (cursor
/// partition/error rule, tables cache, partition memo, DP scratch pool,
/// planner bit-identity, recovery rounds) under the controlled scheduler, or —
/// with `--inject` — seed a claim bug and verify the checker catches it.
fn run_modelcheck(rest: &[String]) -> ! {
    let mut exhaustive = false;
    let mut seeds: Option<u64> = None;
    let mut min_schedules = 0usize;
    let mut inject: Option<InjectedFault> = None;
    let mut expect_violation = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--exhaustive" => exhaustive = true,
            "--expect-violation" => expect_violation = true,
            "--seeds" => {
                i += 1;
                seeds = Some(
                    rest.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--seeds needs a positive integer");
                            usage()
                        }),
                );
            }
            "--min-schedules" => {
                i += 1;
                min_schedules = rest.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-schedules needs an integer");
                    usage()
                });
            }
            "--inject" => {
                i += 1;
                inject = Some(
                    rest.get(i)
                        .and_then(|s| InjectedFault::parse(s))
                        .unwrap_or_else(|| {
                            eprintln!("unknown fault (want skip-claim or split-claim)");
                            usage()
                        }),
                );
            }
            other => {
                eprintln!("unknown modelcheck flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    let mut opts = if exhaustive {
        CheckOptions::default()
    } else {
        // Quick mode: capped DFS plus a lean PCT pass.
        CheckOptions {
            exhaustive_cap: 2_000,
            pct_seeds: 8,
            ..CheckOptions::default()
        }
    };
    if let Some(s) = seeds {
        opts.pct_seeds = s;
    }

    if let Some(fault) = inject {
        let report = h2p_check::run_injected(fault, opts);
        print_model_report(&report);
        let caught = report.violations > 0;
        if expect_violation {
            if caught {
                println!(
                    "injected '{}' bug caught after {} schedule(s) — checker is live",
                    fault.name(),
                    report.schedules
                );
                std::process::exit(0);
            }
            println!(
                "injected '{}' bug was NOT caught in {} schedule(s)",
                fault.name(),
                report.schedules
            );
            std::process::exit(1);
        }
        std::process::exit(i32::from(caught));
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

fn print_model_report(r: &h2p_check::ModelReport) {
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
fn run_events(rest: &[String]) {
    let Some(path) = rest.first() else {
        eprintln!("events needs a path (or '-')");
        usage()
    };
    let text = if path == "-" {
        let mut s = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let log = match eventlog::parse_event_log(&text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    for w in &log.warnings {
        eprintln!("warning: {w}");
    }
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

/// `h2p serve`: run the overload-robust serving front-end over a
/// seeded arrival stream, optionally sweeping offered load, and print
/// the saturation curve. Exits nonzero if any sweep point violates the
/// robustness invariants.
fn run_serve(rest: &[String]) {
    let mut soc = SocSpec::kirin_990();
    let mut lo = 50.0f64;
    let mut hi = 50.0f64;
    let mut steps = 1usize;
    let mut steps_set = false;
    let mut seed = 42u64;
    let mut requests = 64usize;
    let mut window = 4usize;
    let mut max_batch = 8u32;
    let mut chaos = false;
    let mut json = false;
    let mut events: Option<String> = None;
    let mut i = 0;
    let missing = |flag: &str| -> ! {
        eprintln!("{flag} needs a value");
        usage()
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--soc" => {
                i += 1;
                let name = rest.get(i).unwrap_or_else(|| missing("--soc"));
                soc = parse_soc(name).unwrap_or_else(|| {
                    eprintln!("unknown SoC {name}");
                    usage()
                });
            }
            "--qps" => {
                i += 1;
                let v: f64 = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--qps"))
                    .parse()
                    .unwrap_or_else(|_| missing("--qps"));
                lo = v;
                hi = v;
            }
            "--qps-sweep" => {
                i += 1;
                let spec = rest.get(i).unwrap_or_else(|| missing("--qps-sweep"));
                let Some((a, b)) = spec.split_once("..") else {
                    eprintln!("--qps-sweep wants LO..HI, got {spec}");
                    usage()
                };
                lo = a.parse().unwrap_or_else(|_| missing("--qps-sweep"));
                hi = b.parse().unwrap_or_else(|_| missing("--qps-sweep"));
                if !steps_set {
                    steps = 6;
                }
            }
            "--steps" => {
                i += 1;
                steps = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--steps"))
                    .parse()
                    .unwrap_or_else(|_| missing("--steps"));
                steps_set = true;
            }
            "--seed" => {
                i += 1;
                seed = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--seed"))
                    .parse()
                    .unwrap_or_else(|_| missing("--seed"));
            }
            "--requests" => {
                i += 1;
                requests = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--requests"))
                    .parse()
                    .unwrap_or_else(|_| missing("--requests"));
            }
            "--window" => {
                i += 1;
                window = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--window"))
                    .parse()
                    .unwrap_or_else(|_| missing("--window"));
            }
            "--max-batch" => {
                i += 1;
                max_batch = rest
                    .get(i)
                    .unwrap_or_else(|| missing("--max-batch"))
                    .parse()
                    .unwrap_or_else(|_| missing("--max-batch"));
            }
            "--chaos" => chaos = true,
            "--json" => json = true,
            "--events" => {
                i += 1;
                events = Some(rest.get(i).unwrap_or_else(|| missing("--events")).clone());
            }
            other => {
                eprintln!("unknown serve flag {other}");
                usage()
            }
        }
        i += 1;
    }
    if !(lo > 0.0 && lo.is_finite() && hi >= lo && hi.is_finite()) || steps == 0 || requests == 0 {
        eprintln!("serve wants 0 < LO <= HI, steps >= 1, requests >= 1");
        usage()
    }

    let server = h2p_serve::Server::new(&soc, window).expect("planner");
    let base = h2p_serve::ServeConfig {
        qps: lo,
        requests,
        seed,
        max_batch,
        chaos,
        policy: RecoveryPolicy::default(),
        slo_budget: SloSummary::DEFAULT_BUDGET,
    };
    let points = h2p_serve::sweep(&server, &base, lo, hi, steps).expect("serve");

    let mut total_violations = 0usize;
    let mut all_violations: Vec<(f64, String)> = Vec::new();
    let mut saturation_qps: Option<f64> = None;
    for p in &points {
        let v = p.report.verify_invariants();
        total_violations += v.len();
        for s in v {
            all_violations.push((p.qps, s));
        }
        if saturation_qps.is_none() && p.report.counts.rejected() + p.report.counts.shed > 0 {
            saturation_qps = Some(p.qps);
        }
    }

    if json {
        for p in &points {
            let c = &p.report.counts;
            let (p50, p99) = p
                .report
                .latency
                .as_ref()
                .map_or(("null".to_owned(), "null".to_owned()), |l| {
                    (format!("{:.3}", l.p50_ms), format!("{:.3}", l.p99_ms))
                });
            println!(
                "{{\"v\":\"h2p-serve/v1\",\"qps\":{:.3},\"seed\":{},\"chaos\":{},\"requests\":{},\
                 \"complete\":{},\"timed_out\":{},\"degraded\":{},\
                 \"rejected\":{{\"queue_full\":{},\"deadline_infeasible\":{},\"shedding\":{}}},\
                 \"shed\":{},\"p50_ms\":{p50},\"p99_ms\":{p99},\
                 \"deadline_miss_rate\":{:.4},\"rejection_rate\":{:.4},\
                 \"served_per_sec\":{:.3},\"max_queue_depth\":{},\"queue_limits\":[{},{},{}],\
                 \"max_dispatch_retries\":{},\"dispatches\":{},\"violations\":{}}}",
                p.qps,
                p.report.seed,
                p.report.chaos,
                p.report.records.len(),
                c.complete,
                c.timed_out,
                c.degraded,
                c.rejected_queue_full,
                c.rejected_deadline_infeasible,
                c.rejected_shedding,
                c.shed,
                c.deadline_miss_rate(),
                c.rejection_rate(),
                p.report.served_per_sec,
                p.report.max_queue_depth,
                p.report.queue_limits[0],
                p.report.queue_limits[1],
                p.report.queue_limits[2],
                p.report.max_dispatch_retries,
                p.report.dispatches,
                p.report.verify_invariants().len(),
            );
        }
        let sat = saturation_qps.map_or("null".to_owned(), |q| format!("{q:.3}"));
        println!(
            "{{\"v\":\"h2p-serve/v1\",\"summary\":true,\"points\":{},\"violations\":{},\
             \"saturation_qps\":{sat}}}",
            points.len(),
            total_violations,
        );
    } else {
        let limits = points.first().map_or([0, 0, 0], |p| p.report.queue_limits);
        println!(
            "serve on {} (window {window}, seed {seed}, {requests} request(s)/point{})",
            soc.name,
            if chaos { ", chaos" } else { "" }
        );
        println!("queue limits [interactive, standard, batch]: {limits:?}");
        println!(
            "{:>9} {:>6} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>6} {:>6} {:>9} {:>5}",
            "qps",
            "ok",
            "late",
            "degr",
            "rej",
            "shed",
            "p50 ms",
            "p99 ms",
            "miss%",
            "rej%",
            "served/s",
            "depth"
        );
        for p in &points {
            let c = &p.report.counts;
            let (p50, p99) = p
                .report
                .latency
                .as_ref()
                .map_or(("-".to_owned(), "-".to_owned()), |l| {
                    (format!("{:.1}", l.p50_ms), format!("{:.1}", l.p99_ms))
                });
            println!(
                "{:>9.1} {:>6} {:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>6.1} {:>6.1} {:>9.2} {:>5}",
                p.qps,
                c.complete,
                c.timed_out,
                c.degraded,
                c.rejected(),
                c.shed,
                p50,
                p99,
                100.0 * c.deadline_miss_rate(),
                100.0 * c.rejection_rate(),
                p.report.served_per_sec,
                p.report.max_queue_depth,
            );
        }
        match saturation_qps {
            Some(q) => println!("backpressure first engaged at {q:.1} qps"),
            None => println!("backpressure never engaged over this range"),
        }
    }

    if let Some(path) = events {
        let Some(last) = points.last() else {
            unreachable!("sweep returned no points despite steps >= 1")
        };
        let mut lines = String::new();
        for line in last.report.json_event_lines() {
            lines.push_str(&line);
            lines.push('\n');
        }
        write_out(&path, lines.trim_end(), "serve event log");
    }

    if total_violations > 0 {
        for (qps, v) in &all_violations {
            eprintln!("invariant violation at {qps:.1} qps: {v}");
        }
        eprintln!("{total_violations} invariant violation(s)");
        std::process::exit(1);
    }
}

/// Builds the requested scheme's plan (or lowered task graph) without
/// executing it and runs the static verifier over the result.
///
/// Plan-producing schemes (h2p, noct, pipeit) are linted at the
/// pipeline-plan level, where `--corrupt` can inject damage before the
/// checks run. Task-graph schemes (mnn, band, dart) never build a
/// `PipelinePlan`, so they are linted at the lowered task-graph level
/// and do not support `--corrupt`.
fn run_lint(args: &Args) -> h2p_analyze::Diagnostics {
    let reqs = graphs(&args.models);
    match args.scheme {
        Scheme::Hetero2Pipe | Scheme::NoCt => {
            let planner = if args.scheme == Scheme::NoCt {
                Planner::with_config(&args.soc, hetero2pipe::planner::PlannerConfig::no_ct())
            } else {
                Planner::new(&args.soc)
            }
            .expect("planner");
            let planned = planner.plan(&reqs).expect("plan");
            match args.mutation {
                Some(m) => lint_corrupted(&args.soc, planned.plan_ir(), m),
                None => planned.lint(&args.soc),
            }
        }
        Scheme::PipeIt => {
            let plan = pipe_it::plan(&args.soc, &reqs).expect("plan");
            let refs: Vec<&ModelGraph> = reqs.iter().collect();
            let ir = hetero2pipe::lint::plan_ir(&plan, &refs);
            match args.mutation {
                Some(m) => lint_corrupted(&args.soc, ir, m),
                None => h2p_analyze::lint_plan(&args.soc, &ir),
            }
        }
        Scheme::MnnSerial | Scheme::Band | Scheme::Dart => {
            if args.mutation.is_some() {
                eprintln!(
                    "--corrupt needs a plan-producing scheme (h2p, noct or pipeit); {} \
                     lowers straight to a task graph",
                    args.scheme.name()
                );
                usage()
            }
            let lowered = args.scheme.lower(&args.soc, &reqs).expect("lower");
            lowered.lint()
        }
    }
}

/// Applies `m` to the plan IR, then lints the damaged plan.
fn lint_corrupted(
    soc: &SocSpec,
    mut ir: h2p_analyze::PlanIr,
    m: Mutation,
) -> h2p_analyze::Diagnostics {
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
fn corrupt_trace(trace: &mut h2p_simulator::Trace) {
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
fn corrupt_stretch(
    trace: &mut h2p_simulator::Trace,
    soc: &SocSpec,
    tasks: &[h2p_simulator::TaskSpec],
) {
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
