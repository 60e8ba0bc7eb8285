//! `h2p` — command-line front end for the Hetero²Pipe reproduction:
//! planning, the baselines, audited traces, fault recovery, serving and
//! the repository's own checks. `h2p` with no arguments prints the
//! synopsis of every subcommand ([`USAGE`]). Every subcommand reads its
//! arguments through [`flags::Flags`]; each family of subcommands has its
//! own module.

mod chaos;
mod events;
mod flags;
mod pipeline;
mod report;
mod serve;

use std::io::Read;

use h2p_baselines::Scheme;
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::eventlog::{parse_event_log, ParsedLog};
use h2p_simulator::SocSpec;
use h2p_telemetry::lifecycle::{LifecycleLog, LifecycleStage, RequestId, TraceId};
use hetero2pipe::executor::{record_request_lifecycle, ExecutionReport};
use hetero2pipe::planner::{Planner, PlannerConfig};

use flags::Flags;

/// What every usage error prints after its message.
const USAGE: &str = "usage:\n  h2p socs\n  h2p zoo\n  h2p plan  [--soc NAME] MODEL...\n  h2p run   [--soc NAME] [--scheme NAME] MODEL...\n  h2p gantt [--soc NAME] MODEL...\n  h2p trace [--soc NAME] [--scheme NAME] [--audit] [--summary]\n            [--corrupt [CLASS]] [--events PATH|-] [--faults SPEC] MODEL...\n  h2p report [--soc NAME] [--scheme NAME] [--json] [--slo-budget F] MODEL...\n  h2p report --chaos-seed N [--soc NAME] [--json]\n  h2p report --faults SPEC [--soc NAME] [--json] MODEL...\n  h2p report --from PATH|- [--soc NAME] [--json]\n  h2p chaos [--soc NAME] --seeds N [--json]\n  h2p serve [--soc NAME] [--qps F | --qps-sweep LO..HI] [--steps N]\n            [--seed N] [--requests N] [--window N] [--max-batch N]\n            [--chaos] [--json] [--events PATH|-]\n  h2p events PATH|-\n  h2p lint  [--soc NAME] [--scheme NAME] [--json] [--deny-warnings]\n            [--corrupt CLASS] MODEL...\n  h2p export [--soc NAME] [--scheme NAME] [--trace PATH|-]\n            [--metrics PATH|-] MODEL...\n\nsocs: kirin990 (default), sd778g, sd870\nschemes: mnn, pipeit, band, dart, noct, h2p (default)\n\ntrace flags:\n  --scheme NAME   lower and trace the named scheme (default h2p)\n  --audit         validate the trace against the simulator contracts,\n                  including the event-log replay reconciliation; exit\n                  nonzero on any violation\n  --summary       print the per-processor metrics snapshot table\n                  (busy/idle/bubble/stretch ms)\n  --corrupt [CLASS] deliberately corrupt the trace before auditing\n                  (demo); CLASS is overlap (default) or stretch — an\n                  in-envelope duration corruption only the replay\n                  reconciliation catches\n  --events PATH   write the JSON-lines event log to PATH ('-' = stdout)\n  --faults SPEC   run under scripted faults with recovery (h2p scheme\n                  only); SPEC is comma-separated:\n                    drop:<PROC>@<t>                   processor dropout\n                    throttle:<PROC>@<from>..<until>x<f>  rate throttle\n                    flaky:<request>x<count>           transient failures\n                    mispredict:<scale>                cost misprediction\n\nreport flags:\n  Serving-grade observability: per-QoS-class latency quantiles\n  (p50/p95/p99), per-processor utilization and bubble timelines,\n  contention-window occupancy, and deadline/SLO burn-rate accounting.\n  Every number is cross-checked against the audit replay of the run's\n  event log — a reconciliation mismatch or a causally invalid request\n  lifecycle exits nonzero.\n  --chaos-seed N  report on chaos scenario N (same workload and faults\n                  as seed N of `h2p chaos`), through the recovery\n                  runner\n  --faults SPEC   report on a scripted-fault recovery run (spec syntax\n                  as under `h2p trace --faults`)\n  --from PATH     report from a saved `--events` JSON-lines log instead\n                  of a live run ('-' = stdin)\n  --slo-budget F  allowed deadline-miss fraction per class (default\n                  0.01, i.e. a 99% on-deadline objective)\n  --json          one `h2p-report/v1` JSON object instead of the tables\n\nchaos flags:\n  --seeds N       run N seeded random fault scenarios through the\n                  recovery runner; every scenario must end recovered\n                  with audit-clean rounds or in a typed degraded\n                  outcome — exit nonzero otherwise\n  --json          one JSON object per seed plus a summary object\n\nserve flags:\n  Overload-robust virtual-time serving loop: seeded open-loop arrivals\n  flow through admission control (per-class token buckets + queue depth\n  limits), deadline-aware load shedding, lightweight-model batching,\n  incremental window planning, and bounded retry. Every request ends in\n  exactly one typed outcome; any invariant violation exits nonzero.\n  --qps F         offered load for a single point (default 50)\n  --qps-sweep LO..HI  sweep offered load from LO to HI qps\n  --steps N       sweep points, linearly spaced (default 6)\n  --seed N        load-generator / chaos seed (default 42); a fixed\n                  seed makes the whole run bit-identical\n  --requests N    requests per sweep point (default 64)\n  --window N      dispatch window / batch drain quantum (default 4)\n  --max-batch N   batching cap for adjacent identical lightweight\n                  models (default 8)\n  --chaos         inject seeded faults; execution runs through the\n                  recovery machinery and failures degrade, typed\n  --events PATH   write the last point's lifecycle event log as JSON\n                  lines ('-' = stdout), ingestible by `h2p report\n                  --from` and `h2p events`\n  --json          one `h2p-serve/v1` JSON object per point plus a\n                  summary object\n\nlint flags:\n  --json            emit one JSON object per finding plus a summary line\n  --deny-warnings   exit nonzero on warnings, not just errors\n  --corrupt CLASS   corrupt the plan before linting (demo); CLASS is one\n                    of: drop-layer, duplicate-slot, bad-proc,\n                    inflate-makespan\n\nexport flags:\n  --trace PATH    write the run as Chrome Trace Event JSON, loadable in\n                  chrome://tracing or ui.perfetto.dev ('-' = stdout)\n  --metrics PATH  write the metrics snapshot JSON ('-' = stdout)";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = argv.split_first() else {
        flags::usage()
    };
    match cmd.as_str() {
        "socs" => socs(args),
        "zoo" => zoo(args),
        "plan" => pipeline::plan(args),
        "run" => pipeline::run(args),
        "gantt" => pipeline::gantt(args),
        "trace" => pipeline::trace(args),
        "export" => pipeline::export(args),
        "lint" => pipeline::lint(args),
        "report" => report::main(args),
        "chaos" => chaos::main(args),
        "serve" => serve::main(args),
        "events" => events::main(args),
        _ => flags::usage(),
    }
}

fn socs(args: &[String]) {
    Flags::new("socs", args, &[]).operands_at_most(0);
    for soc in SocSpec::evaluation_platforms() {
        let procs: Vec<String> = soc
            .processors
            .iter()
            .map(|p| format!("{} ({:.0} GFLOPS)", p.name, p.peak_gflops))
            .collect();
        println!("{:<16} {}", soc.name, procs.join(", "));
    }
}

fn zoo(args: &[String]) {
    Flags::new("zoo", args, &[]).operands_at_most(0);
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

fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
    ids.iter().map(|m| m.graph()).collect()
}

/// The planner behind a plan-producing scheme (Hetero²Pipe or its
/// No-C/T ablation); `None` for a scheme that lowers straight to a task
/// graph.
fn scheme_planner(soc: &SocSpec, scheme: Scheme) -> Option<Planner> {
    let config = match scheme {
        Scheme::Hetero2Pipe => PlannerConfig::default(),
        Scheme::NoCt => PlannerConfig::no_ct(),
        _ => return None,
    };
    Some(Planner::with_config(soc, config).expect("planner"))
}

/// The causal lifecycle of one batch run: every request admitted and
/// planned at time zero, then executed and completed as `report`'s
/// trace shows. `h2p trace --events` writes it and `h2p report`
/// reconciles it.
fn batch_lifecycle(models: &[ModelId], report: &ExecutionReport) -> LifecycleLog {
    let log = LifecycleLog::new();
    let trace_id = TraceId::of_names(models.iter().map(|m| m.name()));
    for r in 0..models.len() {
        log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
        log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Plan);
    }
    record_request_lifecycle(&log, trace_id, report, 0.0);
    log
}

/// Joins JSON lines, each ending in a newline.
fn jsonl(lines: impl IntoIterator<Item = String>) -> String {
    lines.into_iter().fold(String::new(), |mut out, line| {
        out.push_str(&line);
        out.push('\n');
        out
    })
}

/// Writes `content` to `path`, `-` meaning stdout. Stdout always gets a
/// final newline; a file gets `content` exactly.
fn write_out(path: &str, content: &str, what: &str) {
    if path != "-" {
        std::fs::write(path, content).expect("write output file");
        eprintln!("{what} written to {path}");
    } else if content.ends_with('\n') {
        print!("{content}");
    } else {
        println!("{content}");
    }
}

/// Reads and parses a JSON-lines event log from `path` (`-` = stdin),
/// printing its warnings. An unreadable or malformed log exits 1.
fn read_event_log(path: &str) -> ParsedLog {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let log = parse_event_log(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    for w in &log.warnings {
        eprintln!("warning: {w}");
    }
    log
}
