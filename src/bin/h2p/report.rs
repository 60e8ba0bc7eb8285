//! `h2p report`: the serving-grade observability report — per-QoS-class
//! latency quantiles, per-processor utilization/bubble timelines,
//! occupancy, and deadline/SLO accounting over a live run, a recovery
//! run or a saved event log. Every number is cross-checked against the
//! audit replay of the run's engine log: a reconciliation mismatch or a
//! causally invalid lifecycle stream exits nonzero.

use h2p_baselines::Scheme;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::request_of_label;
use h2p_simulator::eventlog::json_escape;
use h2p_simulator::{audit, EngineEvent, FaultSpec, SocSpec, TaskSpec};
use h2p_telemetry::analytics::{
    ExecSpan, LatencyProfile, OccupancyProfile, SloEntry, SloSummary, UtilizationTimeline,
};
use h2p_telemetry::json_num;
use h2p_telemetry::lifecycle::{self, LifecycleEvent, LifecycleStage, QosClass};
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{run_with_recovery, RecoveryOutcome, RecoveryPolicy};

use crate::flags::{fail, parse_model, Arity::*, Flags, Spec};
use crate::graphs;

const REPORT: Spec = &[
    ("--soc", Value),
    ("--scheme", Value),
    ("--json", Switch),
    ("--from", Value),
    ("--chaos-seed", Value),
    ("--faults", Value),
    ("--slo-budget", Value),
];

/// Tolerance for reconciling replayed completions against the trace's
/// and lifecycle's completion times: both derive from the same engine
/// floats, so anything beyond rounding noise is a real discrepancy.
const RECONCILE_EPS: f64 = 1e-6;

/// Everything `h2p report` renders, assembled per source mode (live
/// run, recovery run, or saved event log).
#[derive(Default)]
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
    /// Tasks the replayed engine logs describe.
    replay_total: usize,
    /// The run's request lifecycle stream.
    lifecycle: Vec<LifecycleEvent>,
    /// Reconciliation failures between the replay, the trace, and the
    /// lifecycle stream (empty = everything reconciles).
    mismatches: Vec<String>,
    /// Non-fatal caveats (e.g. a log without task headers).
    notes: Vec<String>,
}

impl ReportData {
    /// The request columns of a report on `models` run on `soc`, with
    /// deadlines from the solo times of the lowered `tasks`; the source
    /// adds the evidence.
    fn of_models(source: String, soc: &SocSpec, models: &[ModelId], tasks: &[TaskSpec]) -> Self {
        let classes: Vec<QosClass> = models
            .iter()
            .map(|m| h2p_serve::qos_class(m.graph().total_flops()))
            .collect();
        ReportData {
            source,
            processor_names: soc.processors.iter().map(|p| p.name.clone()).collect(),
            names: models.iter().map(|m| m.name().to_owned()).collect(),
            deadlines: deadlines_from_tasks(tasks, &classes),
            classes,
            ..ReportData::default()
        }
    }
}

/// Reports on one of three sources and exits nonzero on a
/// reconciliation mismatch or a causally invalid lifecycle stream.
pub fn main(args: &[String]) -> ! {
    let flags = Flags::new("report", args, REPORT);
    let (soc, scheme) = (flags.soc(), flags.scheme());
    let budget = flags
        .read("--slo-budget", "a fraction in (0, 1]", |v| {
            v.parse().ok().filter(|&b: &f64| b > 0.0 && b <= 1.0)
        })
        .unwrap_or(SloSummary::DEFAULT_BUDGET);
    let has_models = !flags.operands.is_empty();

    let data = if let Some(path) = flags.value("--from") {
        if has_models || flags.has("--faults") || flags.has("--chaos-seed") {
            fail("--from reports on a saved log; drop the models/faults flags")
        }
        from_log(&soc, path)
    } else if let Some(seed) = flags.num::<u64>("--chaos-seed", "a non-negative integer") {
        if has_models || flags.has("--faults") {
            fail("--chaos-seed derives its workload from the seed; drop the models")
        }
        let (models, faults) = crate::chaos::scenario(&soc, seed);
        let source = format!(
            "chaos seed {seed} on {} ({} request(s), {} fault(s))",
            soc.name,
            models.len(),
            faults.len()
        );
        from_recovery(&soc, &models, &faults, source)
    } else if let Some(faults) = flags.faults(&soc) {
        let models = flags.models();
        let source = format!(
            "faulted h2p on {} ({} request(s), {} scripted fault(s))",
            soc.name,
            models.len(),
            faults.len()
        );
        from_recovery(&soc, &models, &faults, source)
    } else {
        from_live(&soc, scheme, &flags.models())
    };

    let violations: Vec<String> = lifecycle::validate(&data.lifecycle)
        .iter()
        .map(ToString::to_string)
        .collect();
    if flags.has("--json") {
        println!("{}", render_json(&data, violations.len(), budget));
    } else {
        print_text(&data, violations.len(), budget);
    }
    for m in &data.mismatches {
        eprintln!("report: reconciliation: {m}");
    }
    for v in &violations {
        eprintln!("report: lifecycle: {v}");
    }
    std::process::exit(i32::from(
        !data.mismatches.is_empty() || !violations.is_empty(),
    ));
}

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

/// Replays one engine log into execution spans on the global timeline:
/// task `t` belongs to request `requests[t]`, runs on the processor its
/// `Start` event names, and the log's clock starts at `offset_ms`.
fn replay_spans(
    requests: &[Option<usize>],
    events: &[EngineEvent],
    offset_ms: f64,
) -> Result<Vec<ExecSpan>, String> {
    let replayed = audit::replay(requests.len(), events)?;
    let mut processor = vec![0usize; requests.len()];
    for e in events {
        if let EngineEvent::Start {
            task, processor: p, ..
        } = e
        {
            if let Some(slot) = processor.get_mut(*task) {
                *slot = p.index();
            }
        }
    }
    Ok(replayed
        .iter()
        .enumerate()
        .filter_map(|(t, rs)| {
            let rs = rs.as_ref()?;
            Some(ExecSpan {
                request: requests[t],
                processor: processor[t],
                start_ms: offset_ms + rs.start_ms,
                end_ms: offset_ms + rs.end_ms,
            })
        })
        .collect())
}

/// The end of each of `n` requests' last span.
fn request_ends(spans: &[ExecSpan], n: usize) -> Vec<Option<f64>> {
    let mut ends: Vec<Option<f64>> = vec![None; n];
    for s in spans {
        if let Some(slot) = s.request.and_then(|r| ends.get_mut(r)) {
            *slot = Some(slot.map_or(s.end_ms, |e| e.max(s.end_ms)));
        }
    }
    ends
}

/// Each of `n` requests' completion time as the lifecycle stream has it.
fn completions(lifecycle: &[LifecycleEvent], n: usize) -> Vec<Option<f64>> {
    let mut out: Vec<Option<f64>> = vec![None; n];
    for e in lifecycle {
        if let LifecycleStage::Complete { latency_ms } = e.stage {
            if let Some(slot) = out.get_mut(e.request.0) {
                *slot = Some(latency_ms);
            }
        }
    }
    out
}

/// Checks each request's lifecycle completion against the end of its
/// last replayed span.
fn reconcile(completions: &[Option<f64>], ends: &[Option<f64>], mismatches: &mut Vec<String>) {
    for (r, pair) in completions.iter().zip(ends).enumerate() {
        match pair {
            (Some(c), Some(e)) if (c - e).abs() > RECONCILE_EPS => mismatches.push(format!(
                "request {r}: lifecycle completion {c:.6} ms != replayed last span end {e:.6} ms"
            )),
            (Some(c), None) => mismatches.push(format!(
                "request {r}: lifecycle completion {c:.6} ms but no replayed spans"
            )),
            _ => {}
        }
    }
}

/// Report source: one live batch run (any scheme), reconciled three
/// ways — trace completions, audit-replayed spans, and the lifecycle
/// stream must all agree.
fn from_live(soc: &SocSpec, scheme: Scheme, models: &[ModelId]) -> ReportData {
    let lowered = scheme.lower(soc, &graphs(models)).expect("lower");
    let tasks = lowered.simulation().tasks().to_vec();
    let (report, events) = lowered.execute_logged().expect("execute");
    let requests: Vec<Option<usize>> = tasks.iter().map(|t| request_of_label(&t.label)).collect();
    let spans = replay_spans(&requests, &events, 0.0).unwrap_or_else(|e| {
        eprintln!("report: event-log replay failed: {e}");
        std::process::exit(1);
    });
    let latencies = request_ends(&spans, models.len());
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
    // The same lifecycle stream `h2p trace --events` writes.
    let lifecycle = crate::batch_lifecycle(models, &report).records();
    reconcile(
        &completions(&lifecycle, models.len()),
        &latencies,
        &mut mismatches,
    );
    let source = format!(
        "{} on {} ({} request(s))",
        scheme.name(),
        soc.name,
        models.len()
    );
    ReportData {
        spans,
        latencies,
        replay_total: tasks.len(),
        lifecycle,
        mismatches,
        ..ReportData::of_models(source, soc, models, &tasks)
    }
}

/// Report source: a recovery run under faults (scripted or chaos).
/// Every round's event log is replayed independently and spliced onto
/// the global timeline through the round offsets; the lifecycle stream
/// the recovery runner recorded is the authority for completions and
/// must reconcile with the replayed span envelopes exactly.
fn from_recovery(
    soc: &SocSpec,
    models: &[ModelId],
    faults: &[FaultSpec],
    source: String,
) -> ReportData {
    let reqs = graphs(models);
    let planner = Planner::new(soc).expect("planner");
    let report =
        run_with_recovery(&planner, &reqs, faults, &RecoveryPolicy::default()).expect("recovery");
    let lifecycle = planner.telemetry().lifecycle.records();

    let mut spans = Vec::new();
    let mut replay_total = 0usize;
    let mut mismatches = Vec::new();
    for (i, round) in report.rounds.iter().enumerate() {
        let requests: Vec<Option<usize>> =
            round.labels.iter().map(|l| request_of_label(l)).collect();
        match replay_spans(&requests, &round.events, round.offset_ms) {
            Ok(round_spans) => {
                replay_total += requests.len();
                spans.extend(round_spans);
            }
            Err(e) => mismatches.push(format!("round {i}: event-log replay failed: {e}")),
        }
    }
    // Reconcile the lifecycle completions against the per-round replay
    // envelopes and the runner's own completion flags.
    let n = models.len();
    let latencies = completions(&lifecycle, n);
    reconcile(&latencies, &request_ends(&spans, n), &mut mismatches);
    for (r, latency) in latencies.iter().enumerate() {
        if report.completed.get(r).copied().unwrap_or(false) != latency.is_some() {
            mismatches.push(format!(
                "request {r}: recovery runner and lifecycle disagree on completion"
            ));
        }
    }

    // Deadline basis: the fault-free lowering of the same workload (a
    // separate planner so its lifecycle stream stays untouched).
    let basis = Planner::new(soc)
        .expect("planner")
        .plan(&reqs)
        .expect("plan")
        .lower(soc)
        .expect("lower");
    let notes = match &report.outcome {
        RecoveryOutcome::Recovered => Vec::new(),
        RecoveryOutcome::Degraded(e) => vec![format!("degraded outcome: {e}")],
    };
    ReportData {
        spans,
        latencies,
        replay_total,
        lifecycle,
        mismatches,
        notes,
        ..ReportData::of_models(source, soc, models, basis.simulation().tasks())
    }
}

/// Report source: a saved `--events` JSON-lines log. Batch logs replay
/// fully (task headers + engine events + lifecycle). Recovery logs
/// concatenate rounds with restarting task ids, so their engine stream
/// is not replayable — the report then falls back to the lifecycle
/// completions and says so.
fn from_log(soc: &SocSpec, path: &str) -> ReportData {
    let log = crate::read_event_log(path);
    let n_tasks = log.task_count();
    let mut requests: Vec<Option<usize>> = vec![None; n_tasks];
    for h in &log.tasks {
        if let Some(slot) = requests.get_mut(h.task) {
            *slot = request_of_label(&h.label);
        }
    }

    // Request universe: everything the labels or the lifecycle mention.
    let labelled: Vec<(usize, &str)> = log
        .tasks
        .iter()
        .filter_map(|h| Some((request_of_label(&h.label)?, h.label.as_str())))
        .collect();
    let n = log
        .lifecycle
        .iter()
        .map(|e| e.request.0 + 1)
        .chain(labelled.iter().map(|&(r, _)| r + 1))
        .max()
        .unwrap_or(0);
    let mut names: Vec<String> = (0..n).map(|r| format!("request{r}")).collect();
    let mut classes: Vec<QosClass> = vec![QosClass::Standard; n];
    for &(r, label) in &labelled {
        let model = label.split('#').next().unwrap_or("");
        names[r] = model.to_owned();
        if let Some(id) = parse_model(model) {
            classes[r] = h2p_serve::qos_class(id.graph().total_flops());
        }
    }
    let solo_known = !labelled.is_empty();
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
    let mut latencies = completions(&log.lifecycle, n);
    if log.tasks.is_empty() && log.events.is_empty() && !log.lifecycle.is_empty() {
        // Lifecycle-only log (e.g. `h2p serve --events`): there is no
        // engine stream to reconcile against, so the lifecycle
        // completions stand on their own.
        notes.push(
            "lifecycle-only log (no engine stream); completions from the lifecycle stream"
                .to_owned(),
        );
    } else {
        match replay_spans(&requests, &log.events, 0.0) {
            Ok(replayed) => {
                spans = replayed;
                let ends = request_ends(&spans, n);
                if log.lifecycle.is_empty() {
                    // Pre-lifecycle log: the replay envelopes are all there is.
                    latencies = ends;
                    notes.push("log has no lifecycle stream; completions from replay".to_owned());
                } else {
                    reconcile(&latencies, &ends, &mut mismatches);
                }
            }
            Err(e) => notes.push(format!(
                "engine stream not replayable ({e}); utilization omitted, \
                 completions from the lifecycle stream"
            )),
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
        replay_total: n_tasks,
        lifecycle: log.lifecycle,
        mismatches,
        notes,
    }
}

/// The last replayed finish instant.
fn replay_last_ms(data: &ReportData) -> f64 {
    data.spans.iter().fold(0.0f64, |a, s| a.max(s.end_ms))
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
fn print_text(data: &ReportData, lifecycle_violations: usize, budget: f64) {
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
        data.spans.len(),
        data.replay_total,
        replay_last_ms(data)
    );
    println!(
        "lifecycle: {} event(s), {lifecycle_violations} violation(s); {}",
        data.lifecycle.len(),
        if data.mismatches.is_empty() {
            "replay and lifecycle reconcile"
        } else {
            "RECONCILIATION FAILED"
        }
    );
}

/// Renders `Option<f64>` for JSON.
fn jopt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_owned(), json_num)
}

/// Renders the machine-readable `h2p-report/v1` object.
fn render_json(data: &ReportData, lifecycle_violations: usize, budget: f64) -> String {
    let requests: Vec<String> = (0..data.names.len())
        .map(|r| {
            let miss = data.deadlines[r]
                .is_some_and(|d| data.latencies[r].is_none_or(|l| l > d + RECONCILE_EPS));
            format!(
                "{{\"request\":{r},\"model\":\"{}\",\"class\":\"{}\",\"latency_ms\":{},\
                 \"deadline_ms\":{},\"miss\":{miss}}}",
                json_escape(&data.names[r]),
                data.classes[r].name(),
                jopt(data.latencies[r]),
                jopt(data.deadlines[r]),
            )
        })
        .collect();
    let slo = SloSummary::compute(&slo_entries(data), budget);
    let classes: Vec<String> = class_samples(data)
        .iter()
        .zip(&slo)
        .map(|((class, sample), s)| {
            let p = LatencyProfile::compute(sample);
            let q = |f: fn(&LatencyProfile) -> f64| jopt(p.as_ref().map(f));
            format!(
                "{{\"class\":\"{}\",\"count\":{},\"completed\":{},\"p50_ms\":{},\"p95_ms\":{},\
                 \"p99_ms\":{},\"max_ms\":{},\"with_deadline\":{},\"misses\":{},\
                 \"miss_rate\":{},\"burn_rate\":{}}}",
                class.name(),
                s.total,
                sample.len(),
                q(|p| p.p50_ms),
                q(|p| p.p95_ms),
                q(|p| p.p99_ms),
                q(|p| p.max_ms),
                s.with_deadline,
                s.misses,
                json_num(s.miss_rate),
                json_num(s.burn_rate),
            )
        })
        .collect();
    let timeline = UtilizationTimeline::compute(&data.spans, data.processor_names.len());
    let processors: Vec<String> = timeline
        .processors
        .iter()
        .map(|u| {
            format!(
                "{{\"processor\":{},\"name\":\"{}\",\"busy_ms\":{},\"utilization\":{},\
                 \"spans\":{}}}",
                u.processor,
                json_escape(&data.processor_names[u.processor]),
                json_num(u.busy_ms),
                json_num(u.utilization),
                u.span_count,
            )
        })
        .collect();
    let bubbles: Vec<String> = timeline
        .top_bubbles(5)
        .iter()
        .map(|b| {
            format!(
                "{{\"processor\":{},\"start_ms\":{},\"end_ms\":{}}}",
                b.processor,
                json_num(b.start_ms),
                json_num(b.end_ms),
            )
        })
        .collect();
    let occ = OccupancyProfile::compute(&data.spans, data.processor_names.len());
    format!(
        "{{\"schema\":\"h2p-report/v1\",\"source\":\"{}\",\"requests\":[{}],\"classes\":[{}],\
         \"processors\":[{}],\"top_bubbles\":[{}],\"total_bubble_ms\":{},\
         \"co_execution_fraction\":{},\"idle_fraction\":{},\"horizon_ms\":{},\
         \"replay\":{{\"tasks_done\":{},\"task_count\":{},\"last_finish_ms\":{}}},\
         \"lifecycle\":{{\"events\":{},\"violations\":{lifecycle_violations}}},\
         \"slo_budget\":{},\"reconciled\":{}}}",
        json_escape(&data.source),
        requests.join(","),
        classes.join(","),
        processors.join(","),
        bubbles.join(","),
        json_num(timeline.total_bubble_ms()),
        json_num(occ.co_execution_fraction()),
        json_num(occ.idle_fraction()),
        json_num(occ.horizon_ms),
        data.spans.len(),
        data.replay_total,
        json_num(replay_last_ms(data)),
        data.lifecycle.len(),
        json_num(budget),
        data.mismatches.is_empty(),
    )
}
