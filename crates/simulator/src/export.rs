//! Bridges the simulator to the telemetry crate: converts an engine
//! event log into a Chrome Trace Event document (one track per
//! processor, counter series for the piecewise interference rates,
//! instant markers for queue entries and audit violations) and folds a
//! finished [`Trace`] into a [`MetricsRegistry`] (per-processor
//! busy/idle/bubble/contention-slowdown milliseconds).
//!
//! Load the emitted JSON in `chrome://tracing` or
//! <https://ui.perfetto.dev> — engine tasks appear under the `engine`
//! process, planner phases (via [`add_planner_spans`]) under the
//! `planner` process.

use h2p_telemetry::chrome::{Arg, TraceDoc};
use h2p_telemetry::span::SpanRecord;
use h2p_telemetry::MetricsRegistry;

use crate::audit::AuditReport;
use crate::engine::{EngineEvent, TaskSpec};
use crate::soc::SocSpec;
use crate::timeline::Trace;

/// `pid` of the engine process in exported traces: one thread (track)
/// per processor, `tid` = processor index.
pub const ENGINE_PID: u32 = 1;
/// `pid` of the planner process: one track per planner thread lane.
pub const PLANNER_PID: u32 = 2;

const US_PER_MS: f64 = 1000.0;

/// Converts an engine event log into a Chrome Trace document.
///
/// The mapping is exact and lossless over the log:
/// - every `Start`/`Finish` pair becomes exactly one `X` complete
///   slice on its processor's track (`args`: solo time, intensity,
///   realized average slowdown),
/// - every `Rate` event becomes exactly one `C` counter sample named
///   `rate:<processor>` with `slowdown`/`thermal`/`memory` series,
/// - every `Ready` event becomes exactly one `i` instant on its
///   processor's track.
pub fn chrome_trace(soc: &SocSpec, tasks: &[TaskSpec], events: &[EngineEvent]) -> TraceDoc {
    let mut doc = TraceDoc::new();
    doc.process_name(ENGINE_PID, format!("engine:{}", soc.name));
    for (p, spec) in soc.processors.iter().enumerate() {
        doc.thread_name(ENGINE_PID, p as u64, spec.name.clone());
    }

    let label = |task: usize| {
        tasks
            .get(task)
            .map_or_else(|| format!("task{task}"), |t| t.label.to_string())
    };
    let proc_name = |p: usize| {
        soc.processors
            .get(p)
            .map_or_else(|| format!("proc{p}"), |s| s.name.clone())
    };

    // X slices are collected first and emitted sorted by start time so
    // every track is monotone in array order (Finish events come out of
    // the engine ordered by end time, not start time).
    struct Slice {
        task: usize,
        processor: usize,
        start_ms: f64,
        end_ms: f64,
        slowdown: f64,
    }
    let mut open: Vec<Option<f64>> = vec![None; tasks.len()];
    let mut slices: Vec<Slice> = Vec::new();
    for ev in events {
        match ev {
            EngineEvent::Ready {
                time_ms,
                task,
                processor,
            } => {
                doc.instant(
                    ENGINE_PID,
                    processor.index() as u64,
                    format!("ready:{}", label(*task)),
                    "ready",
                    time_ms * US_PER_MS,
                    't',
                    Vec::new(),
                );
            }
            EngineEvent::Rate {
                time_ms,
                processor,
                slowdown,
                thermal_factor,
                memory_factor,
                ..
            } => {
                doc.counter(
                    ENGINE_PID,
                    format!("rate:{}", proc_name(processor.index())),
                    time_ms * US_PER_MS,
                    vec![
                        ("slowdown".to_owned(), Arg::Num(*slowdown)),
                        ("thermal".to_owned(), Arg::Num(*thermal_factor)),
                        ("memory".to_owned(), Arg::Num(*memory_factor)),
                    ],
                );
            }
            EngineEvent::Start { time_ms, task, .. } => {
                if let Some(slot) = open.get_mut(*task) {
                    *slot = Some(*time_ms);
                }
            }
            EngineEvent::Finish {
                time_ms,
                task,
                processor,
                slowdown,
                ..
            } => {
                let start_ms = open
                    .get_mut(*task)
                    .and_then(Option::take)
                    .unwrap_or(*time_ms);
                slices.push(Slice {
                    task: *task,
                    processor: processor.index(),
                    start_ms,
                    end_ms: *time_ms,
                    slowdown: *slowdown,
                });
            }
            EngineEvent::ProcessorDown { time_ms, processor } => {
                doc.instant(
                    ENGINE_PID,
                    processor.index() as u64,
                    format!("down:{}", proc_name(processor.index())),
                    "fault",
                    time_ms * US_PER_MS,
                    't',
                    Vec::new(),
                );
            }
            EngineEvent::Throttle {
                time_ms,
                processor,
                factor,
            } => {
                doc.instant(
                    ENGINE_PID,
                    processor.index() as u64,
                    format!("throttle:{}", proc_name(processor.index())),
                    "fault",
                    time_ms * US_PER_MS,
                    't',
                    vec![("factor".to_owned(), Arg::Num(*factor))],
                );
            }
            EngineEvent::TaskFailed {
                time_ms,
                task,
                processor,
                kind,
            } => {
                doc.instant(
                    ENGINE_PID,
                    processor.index() as u64,
                    format!("failed:{}", label(*task)),
                    "fault",
                    time_ms * US_PER_MS,
                    't',
                    vec![("kind".to_owned(), Arg::Str(kind.as_str().to_owned()))],
                );
                // A failed task never gets a Finish event; drop its open
                // start so it doesn't leak into another slice.
                if let Some(slot) = open.get_mut(*task) {
                    *slot = None;
                }
            }
        }
    }
    slices.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
    for s in slices {
        let mut args = vec![
            ("task".to_owned(), Arg::Int(s.task as i64)),
            ("slowdown".to_owned(), Arg::Num(s.slowdown)),
        ];
        if let Some(spec) = tasks.get(s.task) {
            args.push(("solo_ms".to_owned(), Arg::Num(spec.solo_ms)));
            args.push(("intensity".to_owned(), Arg::Num(spec.intensity)));
        }
        doc.complete(
            ENGINE_PID,
            s.processor as u64,
            label(s.task),
            "task",
            s.start_ms * US_PER_MS,
            (s.end_ms - s.start_ms) * US_PER_MS,
            args,
        );
    }
    doc
}

/// Adds the planner's recorded phase spans under [`PLANNER_PID`], in
/// enter order on one track, `planner-main`: the planner plans on the
/// calling thread. Open (never-closed) spans are skipped.
pub fn add_planner_spans(doc: &mut TraceDoc, spans: &[SpanRecord]) {
    if spans.is_empty() {
        return;
    }
    doc.process_name(PLANNER_PID, "planner");
    doc.thread_name(PLANNER_PID, 0, "planner-main");
    for s in spans.iter().filter(|s| s.is_closed()) {
        doc.complete(
            PLANNER_PID,
            0,
            s.name.clone(),
            "planner",
            s.start_us,
            s.dur_us,
            vec![("span_id".to_owned(), Arg::Str(format!("{:016x}", s.id)))],
        );
    }
}

/// Adds one global instant marker per audit violation, anchored to the
/// offending task's span start when the violation names a task.
pub fn add_audit_instants(doc: &mut TraceDoc, report: &AuditReport, trace: &Trace) {
    for v in &report.violations {
        let anchor = v.task().and_then(|t| trace.span(t));
        let ts_us = anchor.map_or(0.0, |s| s.start_ms * US_PER_MS);
        let tid = anchor.map_or(0, |s| s.processor.index() as u64);
        doc.instant(
            ENGINE_PID,
            tid,
            format!("violation: {v}"),
            "audit",
            ts_us,
            'g',
            Vec::new(),
        );
    }
}

/// Folds a finished trace into the registry: per-processor
/// `engine.<proc>.busy_ms` / `idle_ms` / `bubble_ms` / `stretch_ms`
/// gauges (stretch = time lost to co-execution slowdown, `Σ duration −
/// solo`), the global makespan and bubble totals, a span counter, and
/// an `engine.span_ms` duration histogram.
pub fn record_trace_metrics(soc: &SocSpec, trace: &Trace, metrics: &MetricsRegistry) {
    let makespan = trace.makespan_ms();
    metrics.set_gauge("engine.makespan_ms", makespan);
    metrics.set_gauge("engine.bubble_ms", trace.idle_bubble_ms());
    metrics.add("engine.spans", trace.spans.len() as u64);
    let span_ms = metrics.histogram("engine.span_ms");
    for span in &trace.spans {
        metrics.observe(span_ms, span.duration_ms());
    }
    for (p, spec) in soc.processors.iter().enumerate() {
        let mut on_proc: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.processor.index() == p)
            .collect();
        on_proc.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        let busy: f64 = on_proc.iter().map(|s| s.duration_ms()).sum();
        let stretch: f64 = on_proc
            .iter()
            .map(|s| (s.duration_ms() - s.solo_ms).max(0.0))
            .sum();
        let bubble: f64 = on_proc
            .windows(2)
            .map(|w| (w[1].start_ms - w[0].end_ms).max(0.0))
            .sum();
        let name = &spec.name;
        metrics.set_gauge(&format!("engine.{name}.busy_ms"), busy);
        metrics.set_gauge(
            &format!("engine.{name}.idle_ms"),
            (makespan - busy).max(0.0),
        );
        metrics.set_gauge(&format!("engine.{name}.bubble_ms"), bubble);
        metrics.set_gauge(&format!("engine.{name}.stretch_ms"), stretch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::processor::ProcessorKind;

    fn logged_run() -> (SocSpec, Vec<TaskSpec>, Trace, Vec<EngineEvent>) {
        let soc = SocSpec::kirin_990();
        let npu = soc
            .processor_by_kind(ProcessorKind::Npu)
            .expect("preset has NPU");
        let gpu = soc
            .processor_by_kind(ProcessorKind::Gpu)
            .expect("preset has GPU");
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 5.0).intensity(0.7));
        sim.add_task(TaskSpec::new("b", gpu, 4.0).intensity(0.9).after(a));
        sim.add_task(TaskSpec::new("c", npu, 2.0).release(1.0));
        let tasks = sim.tasks().to_vec();
        let (trace, events) = sim.run_with_events().expect("runs");
        (soc, tasks, trace, events)
    }

    #[test]
    fn chrome_trace_maps_every_event() {
        let (soc, tasks, trace, events) = logged_run();
        let doc = chrome_trace(&soc, &tasks, &events);
        doc.validate().expect("valid trace");
        let xs = doc.events.iter().filter(|e| e.ph == 'X').count();
        assert_eq!(xs, trace.spans.len());
        let counters = doc.events.iter().filter(|e| e.ph == 'C').count();
        let rates = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::Rate { .. }))
            .count();
        assert_eq!(counters, rates);
        let instants = doc
            .events
            .iter()
            .filter(|e| e.ph == 'i' && e.cat == "ready")
            .count();
        assert_eq!(instants, tasks.len());
    }

    #[test]
    fn audit_instants_anchor_to_tasks() {
        let (soc, tasks, trace, events) = logged_run();
        let mut doc = chrome_trace(&soc, &tasks, &events);
        let report = AuditReport {
            violations: vec![crate::audit::Violation::TooSlow {
                task: 1,
                duration_ms: 99.0,
                bound_ms: 10.0,
            }],
            checks: 1,
        };
        add_audit_instants(&mut doc, &report, &trace);
        let v = doc
            .events
            .iter()
            .find(|e| e.cat == "audit")
            .expect("violation instant");
        assert_eq!(v.tid, trace.spans[1].processor.index() as u64);
        assert!((v.ts_us - trace.spans[1].start_ms * 1000.0).abs() < 1e-9);
        doc.validate().expect("still valid");
    }

    #[test]
    fn planner_spans_share_the_main_track() {
        // Two root spans and a child all land on track 0, in enter
        // order; the span left open is skipped.
        let spans = h2p_telemetry::span::SpanRecorder::new();
        {
            let _root = spans.enter("plan");
            drop(spans.enter("prepare:0"));
        }
        drop(spans.enter("plan"));
        let _open = spans.enter("open");
        let mut doc = TraceDoc::new();
        add_planner_spans(&mut doc, &spans.records());
        doc.validate().expect("valid trace");
        let tracks: Vec<(u64, &Arg)> = doc
            .events
            .iter()
            .filter(|e| e.ph == 'M' && e.name == "thread_name")
            .map(|e| (e.tid, &e.args[0].1))
            .collect();
        assert_eq!(tracks, [(0, &Arg::Str("planner-main".to_owned()))]);
        let slices: Vec<(u64, &str)> = doc
            .events
            .iter()
            .filter(|e| e.cat == "planner")
            .map(|e| (e.tid, e.name.as_str()))
            .collect();
        assert_eq!(slices, [(0, "plan"), (0, "prepare:0"), (0, "plan")]);
    }

    #[test]
    fn trace_metrics_account_busy_and_bubbles() {
        let (soc, _tasks, trace, _events) = logged_run();
        let metrics = MetricsRegistry::new();
        record_trace_metrics(&soc, &trace, &metrics);
        let snap = metrics.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counter("engine.spans"), Some(trace.spans.len() as u64));
        let makespan = snap.gauge("engine.makespan_ms").expect("recorded");
        assert!((makespan - trace.makespan_ms()).abs() < 1e-9);
        // Busy + idle = makespan on every processor.
        for spec in &soc.processors {
            let busy = snap
                .gauge(&format!("engine.{}.busy_ms", spec.name))
                .expect("busy");
            let idle = snap
                .gauge(&format!("engine.{}.idle_ms", spec.name))
                .expect("idle");
            assert!((busy + idle - makespan).abs() < 1e-6, "{}", spec.name);
        }
    }
}
