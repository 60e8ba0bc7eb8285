//! Telemetry export tests: a golden-schema check of the Chrome Trace
//! document produced from a fixed two-task simulation, and a property
//! test that the event-log → trace mapping is exact and lossless for
//! arbitrary workloads (every `Start`/`Finish` pair becomes exactly one
//! `X` slice, every `Rate` event one `C` sample, every `Ready` event
//! one instant).

use proptest::prelude::*;

use h2p_simulator::engine::{EngineEvent, Simulation, TaskSpec};
use h2p_simulator::export::{chrome_trace, record_trace_metrics, ENGINE_PID};
use h2p_simulator::{ProcessorId, SocSpec};
use h2p_telemetry::MetricsRegistry;

/// Runs a simulation, returning (tasks, trace, events, chrome doc).
fn run_and_export(
    soc: &SocSpec,
    specs: Vec<TaskSpec>,
) -> (
    Vec<TaskSpec>,
    h2p_simulator::Trace,
    Vec<EngineEvent>,
    h2p_telemetry::chrome::TraceDoc,
) {
    let mut sim = Simulation::new(soc);
    for spec in specs {
        sim.add_task(spec);
    }
    let tasks = sim.tasks().to_vec();
    let (trace, events) = sim.run_with_events().expect("runs");
    let doc = chrome_trace(soc, &tasks, &events);
    (tasks, trace, events, doc)
}

/// Golden-schema test: a fixed two-task co-execution on the Kirin 990
/// must export a Chrome Trace document with the exact expected shape —
/// metadata records naming the process and every processor track, one
/// `X` slice per task with microsecond timestamps matching the trace,
/// and JSON text carrying all the fields Perfetto requires.
#[test]
fn chrome_export_golden_two_task_coexecution() {
    let soc = SocSpec::kirin_990();
    let (tasks, trace, _, doc) = run_and_export(
        &soc,
        vec![
            TaskSpec::new("alpha", ProcessorId(0), 10.0).intensity(1.0),
            TaskSpec::new("beta", ProcessorId(1), 8.0).intensity(1.0),
        ],
    );
    doc.validate().expect("schema-valid document");

    // Metadata: a process_name record plus one thread_name per processor.
    let metas: Vec<_> = doc.events.iter().filter(|e| e.ph == 'M').collect();
    assert!(metas
        .iter()
        .any(|e| e.name == "process_name" && e.pid == ENGINE_PID));
    let thread_names = metas.iter().filter(|e| e.name == "thread_name").count();
    assert_eq!(thread_names, soc.processors.len());

    // Exactly one X slice per task, on the right track, with timestamps
    // equal to the executed trace spans converted to microseconds.
    let slices: Vec<_> = doc.events.iter().filter(|e| e.ph == 'X').collect();
    assert_eq!(slices.len(), tasks.len());
    for (t, spec) in tasks.iter().enumerate() {
        let span = trace.span(t).expect("span exists");
        let slice = slices
            .iter()
            .find(|e| e.name == spec.label.to_string())
            .expect("one slice per task");
        assert_eq!(slice.pid, ENGINE_PID);
        assert_eq!(slice.tid, span.processor.index() as u64);
        assert!((slice.ts_us - span.start_ms * 1000.0).abs() < 1e-6);
        let dur = slice.dur_us.expect("X slices carry dur");
        assert!((dur - (span.end_ms - span.start_ms) * 1000.0).abs() < 1e-6);
    }

    // Both tasks start at t=0 on different processors, so each sees the
    // other as interference: durations must exceed solo times.
    for (t, spec) in tasks.iter().enumerate() {
        let span = trace.span(t).expect("span");
        assert!(span.end_ms - span.start_ms > spec.solo_ms - 1e-9);
    }

    // The serialized JSON carries every field the Trace Event Format
    // requires, and nothing parses as NaN/inf.
    let json = doc.to_json();
    for field in [
        "\"traceEvents\"",
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "\"ts\":",
        "\"dur\":",
        "\"pid\":1",
        "\"tid\":",
        "\"cat\":\"task\"",
        "\"slowdown\"",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    assert!(!json.contains("NaN") && !json.contains("inf"));

    // The same run folds into a non-empty metrics snapshot with one
    // busy-time gauge per processor that saw work.
    let metrics = MetricsRegistry::new();
    record_trace_metrics(&soc, &trace, &metrics);
    let snap = metrics.snapshot();
    assert!(!snap.is_empty());
    assert!(snap.gauge("engine.makespan_ms").is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-log → Chrome-trace mapping is exact for arbitrary
    /// workloads: every engine event lands in exactly one trace record
    /// of the matching phase, and the document always validates.
    #[test]
    fn every_engine_event_maps_to_one_trace_record(
        durs in prop::collection::vec(1u32..200, 1..12),
        seed in any::<u64>(),
    ) {
        let soc = SocSpec::kirin_990();
        let nprocs = soc.processors.len();
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let specs: Vec<TaskSpec> = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                TaskSpec::new(format!("t{i}"), ProcessorId(next() % nprocs), d as f64 / 10.0)
                    .intensity((next() % 100) as f64 / 100.0)
                    .release((next() % 50) as f64)
            })
            .collect();
        let (_, _, events, doc) = run_and_export(&soc, specs);
        if let Err(e) = doc.validate() {
            return Err(TestCaseError::fail(format!("invalid document: {e}")));
        }

        let count = |pred: &dyn Fn(&&EngineEvent) -> bool| events.iter().filter(pred).count();
        let starts = count(&|e| matches!(e, EngineEvent::Start { .. }));
        let finishes = count(&|e| matches!(e, EngineEvent::Finish { .. }));
        let rates = count(&|e| matches!(e, EngineEvent::Rate { .. }));
        let readies = count(&|e| matches!(e, EngineEvent::Ready { .. }));
        prop_assert_eq!(starts, finishes);

        let slices = doc.events.iter().filter(|e| e.ph == 'X').count();
        let counters = doc.events.iter().filter(|e| e.ph == 'C').count();
        let instants = doc
            .events
            .iter()
            .filter(|e| e.ph == 'i' && e.cat == "ready")
            .count();
        prop_assert_eq!(slices, finishes, "one X slice per Start/Finish pair");
        prop_assert_eq!(counters, rates, "one C sample per Rate event");
        prop_assert_eq!(instants, readies, "one instant per Ready event");

        // Every X slice brackets the matching Start/Finish times.
        for slice in doc.events.iter().filter(|e| e.ph == 'X') {
            let dur = slice.dur_us.unwrap_or(0.0);
            let matched = events.iter().any(|e| match e {
                EngineEvent::Finish { time_ms, duration_ms, .. } => {
                    ((time_ms - duration_ms) * 1000.0 - slice.ts_us).abs() < 1e-6
                        && (duration_ms * 1000.0 - dur).abs() < 1e-6
                }
                _ => false,
            });
            prop_assert!(matched, "slice {} has no Finish event", slice.name);
        }
    }
}
