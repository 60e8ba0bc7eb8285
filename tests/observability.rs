//! End-to-end observability tests: the request lifecycle stream, the
//! derived analytics, and the `h2p report` CLI must all reconcile with
//! the ground truth the executor and the audit replay establish.

use std::process::Command;

use h2p_models::zoo::ModelId;
use h2p_simulator::FaultSpec;
use h2p_simulator::SocSpec;
use h2p_telemetry::analytics::{ExecSpan, UtilizationTimeline};
use h2p_telemetry::lifecycle::{self, LifecycleLog, LifecycleStage, RequestId, TraceId};
use hetero2pipe::executor::record_request_lifecycle;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{run_with_recovery, RecoveryOutcome, RecoveryPolicy};

fn h2p(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_h2p"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("h2p-observability-{}-{name}", std::process::id()));
    p
}

#[test]
fn lifecycle_stream_reconciles_with_execution_report() {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).unwrap();
    let ids = [ModelId::Bert, ModelId::ResNet50, ModelId::MobileNetV2];
    let planned = planner.plan_models(&ids).unwrap();
    let report = planned.execute(&soc).unwrap();

    let log = LifecycleLog::new();
    let trace_id = TraceId::of_names(ids.iter().map(|m| m.name()));
    for r in 0..ids.len() {
        log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
        log.record(trace_id, RequestId(r), 0.0, LifecycleStage::Plan);
    }
    record_request_lifecycle(&log, trace_id, &report, 0.0);

    let events = log.records();
    assert!(
        lifecycle::validate(&events).is_empty(),
        "lifecycle stream must be causally valid"
    );
    // Exactly one completion per request, and its latency is the
    // executor's ground truth.
    for (r, &lat) in report.request_latency_ms.iter().enumerate() {
        let completions: Vec<f64> = events
            .iter()
            .filter(|e| e.request.0 == r)
            .filter_map(|e| match e.stage {
                LifecycleStage::Complete { latency_ms } => Some(latency_ms),
                _ => None,
            })
            .collect();
        assert_eq!(completions.len(), 1, "request {r}");
        assert!(
            (completions[0] - lat).abs() < 1e-9,
            "request {r}: lifecycle {} vs report {lat}",
            completions[0]
        );
    }
}

#[test]
fn utilization_timeline_reconciles_with_trace() {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).unwrap();
    let planned = planner
        .plan_models(&[ModelId::Bert, ModelId::ResNet50, ModelId::SqueezeNet])
        .unwrap();
    let report = planned.execute(&soc).unwrap();

    let spans: Vec<ExecSpan> = report
        .trace
        .spans
        .iter()
        .map(|s| ExecSpan {
            request: s.label.request(),
            processor: s.processor.index(),
            start_ms: s.start_ms,
            end_ms: s.end_ms,
        })
        .collect();
    let timeline = UtilizationTimeline::compute(&spans, soc.processors.len());

    // The analytics bubble definition matches `Trace::idle_bubble_ms`.
    assert!(
        (timeline.total_bubble_ms() - report.trace.idle_bubble_ms()).abs() < 1e-6,
        "analytics {} vs trace {}",
        timeline.total_bubble_ms(),
        report.trace.idle_bubble_ms()
    );
    // Per-processor busy time matches the trace accounting.
    for u in &timeline.processors {
        let id = h2p_simulator::ProcessorId(u.processor);
        assert!(
            (u.busy_ms - report.trace.busy_ms(id)).abs() < 1e-6,
            "processor {}",
            u.processor
        );
    }
    assert!((timeline.horizon_ms - report.makespan_ms).abs() < 1e-9);
}

#[test]
fn recovery_lifecycle_is_causally_valid_and_closed() {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).unwrap();
    let victim = planner.pipeline_procs()[0];
    let faults = [FaultSpec::ProcessorDropout {
        processor: victim,
        at_ms: 5.0,
    }];
    let reqs: Vec<_> = [ModelId::MobileNetV2, ModelId::SqueezeNet]
        .iter()
        .map(|m| m.graph())
        .collect();
    let report = run_with_recovery(&planner, &reqs, &faults, &RecoveryPolicy::default()).unwrap();

    let events = planner.telemetry().lifecycle.records();
    assert!(
        lifecycle::validate(&events).is_empty(),
        "recovery lifecycle must be causally valid"
    );
    // Every request's history closes: a Complete when the runner says it
    // completed, a Degrade otherwise.
    for (r, &done) in report.completed.iter().enumerate() {
        let completed = events
            .iter()
            .any(|e| e.request.0 == r && matches!(e.stage, LifecycleStage::Complete { .. }));
        let degraded = events
            .iter()
            .any(|e| e.request.0 == r && matches!(e.stage, LifecycleStage::Degrade { .. }));
        assert_eq!(completed, done, "request {r} completion mismatch");
        if matches!(report.outcome, RecoveryOutcome::Recovered) {
            assert!(!degraded, "request {r} degraded in a recovered run");
        }
        assert!(completed || degraded, "request {r} history left open");
    }
}

#[test]
fn report_reconciles_on_live_run() {
    let (stdout, stderr, ok) = h2p(&["report", "--soc", "kirin990", "bert", "resnet50"]);
    assert!(ok, "report must reconcile: {stdout}\n{stderr}");
    assert!(
        stdout.contains("latency quantiles by QoS class"),
        "{stdout}"
    );
    assert!(stdout.contains("utilization:"), "{stdout}");
    assert!(
        stdout.contains("replay and lifecycle reconcile"),
        "{stdout}"
    );
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn report_reconciles_on_chaos_scenario() {
    let (stdout, stderr, ok) = h2p(&["report", "--chaos-seed", "3"]);
    assert!(ok, "chaos report must reconcile: {stdout}\n{stderr}");
    assert!(stdout.contains("chaos seed 3"), "{stdout}");
    assert!(
        stdout.contains("replay and lifecycle reconcile"),
        "{stdout}"
    );
    for quantile in ["p50", "p95", "p99"] {
        assert!(stdout.contains(quantile), "{quantile} missing: {stdout}");
    }
    assert!(stdout.contains("miss(es) across"), "{stdout}");
}

#[test]
fn report_json_is_schema_stamped_and_reconciled() {
    let (stdout, _, ok) = h2p(&["report", "--json", "bert", "mobilenetv2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"schema\":\"h2p-report/v1\""), "{stdout}");
    assert!(stdout.contains("\"reconciled\":true"), "{stdout}");
    assert!(stdout.contains("\"p99_ms\":"), "{stdout}");
    assert!(stdout.contains("\"burn_rate\":"), "{stdout}");
}

#[test]
fn trace_events_carry_lifecycle_and_report_from_matches_live() {
    let path = tmp_path("events.jsonl");
    let path_str = path.to_str().unwrap();
    let (_, _, ok) = h2p(&["trace", "--events", path_str, "bert", "resnet50"]);
    assert!(ok);
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.contains("\"event\":\"lifecycle\""), "{log}");
    assert!(log.contains("\"stage\":\"admit\""), "{log}");
    assert!(log.contains("\"stage\":\"complete\""), "{log}");

    // The saved log replays into the same report a live run produces.
    let (from_out, from_err, from_ok) = h2p(&["report", "--from", path_str]);
    assert!(from_ok, "{from_out}\n{from_err}");
    let (live_out, _, live_ok) = h2p(&["report", "bert", "resnet50"]);
    assert!(live_ok);
    let section = |s: &str| -> String {
        s.lines()
            .skip_while(|l| !l.starts_with("requests:"))
            .take_while(|l| !l.starts_with("replay:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        section(&from_out),
        section(&live_out),
        "log-replayed report must match the live report"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn report_rejects_unknown_inputs() {
    let (_, stderr, ok) = h2p(&["report"]);
    assert!(!ok);
    assert!(stderr.contains("no models given"), "{stderr}");
    let (_, stderr, ok) = h2p(&["report", "--from", "/nonexistent/h2p.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
