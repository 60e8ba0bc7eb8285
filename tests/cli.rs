//! Smoke tests for the `h2p` command-line front end, exercising the
//! compiled binary end to end.

use std::process::Command;

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

#[test]
fn socs_lists_all_three_platforms() {
    let (stdout, _, ok) = h2p(&["socs"]);
    assert!(ok);
    for name in ["Kirin 990", "Snapdragon 778G", "Snapdragon 870"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn zoo_lists_all_ten_models() {
    let (stdout, _, ok) = h2p(&["zoo"]);
    assert!(ok);
    for name in ["AlexNet", "VGG16", "YOLOv4", "BERT", "ViT", "SqueezeNet"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    assert!(stdout.contains("fallback"), "NPU fallback column shown");
}

#[test]
fn plan_prints_stage_layout() {
    let (stdout, _, ok) = h2p(&["plan", "--soc", "kirin990", "bert", "resnet50"]);
    assert!(ok);
    assert!(stdout.contains("BERT"));
    assert!(stdout.contains("ResNet50"));
    assert!(stdout.contains("est. makespan"));
}

#[test]
fn run_reports_latency_for_every_scheme() {
    for scheme in ["mnn", "pipeit", "dart", "band", "noct", "h2p"] {
        let (stdout, _, ok) = h2p(&["run", "--scheme", scheme, "resnet50", "squeezenet"]);
        assert!(ok, "{scheme} failed");
        assert!(stdout.contains("latency"), "{scheme}: {stdout}");
    }
}

#[test]
fn report_reconciles_for_every_scheme() {
    // Every scheme's tasks name their request, so the report attributes
    // each replayed span and all three latency views agree.
    for scheme in ["mnn", "pipeit", "dart", "band", "noct", "h2p"] {
        let (stdout, stderr, ok) = h2p(&["report", "--scheme", scheme, "bert", "resnet50"]);
        assert!(ok, "{scheme} failed:\n{stdout}\n{stderr}");
        assert!(
            !stdout.contains("RECONCILIATION FAILED"),
            "{scheme}: {stdout}"
        );
    }
}

#[test]
fn usage_lists_every_scheme() {
    let (_, stderr, ok) = h2p(&["run", "--no-such-flag", "bert"]);
    assert!(!ok);
    assert!(
        stderr.contains("schemes: mnn, pipeit, band, dart, noct, h2p (default)"),
        "{stderr}"
    );
}

#[test]
fn gantt_renders_one_row_per_processor() {
    let (stdout, _, ok) = h2p(&["gantt", "--soc", "sd870", "resnet50", "vgg16"]);
    assert!(ok);
    for name in ["CPU_B", "CPU_S", "GPU"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn trace_audit_is_clean_on_planned_runs() {
    let (stdout, _, ok) = h2p(&["trace", "--audit", "bert", "mobilenetv2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("audit: clean"), "{stdout}");
    assert!(stdout.contains("latency"), "{stdout}");
}

#[test]
fn trace_audit_rejects_corrupted_traces() {
    let (stdout, stderr, ok) = h2p(&["trace", "--audit", "--corrupt", "bert", "mobilenetv2"]);
    assert!(!ok, "corrupted trace must exit nonzero: {stdout}");
    assert!(stdout.contains("violation"), "{stdout}");
    assert!(stderr.contains("corrupted"), "{stderr}");
}

#[test]
fn trace_audit_replay_catches_stretch_corruption() {
    // The stretch class stays inside the conservative slowdown envelope
    // and is only caught by the event-log replay reconciliation.
    let (stdout, stderr, ok) = h2p(&[
        "trace",
        "--audit",
        "--corrupt",
        "stretch",
        "bert",
        "resnet50",
    ]);
    assert!(!ok, "stretched trace must exit nonzero: {stdout}");
    assert!(stdout.contains("replay"), "{stdout}");
    assert!(stderr.contains("--corrupt stretch"), "{stderr}");
}

#[test]
fn trace_summary_prints_metrics_table() {
    let (stdout, _, ok) = h2p(&["trace", "--summary", "bert", "mobilenetv2"]);
    assert!(ok, "{stdout}");
    for metric in ["busy_ms", "bubble_ms", "engine.makespan_ms", "engine.spans"] {
        assert!(stdout.contains(metric), "missing {metric} in {stdout}");
    }
}

#[test]
fn export_writes_chrome_trace_and_metrics() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join("h2p_cli_test_trace.json");
    let metrics_path = dir.join("h2p_cli_test_metrics.json");
    let (stdout, _, ok) = h2p(&[
        "export",
        "--trace",
        trace_path.to_str().expect("utf-8 path"),
        "--metrics",
        metrics_path.to_str().expect("utf-8 path"),
        "bert",
        "mobilenetv2",
    ]);
    assert!(ok, "{stdout}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
    for field in ["\"traceEvents\"", "\"ph\":\"X\"", "\"ph\":\"M\""] {
        assert!(trace.contains(field), "missing {field} in trace JSON");
    }
    assert!(metrics.contains("\"counters\""), "{metrics}");
    assert!(metrics.contains("planner.plans"), "{metrics}");
}

/// Replaces the number after every `key` in `text` with `_`.
fn blank_numbers_after(text: &str, key: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let (head, tail) = rest.split_at(at + key.len());
        out.push_str(head);
        out.push('_');
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// An export with its wall-clock fields blanked: planner span times and
/// the planner's phase timings.
fn export_without_wall_clock(models: &[&str], run: usize) -> (String, String) {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let trace_path = dir.join(format!("h2p_cli_repro_{id}_{run}_trace.json"));
    let metrics_path = dir.join(format!("h2p_cli_repro_{id}_{run}_metrics.json"));
    let mut args = vec![
        "export",
        "--trace",
        trace_path.to_str().expect("utf-8 path"),
        "--metrics",
        metrics_path.to_str().expect("utf-8 path"),
    ];
    args.extend_from_slice(models);
    let (stdout, stderr, ok) = h2p(&args);
    assert!(ok, "{stdout}\n{stderr}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics written");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
    let trace: Vec<String> = trace
        .lines()
        .map(|line| {
            if line.contains("\"cat\":\"planner\"") {
                blank_numbers_after(&blank_numbers_after(line, "\"ts\":"), "\"dur\":")
            } else {
                line.to_owned()
            }
        })
        .collect();
    let mut metrics = metrics;
    for phase in ["assemble_ms", "prepare_ms", "total_ms"] {
        metrics = blank_numbers_after(&metrics, &format!("\"planner.phase.{phase}\":"));
    }
    // The plan-time histogram, the last metric in name order, holds
    // the one wall-clock observation.
    let histogram = metrics
        .find("\"planner.plan_ms\":")
        .expect("plan-time histogram");
    metrics.truncate(histogram);
    (trace.join("\n"), metrics)
}

#[test]
fn export_is_reproducible_beyond_its_wall_clock_fields() {
    // Planning runs on the calling thread, so beyond its wall-clock
    // fields a fixed input exports the same trace and metrics on every
    // run, the scratch-pool counter included.
    for models in [
        &["bert", "mobilenetv2"][..],
        &["vgg16", "squeezenet", "bert", "vit"],
    ] {
        let first = export_without_wall_clock(models, 0);
        assert!(
            first.1.contains("\"planner.dp.scratch_allocs\":"),
            "{models:?}: {}",
            first.1
        );
        for run in 1..4 {
            assert_eq!(first, export_without_wall_clock(models, run), "{models:?}");
        }
    }
}

#[test]
fn export_requires_an_output_path() {
    let (_, stderr, ok) = h2p(&["export", "bert"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn trace_emits_json_lines_event_log() {
    let (stdout, _, ok) = h2p(&["trace", "--events", "-", "mobilenetv2"]);
    assert!(ok);
    for event in [
        "\"event\":\"task\"",
        "\"event\":\"ready\"",
        "\"event\":\"start\"",
        "\"event\":\"finish\"",
    ] {
        assert!(stdout.contains(event), "missing {event} in {stdout}");
    }
}

#[test]
fn lint_is_clean_for_every_scheme() {
    for scheme in ["mnn", "pipeit", "dart", "band", "noct", "h2p"] {
        let (stdout, _, ok) = h2p(&["lint", "--scheme", scheme, "bert", "mobilenetv2"]);
        assert!(ok, "{scheme} lint failed: {stdout}");
        assert!(stdout.contains("0 error(s)"), "{scheme}: {stdout}");
    }
}

#[test]
fn lint_json_emits_summary_line() {
    let (stdout, _, ok) = h2p(&["lint", "--json", "--deny-warnings", "bert", "yolov4"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("{\"summary\":true,\"errors\":0,\"warnings\":0,"),
        "{stdout}"
    );
}

#[test]
fn lint_catches_every_corruption_class() {
    for class in [
        "drop-layer",
        "duplicate-slot",
        "bad-proc",
        "inflate-makespan",
    ] {
        let (stdout, stderr, ok) = h2p(&["lint", "--corrupt", class, "bert", "yolov4"]);
        assert!(!ok, "{class} must exit nonzero: {stdout}");
        assert!(stdout.contains("error"), "{class}: {stdout}");
        assert!(stderr.contains("corrupted"), "{class}: {stderr}");
    }
}

#[test]
fn lint_rejects_bad_corrupt_usage() {
    let (_, stderr, ok) = h2p(&["lint", "--corrupt", "not-a-class", "bert"]);
    assert!(!ok);
    assert!(stderr.contains("--corrupt needs a class"), "{stderr}");
    let (_, stderr, ok) = h2p(&["lint", "--scheme", "mnn", "--corrupt", "drop-layer", "bert"]);
    assert!(!ok);
    assert!(stderr.contains("plan-producing scheme"), "{stderr}");
}

#[test]
fn unknown_inputs_exit_with_usage() {
    let (_, stderr, ok) = h2p(&["run", "not-a-model"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
    let (_, stderr, ok) = h2p(&["plan", "--soc", "exynos"]);
    assert!(!ok);
    assert!(stderr.contains("unknown soc"));
    let (_, stderr, ok) = h2p(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn malformed_values_exit_2_with_usage() {
    for args in [
        &["chaos", "--seeds", "0"][..],
        &["serve", "--qps-sweep", "5"],
        &["report", "--slo-budget", "2"],
        &["lint", "bert", "--corrupt", "nope"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_h2p"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
