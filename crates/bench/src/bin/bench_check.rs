//! Validates `BENCH_planner.json` (written by the `planner_scaling`
//! bench) and gates the perf trajectory: the schema must match, the
//! required cases must be present with positive medians, the cached
//! planner must not be slower than the frozen reference on the
//! 8-request workload, and the incremental online replan must beat the
//! from-scratch window replan.
//!
//! ```text
//! bench_check [path] [--min-speedup X] [--min-replan-speedup X]
//! bench_check --diff OLD.json NEW.json [--threshold F]
//! ```
//!
//! `--diff` is the perf-regression sentinel: it compares two snapshots
//! case by case and exits nonzero if any case's median regressed by
//! more than the threshold (default 0.10 = 10%), or if a case present
//! in OLD is missing from NEW. Improvements and new cases are reported
//! but never fail. If either snapshot is stamped advisory, cross-host
//! medians are not comparable — the diff is printed for information
//! and the gate is skipped (exit 0), mirroring how the validation mode
//! treats advisory stamps.
//!
//! Both speedup gates are algorithmic and therefore enforced on any
//! host: `t1_vs_reference` (`plan/reference/8` over `plan/t1/8`, a memo
//! hit plus pooled assemblies against the clone-per-mask re-solve) must
//! reach `--min-speedup`, and `incremental_vs_scratch` (a window-cache
//! hit against a from-scratch window replan) must reach
//! `--min-replan-speedup`.
//!
//! Snapshots carry a top-level `"advisory"` flag stamped by
//! `scripts/bench.sh` on hosts with fewer than 4 cores; an advisory
//! snapshot is printed loudly instead of silently accepted.
//! `partition_dp/BERT` is additionally gated at >= 2x the committed
//! pre-kernel median wherever the snapshot is not advisory, and only
//! reported on advisory snapshots, since the baseline is host-class
//! specific.
//!
//! Exits non-zero with a diagnostic on any violation. The parser is a
//! deliberately small field extractor over the file this workspace itself
//! writes — not a general JSON reader.

/// Extracts the string value of `"key": "value"`.
fn string_field(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts the boolean value of `"key": true|false`.
fn bool_field(json: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts the numeric value of `"key": 123.4` (also accepts `null`,
/// returning `None`).
fn number_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The median of a named case, if the case is present.
fn case_median_ns(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let start = json.find(&needle)?;
    number_field(&json[start..], "median_ns")
}

/// Every case name in the snapshot, in file order.
fn case_names(json: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\": \"") {
        rest = &rest[pos + "\"name\": \"".len()..];
        let Some(end) = rest.find('"') else { break };
        names.push(rest[..end].to_owned());
        rest = &rest[end..];
    }
    names
}

/// Reads a snapshot file or exits with a diagnostic.
fn read_snapshot(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `bench_check --diff OLD NEW`: the perf-regression sentinel. Flags a
/// per-case median regression beyond `threshold` (fractional, e.g. 0.10
/// = 10%) and any case that disappeared; exits nonzero on either unless
/// a snapshot is stamped advisory (cross-host medians are not
/// comparable, so the diff is reported without gating).
fn run_diff(old_path: &str, new_path: &str, threshold: f64) -> ! {
    let old = read_snapshot(old_path);
    let new = read_snapshot(new_path);

    let advisory = |json: &str, path: &str| -> bool {
        if bool_field(json, "advisory") == Some(true) {
            let reason = string_field(json, "advisory_reason")
                .unwrap_or_else(|| "no reason recorded".to_owned());
            println!("bench_check: {path} is stamped ADVISORY -- {reason}");
            true
        } else {
            false
        }
    };
    let any_advisory = advisory(&old, old_path) | advisory(&new, new_path);

    let mut regressions: Vec<String> = Vec::new();
    let mut checked = 0usize;
    for name in case_names(&old) {
        let Some(old_ns) = case_median_ns(&old, &name).filter(|&ns| ns > 0.0) else {
            continue;
        };
        checked += 1;
        match case_median_ns(&new, &name) {
            None => regressions.push(format!(
                "case {name}: present in {old_path}, missing from {new_path}"
            )),
            Some(new_ns) => {
                let ratio = new_ns / old_ns;
                if ratio > 1.0 + threshold {
                    regressions.push(format!(
                        "case {name}: median regressed {old_ns:.1} -> {new_ns:.1} ns \
                         ({:+.1}%, gate: <= +{:.1}%)",
                        (ratio - 1.0) * 100.0,
                        threshold * 100.0
                    ));
                } else if ratio < 1.0 - threshold {
                    println!(
                        "bench_check: case {name}: improved {old_ns:.1} -> {new_ns:.1} ns \
                         ({:+.1}%)",
                        (ratio - 1.0) * 100.0
                    );
                }
            }
        }
    }
    for name in case_names(&new) {
        if case_median_ns(&old, &name).is_none() {
            println!("bench_check: case {name}: new in {new_path}");
        }
    }
    if checked == 0 {
        eprintln!("bench_check: {old_path} has no benchmark cases to compare");
        std::process::exit(1);
    }

    if regressions.is_empty() {
        println!(
            "bench_check: diff {old_path} -> {new_path}: {checked} case(s) within \
             +{:.1}% -- ok",
            threshold * 100.0
        );
        std::process::exit(0);
    }
    for r in &regressions {
        if any_advisory {
            println!("bench_check: (advisory) {r}");
        } else {
            eprintln!("bench_check: {r}");
        }
    }
    if any_advisory {
        println!(
            "bench_check: {} regression(s) reported, not gated (advisory snapshot)",
            regressions.len()
        );
        std::process::exit(0);
    }
    eprintln!(
        "bench_check: {} regression(s) beyond +{:.1}%",
        regressions.len(),
        threshold * 100.0
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "BENCH_planner.json".to_owned();
    let mut min_speedup = 1.0f64;
    let mut min_replan_speedup = 3.0f64;
    let mut diff: Option<(String, String)> = None;
    let mut threshold = 0.10f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--diff" => {
                let (old, new) = match (args.get(i + 1), args.get(i + 2)) {
                    (Some(o), Some(n)) if !o.starts_with("--") && !n.starts_with("--") => {
                        (o.clone(), n.clone())
                    }
                    _ => {
                        eprintln!("--diff needs OLD.json and NEW.json");
                        std::process::exit(2);
                    }
                };
                diff = Some((old, new));
                i += 3;
            }
            "--threshold" => {
                threshold = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--threshold needs a positive fraction (e.g. 0.10)");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--min-speedup" => {
                min_speedup = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--min-speedup needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--min-replan-speedup" => {
                min_replan_speedup =
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| {
                            eprintln!("--min-replan-speedup needs a number");
                            std::process::exit(2);
                        });
                i += 2;
            }
            other => {
                path = other.to_owned();
                i += 1;
            }
        }
    }

    if let Some((old, new)) = diff {
        run_diff(&old, &new, threshold);
    }

    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };

    let mut failures: Vec<String> = Vec::new();

    match string_field(&json, "schema") {
        Some(s) if s == "h2p-bench-planner/v1" => {}
        Some(s) => failures.push(format!("unexpected schema {s:?}")),
        None => failures.push("missing \"schema\" field".to_owned()),
    }

    // A snapshot stamped advisory (by `scripts/bench.sh`, from the host
    // class that produced it) is surfaced loudly instead of silently
    // accepted.
    let advisory = match bool_field(&json, "advisory") {
        Some(true) => {
            let reason = string_field(&json, "advisory_reason")
                .unwrap_or_else(|| "no reason recorded".to_owned());
            println!("bench_check: ADVISORY snapshot -- {reason}");
            true
        }
        Some(false) => false,
        None => {
            failures.push("missing \"advisory\" field (stamped by scripts/bench.sh)".to_owned());
            true
        }
    };

    let required_cases = [
        "partition_dp/VGG16",
        "partition_dp/BERT",
        "plan_single/BERT",
        "prepare_cold/BERT",
        "lap_solve/32",
        "plan/reference/8",
        "plan/t1/8",
        "plan_cold/t1/8",
        "lower/8",
        "online/replan_w4/16",
        "online/replan_incremental/16",
        "recovery/replan_drop1/8",
        "audit/faulted/8",
        "batching/graphs_for_groups/10",
        "telemetry/span_enter/10000",
        "telemetry/counter_add/10000",
    ];
    for name in required_cases {
        match case_median_ns(&json, name) {
            Some(ns) if ns > 0.0 => {}
            Some(ns) => failures.push(format!("case {name}: non-positive median {ns}")),
            None => failures.push(format!("missing case {name}")),
        }
    }

    // The cached planner against the frozen reference on one workload:
    // an algorithmic ratio, valid on any host class.
    match number_field(&json, "t1_vs_reference") {
        Some(speedup) if speedup >= min_speedup => {
            println!(
                "bench_check: planner speedup {speedup:.3}x vs frozen reference \
                 (gate: >= {min_speedup:.3}x) -- ok"
            );
        }
        Some(speedup) => failures.push(format!(
            "planner is too slow: {speedup:.3}x vs frozen reference \
             (gate: >= {min_speedup:.3}x)"
        )),
        None => failures.push("missing speedup block (t1_vs_reference)".to_owned()),
    }

    // The flat prefix-sum kernel must hold its win over the pre-kernel
    // closure-based DP. The denominator is the `partition_dp/BERT`
    // median committed immediately before the kernel landed, measured on
    // the 1-core CI host class; cross-host ratios are only advisory, so
    // the gate is enforced on snapshots that are not stamped advisory and
    // printed otherwise.
    const PRE_KERNEL_PARTITION_BERT_NS: f64 = 45835.5;
    const MIN_KERNEL_SPEEDUP: f64 = 2.0;
    match case_median_ns(&json, "partition_dp/BERT") {
        Some(ns) if ns > 0.0 => {
            let ratio = PRE_KERNEL_PARTITION_BERT_NS / ns;
            if ratio >= MIN_KERNEL_SPEEDUP {
                println!(
                    "bench_check: partition_dp/BERT {ratio:.3}x vs pre-kernel baseline \
                     (gate: >= {MIN_KERNEL_SPEEDUP:.3}x) -- ok"
                );
            } else if !advisory {
                failures.push(format!(
                    "partition_dp/BERT regressed: {ratio:.3}x vs pre-kernel baseline \
                     (gate: >= {MIN_KERNEL_SPEEDUP:.3}x)"
                ));
            } else {
                println!(
                    "bench_check: ADVISORY partition_dp/BERT {ratio:.3}x vs pre-kernel \
                     baseline (gate: >= {MIN_KERNEL_SPEEDUP:.3}x on snapshots that are \
                     not advisory)"
                );
            }
        }
        _ => {} // missing/non-positive already reported by the case loop
    }

    // The incremental-replan gate compares a cache hit against a
    // from-scratch window re-solve — purely algorithmic, valid on any
    // host class.
    match number_field(&json, "incremental_vs_scratch") {
        Some(ratio) if ratio >= min_replan_speedup => {
            println!(
                "bench_check: incremental replan {ratio:.3}x faster than from-scratch \
                 (gate: >= {min_replan_speedup:.3}x) -- ok"
            );
        }
        Some(ratio) => failures.push(format!(
            "incremental replan too slow: {ratio:.3}x vs from-scratch windows \
             (gate: >= {min_replan_speedup:.3}x)"
        )),
        None => failures.push("missing replan block (incremental_vs_scratch)".to_owned()),
    }

    if failures.is_empty() {
        println!("bench_check: {path} valid");
    } else {
        for f in &failures {
            eprintln!("bench_check: {f}");
        }
        std::process::exit(1);
    }
}
