//! `h2p serve`: the overload-robust serving front-end over a seeded
//! arrival stream, optionally sweeping offered load.

use h2p_serve::{ServeConfig, Server};
use h2p_telemetry::analytics::SloSummary;
use hetero2pipe::recovery::RecoveryPolicy;

use crate::flags::{fail, Arity::*, Flags, Spec};
use crate::{jsonl, write_out};

const SERVE: Spec = &[
    ("--soc", Value),
    ("--qps", Value),
    ("--qps-sweep", Value),
    ("--steps", Value),
    ("--seed", Value),
    ("--requests", Value),
    ("--window", Value),
    ("--max-batch", Value),
    ("--chaos", Switch),
    ("--json", Switch),
    ("--events", Value),
];

/// Runs the serving loop and prints the saturation curve. Exits nonzero
/// if any sweep point violates the robustness invariants.
pub fn main(args: &[String]) {
    let flags = Flags::new("serve", args, SERVE);
    flags.operands_at_most(0);
    let soc = flags.soc();
    // `--qps` and `--qps-sweep` both set the offered load; the last wins.
    let (lo, hi) = match flags.last(&["--qps", "--qps-sweep"]) {
        Some(("--qps", _)) => flags.read("--qps", "a number", |v| {
            let q: f64 = v.parse().ok()?;
            Some((q, q))
        }),
        Some(_) => flags.read("--qps-sweep", "LO..HI", |v| {
            let (a, b) = v.split_once("..")?;
            Some((a.parse().ok()?, b.parse().ok()?))
        }),
        None => None,
    }
    .unwrap_or((50.0, 50.0));
    let default_steps = if flags.has("--qps-sweep") { 6 } else { 1 };
    let steps: usize = flags.num("--steps", "an integer").unwrap_or(default_steps);
    let seed: u64 = flags.num("--seed", "an integer").unwrap_or(42);
    let requests: usize = flags.num("--requests", "an integer").unwrap_or(64);
    let window: usize = flags.num("--window", "an integer").unwrap_or(4);
    let max_batch: u32 = flags.num("--max-batch", "an integer").unwrap_or(8);
    let chaos = flags.has("--chaos");
    if !(lo > 0.0 && lo.is_finite() && hi >= lo && hi.is_finite()) || steps == 0 || requests == 0 {
        fail("serve wants 0 < LO <= HI, steps >= 1, requests >= 1")
    }

    let server = Server::new(&soc, window).expect("planner");
    let base = ServeConfig {
        qps: lo,
        requests,
        seed,
        max_batch,
        chaos,
        policy: RecoveryPolicy::default(),
        slo_budget: SloSummary::DEFAULT_BUDGET,
    };
    let points = h2p_serve::sweep(&server, &base, lo, hi, steps).expect("serve");

    let violations: Vec<(f64, String)> = points
        .iter()
        .flat_map(|p| p.report.verify_invariants().into_iter().map(|v| (p.qps, v)))
        .collect();
    let saturation_qps = points
        .iter()
        .find(|p| p.report.counts.rejected() + p.report.counts.shed > 0)
        .map(|p| p.qps);

    if flags.has("--json") {
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
            violations.len(),
        );
    } else {
        let limits = points.first().map_or([0, 0, 0], |p| p.report.queue_limits);
        println!(
            "serve on {} (window {window}, seed {seed}, {requests} request(s)/point{})",
            soc.name,
            if chaos { ", chaos" } else { "" }
        );
        println!("queue limits [interactive, standard, batch]: {limits:?}");
        println!("      qps     ok   late   degr    rej  shed    p50 ms    p99 ms  miss%   rej%  served/s depth");
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

    if let Some(path) = flags.value("--events") {
        let Some(last) = points.last() else {
            unreachable!("sweep returned no points despite steps >= 1")
        };
        let lines = jsonl(last.report.json_event_lines());
        write_out(path, lines.trim_end(), "serve event log");
    }

    if !violations.is_empty() {
        for (qps, v) in &violations {
            eprintln!("invariant violation at {qps:.1} qps: {v}");
        }
        eprintln!("{} invariant violation(s)", violations.len());
        std::process::exit(1);
    }
}
