//! The serve workloads without tracing: end-to-end metrics.
//!
//! A run is `streams` independent seeded arrival streams of `requests`
//! requests each, every stream on a fresh [`Server`]. One pass plays
//! every stream once; passes repeat until the run's seconds are spent
//! (see [`crate::keep_running`]). Wall metrics are medians over passes
//! (for planning calls, over replays) of host times rescaled to the
//! nominal host ([`crate::hostspeed`]), and the simulated metrics of
//! every pass must be bit-identical to the first pass's.

use std::time::Instant;

use h2p_serve::{ServeConfig, ServeOutcome, ServeReport, Server};
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::LatencyProfile;

use crate::hostspeed::HostSpeed;
use crate::{
    item_medians, keep_running, median, peak_rss_mb, quantile, replay, stream_seed, timed,
    Fingerprint, Outcome,
};

/// Planning calls in each replay, at least: the first streams supply
/// them, enough for a p99 with ten samples beyond it in the notes.
pub const PLAN_CALLS: usize = 1_000;

/// Replays of the planning calls in a run, spread evenly over its
/// seconds. A replay lasts under a tenth of a second, a single snapshot
/// of the host's speed, so each call's median needs many of them. Their
/// number is fixed, so the buffers holding them take the same memory in
/// every run and do not move `peak_rss_mb` with the run's length.
pub const REPLAYS: usize = 32;

/// Shape of a serve workload's arrival streams.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Offered load per stream, requests per virtual second.
    pub qps: f64,
    /// Requests per stream. Per-request cost grows with stream length
    /// (the planner's span and lifecycle logs are never cleared), so
    /// this is part of the workload, not a tuning knob.
    pub requests: usize,
    /// Independent streams per run.
    pub streams: usize,
    pub chaos: bool,
}

impl ServeSpec {
    /// The server configuration of one stream.
    pub fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            qps: self.qps,
            requests: self.requests,
            seed,
            max_batch: crate::MAX_BATCH,
            chaos: self.chaos,
            ..ServeConfig::default()
        }
    }
}

/// `Server::new` — the contention ridge fit plus the calibration pass —
/// and its wall seconds.
///
/// # Errors
///
/// Fails if the server cannot be built for `soc`.
pub fn new_server(soc: &SocSpec) -> Result<(Server, f64), String> {
    let (server, secs) = timed(|| Server::new(soc, crate::WINDOW));
    Ok((server.map_err(|e| format!("Server::new: {e}"))?, secs))
}

/// Whether an outcome is the program failing a request rather than a
/// typed decision: a dispatch that hit a `PlanError`, or a request the
/// loop lost track of.
fn is_program_failure(outcome: &ServeOutcome) -> bool {
    matches!(outcome, ServeOutcome::Degraded { reason }
        if reason.starts_with("dispatch_failed") || reason == "unaccounted")
}

/// Output checks on one stream's report; returns the failures and the
/// number of requests the program failed.
pub fn check_report(report: &ServeReport, spec: &ServeSpec) -> (Vec<String>, u64) {
    let mut errors: Vec<String> = report
        .verify_invariants()
        .into_iter()
        .map(|v| format!("seed {}: invariant violated: {v}", report.seed))
        .collect();
    if report.counts.total() != spec.requests || report.records.len() != spec.requests {
        errors.push(format!(
            "seed {}: {} outcomes for {} records, {} generated",
            report.seed,
            report.counts.total(),
            report.records.len(),
            spec.requests
        ));
    }
    let failed = report
        .records
        .iter()
        .filter(|r| is_program_failure(&r.outcome))
        .count() as u64;
    if failed > 0 {
        errors.push(format!(
            "seed {}: {failed} requests failed in the program (PlanError or lost outcome)",
            report.seed
        ));
    }
    (errors, failed)
}

/// The simulated outputs of one stream that the end-to-end metrics use,
/// plus a fingerprint of every outcome.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Arrival-to-completion latency of every served (complete or
    /// timed-out) request.
    pub served_ms: Vec<f64>,
    /// Requests completed within their deadline.
    pub complete: usize,
    pub horizon_ms: f64,
    pub fingerprint: u64,
}

impl StreamSummary {
    pub fn of(report: &ServeReport) -> Self {
        let mut fp = Fingerprint::default();
        let c = &report.counts;
        for n in [
            c.complete,
            c.timed_out,
            c.degraded,
            c.rejected_queue_full,
            c.rejected_deadline_infeasible,
            c.rejected_shedding,
            c.shed,
            report.dispatches,
            report.lifecycle.len(),
        ] {
            fp.word(n as u64);
        }
        fp.word(report.horizon_ms.to_bits());
        let mut served_ms = Vec::new();
        for r in &report.records {
            let (tag, bits) = match &r.outcome {
                ServeOutcome::Complete { latency_ms } => (0, latency_ms.to_bits()),
                ServeOutcome::TimedOut { latency_ms, .. } => (1, latency_ms.to_bits()),
                ServeOutcome::Degraded { .. } => (2, 0),
                ServeOutcome::Rejected { reason } => (3, *reason as u64),
                ServeOutcome::Shed { waited_ms } => (4, waited_ms.to_bits()),
            };
            fp.word(tag);
            fp.word(bits);
            if let ServeOutcome::Complete { latency_ms }
            | ServeOutcome::TimedOut { latency_ms, .. } = &r.outcome
            {
                served_ms.push(*latency_ms);
            }
        }
        StreamSummary {
            served_ms,
            complete: c.complete,
            horizon_ms: report.horizon_ms,
            fingerprint: fp.value(),
        }
    }
}

/// Runs a serve workload without tracing for about `seconds` seconds and
/// reports the end-to-end metrics.
///
/// # Errors
///
/// Fails if a server cannot be built or a run returns a `PlanError`.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let soc = crate::soc();
    let begin = Instant::now();
    let mut out = Outcome {
        attempted: (spec.streams * spec.requests) as u64,
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); spec.streams];
    let mut firsts: Vec<StreamSummary> = Vec::with_capacity(spec.streams);
    // Streams (seed and dispatches) whose planning calls are replayed:
    // the first ones, enough to give PLAN_CALLS calls.
    let mut plan_streams: Vec<(u64, Vec<replay::Dispatch>)> = Vec::new();
    let mut plan_calls = 0usize;
    // Every replay's time for each planning call, in call order.
    let mut call_ms: Vec<Vec<f64>> = Vec::new();
    let mut replays = 0usize;
    let mut passes = 0usize;
    let mut raw_wall_s = 0.0;
    // The serving loop keeps one core busy: at these rates nearly every
    // dispatch plans a single request on the calling thread.
    let mut speed = HostSpeed::start(1);
    'run: loop {
        let mut pass_plan_ms = Vec::new();
        for (k, stream_walls) in walls.iter_mut().enumerate() {
            if !keep_running(passes, begin, seconds) {
                break 'run;
            }
            let cfg = spec.config(stream_seed(seed, k));
            let (server, setup) = new_server(&soc)?;
            let (report, wall) = timed(|| server.run(&cfg));
            drop(server);
            let scale = speed.factor();
            setup_s.push(setup * scale);
            stream_walls.push(wall * scale);
            raw_wall_s += wall;
            let report = report.map_err(|e| format!("Server::run (seed {}): {e}", cfg.seed))?;
            let (errors, failed) = check_report(&report, spec);
            out.errors.extend(errors);
            let summary = StreamSummary::of(&report);
            if passes == 0 {
                out.failed += failed;
                firsts.push(summary);
                if plan_calls < PLAN_CALLS {
                    let dispatches = replay::dispatches(&report)?;
                    plan_calls += dispatches.len();
                    plan_streams.push((cfg.seed, dispatches));
                }
            } else if firsts[k].fingerprint != summary.fingerprint {
                out.errors.push(format!(
                    "seed {}: pass {passes} simulated different outputs than pass 0",
                    cfg.seed
                ));
            }
            let replay_due = seconds * replays as f64 / REPLAYS as f64;
            if plan_calls >= PLAN_CALLS
                && replays < REPLAYS
                && begin.elapsed().as_secs_f64() >= replay_due
            {
                let mut plan_ms = Vec::with_capacity(plan_calls);
                for (stream_seed, dispatches) in &plan_streams {
                    plan_ms.extend(replay::plan_call_ms(spec, *stream_seed, dispatches)?);
                }
                let scale = speed.factor();
                plan_ms.iter_mut().for_each(|ms| *ms *= scale);
                call_ms.resize_with(plan_ms.len(), || Vec::with_capacity(REPLAYS));
                for (samples, &ms) in call_ms.iter_mut().zip(&plan_ms) {
                    samples.push(ms);
                }
                pass_plan_ms.extend(plan_ms);
                replays += 1;
            }
        }
        out.notes.push(format!(
            "pass {passes}: Server::run walls sum to {:.4} nominal s; {} planning calls replayed, p50 {:.4} ms, p99 {:.4} ms",
            walls.iter().map(|w| w[passes]).sum::<f64>(),
            pass_plan_ms.len(),
            quantile(&pass_plan_ms, 0.5),
            quantile(&pass_plan_ms, 0.99)
        ));
        passes += 1;
    }

    let served: Vec<f64> = firsts
        .iter()
        .flat_map(|s| s.served_ms.iter().copied())
        .collect();
    let latency = LatencyProfile::compute(&served).ok_or("no request was served")?;
    let horizon_s: f64 = firsts.iter().map(|s| s.horizon_ms).sum::<f64>() / 1000.0;
    let complete: usize = firsts.iter().map(|s| s.complete).sum();
    let wall_s: f64 = item_medians(&walls).iter().sum();

    out.push("setup_s", "s", median(&setup_s));
    out.push("wall_rps", "1/s", out.attempted as f64 / wall_s);
    out.push("plan_ms_p50", "ms", median(&item_medians(&call_ms)));
    out.push("lat_p50_ms", "sim_ms", latency.p50_ms);
    out.push("lat_p99_ms", "sim_ms", latency.p99_ms);
    out.push("sim_rps", "1/sim_s", served.len() as f64 / horizon_s);
    out.push(
        "slo_attain",
        "ratio",
        complete as f64 / out.attempted as f64,
    );
    out.push("goodput_rps", "1/sim_s", complete as f64 / horizon_s);
    out.push("peak_rss_mb", "MB", peak_rss_mb()?);
    out.notes.push(format!(
        "{} streams x {} requests at {} req/s{}, {passes} passes; setup_s = median of {} Server::new calls",
        spec.streams,
        spec.requests,
        spec.qps,
        if spec.chaos { " with chaos" } else { "" },
        setup_s.len()
    ));
    out.notes.push(format!(
        "lat_*: {} served of {} generated; plan_ms_p50: p50 over {} planning calls, replayed untraced {replays} times over the first {} streams, of each call's median over replays",
        served.len(),
        out.attempted,
        call_ms.len(),
        plan_streams.len()
    ));
    let stream_runs: usize = walls.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{}; unscaled, Server::run served {:.1} requests per wall-second over {stream_runs} stream runs",
        speed.note(),
        (stream_runs * spec.requests) as f64 / raw_wall_s
    ));
    Ok(out)
}
