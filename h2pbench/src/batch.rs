//! The `plan-batch` workload without tracing: offline planning of seeded
//! random model combinations, each plan lowered and executed.
//!
//! A run is `SETS` independent batch sets of `BATCHES` combinations of
//! 6–12 zoo models (`workload::random_combinations`, the paper's Fig. 7
//! distribution), every set on one fresh long-lived [`Planner`]. Passes
//! repeat until the run's seconds are spent (see
//! [`crate::keep_running`]); wall metrics are medians over passes of host
//! times rescaled to the nominal host ([`crate::hostspeed`]), and the
//! simulated outputs of every pass must be bit-identical.

use std::time::Instant;

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_serve::Calibration;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::LatencyProfile;
use hetero2pipe::planner::{Planner, PlannerConfig};
use hetero2pipe::workload::random_combinations;

use crate::hostspeed::HostSpeed;
use crate::{
    item_medians, keep_running, median, peak_rss_mb, quantile, stream_seed, timed, Fingerprint,
    Outcome,
};

/// Combinations planned by one planner. Planning cost per batch grows
/// with this (the planner's span and lifecycle logs are never cleared),
/// so it is part of the workload.
pub const BATCHES: usize = 500;
/// Independent batch sets per run.
pub const SETS: usize = 4;
pub const MIN_MODELS: usize = 6;
pub const MAX_MODELS: usize = 12;

/// Tolerance when comparing a latency with its deadline, as in the
/// serving loop.
const DEADLINE_EPS: f64 = 1e-9;

/// One batch set: the model ids and the graphs the planner consumes.
pub struct BatchSet {
    pub models: Vec<Vec<ModelId>>,
    pub graphs: Vec<Vec<ModelGraph>>,
}

impl BatchSet {
    pub fn generate(seed: u64) -> Self {
        let models = random_combinations(seed, BATCHES, MIN_MODELS, MAX_MODELS);
        let graphs = models
            .iter()
            .map(|ids| ids.iter().map(|id| id.graph()).collect())
            .collect();
        BatchSet { models, graphs }
    }

    pub fn requests(&self) -> usize {
        self.models.iter().map(Vec::len).sum()
    }
}

/// A planner after the one-time cost its users pay: `Planner::new` (the
/// contention ridge fit) plus planning, lowering and executing every zoo
/// model alone, which fills the planner's cost-table cache and measures
/// each model's solo latency for its class deadline.
pub struct WarmPlanner {
    pub planner: Planner,
    pub calibration: Calibration,
}

/// Builds a [`WarmPlanner`] and returns its wall seconds.
///
/// # Errors
///
/// Fails if the planner cannot be built or a solo plan fails.
pub fn warm_planner(soc: &SocSpec, config: PlannerConfig) -> Result<(WarmPlanner, f64), String> {
    let (warm, secs) = timed(|| -> Result<WarmPlanner, hetero2pipe::error::PlanError> {
        let planner = Planner::with_config(soc, config)?;
        let mut calibration = Calibration::new(soc);
        for id in ModelId::ALL {
            let exec = planner.plan(&[id.graph()])?.lower(soc)?.execute()?;
            calibration.refine_solo(id, exec.makespan_ms);
        }
        Ok(WarmPlanner {
            planner,
            calibration,
        })
    });
    Ok((warm.map_err(|e| format!("planner warm-up: {e}"))?, secs))
}

/// What planning, lowering and executing one batch set produced.
#[derive(Debug, Clone)]
pub struct SetRun {
    /// Wall milliseconds of each `Planner::plan` call.
    pub plan_ms: Vec<f64>,
    /// Wall seconds of the whole timed region (plan + lower + execute of
    /// every batch).
    pub wall_s: f64,
    /// Per-request latency from batch release to completion, batch by
    /// batch in submission order.
    pub latency_ms: Vec<f64>,
    pub makespan_ms: f64,
    /// Requests completed within their class deadline.
    pub complete: usize,
    pub fingerprint: u64,
}

/// Plans, lowers and executes every batch of `set` on `warm`.
///
/// # Errors
///
/// Any `PlanError` fails the run: every batch must plan and execute.
pub fn run_set(warm: &WarmPlanner, soc: &SocSpec, set: &BatchSet) -> Result<SetRun, String> {
    let mut plan_ms = Vec::with_capacity(set.graphs.len());
    let mut latency_ms = Vec::with_capacity(set.requests());
    let mut makespan_ms = 0.0;
    let start = Instant::now();
    for (b, graphs) in set.graphs.iter().enumerate() {
        let (planned, secs) = timed(|| warm.planner.plan(graphs));
        plan_ms.push(secs * 1e3);
        let exec = planned
            .and_then(|p| p.lower(soc))
            .and_then(|l| l.execute())
            .map_err(|e| format!("batch {b}: {e}"))?;
        makespan_ms += exec.makespan_ms;
        latency_ms.extend_from_slice(&exec.request_latency_ms);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut fp = Fingerprint::default();
    let mut complete = 0usize;
    let ids = set.models.iter().flatten();
    for (&lat, &id) in latency_ms.iter().zip(ids) {
        fp.word(lat.to_bits());
        if lat <= warm.calibration.deadline_ms(id) + DEADLINE_EPS {
            complete += 1;
        }
    }
    fp.word(makespan_ms.to_bits());
    Ok(SetRun {
        plan_ms,
        wall_s,
        latency_ms,
        makespan_ms,
        complete,
        fingerprint: fp.value(),
    })
}

/// Runs `plan-batch` without tracing for about `seconds` seconds on
/// planners built with `config`, and reports the end-to-end metrics.
///
/// # Errors
///
/// Fails if a planner cannot be built or any batch fails to plan or
/// execute.
pub fn run(seed: u64, seconds: f64, config: PlannerConfig) -> Result<Outcome, String> {
    let soc = crate::soc();
    let sets: Vec<BatchSet> = (0..SETS)
        .map(|k| BatchSet::generate(stream_seed(seed, k)))
        .collect();
    let requests: usize = sets.iter().map(BatchSet::requests).sum();
    let mut out = Outcome {
        attempted: requests as u64,
        ..Outcome::default()
    };
    let begin = Instant::now();
    let mut setup_s = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); SETS];
    // Every pass's time for each batch's plan call, set by set.
    let mut call_ms: Vec<Vec<f64>> = vec![Vec::new(); SETS * BATCHES];
    let mut firsts: Vec<SetRun> = Vec::with_capacity(SETS);
    let mut passes = 0usize;
    let mut raw_wall_s = 0.0;
    // The planner fans each batch's requests out over its threads.
    let mut speed = HostSpeed::start(config.effective_threads());
    'run: loop {
        let mut pass_plan_ms = Vec::new();
        for (k, set) in sets.iter().enumerate() {
            if !keep_running(passes, begin, seconds) {
                break 'run;
            }
            let (warm, setup) = warm_planner(&soc, config)?;
            let run = run_set(&warm, &soc, set)?;
            drop(warm);
            let scale = speed.factor();
            setup_s.push(setup * scale);
            walls[k].push(run.wall_s * scale);
            raw_wall_s += run.wall_s;
            let plan_ms: Vec<f64> = run.plan_ms.iter().map(|ms| ms * scale).collect();
            for (samples, &ms) in call_ms[k * BATCHES..].iter_mut().zip(&plan_ms) {
                samples.push(ms);
            }
            pass_plan_ms.extend(plan_ms);
            if passes == 0 {
                firsts.push(run);
            } else if firsts[k].fingerprint != run.fingerprint {
                out.errors.push(format!(
                    "set {k}: pass {passes} simulated different outputs than pass 0"
                ));
            }
        }
        out.notes.push(format!(
            "pass {passes}: timed-region walls sum to {:.4} nominal s; plan p50 {:.4} ms, p99 {:.4} ms",
            walls.iter().map(|w| w[passes]).sum::<f64>(),
            quantile(&pass_plan_ms, 0.5),
            quantile(&pass_plan_ms, 0.99)
        ));
        passes += 1;
    }

    let latencies: Vec<f64> = firsts
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    let latency = LatencyProfile::compute(&latencies).ok_or("no request was planned")?;
    let makespan_s: f64 = firsts.iter().map(|r| r.makespan_ms).sum::<f64>() / 1000.0;
    let complete: usize = firsts.iter().map(|r| r.complete).sum();
    let wall_s: f64 = item_medians(&walls).iter().sum();

    out.push("setup_s", "s", median(&setup_s));
    out.push("wall_rps", "1/s", requests as f64 / wall_s);
    out.push("plan_ms_p50", "ms", median(&item_medians(&call_ms)));
    out.push("lat_p50_ms", "sim_ms", latency.p50_ms);
    out.push("lat_p99_ms", "sim_ms", latency.p99_ms);
    out.push("sim_rps", "1/sim_s", requests as f64 / makespan_s);
    out.push("slo_attain", "ratio", complete as f64 / requests as f64);
    out.push("goodput_rps", "1/sim_s", complete as f64 / makespan_s);
    out.push("peak_rss_mb", "MB", peak_rss_mb()?);
    out.notes.push(format!(
        "{SETS} sets x {BATCHES} batches of {MIN_MODELS}-{MAX_MODELS} models ({requests} requests), {passes} passes; setup_s = median of {} planner warm-ups",
        setup_s.len()
    ));
    out.notes.push(format!(
        "plan_ms_p50: p50 over {} plan calls of each call's median over passes",
        SETS * BATCHES
    ));
    let timed_requests: usize = walls
        .iter()
        .zip(&sets)
        .map(|(w, set)| w.len() * set.requests())
        .sum();
    out.notes.push(format!(
        "{}; unscaled, {:.1} requests per wall-second",
        speed.note(),
        timed_requests as f64 / raw_wall_s
    ));
    Ok(out)
}
