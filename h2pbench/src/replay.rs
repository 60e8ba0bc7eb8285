//! The traced run: replays one stream (or batch set) of a seeded run
//! through each layer's public functions, timing every call, and reports
//! per-layer metrics.
//!
//! A serve dispatch is rebuilt from the untraced run's lifecycle: the
//! `Window{window}` events list each batch's requests in order and the
//! `Execute` events give its start. It is replayed on a fresh planner,
//! pre-warmed the way `Server::new` warms its own, through `coalesce` +
//! `graphs_for_groups`, `OnlinePlanner::plan_incremental`,
//! `PlannedPipeline::lower` and `LoweredPlan::execute` — or, on
//! `serve-chaos`, `run_with_recovery` under the fault script the server
//! seeds for that dispatch. The replay counts only if every served
//! request's simulated latency equals the report's bit for bit.
//!
//! Spans are recorded here, around the calls into each layer, kept in
//! memory and written out when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_serve::{generate_arrivals, Arrival, ServeOutcome, ServeReport};
use h2p_simulator::audit;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::lifecycle::{validate, LifecycleEvent, LifecycleStage};
use h2p_telemetry::Telemetry;
use hetero2pipe::batching::{coalesce, graphs_for_groups, BatchGroup};
use hetero2pipe::error::PlanError;
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::{Planner, PlannerConfig};
use hetero2pipe::recovery::{chaos_faults, run_with_recovery, RecoveryPolicy, RecoveryReport};

use crate::batch::{self, BatchSet};
use crate::serve::{self, ServeSpec};
use crate::{median, quantile, ratio, stream_seed, tail_q, timed, Outcome};

/// One dispatched batch, rebuilt from a serve report's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// The server's 1-based dispatch index (it seeds chaos faults).
    pub index: usize,
    /// Request ids in batch order.
    pub requests: Vec<usize>,
    /// Virtual instant the batch was cut (its `Window` events).
    pub cut_ms: f64,
    /// Virtual instant the batch started executing.
    pub start_ms: f64,
}

/// Rebuilds every dispatch of a serve run, in dispatch order.
///
/// # Errors
///
/// Fails if the lifecycle does not describe a well-formed dispatch
/// sequence.
pub fn dispatches(report: &ServeReport) -> Result<Vec<Dispatch>, String> {
    let mut out: Vec<Dispatch> = Vec::new();
    let mut of_request: Vec<Option<usize>> = vec![None; report.records.len()];
    for e in &report.lifecycle {
        let r = e.request.0;
        match e.stage {
            LifecycleStage::Window { window } => {
                if window == out.len() + 1 {
                    out.push(Dispatch {
                        index: window,
                        requests: Vec::new(),
                        cut_ms: e.at_ms,
                        start_ms: f64::NAN,
                    });
                } else if window != out.len() {
                    return Err(format!("window {window} out of order"));
                }
                let slot = of_request
                    .get_mut(r)
                    .ok_or_else(|| format!("window names unknown request {r}"))?;
                *slot = Some(window - 1);
                out[window - 1].requests.push(r);
            }
            LifecycleStage::Execute => {
                let d = of_request
                    .get(r)
                    .copied()
                    .flatten()
                    .ok_or_else(|| format!("request {r} executes outside a window"))?;
                out[d].start_ms = e.at_ms;
            }
            _ => {}
        }
    }
    match out.iter().find(|d| d.start_ms.is_nan()) {
        Some(d) => Err(format!("dispatch {} never started", d.index)),
        None => Ok(out),
    }
}

/// The batch groups and planner graphs of one dispatch, exactly as the
/// serving loop builds them.
pub fn groups_of(arrivals: &[Arrival], d: &Dispatch) -> (Vec<BatchGroup>, Vec<ModelGraph>) {
    let ids: Vec<ModelId> = d.requests.iter().map(|&r| arrivals[r].model).collect();
    let groups = coalesce(&ids, crate::MAX_BATCH);
    let graphs = graphs_for_groups(&groups);
    (groups, graphs)
}

/// A fresh online planner, pre-warmed the way `Server::new` warms its
/// own: every zoo model planned (and executed) alone.
///
/// # Errors
///
/// Fails if the planner cannot be built or a solo plan fails.
pub fn warmed_online(soc: &SocSpec) -> Result<OnlinePlanner, String> {
    let warm = || -> Result<OnlinePlanner, PlanError> {
        let online = OnlinePlanner::new(Planner::new(soc)?, crate::WINDOW);
        for id in ModelId::ALL {
            online.plan_incremental(&[id.graph()])?.execute(soc)?;
        }
        Ok(online)
    };
    warm().map_err(|e| format!("planner warm-up: {e}"))
}

/// The fault-script seed the server gives chaos dispatch `index`.
pub fn fault_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One chaos dispatch as the serving loop executes it: the seeded fault
/// script run through `run_with_recovery`. Returns each group's
/// completion latency (`None` if it degraded) and the recovery report.
fn execute_chaos(
    planner: &Planner,
    graphs: &[ModelGraph],
    fault_seed: u64,
) -> Result<(Vec<Option<f64>>, RecoveryReport), PlanError> {
    let faults = chaos_faults(planner.soc(), graphs.len(), fault_seed);
    let telemetry = planner.telemetry();
    telemetry.lifecycle.clear();
    let report = run_with_recovery(planner, graphs, &faults, &RecoveryPolicy::default())?;
    let mut group_latency: Vec<Option<f64>> = vec![None; graphs.len()];
    for e in telemetry.lifecycle.records() {
        if let LifecycleStage::Complete { latency_ms } = e.stage {
            if let Some(slot) = group_latency.get_mut(e.request.0) {
                *slot = Some(latency_ms);
            }
        }
    }
    let results = report
        .completed
        .iter()
        .zip(&group_latency)
        .map(|(&done, lat)| done.then(|| lat.unwrap_or(report.elapsed_ms)))
        .collect();
    Ok((results, report))
}

/// Untraced wall milliseconds of the planning call each dispatch of a
/// serve stream seeded with `seed` makes, replayed in order on a fresh
/// pre-warmed planner: `OnlinePlanner::plan_incremental`, or on
/// `serve-chaos` the round-0 `Planner::plan` of `run_with_recovery`.
///
/// # Errors
///
/// Fails if the planner cannot be built or a plan fails.
pub fn plan_call_ms(
    spec: &ServeSpec,
    seed: u64,
    dispatches: &[Dispatch],
) -> Result<Vec<f64>, String> {
    let soc = crate::soc();
    let arrivals = generate_arrivals(seed, spec.qps, spec.requests);
    let online = warmed_online(&soc)?;
    let mut out = Vec::with_capacity(dispatches.len());
    for d in dispatches {
        let (_, graphs) = groups_of(&arrivals, d);
        let (planned, secs) = if spec.chaos {
            timed(|| online.planner().plan(&graphs))
        } else {
            timed(|| online.plan_incremental(&graphs))
        };
        planned.map_err(|e| format!("dispatch {}: {e}", d.index))?;
        out.push(secs * 1e3);
    }
    Ok(out)
}

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Request ids (on dispatch and batch spans only).
    pub requests: Vec<usize>,
}

/// In-memory span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, requests: Vec<usize>) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: None,
            name,
            start_us,
            end_us: start_us,
            requests,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_us();
        self.spans[id].end_us = end;
    }

    /// Runs `f` inside a span under `parent`; returns its result and its
    /// wall seconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let value = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            id: self.spans.len(),
            parent: Some(parent),
            name,
            start_us,
            end_us,
            requests: Vec::new(),
        });
        (value, (end_us - start_us) / 1e6)
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let requests: Vec<String> = s.requests.iter().map(usize::to_string).collect();
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"requests\":[{}]}}",
                s.id,
                s.name,
                s.start_us,
                s.end_us,
                requests.join(",")
            )?;
        }
        w.flush()
    }
}

/// The planner's own counters, read through its telemetry snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerCounters {
    pub requests: f64,
    pub total_ms: f64,
    pub prepare_ms: f64,
    pub assemble_ms: f64,
    pub dp_cells: f64,
    pub masks_evaluated: f64,
    pub masks_pruned: f64,
    pub tables_hits: f64,
    pub tables_misses: f64,
    pub mitigation_moves: f64,
    pub steal_adjustments: f64,
    pub tail_merges: f64,
    pub window_hits: f64,
    pub window_misses: f64,
}

impl PlannerCounters {
    pub fn read(t: &Telemetry) -> Self {
        let s = t.metrics.snapshot();
        let c = |name: &str| s.counter(name).unwrap_or(0) as f64;
        let g = |name: &str| s.gauge(name).unwrap_or(0.0);
        PlannerCounters {
            requests: c("planner.requests"),
            total_ms: g("planner.phase.total_ms"),
            prepare_ms: g("planner.phase.prepare_ms"),
            assemble_ms: g("planner.phase.assemble_ms"),
            dp_cells: c("planner.dp.cells"),
            masks_evaluated: c("planner.dp.masks_evaluated"),
            masks_pruned: c("planner.dp.masks_pruned"),
            tables_hits: c("planner.tables.cache_hits"),
            tables_misses: c("planner.tables.cache_misses"),
            mitigation_moves: c("mitigation.moves"),
            steal_adjustments: c("planner.steal.adjustments"),
            tail_merges: c("planner.tail_merges"),
            window_hits: c("online.window_cache.hits"),
            window_misses: c("online.window_cache.misses"),
        }
    }

    /// Counts accumulated since `base` was read.
    pub fn since(&self, base: &Self) -> Self {
        PlannerCounters {
            requests: self.requests - base.requests,
            total_ms: self.total_ms - base.total_ms,
            prepare_ms: self.prepare_ms - base.prepare_ms,
            assemble_ms: self.assemble_ms - base.assemble_ms,
            dp_cells: self.dp_cells - base.dp_cells,
            masks_evaluated: self.masks_evaluated - base.masks_evaluated,
            masks_pruned: self.masks_pruned - base.masks_pruned,
            tables_hits: self.tables_hits - base.tables_hits,
            tables_misses: self.tables_misses - base.tables_misses,
            mitigation_moves: self.mitigation_moves - base.mitigation_moves,
            steal_adjustments: self.steal_adjustments - base.steal_adjustments,
            tail_merges: self.tail_merges - base.tail_merges,
            window_hits: self.window_hits - base.window_hits,
            window_misses: self.window_misses - base.window_misses,
        }
    }
}

/// Per-layer timings and counts of one replay. Times are wall seconds
/// per call.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub batching_s: Vec<f64>,
    pub groups: Vec<usize>,
    pub online_hit_s: Vec<f64>,
    pub online_miss_s: Vec<f64>,
    pub plan_s: Vec<f64>,
    pub lower_s: Vec<f64>,
    pub sim_s: Vec<f64>,
    /// Simulator tasks per dispatch (per recovery run on chaos: every
    /// round's tasks).
    pub tasks: Vec<usize>,
    pub recovery_s: Vec<f64>,
    pub rounds: usize,
    pub rounds_clean: usize,
}

impl LayerSamples {
    /// Wall seconds spent inside the replayed layer calls.
    pub fn total_s(&self) -> f64 {
        [
            &self.batching_s,
            &self.online_hit_s,
            &self.online_miss_s,
            &self.plan_s,
            &self.lower_s,
            &self.sim_s,
            &self.recovery_s,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }

    /// Pools `other`'s samples into `self`.
    pub fn extend(&mut self, other: &LayerSamples) {
        self.batching_s.extend_from_slice(&other.batching_s);
        self.groups.extend_from_slice(&other.groups);
        self.online_hit_s.extend_from_slice(&other.online_hit_s);
        self.online_miss_s.extend_from_slice(&other.online_miss_s);
        self.plan_s.extend_from_slice(&other.plan_s);
        self.lower_s.extend_from_slice(&other.lower_s);
        self.sim_s.extend_from_slice(&other.sim_s);
        self.tasks.extend_from_slice(&other.tasks);
        self.recovery_s.extend_from_slice(&other.recovery_s);
        self.rounds += other.rounds;
        self.rounds_clean += other.rounds_clean;
    }
}

/// Outcome of replaying one serve stream.
#[derive(Debug)]
pub struct ServeReplay {
    pub samples: LayerSamples,
    /// Served requests whose replayed latency matched bit for bit.
    pub reconciled: usize,
    /// Served requests in the report.
    pub served: usize,
    /// Reconciliation failures (request-level), first few kept.
    pub mismatches: Vec<String>,
    pub mismatch_count: usize,
    /// Static-lint errors and audit failures of replayed plans/traces.
    pub check_failures: Vec<String>,
    pub counters: PlannerCounters,
    pub online: OnlinePlanner,
    pub tracer: Tracer,
    pub dispatches: Vec<Dispatch>,
}

impl ServeReplay {
    /// Whether every served request was replayed to the same bits.
    pub fn reconciles(&self) -> bool {
        self.mismatch_count == 0 && self.reconciled == self.served
    }
}

/// Expected bits of a request's served latency, from the report.
fn served_bits(outcome: &ServeOutcome) -> Option<u64> {
    match outcome {
        ServeOutcome::Complete { latency_ms } | ServeOutcome::TimedOut { latency_ms, .. } => {
            Some(latency_ms.to_bits())
        }
        _ => None,
    }
}

/// Replays a serve stream seeded with `seed` against its untraced
/// `report`. A replay pointed at another seed rebuilds other requests
/// and fails to reconcile. With `check`, every replayed plan is also
/// linted and every trace audited, outside the timed spans.
///
/// # Errors
///
/// Fails on a structural error: unrebuildable dispatches or a
/// `PlanError` in a replayed call.
pub fn replay_serve(
    spec: &ServeSpec,
    seed: u64,
    report: &ServeReport,
    check: bool,
) -> Result<ServeReplay, String> {
    let soc = crate::soc();
    let arrivals = generate_arrivals(seed, spec.qps, spec.requests);
    if arrivals.len() != report.records.len() {
        return Err(format!(
            "replay generated {} arrivals for {} records",
            arrivals.len(),
            report.records.len()
        ));
    }
    let online = warmed_online(&soc)?;
    let base = PlannerCounters::read(online.planner().telemetry());
    let dispatches = dispatches(report)?;
    let mut tracer = Tracer::default();
    let mut samples = LayerSamples::default();
    let mut mismatches = Vec::new();
    let mut mismatch_count = 0usize;
    let mut reconciled = 0usize;
    let mut check_failures = Vec::new();
    let fail = |e: PlanError, d: &Dispatch| format!("dispatch {}: {e}", d.index);

    for d in &dispatches {
        let span = tracer.open("dispatch", d.requests.clone());
        let ((groups, graphs), secs) = tracer.call("batching", span, || groups_of(&arrivals, d));
        samples.batching_s.push(secs);
        samples.groups.push(groups.len());
        // Per group: completion latency relative to the dispatch start,
        // or `None` when the group degraded.
        let results: Vec<Option<f64>> = if spec.chaos {
            let planner = online.planner();
            let (executed, secs) = tracer.call("recovery", span, || {
                execute_chaos(planner, &graphs, fault_seed(seed, d.index))
            });
            samples.recovery_s.push(secs);
            let (results, rec) = executed.map_err(|e| fail(e, d))?;
            samples.rounds += rec.rounds.len();
            samples.rounds_clean += rec.rounds.iter().filter(|r| r.audit_clean).count();
            samples
                .tasks
                .push(rec.rounds.iter().map(|r| r.labels.len()).sum());
            tracer.close(span);
            results
        } else {
            let cached = online.window_cache_len();
            let (planned, secs) = tracer.call("online", span, || online.plan_incremental(&graphs));
            let planned = planned.map_err(|e| fail(e, d))?;
            if online.window_cache_len() == cached {
                samples.online_hit_s.push(secs);
            } else {
                samples.online_miss_s.push(secs);
            }
            let (lowered, secs) = tracer.call("lower", span, || planned.lower(&soc));
            samples.lower_s.push(secs);
            let lowered = lowered.map_err(|e| fail(e, d))?;
            samples.tasks.push(lowered.simulation().tasks().len());
            let tasks = check.then(|| lowered.simulation().tasks().to_vec());
            let (exec, secs) = tracer.call("execute", span, || lowered.execute());
            samples.sim_s.push(secs);
            let exec = exec.map_err(|e| fail(e, d))?;
            tracer.close(span);
            if let Some(tasks) = tasks {
                check_failures.extend(check_plan(&soc, &planned, &tasks, &exec.trace, d.index));
            }
            exec.request_latency_ms.iter().map(|&l| Some(l)).collect()
        };

        let mut members = d.requests.iter();
        for (group, result) in groups.iter().zip(&results) {
            for &r in members.by_ref().take(group.batch as usize) {
                let expected = served_bits(&report.records[r].outcome);
                let ok = match result {
                    Some(lat) => {
                        let finish = d.start_ms + lat;
                        let e2e = finish - arrivals[r].arrival_ms;
                        expected == Some(e2e.to_bits())
                    }
                    None => matches!(report.records[r].outcome, ServeOutcome::Degraded { .. }),
                };
                if ok && expected.is_some() {
                    reconciled += 1;
                } else if !ok {
                    mismatch_count += 1;
                    if mismatches.len() < 5 {
                        mismatches.push(format!(
                            "request {r} (dispatch {}): replayed {result:?} vs report {:?}",
                            d.index, report.records[r].outcome
                        ));
                    }
                }
            }
        }
    }
    let served = report
        .records
        .iter()
        .filter(|r| served_bits(&r.outcome).is_some())
        .count();
    let counters = PlannerCounters::read(online.planner().telemetry()).since(&base);
    if !spec.chaos {
        let misses = samples.online_miss_s.len() as f64;
        if counters.window_misses != misses {
            check_failures.push(format!(
                "window-cache misses: counter {} vs {misses} cache insertions",
                counters.window_misses
            ));
        }
    }
    Ok(ServeReplay {
        samples,
        reconciled,
        served,
        mismatches,
        mismatch_count,
        check_failures,
        counters,
        online,
        tracer,
        dispatches,
    })
}

/// Per-layer metrics, in report order. Layers a workload does not run
/// report 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub serve_loop_us_per_req: f64,
    pub serve_dispatches: f64,
    pub serve_batch_mean: f64,
    pub serve_reject_share: f64,
    pub serve_shed_share: f64,
    pub serve_queue_wait_ms: Vec<f64>,
    pub batching_us_per_dispatch: f64,
    pub batching_groups_per_dispatch: f64,
    pub online_hit_ratio: f64,
    pub online_hit_us: Vec<f64>,
    pub online_miss_us: Vec<f64>,
    pub online_cache_entries: f64,
    pub planner: PlannerCounters,
    pub executor_lower_us_per_dispatch: f64,
    pub executor_tasks_per_dispatch: f64,
    pub simulator_run_us_per_dispatch: f64,
    pub simulator_ns_per_task: f64,
    pub recovery_us_per_dispatch: f64,
    pub recovery_rounds_per_dispatch: f64,
    pub recovery_degraded_share: f64,
    pub recovery_audit_clean_ratio: f64,
    pub telemetry_span_records: f64,
    pub telemetry_lifecycle_events: f64,
    pub telemetry_span_enter_ns: f64,
    pub telemetry_validate_ms: f64,
    pub replay_reconciled: f64,
    pub replay_unattributed_share: f64,
}

impl Layers {
    /// Fills the executor and simulator layers from replay samples.
    fn executor_and_simulator(&mut self, s: &LayerSamples) {
        let n = s.tasks.len() as f64;
        self.executor_tasks_per_dispatch = ratio(s.tasks.iter().sum::<usize>() as f64, n);
        if !s.sim_s.is_empty() {
            self.executor_lower_us_per_dispatch = mean_us(&s.lower_s);
            self.simulator_run_us_per_dispatch = mean_us(&s.sim_s);
            self.simulator_ns_per_task = ratio(
                s.sim_s.iter().sum::<f64>() * 1e9,
                s.tasks.iter().sum::<usize>() as f64,
            );
        }
    }

    /// Probes the end-of-run telemetry of `planner`: span count and the
    /// cost of one more `SpanRecorder::enter`.
    fn telemetry_of(&mut self, planner: &Planner) {
        let spans = &planner.telemetry().spans;
        self.telemetry_span_records = spans.records().len() as f64;
        let enters: Vec<f64> = (0..11)
            .map(|_| {
                let start = Instant::now();
                drop(spans.enter("h2pbench.probe"));
                start.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        self.telemetry_span_enter_ns = median(&enters);
    }

    /// Median wall milliseconds of validating `events` three times.
    fn validate_of(&mut self, events: &[LifecycleEvent]) {
        let times: Vec<f64> = (0..3).map(|_| timed(|| validate(events)).1 * 1e3).collect();
        self.telemetry_validate_ms = median(&times);
        self.telemetry_lifecycle_events = events.len() as f64;
    }

    pub fn into_outcome(self, out: &mut Outcome) {
        let p = &self.planner;
        let tail = |xs: &[f64]| quantile(xs, tail_q(xs.len()));
        out.push("serve.loop_us_per_req", "us", self.serve_loop_us_per_req);
        out.push("serve.dispatches", "count", self.serve_dispatches);
        out.push("serve.batch_mean", "req", self.serve_batch_mean);
        out.push("serve.reject_share", "ratio", self.serve_reject_share);
        out.push("serve.shed_share", "ratio", self.serve_shed_share);
        out.push(
            "serve.queue_wait_ms_p50",
            "sim_ms",
            median(&self.serve_queue_wait_ms),
        );
        out.push(
            "serve.queue_wait_ms_p99",
            "sim_ms",
            tail(&self.serve_queue_wait_ms),
        );
        out.push(
            "serve.queue_wait_n",
            "count",
            self.serve_queue_wait_ms.len() as f64,
        );
        out.push(
            "batching.us_per_dispatch",
            "us",
            self.batching_us_per_dispatch,
        );
        out.push(
            "batching.groups_per_dispatch",
            "count",
            self.batching_groups_per_dispatch,
        );
        out.push("online.hit_ratio", "ratio", self.online_hit_ratio);
        out.push("online.hit_us_p50", "us", median(&self.online_hit_us));
        out.push("online.hit_us_p99", "us", tail(&self.online_hit_us));
        out.push("online.hit_n", "count", self.online_hit_us.len() as f64);
        out.push("online.miss_us_p50", "us", median(&self.online_miss_us));
        out.push("online.miss_us_p99", "us", tail(&self.online_miss_us));
        out.push("online.miss_n", "count", self.online_miss_us.len() as f64);
        out.push("online.cache_entries", "count", self.online_cache_entries);
        out.push(
            "planner.us_per_req",
            "us",
            ratio(p.total_ms * 1e3, p.requests),
        );
        out.push(
            "planner.prepare_share",
            "ratio",
            ratio(p.prepare_ms, p.total_ms),
        );
        out.push(
            "planner.assemble_share",
            "ratio",
            ratio(p.assemble_ms, p.total_ms),
        );
        out.push(
            "planner.dp_cells_per_req",
            "count",
            ratio(p.dp_cells, p.requests),
        );
        out.push(
            "planner.dp_prune_ratio",
            "ratio",
            ratio(p.masks_pruned, p.masks_pruned + p.masks_evaluated),
        );
        out.push(
            "planner.tables_hit_ratio",
            "ratio",
            ratio(p.tables_hits, p.tables_hits + p.tables_misses),
        );
        out.push("planner.mitigation_moves", "count", p.mitigation_moves);
        out.push("planner.steal_adjustments", "count", p.steal_adjustments);
        out.push("planner.tail_merges", "count", p.tail_merges);
        out.push(
            "executor.lower_us_per_dispatch",
            "us",
            self.executor_lower_us_per_dispatch,
        );
        out.push(
            "executor.tasks_per_dispatch",
            "count",
            self.executor_tasks_per_dispatch,
        );
        out.push(
            "simulator.run_us_per_dispatch",
            "us",
            self.simulator_run_us_per_dispatch,
        );
        out.push("simulator.ns_per_task", "ns", self.simulator_ns_per_task);
        out.push(
            "recovery.us_per_dispatch",
            "us",
            self.recovery_us_per_dispatch,
        );
        out.push(
            "recovery.rounds_per_dispatch",
            "count",
            self.recovery_rounds_per_dispatch,
        );
        out.push(
            "recovery.degraded_share",
            "ratio",
            self.recovery_degraded_share,
        );
        out.push(
            "recovery.audit_clean_ratio",
            "ratio",
            self.recovery_audit_clean_ratio,
        );
        out.push(
            "telemetry.span_records",
            "count",
            self.telemetry_span_records,
        );
        out.push(
            "telemetry.lifecycle_events",
            "count",
            self.telemetry_lifecycle_events,
        );
        out.push(
            "telemetry.span_enter_ns",
            "ns",
            self.telemetry_span_enter_ns,
        );
        out.push("telemetry.validate_ms", "ms", self.telemetry_validate_ms);
        out.push("replay.reconciled", "count", self.replay_reconciled);
        out.push(
            "replay.unattributed_share",
            "ratio",
            self.replay_unattributed_share,
        );
    }
}

fn mean_us(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum::<f64>() * 1e6, xs.len() as f64)
}

fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(".bench_out").join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// The output checks of the traced run, made outside any timed span:
/// the plan passes its static lint and the trace its audit.
fn check_plan(
    soc: &SocSpec,
    planned: &hetero2pipe::planner::PlannedPipeline,
    tasks: &[h2p_simulator::engine::TaskSpec],
    trace: &h2p_simulator::timeline::Trace,
    index: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    let lint = planned.lint(soc);
    if !lint.is_clean() {
        failures.push(format!("batch {index}: plan fails lint:\n{lint}"));
    }
    if !audit::audit(soc, tasks, trace).is_clean() {
        failures.push(format!("batch {index}: trace fails its audit"));
    }
    failures
}

/// Alternates untraced reps of a timed region with traced replays until
/// `seconds` are spent (at least three of each), so host drift hits both
/// alike. Returns the untraced wall seconds; `rep(i)` runs pair `i`.
fn alternate(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let begin = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 3 || begin.elapsed().as_secs_f64() < seconds {
        walls.push(rep(walls.len())?);
    }
    Ok(walls)
}

/// Per-layer timing of a traced run: the pooled samples of every replay
/// after the first (the first also runs the lint and audit checks
/// between its calls), and the median of their per-replay totals.
fn timing_of(replays: &[LayerSamples]) -> (LayerSamples, f64) {
    let timed_replays = if replays.len() > 1 {
        &replays[1..]
    } else {
        replays
    };
    let mut pooled = LayerSamples::default();
    for r in timed_replays {
        pooled.extend(r);
    }
    let totals: Vec<f64> = timed_replays.iter().map(LayerSamples::total_s).collect();
    (pooled, median(&totals))
}

/// The traced run of a serve workload on its first stream: untraced
/// `Server::run` reps alternating with replays of that stream.
///
/// # Errors
///
/// Fails on a structural error in either run.
pub fn run_serve(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    workload: &str,
) -> Result<Outcome, String> {
    let soc = crate::soc();
    let cfg = spec.config(stream_seed(seed, 0));
    let mut out = Outcome {
        attempted: spec.requests as u64,
        ..Outcome::default()
    };
    let mut report: Option<ServeReport> = None;
    let mut first: Option<ServeReplay> = None;
    let mut replays: Vec<LayerSamples> = Vec::new();
    let walls = alternate(seconds, |i| {
        let (server, _) = serve::new_server(&soc)?;
        let (run, wall) = timed(|| server.run(&cfg));
        drop(server);
        let run = run.map_err(|e| format!("Server::run (seed {}): {e}", cfg.seed))?;
        match &report {
            Some(r)
                if serve::StreamSummary::of(r).fingerprint
                    != serve::StreamSummary::of(&run).fingerprint =>
            {
                out.errors
                    .push(format!("untraced rep {i} simulated different outputs"));
            }
            Some(_) => {}
            None => report = Some(run),
        }
        let report = report.as_ref().ok_or("no untraced run")?;
        let mut replay = replay_serve(spec, cfg.seed, report, i == 0)?;
        if !replay.reconciles() {
            out.errors.push(format!(
                "replay {i} does not reconcile: {} of {} served requests matched, {} mismatches: {:?}",
                replay.reconciled, replay.served, replay.mismatch_count, replay.mismatches
            ));
        }
        replays.push(std::mem::take(&mut replay.samples));
        first.get_or_insert(replay);
        Ok(wall)
    })?;
    let (report, replay) = report.zip(first).ok_or("no traced run")?;
    let (errors, failed) = serve::check_report(&report, spec);
    out.errors.extend(errors);
    out.errors.extend(replay.check_failures.iter().cloned());
    out.failed = failed;
    replay
        .tracer
        .write_jsonl(&spans_path(workload, seed))
        .map_err(|e| format!("writing spans: {e}"))?;

    let (s, layer_s) = timing_of(&replays);
    let untraced_s = median(&walls);
    let n = spec.requests as f64;
    let dispatched: usize = replay.dispatches.iter().map(|d| d.requests.len()).sum();
    let mut l = Layers {
        serve_loop_us_per_req: (untraced_s - layer_s) / n * 1e6,
        serve_dispatches: replay.dispatches.len() as f64,
        serve_batch_mean: ratio(dispatched as f64, replay.dispatches.len() as f64),
        serve_reject_share: report.counts.rejected() as f64 / n,
        serve_shed_share: report.counts.shed as f64 / n,
        serve_queue_wait_ms: replay
            .dispatches
            .iter()
            .flat_map(|d| {
                d.requests
                    .iter()
                    .map(|&r| d.cut_ms - report.records[r].arrival_ms)
            })
            .collect(),
        batching_us_per_dispatch: mean_us(&s.batching_s),
        batching_groups_per_dispatch: ratio(
            s.groups.iter().sum::<usize>() as f64,
            s.groups.len() as f64,
        ),
        online_hit_ratio: ratio(
            replay.counters.window_hits,
            replay.counters.window_hits + replay.counters.window_misses,
        ),
        online_hit_us: s.online_hit_s.iter().map(|t| t * 1e6).collect(),
        online_miss_us: s.online_miss_s.iter().map(|t| t * 1e6).collect(),
        online_cache_entries: replay.online.window_cache_len() as f64,
        planner: replay.counters,
        replay_reconciled: replay.reconciled as f64,
        replay_unattributed_share: (untraced_s - layer_s) / untraced_s,
        ..Layers::default()
    };
    l.executor_and_simulator(&s);
    if spec.chaos {
        l.recovery_us_per_dispatch = mean_us(&s.recovery_s);
        l.recovery_rounds_per_dispatch = ratio(s.rounds as f64, s.recovery_s.len() as f64);
        l.recovery_degraded_share = ratio(report.counts.degraded as f64, dispatched as f64);
        l.recovery_audit_clean_ratio = ratio(s.rounds_clean as f64, s.rounds as f64);
    }
    l.telemetry_of(replay.online.planner());
    l.validate_of(&report.lifecycle);
    out.notes.push(format!(
        "stream seed {}: {} requests, {} dispatches; {} untraced Server::run reps (median {:.4} s) alternating with replays (median replayed layer time {:.4} s)",
        cfg.seed,
        spec.requests,
        replay.dispatches.len(),
        walls.len(),
        untraced_s,
        layer_s
    ));
    out.notes.push(format!(
        "every replay reconciled {}/{} served requests bit for bit; tails at q = {:.3} (hits, n={}), {:.3} (misses, n={}), {:.3} (queue waits, n={})",
        replay.reconciled,
        replay.served,
        tail_q(l.online_hit_us.len()),
        l.online_hit_us.len(),
        tail_q(l.online_miss_us.len()),
        l.online_miss_us.len(),
        tail_q(l.serve_queue_wait_ms.len()),
        l.serve_queue_wait_ms.len()
    ));
    l.into_outcome(&mut out);
    Ok(out)
}

/// One replay of a batch set: plan, lower and execute timed per batch
/// on a fresh warmed planner. With `check`, every plan is linted and
/// every trace audited outside the timed spans.
struct BatchReplay {
    samples: LayerSamples,
    latency_ms: Vec<f64>,
    check_failures: Vec<String>,
    warm: batch::WarmPlanner,
    counters: PlannerCounters,
    tracer: Tracer,
}

fn replay_batch(soc: &SocSpec, set: &BatchSet, check: bool) -> Result<BatchReplay, String> {
    let (warm, _) = batch::warm_planner(soc, PlannerConfig::default())?;
    let planner = &warm.planner;
    let base = PlannerCounters::read(planner.telemetry());
    let mut tracer = Tracer::default();
    let mut samples = LayerSamples::default();
    let mut latency_ms = Vec::with_capacity(set.requests());
    let mut check_failures = Vec::new();
    for (b, graphs) in set.graphs.iter().enumerate() {
        let first_request = latency_ms.len();
        let span = tracer.open(
            "batch",
            (first_request..first_request + graphs.len()).collect(),
        );
        let (planned, secs) = tracer.call("plan", span, || planner.plan(graphs));
        samples.plan_s.push(secs);
        let planned = planned.map_err(|e| format!("batch {b}: {e}"))?;
        let (lowered, secs) = tracer.call("lower", span, || planned.lower(soc));
        samples.lower_s.push(secs);
        let lowered = lowered.map_err(|e| format!("batch {b}: {e}"))?;
        samples.tasks.push(lowered.simulation().tasks().len());
        let tasks = check.then(|| lowered.simulation().tasks().to_vec());
        let (exec, secs) = tracer.call("execute", span, || lowered.execute());
        samples.sim_s.push(secs);
        let exec = exec.map_err(|e| format!("batch {b}: {e}"))?;
        tracer.close(span);
        if let Some(tasks) = tasks {
            check_failures.extend(check_plan(soc, &planned, &tasks, &exec.trace, b));
        }
        latency_ms.extend_from_slice(&exec.request_latency_ms);
    }
    let counters = PlannerCounters::read(warm.planner.telemetry()).since(&base);
    Ok(BatchReplay {
        samples,
        latency_ms,
        check_failures,
        warm,
        counters,
        tracer,
    })
}

/// The traced run of `plan-batch` on its first batch set: untraced
/// timed regions alternating with replays of that set.
///
/// # Errors
///
/// Fails if a planner cannot be built or a batch fails to plan or
/// execute.
pub fn run_batch(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let soc = crate::soc();
    let set = BatchSet::generate(stream_seed(seed, 0));
    let mut out = Outcome {
        attempted: set.requests() as u64,
        ..Outcome::default()
    };
    let mut untraced: Option<batch::SetRun> = None;
    let mut first: Option<BatchReplay> = None;
    let mut replays: Vec<LayerSamples> = Vec::new();
    let mut reconciled = 0usize;
    let walls = alternate(seconds, |i| {
        let (warm, _) = batch::warm_planner(&soc, PlannerConfig::default())?;
        let run = batch::run_set(&warm, &soc, &set)?;
        drop(warm);
        let wall = run.wall_s;
        let expected = untraced.get_or_insert(run);
        let mut replay = replay_batch(&soc, &set, i == 0)?;
        reconciled = replay
            .latency_ms
            .iter()
            .zip(&expected.latency_ms)
            .filter(|(a, b)| a.to_bits() == b.to_bits())
            .count();
        if reconciled != expected.latency_ms.len() || replay.latency_ms.len() != reconciled {
            out.errors.push(format!(
                "replay {i} does not reconcile: {reconciled} of {} request latencies matched",
                expected.latency_ms.len()
            ));
        }
        replays.push(std::mem::take(&mut replay.samples));
        first.get_or_insert(replay);
        Ok(wall)
    })?;
    let replay = first.ok_or("no traced run")?;
    out.errors.extend(replay.check_failures.iter().cloned());
    replay
        .tracer
        .write_jsonl(&spans_path("plan-batch", seed))
        .map_err(|e| format!("writing spans: {e}"))?;

    let (s, layer_s) = timing_of(&replays);
    let untraced_s = median(&walls);
    let planner = &replay.warm.planner;
    let mut l = Layers {
        planner: replay.counters,
        replay_reconciled: reconciled as f64,
        replay_unattributed_share: (untraced_s - layer_s) / untraced_s,
        ..Layers::default()
    };
    l.executor_and_simulator(&s);
    l.telemetry_of(planner);
    l.validate_of(&planner.telemetry().lifecycle.records());
    out.notes.push(format!(
        "batch set seed {}: {} batches, {} requests; {} untraced timed regions (median {:.4} s) alternating with replays (median replayed layer time {:.4} s)",
        stream_seed(seed, 0),
        set.graphs.len(),
        set.requests(),
        walls.len(),
        untraced_s,
        layer_s
    ));
    out.notes.push(format!(
        "every replay reconciled {reconciled}/{} request latencies bit for bit",
        set.requests()
    ));
    l.into_outcome(&mut out);
    Ok(out)
}
