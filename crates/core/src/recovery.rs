//! Fault recovery: re-planning around processor dropout, retrying
//! transient failures with bounded backoff, and typed degraded outcomes
//! when a request cannot be salvaged.
//!
//! The runner executes a request set in *rounds*. Each round plans the
//! still-incomplete requests on the surviving processor set, lowers the
//! plan, and runs it under a [`FaultInjector`] scripted from the
//! remaining [`FaultSpec`]s (time-shifted so the script refers to the
//! global timeline). A round ends when the engine halts — either
//! everything completed or a fault interrupted the run — and the runner
//! reacts:
//!
//! * **Processor dropout** — the processor is excluded from every later
//!   plan; orphaned and unstarted work is re-planned over surviving
//!   slots by the planner's own per-request subset search, restricted
//!   to the surviving pipeline slots (the same cost tables and NPU
//!   operator-fallback arrays the planner uses), then re-aligned with
//!   work stealing.
//! * **Transient task failure** — the request is retried with bounded
//!   exponential backoff (the delay becomes the request's release time
//!   in the next round). Exceeding [`RecoveryPolicy::max_retries`]
//!   yields [`PlanError::RetriesExhausted`].
//! * **Cost misprediction** — lowered task durations are scaled, so
//!   execution deviates from the plan while the planner keeps using its
//!   (now wrong) estimates.
//!
//! Per-request deadlines bound the accumulated wall time; exceeding one
//! yields [`PlanError::DeadlineExceeded`]. The recovery state machine
//! never panics and never hangs: every round strictly advances either
//! the completed set, the retry counters, or the round counter, all of
//! which are bounded.
//!
//! Every round is gated on the faulted audit
//! ([`h2p_simulator::audit::audit_faulted`]) — subset contract checks
//! plus exact event replay — and the plan lint with availability mask
//! (H2P009: no task may target a down processor).

use std::sync::Arc;

use h2p_models::graph::ModelGraph;
use h2p_simulator::audit;
use h2p_simulator::engine::{EngineEvent, TaskLabel, TaskSpec};
use h2p_simulator::faults::{FaultInjector, FaultKind, FaultSpec};
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::lifecycle::{LifecycleStage, RequestId, TraceId};
use h2p_telemetry::{span, CounterId, GaugeId, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::PlanError;
use crate::executor::lower_with_arrivals;
use crate::plan::{PipelinePlan, RequestPlan};
use crate::planner::{Planner, RequestPartition};
use crate::worksteal;

/// The handles of the series [`run_with_recovery`] records, registered
/// with the planner's own ([`Planner::metrics`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveryMetrics {
    rounds: CounterId,
    replans: CounterId,
    faults: CounterId,
    retries: CounterId,
    elapsed_ms: GaugeId,
}

impl RecoveryMetrics {
    pub(crate) fn register(m: &MetricsRegistry) -> Self {
        Self {
            rounds: m.counter("recovery.rounds"),
            replans: m.counter("recovery.replans"),
            faults: m.counter("recovery.faults"),
            retries: m.counter("recovery.retries"),
            elapsed_ms: m.gauge("recovery.elapsed_ms"),
        }
    }
}

/// Retry, backoff, deadline, and round budgets for the recovery runner.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries per request after transient failures.
    pub max_retries: usize,
    /// Base backoff delay in ms; attempt `n` waits `base * 2^(n-1)`.
    pub backoff_base_ms: f64,
    /// Ceiling on any single backoff delay, in ms.
    pub backoff_cap_ms: f64,
    /// Per-request deadline on accumulated wall time across rounds, in
    /// ms. `None` disables deadline enforcement.
    pub deadline_ms: Option<f64>,
    /// Hard cap on recovery rounds (a liveness backstop; normal
    /// scenarios converge in a handful).
    pub max_rounds: usize,
}

impl RecoveryPolicy {
    /// Backoff delay before retry attempt `attempt` (1-based):
    /// `backoff_base_ms * 2^(attempt-1)`, capped at `backoff_cap_ms`.
    /// Attempt 0 (no retry yet) waits nothing. This is the single
    /// backoff schedule shared by the recovery runner and the serving
    /// front-end's dispatch retry loop.
    pub fn backoff_ms(&self, attempt: usize) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let exp = (attempt - 1).min(32) as u32;
        (self.backoff_base_ms * f64::from(2u32.pow(exp.min(20)))).min(self.backoff_cap_ms)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base_ms: 1.0,
            backoff_cap_ms: 32.0,
            deadline_ms: None,
            max_rounds: 16,
        }
    }
}

/// Terminal state of a recovery run.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// Every request completed and every round's trace audited clean.
    Recovered,
    /// Recovery gave up with a typed reason; completed requests up to
    /// that point are recorded in [`RecoveryReport::completed`].
    Degraded(PlanError),
}

/// Event log and counters of one recovery round.
#[derive(Debug, Clone)]
pub struct RoundLog {
    /// Global-timeline offset of this round's simulation time zero.
    pub offset_ms: f64,
    /// The round's engine event log (round-local times).
    pub events: Vec<EngineEvent>,
    /// Task labels in submission order (task id → label), so consumers
    /// can replay `events` and map spans back to requests
    /// ([`TaskLabel::request`]) without re-lowering the round's plan.
    pub labels: Vec<TaskLabel>,
    /// Requests that completed in this round.
    pub completed: usize,
    /// Faults the engine observed in this round.
    pub faults: usize,
    /// Whether the round's trace passed the faulted audit.
    pub audit_clean: bool,
}

/// Everything a recovery run produced: terminal outcome, per-round
/// logs, and aggregate counters.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Terminal state.
    pub outcome: RecoveryOutcome,
    /// Per-round logs, in execution order.
    pub rounds: Vec<RoundLog>,
    /// Number of re-planning passes on a reduced or retried set.
    pub replans: usize,
    /// Number of transient-failure retries granted.
    pub retries: usize,
    /// Total faults observed across rounds.
    pub faults: usize,
    /// Accumulated wall time across rounds, in ms.
    pub elapsed_ms: f64,
    /// Per-request completion, by original submission index.
    pub completed: Vec<bool>,
    /// Per-request completion latency in ms on the global timeline (the
    /// lifecycle `Complete` instant), by original submission index;
    /// `None` for a request that did not complete.
    pub latency_ms: Vec<Option<f64>>,
    /// Final processor availability (`true` = dropped out).
    pub down: Vec<bool>,
}

impl RecoveryReport {
    /// Whether the run ended fully recovered.
    pub fn is_recovered(&self) -> bool {
        matches!(self.outcome, RecoveryOutcome::Recovered)
    }

    /// Whether every round's trace passed the faulted audit.
    pub fn all_rounds_audit_clean(&self) -> bool {
        self.rounds.iter().all(|r| r.audit_clean)
    }
}

/// Scripted fault state carried across rounds, on the global timeline.
/// Each fault kind is one flat list, empty (and unallocated) unless the
/// script uses it.
struct FaultScript {
    /// `(processor, instant)` of the earliest scripted dropout, at most
    /// one per processor.
    down_at: Vec<(usize, f64)>,
    /// `(processor, from, until, factor)` throttle intervals.
    throttles: Vec<(usize, f64, f64, f64)>,
    /// `(request, count)` of remaining scripted transient failures, at
    /// most one per request.
    transient: Vec<(usize, u32)>,
    /// Multiplicative error on every lowered solo duration.
    mispredict: f64,
}

impl FaultScript {
    fn compile(specs: &[FaultSpec], n_proc: usize, n_req: usize) -> Result<Self, PlanError> {
        let mut script = FaultScript {
            down_at: Vec::new(),
            throttles: Vec::new(),
            transient: Vec::new(),
            mispredict: 1.0,
        };
        let check_proc = |p: ProcessorId| -> Result<usize, PlanError> {
            if p.index() >= n_proc {
                return Err(PlanError::Simulation(
                    h2p_simulator::SimError::UnknownProcessor {
                        index: p.index(),
                        available: n_proc,
                    },
                ));
            }
            Ok(p.index())
        };
        for spec in specs {
            match spec {
                FaultSpec::ProcessorDropout { processor, at_ms } => {
                    let p = check_proc(*processor)?;
                    let at = at_ms.max(0.0);
                    match script.down_at.iter_mut().find(|(q, _)| *q == p) {
                        Some((_, cur)) => *cur = cur.min(at),
                        None => script.down_at.push((p, at)),
                    }
                }
                FaultSpec::ThermalThrottle {
                    processor,
                    from_ms,
                    until_ms,
                    factor,
                } => {
                    let p = check_proc(*processor)?;
                    script.throttles.push((p, *from_ms, *until_ms, *factor));
                }
                FaultSpec::TransientFailure { request, failures } => {
                    if *request < n_req {
                        match script.transient.iter_mut().find(|(r, _)| r == request) {
                            Some((_, count)) => *count += *failures,
                            None => script.transient.push((*request, *failures)),
                        }
                    }
                }
                FaultSpec::CostMisprediction { scale } => {
                    if scale.is_finite() && *scale > 0.0 {
                        script.mispredict *= scale;
                    }
                }
            }
        }
        Ok(script)
    }

    /// Remaining scripted transient failures of request `r`.
    fn transient_mut(&mut self, r: usize) -> Option<&mut u32> {
        self.transient
            .iter_mut()
            .find_map(|(q, count)| (*q == r).then_some(count))
    }
}

/// Re-plans `pending` requests over the surviving pipeline slots: for
/// each request, the planner's subset search
/// (`Planner::plan_request_cached`) runs over the surviving slots
/// only (sharing the planner's cached cost tables and NPU fallback
/// arrays) and the best subset wins; the resulting plan is then
/// re-aligned with work stealing over the contexts of the memoized
/// partitions. Every request is searched, pending or not, so one that
/// no survivor subset can host fails the replan either way.
///
/// Public so the perf-trajectory bench can measure the recovery
/// re-planning latency in isolation (without a simulated round).
///
/// # Errors
///
/// Returns [`PlanError::NoSurvivingProcessors`] when `down` masks every
/// pipeline slot, and [`PlanError::NoFeasiblePipeline`] when no subset
/// of survivors can host a request.
pub fn replan_on_survivors(
    planner: &Planner,
    graphs: &[ModelGraph],
    pending: &[usize],
    down: &[bool],
) -> Result<PipelinePlan, PlanError> {
    let procs = planner.pipeline_procs();
    let surviving: u32 = (0..procs.len())
        .filter(|&s| !down.get(procs[s].index()).copied().unwrap_or(false))
        .fold(0, |mask, s| mask | 1 << s);
    if surviving == 0 {
        return Err(PlanError::NoSurvivingProcessors);
    }
    let cost = planner.estimator().cost();
    let mut partitions: Vec<Arc<RequestPartition>> = Vec::with_capacity(graphs.len());
    let mut requests: Vec<RequestPlan> = Vec::with_capacity(pending.len());
    for (r, graph) in graphs.iter().enumerate() {
        // Survivor replans reuse the cross-invocation tables cache: the
        // tables are keyed on the *full* pipeline-processor list (the
        // allowed-slot mask below only restricts which slots the DP may
        // use), so a replan after a dropout hits the tables built by the
        // original plan instead of rebuilding them mid-recovery, and a
        // survivor set seen before hits its memoized partition.
        let tables = planner.tables_cached(graph, procs);
        // An NPU stage lowers its unsupported operators onto the
        // fallback CPU (Sec. IV), so when that CPU is down the NPU slot
        // is unusable for any model that needs the detour: a split that
        // looks feasible by cost would still route stage runs onto the
        // dead core (lint H2P009).
        let blocked_slot = tables.fallback().and_then(|(slot, fb)| {
            (fb.needs_fallback()
                && down
                    .get(fb.fallback_proc().index())
                    .copied()
                    .unwrap_or(false))
            .then_some(slot)
        });
        let allowed = blocked_slot.map_or(surviving, |b| surviving & !(1 << b));
        let partition = planner.plan_request_cached(&tables, allowed)?;
        if pending.contains(&r) {
            let (intensity, class) = tables.contention();
            requests.push(RequestPlan {
                request: r,
                model: graph.shared_name().clone(),
                stages: partition.stages.clone(),
                intensity,
                class,
            });
        }
        partitions.push(partition);
    }
    let mut plan = PipelinePlan {
        procs: procs.to_vec(),
        requests,
    };
    worksteal::align_by_stealing(&mut plan, |r| &partitions[r].ctx, cost);
    Ok(plan)
}

/// Runs `requests` to completion under the scripted `faults`, recovering
/// per the policy. See the module docs for the round state machine.
///
/// # Errors
///
/// Returns a hard error only for structural problems (empty request
/// set, invalid fault processor index, a plan that fails to lower).
/// Fault-driven failures — retry exhaustion, missed deadlines, total
/// processor loss — are *degraded outcomes*, reported in
/// [`RecoveryReport::outcome`] so callers still see the partial result.
pub fn run_with_recovery(
    planner: &Planner,
    requests: &[ModelGraph],
    faults: &[FaultSpec],
    policy: &RecoveryPolicy,
) -> Result<RecoveryReport, PlanError> {
    if requests.is_empty() {
        return Err(PlanError::EmptyRequestSet);
    }
    let soc = planner.soc();
    let n_proc = soc.processors.len();
    let m = requests.len();
    let mut script = FaultScript::compile(faults, n_proc, m)?;
    let telemetry = planner.telemetry();
    let metrics = planner.metrics().recovery;

    // Round state, made once per call: the processor mask, each
    // request's completion, retry attempts, backoff delay and completion
    // latency, and the pending set and execution envelope, which every
    // round refills.
    let mut down = vec![false; n_proc];
    let mut done = vec![false; m];
    let mut attempts = vec![0usize; m];
    let mut delay = vec![0.0f64; m];
    let mut pending: Vec<usize> = Vec::with_capacity(m);
    let mut envelope: Vec<Option<(f64, f64)>> = vec![None; m];
    let mut latency_ms: Vec<Option<f64>> = vec![None; m];
    let mut elapsed = 0.0f64;
    // Lifecycle: the recovery loop owns the requests' histories on the
    // global timeline, under the same content-derived trace id the
    // planner emits for this batch (the round-0 `planner.plan` call
    // records its own admit/plan pair under the identical id — duplicate
    // admissions are legal re-admissions). Admitting up front keeps the
    // stream causal even when round 0 degrades before planning.
    let trace_id = TraceId::of_names(requests.iter().map(ModelGraph::name));
    for r in 0..m {
        telemetry
            .lifecycle
            .record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
    }
    let mut report = RecoveryReport {
        outcome: RecoveryOutcome::Recovered,
        rounds: Vec::new(),
        replans: 0,
        retries: 0,
        faults: 0,
        elapsed_ms: 0.0,
        completed: Vec::new(),
        latency_ms: Vec::new(),
        down: Vec::new(),
    };

    let outcome = 'rounds: {
        for round in 0..policy.max_rounds {
            if done.iter().all(|&d| d) {
                break 'rounds RecoveryOutcome::Recovered;
            }
            span!(telemetry.spans, "recovery:round{}", round);
            telemetry.metrics.inc(metrics.rounds);
            // Dropouts whose scripted instant has already passed take
            // effect before planning, so a round never schedules onto a
            // processor that is due to be down at its time zero.
            for &(p, at) in &script.down_at {
                if at <= elapsed {
                    down[p] = true;
                }
            }
            pending.clear();
            pending.extend((0..m).filter(|&r| !done[r]));
            if let Some(deadline) = policy.deadline_ms {
                if elapsed > deadline {
                    break 'rounds RecoveryOutcome::Degraded(PlanError::DeadlineExceeded {
                        request: pending[0],
                        deadline_ms: deadline,
                    });
                }
            }

            // Plan this round's work. The first full-set, fault-free
            // round uses the production planner path unchanged; any
            // reduced or retried set goes through the survivor replan.
            let plan = if round == 0 && !down.iter().any(|&d| d) {
                match planner.plan(requests) {
                    Ok(planned) => planned.plan,
                    Err(e) => return Err(e),
                }
            } else {
                telemetry.metrics.inc(metrics.replans);
                report.replans += 1;
                for &r in &pending {
                    telemetry.lifecycle.record(
                        trace_id,
                        RequestId(r),
                        elapsed,
                        LifecycleStage::Recover { round },
                    );
                }
                match replan_on_survivors(planner, requests, &pending, &down) {
                    Ok(plan) => plan,
                    Err(
                        e @ (PlanError::NoSurvivingProcessors
                        | PlanError::NoFeasiblePipeline { .. }),
                    ) => break 'rounds RecoveryOutcome::Degraded(e),
                    Err(e) => return Err(e),
                }
            };

            // Lower with backoff delays as release times, then gate on
            // the availability lint: H2P009 guards against ever routing
            // a task onto a down processor.
            let lowered = lower_with_arrivals(&plan, soc, &delay)?;
            let diags = h2p_analyze::lint_tasks_available(soc, lowered.simulation().tasks(), &down);
            if !diags.is_clean() {
                // A task routed onto a down processor is a planner bug;
                // surface it as a typed hard error in release builds too
                // rather than letting the round run to a dirty audit.
                return Err(PlanError::UnavailableProcessor {
                    round,
                    diags: diags.to_string(),
                });
            }
            let (mut sim, final_task, _) = lowered.into_parts();
            // Cost misprediction: reality deviates from the estimate at
            // lowering time; the planner keeps its (wrong) cost model.
            if (script.mispredict - 1.0).abs() > 1e-12 {
                for t in sim.tasks_mut() {
                    t.solo_ms *= script.mispredict;
                }
            }

            // Script this round's injector on the round-local timeline.
            let mut inj = FaultInjector::new(n_proc);
            for &(p, at) in &script.down_at {
                if !down[p] {
                    inj = inj.dropout(ProcessorId(p), at - elapsed);
                }
            }
            for &(p, from, until, factor) in &script.throttles {
                if until - elapsed > 0.0 {
                    inj = inj.throttle(
                        ProcessorId(p),
                        (from - elapsed).max(0.0),
                        until - elapsed,
                        factor,
                    );
                }
            }
            for &r in &pending {
                if script.transient_mut(r).is_some_and(|count| *count > 0) {
                    if let Some(t) = final_task.get(r).copied().flatten() {
                        inj = inj.fail_task(t.index(), 0.5);
                    }
                }
            }

            let tasks = sim.tasks();
            let (sim_outcome, events) = match sim.run_faulted(&inj) {
                Ok(out) => out,
                Err(e) => break 'rounds RecoveryOutcome::Degraded(PlanError::Simulation(e)),
            };
            let audit_report = audit::audit_faulted(soc, tasks, &events, &sim_outcome);
            debug_assert!(
                audit_report.is_clean(),
                "recovery round {round} failed its faulted audit:\n{audit_report:?}"
            );

            // React: completions, dropouts, retries with backoff.
            let round_offset = elapsed;
            elapsed += sim_outcome.halt_ms;
            report.elapsed_ms = elapsed;
            for (d, fell) in down.iter_mut().zip(&sim_outcome.down) {
                if *fell {
                    *d = true;
                }
            }
            // Per-request execution envelope over this round's completed
            // spans, indexed by the lowering labels' request — the
            // lifecycle execute instant and the completion latency both
            // come from here, on the global timeline.
            envelope.fill(None);
            for (t, span) in sim_outcome.spans.iter().enumerate() {
                let (Some(span), Some(r)) = (span, tasks.get(t).and_then(TaskSpec::request_index))
                else {
                    continue;
                };
                let Some(slot) = envelope.get_mut(r) else {
                    continue;
                };
                *slot = Some(slot.map_or((span.start_ms, span.end_ms), |(s, e)| {
                    (s.min(span.start_ms), e.max(span.end_ms))
                }));
            }
            for (r, env) in envelope.iter().enumerate() {
                if let Some((start, _)) = *env {
                    telemetry.lifecycle.record(
                        trace_id,
                        RequestId(r),
                        round_offset + start,
                        LifecycleStage::Execute,
                    );
                }
            }
            let mut round_completed = 0usize;
            for &r in &pending {
                let finished = final_task
                    .get(r)
                    .copied()
                    .flatten()
                    .and_then(|t| sim_outcome.spans.get(t.index()))
                    .is_some_and(|s| s.is_some());
                if finished {
                    done[r] = true;
                    delay[r] = 0.0;
                    round_completed += 1;
                    let end = envelope[r].map_or(sim_outcome.halt_ms, |(_, e)| e);
                    latency_ms[r] = Some(round_offset + end);
                    telemetry.lifecycle.record(
                        trace_id,
                        RequestId(r),
                        round_offset + end,
                        LifecycleStage::Complete {
                            latency_ms: round_offset + end,
                        },
                    );
                }
            }
            let round_faults = sim_outcome.failed.len();
            report.faults += round_faults;
            telemetry.metrics.add(metrics.faults, round_faults as u64);
            let mut exhausted: Option<PlanError> = None;
            for f in &sim_outcome.failed {
                if f.kind != FaultKind::Transient {
                    continue;
                }
                let Some(r) = pending.iter().copied().find(|&r| {
                    final_task.get(r).copied().flatten().map(|t| t.index()) == Some(f.task)
                }) else {
                    continue;
                };
                if let Some(c) = script.transient_mut(r) {
                    *c = c.saturating_sub(1);
                }
                attempts[r] += 1;
                if attempts[r] > policy.max_retries {
                    exhausted.get_or_insert(PlanError::RetriesExhausted {
                        request: r,
                        attempts: attempts[r],
                    });
                    continue;
                }
                report.retries += 1;
                telemetry.metrics.inc(metrics.retries);
                delay[r] = policy.backoff_ms(attempts[r]);
            }
            report.rounds.push(RoundLog {
                offset_ms: round_offset,
                events,
                labels: tasks.iter().map(|t| t.label.clone()).collect(),
                completed: round_completed,
                faults: round_faults,
                audit_clean: audit_report.is_clean(),
            });
            if let Some(e) = exhausted {
                break 'rounds RecoveryOutcome::Degraded(e);
            }
        }
        if done.iter().all(|&d| d) {
            RecoveryOutcome::Recovered
        } else {
            // Round budget exhausted with work still pending: surface
            // the first stuck request as a retries-exhausted outcome.
            let first = (0..m).find(|&r| !done[r]).unwrap_or(0);
            RecoveryOutcome::Degraded(PlanError::RetriesExhausted {
                request: first,
                attempts: attempts[first],
            })
        }
    };

    telemetry.metrics.set_gauge(metrics.elapsed_ms, elapsed);
    // Degraded runs abandon every incomplete request: close their
    // lifecycle with a typed degradation reason so no history is left
    // dangling (validation treats degrade as terminal).
    if let RecoveryOutcome::Degraded(e) = &outcome {
        let reason = degrade_reason(e);
        for (r, &d) in done.iter().enumerate() {
            if !d {
                telemetry.lifecycle.record(
                    trace_id,
                    RequestId(r),
                    elapsed,
                    LifecycleStage::Degrade {
                        reason: reason.to_owned(),
                    },
                );
            }
        }
    }
    report.outcome = outcome;
    report.completed = done;
    report.latency_ms = latency_ms;
    report.down = down;
    Ok(report)
}

/// Compact stable tag for a degraded outcome's cause, used in lifecycle
/// events (full details stay on the typed [`PlanError`]).
fn degrade_reason(e: &PlanError) -> &'static str {
    match e {
        PlanError::RetriesExhausted { .. } => "retries_exhausted",
        PlanError::DeadlineExceeded { .. } => "deadline_exceeded",
        PlanError::NoSurvivingProcessors => "no_surviving_processors",
        PlanError::NoFeasiblePipeline { .. } => "no_feasible_pipeline",
        PlanError::Simulation(_) => "simulation_error",
        _ => "degraded",
    }
}

/// Generates a seeded random fault scenario over `n_req` requests on
/// `soc`: 1–3 faults drawn from all four fault classes, with times and
/// magnitudes sized for small chaos workloads. Deterministic per seed.
pub fn chaos_faults(soc: &SocSpec, n_req: usize, seed: u64) -> Vec<FaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_proc = soc.processors.len();
    let count = rng.gen_range(1..=3usize);
    let mut specs = Vec::with_capacity(count);
    let mut dropped = 0usize;
    for _ in 0..count {
        match rng.gen_range(0..4u32) {
            0 if n_proc > 1 && dropped + 1 < n_proc => {
                dropped += 1;
                specs.push(FaultSpec::ProcessorDropout {
                    processor: ProcessorId(rng.gen_range(0..n_proc)),
                    at_ms: rng.gen_range(0.0..60.0),
                });
            }
            1 => {
                let from = rng.gen_range(0.0..40.0);
                specs.push(FaultSpec::ThermalThrottle {
                    processor: ProcessorId(rng.gen_range(0..n_proc)),
                    from_ms: from,
                    until_ms: from + rng.gen_range(5.0..80.0),
                    factor: rng.gen_range(0.2..0.9),
                });
            }
            2 => {
                specs.push(FaultSpec::TransientFailure {
                    request: rng.gen_range(0..n_req.max(1)),
                    failures: rng.gen_range(1..=2u32),
                });
            }
            _ => {
                specs.push(FaultSpec::CostMisprediction {
                    scale: rng.gen_range(0.6..1.8),
                });
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_models;
    use h2p_models::zoo::ModelId;

    fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
        ids.iter().map(|m| m.graph()).collect()
    }

    fn small_set() -> Vec<ModelGraph> {
        graphs(&[ModelId::SqueezeNet, ModelId::MobileNetV2, ModelId::AlexNet])
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_ms(0), 0.0);
        assert_eq!(policy.backoff_ms(1), 1.0);
        assert_eq!(policy.backoff_ms(2), 2.0);
        assert_eq!(policy.backoff_ms(3), 4.0);
        assert_eq!(policy.backoff_ms(6), 32.0); // cap
        assert_eq!(policy.backoff_ms(500), 32.0); // exponent clamp, no overflow
    }

    #[test]
    fn fault_free_run_recovers_in_one_round() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let report =
            run_with_recovery(&planner, &small_set(), &[], &RecoveryPolicy::default()).unwrap();
        assert!(report.is_recovered(), "{:?}", report.outcome);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.replans, 0);
        assert_eq!(report.retries, 0);
        assert!(report.completed.iter().all(|&c| c));
        assert!(report.all_rounds_audit_clean());
    }

    #[test]
    fn dropout_replans_on_survivors_and_recovers() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let victim = planner.pipeline_procs()[0];
        let faults = [FaultSpec::ProcessorDropout {
            processor: victim,
            at_ms: 2.0,
        }];
        let report =
            run_with_recovery(&planner, &small_set(), &faults, &RecoveryPolicy::default()).unwrap();
        assert!(report.is_recovered(), "{:?}", report.outcome);
        assert!(report.replans >= 1, "dropout must force a replan");
        assert!(report.down[victim.index()]);
        assert!(report.all_rounds_audit_clean());
        // No task in any post-dropout round ran on the dead processor
        // after its dropout instant.
        let mut saw_down = false;
        for round in &report.rounds {
            for e in &round.events {
                match e {
                    EngineEvent::ProcessorDown { processor, .. } if *processor == victim => {
                        saw_down = true;
                    }
                    EngineEvent::Start { processor, .. } => {
                        assert!(
                            !(saw_down && *processor == victim),
                            "task started on dropped processor"
                        );
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_down, "the dropout must surface in some event log");
    }

    #[test]
    fn replan_avoids_npu_fallback_onto_down_processor() {
        // Dropping CPU_B kills the NPU's operator-fallback target: a
        // survivor replan must not keep an NPU stage whose unsupported
        // layers would detour onto the dead core (the H2P009 case the
        // release-mode chaos sweep caught on seeds 11 and 26).
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let cpu_b = soc.processor_by_name("CPU_B").unwrap();
        let graphs: Vec<ModelGraph> = [ModelId::Bert, ModelId::ResNet50, ModelId::YoloV4]
            .iter()
            .map(|m| m.graph())
            .collect();
        let pending: Vec<usize> = (0..graphs.len()).collect();
        let mut down = vec![false; soc.processors.len()];
        down[cpu_b.index()] = true;
        let plan = replan_on_survivors(&planner, &graphs, &pending, &down).unwrap();
        for req in &plan.requests {
            for stage in req.stages.iter().flatten() {
                assert_ne!(stage.proc, cpu_b, "{}: stage on down processor", req.model);
                for run in &stage.runs {
                    assert_ne!(run.proc, cpu_b, "{}: fallback run on down CPU_B", req.model);
                }
            }
        }
        // End-to-end: the same drop recovers audit-clean with no task
        // ever started on the dead core.
        let faults = [FaultSpec::ProcessorDropout {
            processor: cpu_b,
            at_ms: 1.0,
        }];
        let report =
            run_with_recovery(&planner, &graphs, &faults, &RecoveryPolicy::default()).unwrap();
        assert!(report.is_recovered(), "{:?}", report.outcome);
        assert!(report.all_rounds_audit_clean());
        let mut dead = false;
        for round in &report.rounds {
            for e in &round.events {
                match e {
                    EngineEvent::ProcessorDown { processor, .. } if *processor == cpu_b => {
                        dead = true;
                    }
                    EngineEvent::Start {
                        processor, task, ..
                    } => {
                        assert!(
                            !(dead && *processor == cpu_b),
                            "task {task} started on dropped CPU_B"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn transient_failures_retry_with_backoff_then_recover() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let faults = [FaultSpec::TransientFailure {
            request: 1,
            failures: 2,
        }];
        let report =
            run_with_recovery(&planner, &small_set(), &faults, &RecoveryPolicy::default()).unwrap();
        assert!(report.is_recovered(), "{:?}", report.outcome);
        assert_eq!(report.retries, 2);
        assert_eq!(report.faults, 2);
        assert!(report.rounds.len() >= 3, "two retries need three rounds");
        assert!(report.all_rounds_audit_clean());
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let faults = [FaultSpec::TransientFailure {
            request: 0,
            failures: 10,
        }];
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let report = run_with_recovery(&planner, &small_set(), &faults, &policy).unwrap();
        match &report.outcome {
            RecoveryOutcome::Degraded(PlanError::RetriesExhausted { request, attempts }) => {
                assert_eq!(*request, 0);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // The other requests still completed before the budget ran out.
        assert!(report.completed[1] && report.completed[2]);
    }

    #[test]
    fn dropping_every_processor_degrades_not_panics() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let faults: Vec<FaultSpec> = planner
            .pipeline_procs()
            .iter()
            .map(|&p| FaultSpec::ProcessorDropout {
                processor: p,
                at_ms: 0.0,
            })
            .collect();
        let report =
            run_with_recovery(&planner, &small_set(), &faults, &RecoveryPolicy::default()).unwrap();
        match &report.outcome {
            RecoveryOutcome::Degraded(PlanError::NoSurvivingProcessors) => {}
            other => panic!("expected NoSurvivingProcessors, got {other:?}"),
        }
    }

    #[test]
    fn deadline_exceeded_is_typed() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let faults = [FaultSpec::TransientFailure {
            request: 0,
            failures: 3,
        }];
        let policy = RecoveryPolicy {
            deadline_ms: Some(1e-3),
            ..RecoveryPolicy::default()
        };
        let report = run_with_recovery(&planner, &small_set(), &faults, &policy).unwrap();
        match &report.outcome {
            RecoveryOutcome::Degraded(PlanError::DeadlineExceeded { deadline_ms, .. }) => {
                assert!((deadline_ms - 1e-3).abs() < 1e-12);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn misprediction_stretches_execution_but_recovers() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let clean =
            run_with_recovery(&planner, &small_set(), &[], &RecoveryPolicy::default()).unwrap();
        let faults = [FaultSpec::CostMisprediction { scale: 1.5 }];
        let slow =
            run_with_recovery(&planner, &small_set(), &faults, &RecoveryPolicy::default()).unwrap();
        assert!(slow.is_recovered(), "{:?}", slow.outcome);
        assert!(
            slow.elapsed_ms > clean.elapsed_ms * 1.2,
            "1.5x misprediction must stretch the run: {} vs {}",
            slow.elapsed_ms,
            clean.elapsed_ms
        );
    }

    #[test]
    fn chaos_seeds_recover_or_degrade_typed() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        for seed in 0..6u64 {
            let models = random_models(seed.wrapping_mul(97).wrapping_add(13), 3);
            let reqs = graphs(&models);
            let faults = chaos_faults(&soc, reqs.len(), seed);
            let report = run_with_recovery(&planner, &reqs, &faults, &RecoveryPolicy::default())
                .unwrap_or_else(|e| panic!("seed {seed}: hard error {e}"));
            assert!(report.all_rounds_audit_clean(), "seed {seed}");
            if let RecoveryOutcome::Degraded(e) = &report.outcome {
                // Degraded outcomes must be one of the typed recovery
                // errors, never a structural failure.
                assert!(
                    matches!(
                        e,
                        PlanError::RetriesExhausted { .. }
                            | PlanError::DeadlineExceeded { .. }
                            | PlanError::NoSurvivingProcessors
                    ),
                    "seed {seed}: unexpected degraded error {e}"
                );
            }
        }
    }

    #[test]
    fn recovery_records_telemetry_counters() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let victim = planner.pipeline_procs()[0];
        let faults = [
            FaultSpec::ProcessorDropout {
                processor: victim,
                at_ms: 1.0,
            },
            FaultSpec::TransientFailure {
                request: 0,
                failures: 1,
            },
        ];
        run_with_recovery(&planner, &small_set(), &faults, &RecoveryPolicy::default()).unwrap();
        let snap = planner.telemetry().metrics.snapshot();
        assert!(snap.counter("recovery.rounds").unwrap_or(0) >= 2);
        assert!(snap.counter("recovery.replans").unwrap_or(0) >= 1);
        assert!(snap.counter("recovery.faults").unwrap_or(0) >= 1);
        assert!(snap.gauge("recovery.elapsed_ms").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn chaos_faults_are_deterministic_per_seed() {
        let soc = SocSpec::kirin_990();
        assert_eq!(chaos_faults(&soc, 4, 7), chaos_faults(&soc, 4, 7));
        assert!(!chaos_faults(&soc, 4, 7).is_empty());
    }
}
