//! Lowering pipeline plans onto the SoC simulator and collecting
//! execution reports.
//!
//! Each planned stage becomes one simulator task pinned to its processor,
//! with a dependency on the same request's previous stage. Tasks are
//! submitted in `(position, slot)` order, so each processor's FIFO queue
//! naturally enforces the staggered pipeline: the request at position
//! `r` uses slot `k` only after position `r−1` has left it. Interference,
//! throttling, memory pressure and copy costs then play out dynamically
//! in the engine — the plan's estimates are *not* fed back in, so a bad
//! plan genuinely executes badly.

use std::collections::HashSet;
use std::hash::Hash;

use h2p_simulator::engine::{EngineEvent, Simulation, TaskId, TaskLabel, TaskSpec};
use h2p_simulator::soc::SocSpec;
use h2p_simulator::timeline::Trace;
use h2p_telemetry::lifecycle::{LifecycleLog, LifecycleStage, RequestId, TraceId};

use crate::error::PlanError;
use crate::plan::PipelinePlan;
use crate::planner::PlannedPipeline;

/// Effective bandwidth for staging weights into a processor's address
/// space (map/unmap + memcpy through the unified memory), GB/s.
pub const WEIGHT_STAGING_GBPS: f64 = 2.0;

/// First-touch weight-staging cost: the first time a given model slice
/// lands on a given processor, its parameters must be copied/paged into
/// that backend's buffers. Subsequent executions of the *same placement*
/// reuse the resident session — which is precisely why the paper argues
/// static pipeline plans beat Band's fallback-driven dynamic switching
/// ("constant new memory allocation and data transfer").
///
/// `key` names the placement, typically `(model, processor, first
/// layer, last layer)` with the model name borrowed from the plan.
pub fn staging_ms<K: Eq + Hash>(seen: &mut HashSet<K>, key: K, bytes: u64) -> f64 {
    if seen.insert(key) {
        bytes as f64 / (WEIGHT_STAGING_GBPS * 1e6)
    } else {
        0.0
    }
}

/// Measured outcome of executing a plan on the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The full simulator trace.
    pub trace: Trace,
    /// End-to-end makespan in milliseconds.
    pub makespan_ms: f64,
    /// Completed inferences per second (`#models / latency`, the paper's
    /// throughput metric).
    pub throughput_per_sec: f64,
    /// Completion time of each request, indexed by *original* request id.
    pub request_latency_ms: Vec<f64>,
    /// Total measured processor idle time between spans (the realized
    /// pipeline bubbles).
    pub measured_bubble_ms: f64,
    /// Mean co-execution slowdown across all stage executions.
    pub mean_slowdown: f64,
}

use crate::plan::sensitivity;

/// Executes `plan` on a fresh simulation of `soc`.
///
/// # Errors
///
/// Returns [`PlanError::Simulation`] if the lowered task graph is invalid
/// (cannot happen for plans produced by [`crate::planner::Planner`]).
pub fn execute(plan: &PipelinePlan, soc: &SocSpec) -> Result<ExecutionReport, PlanError> {
    execute_with_arrivals(plan, soc, &[])
}

/// Executes `plan` with per-request arrival times: request `i` (by
/// *original* submission index) may not start before `arrivals[i]` ms.
/// Requests beyond `arrivals.len()` are available immediately — pass an
/// empty slice for the batch (all-at-time-zero) semantics of
/// [`execute`]. Use [`response_times`] to turn the report's completion
/// times into arrival-relative response times.
///
/// In debug builds, the resulting trace is audited against the
/// simulator's contracts ([`h2p_simulator::audit`]) and a violation
/// panics — every integration test doubles as an audit test.
///
/// # Errors
///
/// Returns [`PlanError::Simulation`] if the lowered task graph is
/// invalid.
pub fn execute_with_arrivals(
    plan: &PipelinePlan,
    soc: &SocSpec,
    arrivals: &[f64],
) -> Result<ExecutionReport, PlanError> {
    lower_with_arrivals(plan, soc, arrivals)?.execute()
}

/// A pipeline plan lowered onto a fresh [`Simulation`], ready to run.
///
/// Produced by [`lower`]/[`lower_with_arrivals`]. Splitting lowering
/// from execution lets callers inspect the exact [`TaskSpec`]s a plan
/// turns into — the `h2p trace` subcommand uses this to audit and
/// event-log a run. The lowered plan borrows the SoC it runs on, and
/// executing it borrows the task graph, so neither is copied.
#[derive(Debug, Clone)]
pub struct LoweredPlan<'soc> {
    sim: Simulation<'soc>,
    final_task: Vec<Option<TaskId>>,
    executed_requests: usize,
}

impl<'soc> LoweredPlan<'soc> {
    /// Wraps an externally-built task graph (baseline schemes lower their
    /// own) so it flows through the same execute/audit/lint path as plans
    /// lowered by [`lower`]. `final_task[i]` is the last task of request
    /// `i` (by original submission index, `None` if the request lowered
    /// to nothing); `executed_requests` is how many requests the graph
    /// serves.
    pub fn from_parts(
        sim: Simulation<'soc>,
        final_task: Vec<Option<TaskId>>,
        executed_requests: usize,
    ) -> Self {
        LoweredPlan {
            sim,
            final_task,
            executed_requests,
        }
    }

    /// The simulation holding the lowered task graph.
    pub fn simulation(&self) -> &Simulation<'soc> {
        &self.sim
    }

    /// Decomposes the lowered plan back into its parts (inverse of
    /// [`LoweredPlan::from_parts`]). The recovery runner uses this to
    /// execute the task graph under a fault injector instead of the
    /// plain `execute` path.
    pub fn into_parts(self) -> (Simulation<'soc>, Vec<Option<TaskId>>, usize) {
        (self.sim, self.final_task, self.executed_requests)
    }

    /// Statically lints the lowered task graph against the simulation's
    /// SoC without running it ([`h2p_analyze::lint_tasks`]).
    pub fn lint(&self) -> h2p_analyze::Diagnostics {
        h2p_analyze::lint_tasks(self.sim.soc(), self.sim.tasks())
    }

    /// Runs the simulation and assembles the execution report. In debug
    /// builds the trace is audited first and violations panic.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Simulation`] if the task graph is invalid.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the trace fails its audit — that is a
    /// simulator bug, never a planner input problem.
    pub fn execute(&self) -> Result<ExecutionReport, PlanError> {
        // Debug builds statically lint the task graph before running it —
        // the pre-execution counterpart of the post-execution audit below.
        #[cfg(debug_assertions)]
        {
            let diags = self.lint();
            debug_assert!(
                diags.is_clean(),
                "lowered task graph fails its static lint:\n{diags}"
            );
        }
        let trace = self.sim.run().map_err(PlanError::Simulation)?;
        #[cfg(debug_assertions)]
        h2p_simulator::audit::assert_clean(self.sim.soc(), self.sim.tasks(), &trace);
        Ok(assemble_report(
            trace,
            &self.final_task,
            self.executed_requests,
        ))
    }

    /// Runs the simulation and additionally returns the engine's
    /// structured event log ([`EngineEvent`]s in simulation-time order).
    ///
    /// In debug builds the task graph is linted first and the finished
    /// trace must pass the *reconciled* audit
    /// ([`h2p_simulator::audit::audit_with_events`]), which replays the
    /// logged piecewise interference rates — strictly stronger than the
    /// envelope-only audit [`LoweredPlan::execute`] runs. Callers that
    /// audit a deliberately corrupted trace (`h2p trace --corrupt`) do so
    /// on their own copy afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Simulation`] if the task graph is invalid.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the trace fails the reconciled audit — that
    /// is a simulator bug, never a planner input problem.
    pub fn execute_logged(&self) -> Result<(ExecutionReport, Vec<EngineEvent>), PlanError> {
        #[cfg(debug_assertions)]
        {
            let diags = self.lint();
            debug_assert!(
                diags.is_clean(),
                "lowered task graph fails its static lint:\n{diags}"
            );
        }
        let (trace, events) = self.sim.run_with_events().map_err(PlanError::Simulation)?;
        #[cfg(debug_assertions)]
        h2p_simulator::audit::assert_clean_with_events(
            self.sim.soc(),
            self.sim.tasks(),
            &events,
            &trace,
        );
        Ok((
            assemble_report(trace, &self.final_task, self.executed_requests),
            events,
        ))
    }
}

/// Groups a trace's spans by originating request, read from the
/// lowering labels ([`TaskLabel::request`]). Entry `i` is the
/// `(start, end)` envelope over request `i`'s spans — the async request
/// slice the chrome exporter draws — or `None` for indices the trace
/// never mentions (and for spans with foreign labels).
pub fn request_slices(trace: &Trace) -> Vec<Option<(f64, f64)>> {
    let mut out: Vec<Option<(f64, f64)>> = Vec::new();
    for span in &trace.spans {
        let Some(r) = span.label.request() else {
            continue;
        };
        if out.len() <= r {
            out.resize(r + 1, None);
        }
        out[r] = Some(match out[r] {
            None => (span.start_ms, span.end_ms),
            Some((s, e)) => (s.min(span.start_ms), e.max(span.end_ms)),
        });
    }
    out
}

/// Emits execute/complete lifecycle events for every request visible in
/// an execution report, under `trace_id`. The execute event carries the
/// request's first span start and the completion its last span end (the
/// same envelope [`request_slices`] computes), all in simulated
/// milliseconds shifted by `offset_ms` — a recovery round replaying at
/// a later offset passes its round start so the global lifecycle stream
/// stays monotone per request. `latency_ms` on the completion is the
/// end-to-end latency since admission at time zero (i.e. the shifted
/// completion time), matching
/// [`ExecutionReport::request_latency_ms`] when `offset_ms` is zero.
pub fn record_request_lifecycle(
    log: &LifecycleLog,
    trace_id: TraceId,
    report: &ExecutionReport,
    offset_ms: f64,
) {
    for (r, slice) in request_slices(&report.trace).iter().enumerate() {
        let Some((start, end)) = *slice else {
            continue;
        };
        log.record(
            trace_id,
            RequestId(r),
            offset_ms + start,
            LifecycleStage::Execute,
        );
        log.record(
            trace_id,
            RequestId(r),
            offset_ms + end,
            LifecycleStage::Complete {
                latency_ms: offset_ms + end,
            },
        );
    }
}

/// Lowers `plan` onto a fresh simulation of `soc` without running it.
///
/// # Errors
///
/// Returns [`PlanError::EmptyRequest`] if a request lowers to zero
/// tasks.
pub fn lower<'soc>(
    plan: &PipelinePlan,
    soc: &'soc SocSpec,
) -> Result<LoweredPlan<'soc>, PlanError> {
    lower_with_arrivals(plan, soc, &[])
}

/// Lowers `plan` with per-request arrival times (see
/// [`execute_with_arrivals`]) without running it.
///
/// # Errors
///
/// Returns [`PlanError::EmptyRequest`] if a request lowers to zero
/// tasks.
pub fn lower_with_arrivals<'soc>(
    plan: &PipelinePlan,
    soc: &'soc SocSpec,
    arrivals: &[f64],
) -> Result<LoweredPlan<'soc>, PlanError> {
    let stages = || plan.requests.iter().flat_map(|r| r.stages.iter().flatten());
    let mut sim = Simulation::new(soc);
    sim.reserve(stages().map(|stage| stage.runs.len().max(1)).sum());
    let request_count = plan
        .requests
        .iter()
        .map(|r| r.request + 1)
        .max()
        .unwrap_or(0);
    let mut final_task: Vec<Option<TaskId>> = vec![None; request_count];

    let mut seen: HashSet<(&str, usize, usize, usize)> = HashSet::with_capacity(stages().count());
    for req in &plan.requests {
        let mut prev: Option<TaskId> = None;
        let arrival = arrivals.get(req.request).copied().unwrap_or(0.0);
        for (slot, stage) in req.stages.iter().enumerate() {
            let Some(stage) = stage else { continue };
            let release = if prev.is_none() { arrival } else { 0.0 };
            let upload = staging_ms(
                &mut seen,
                (
                    &*req.model,
                    stage.proc.index(),
                    stage.range.first,
                    stage.range.last,
                ),
                stage.footprint_bytes,
            );
            if stage.runs.is_empty() {
                // Homogeneous stage: one task.
                let mut spec = TaskSpec::new(
                    TaskLabel::stage(req.model.clone(), req.request, slot),
                    stage.proc,
                    stage.total_ms() + upload,
                )
                .intensity(stage.intensity)
                .sensitivity(sensitivity(stage.intensity))
                .bandwidth(stage.bandwidth_gbps)
                .footprint(stage.footprint_bytes)
                .release(release);
                if let Some(p) = prev {
                    spec = spec.after(p);
                }
                prev = Some(sim.add_task(spec));
            } else {
                // Operator-fallback stage: one chained task per run, so
                // the fallback CPU genuinely gets occupied (and contended)
                // while the NPU waits — Band's fallback weakness.
                for (ri, run) in stage.runs.iter().enumerate() {
                    let ms = run.ms
                        + if ri == 0 {
                            stage.copy_in_ms + upload
                        } else {
                            0.0
                        };
                    let mut spec = TaskSpec::new(
                        TaskLabel::fallback_run(req.model.clone(), req.request, slot, ri),
                        run.proc,
                        ms,
                    )
                    .intensity(stage.intensity)
                    .sensitivity(sensitivity(stage.intensity))
                    .bandwidth(stage.bandwidth_gbps)
                    .footprint(if ri == 0 { stage.footprint_bytes } else { 0 })
                    .release(if ri == 0 { release } else { 0.0 });
                    if let Some(p) = prev {
                        spec = spec.after(p);
                    }
                    prev = Some(sim.add_task(spec));
                }
            }
        }
        // A request with no tasks would fall out of the latency map as a
        // phantom 0 ms completion; refuse to execute such a plan.
        if prev.is_none() {
            return Err(PlanError::EmptyRequest {
                model: req.model.to_string(),
                request: req.request,
            });
        }
        final_task[req.request] = prev;
    }

    Ok(LoweredPlan {
        sim,
        final_task,
        executed_requests: plan.requests.len(),
    })
}

/// Builds the [`ExecutionReport`] from a finished trace.
fn assemble_report(
    trace: Trace,
    final_task: &[Option<TaskId>],
    executed_requests: usize,
) -> ExecutionReport {
    let makespan_ms = trace.makespan_ms();
    let request_latency_ms: Vec<f64> = final_task
        .iter()
        .map(|t| {
            t.and_then(|id| trace.span(id.index()).map(|s| s.end_ms))
                .unwrap_or(0.0)
        })
        .collect();
    let executed = executed_requests as f64;
    let throughput_per_sec = if makespan_ms > 0.0 {
        executed * 1000.0 / makespan_ms
    } else {
        0.0
    };
    let mean_slowdown = if trace.spans.is_empty() {
        0.0
    } else {
        trace.spans.iter().map(|s| s.slowdown()).sum::<f64>() / trace.spans.len() as f64
    };
    let measured_bubble_ms = trace.idle_bubble_ms();
    ExecutionReport {
        trace,
        makespan_ms,
        throughput_per_sec,
        request_latency_ms,
        measured_bubble_ms,
        mean_slowdown,
    }
}

/// Arrival-relative response times: completion − arrival per request.
/// Requests without an arrival entry are treated as arriving at 0.
pub fn response_times(report: &ExecutionReport, arrivals: &[f64]) -> Vec<f64> {
    report
        .request_latency_ms
        .iter()
        .enumerate()
        .map(|(i, &done)| (done - arrivals.get(i).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

impl PlannedPipeline {
    /// Convenience: executes this planned pipeline on `soc`.
    ///
    /// # Errors
    ///
    /// See [`execute`].
    pub fn execute(&self, soc: &SocSpec) -> Result<ExecutionReport, PlanError> {
        execute(&self.plan, soc)
    }

    /// Convenience: executes with per-request arrival times.
    ///
    /// # Errors
    ///
    /// See [`execute_with_arrivals`].
    pub fn execute_with_arrivals(
        &self,
        soc: &SocSpec,
        arrivals: &[f64],
    ) -> Result<ExecutionReport, PlanError> {
        execute_with_arrivals(&self.plan, soc, arrivals)
    }

    /// Convenience: lowers this planned pipeline onto a simulation of
    /// `soc` without running it.
    ///
    /// # Errors
    ///
    /// See [`lower`].
    pub fn lower<'soc>(&self, soc: &'soc SocSpec) -> Result<LoweredPlan<'soc>, PlanError> {
        lower(&self.plan, soc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use h2p_models::zoo::ModelId;

    fn run(ids: &[ModelId]) -> ExecutionReport {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner.plan_models(ids).unwrap();
        planned.execute(&soc).unwrap()
    }

    #[test]
    fn single_model_executes_to_completion() {
        let r = run(&[ModelId::ResNet50]);
        assert!(r.makespan_ms > 0.0);
        assert_eq!(r.request_latency_ms.len(), 1);
        assert!(r.request_latency_ms[0] > 0.0);
        assert!(r.throughput_per_sec > 0.0);
    }

    #[test]
    fn all_requests_complete_in_multi_model_runs() {
        let ids = [
            ModelId::Vgg16,
            ModelId::SqueezeNet,
            ModelId::Bert,
            ModelId::MobileNetV2,
        ];
        let r = run(&ids);
        assert_eq!(r.request_latency_ms.len(), ids.len());
        for (i, &lat) in r.request_latency_ms.iter().enumerate() {
            assert!(lat > 0.0, "request {i} never completed");
            assert!(lat <= r.makespan_ms + 1e-9);
        }
    }

    #[test]
    fn pipelining_beats_adding_latencies() {
        // The pipeline overlaps stages, so the makespan must be well under
        // the sum of the requests' individual traversal latencies run
        // back-to-back... unless interference dominates; use a mix with an
        // NPU-friendly majority.
        let ids = [
            ModelId::ResNet50,
            ModelId::MobileNetV2,
            ModelId::GoogLeNet,
            ModelId::AlexNet,
        ];
        let r = run(&ids);
        let sum: f64 = r.request_latency_ms.iter().sum();
        assert!(
            r.makespan_ms < sum,
            "pipeline overlap: makespan {} vs serial-ish sum {}",
            r.makespan_ms,
            sum
        );
    }

    #[test]
    fn request_latencies_are_monotone_in_position() {
        let ids = [
            ModelId::MobileNetV2,
            ModelId::MobileNetV2,
            ModelId::MobileNetV2,
        ];
        let r = run(&ids);
        // Identical models in a FIFO pipeline finish in order.
        let mut latencies = r.request_latency_ms.clone();
        let sorted = {
            let mut s = latencies.clone();
            s.sort_by(f64::total_cmp);
            s
        };
        latencies.sort_by(f64::total_cmp);
        assert_eq!(latencies, sorted);
    }

    #[test]
    fn execution_is_deterministic() {
        let ids = [ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit];
        let a = run(&ids);
        let b = run(&ids);
        assert_eq!(a.trace.spans, b.trace.spans);
    }

    /// Regression: a request whose stage slots are all `None` used to
    /// fall through lowering with no tasks and report a phantom latency
    /// of 0 ms via `unwrap_or(0.0)` — breaking the `lat > 0` contract
    /// every caller relies on. It must be rejected instead.
    #[test]
    fn all_none_request_is_rejected_not_zero_latency() {
        use crate::plan::{PipelinePlan, RequestPlan};
        use h2p_contention::ContentionClass;

        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner.plan_models(&[ModelId::MobileNetV2]).unwrap();
        let mut plan: PipelinePlan = planned.plan.clone();
        plan.requests.push(RequestPlan {
            request: 1,
            model: "phantom".into(),
            stages: vec![None; plan.procs.len()],
            intensity: 0.0,
            class: ContentionClass::Low,
        });
        let err = execute(&plan, &soc).expect_err("zero-task request must not execute");
        match err {
            PlanError::EmptyRequest { model, request } => {
                assert_eq!(model, "phantom");
                assert_eq!(request, 1);
            }
            other => panic!("expected EmptyRequest, got {other:?}"),
        }
    }

    #[test]
    fn logged_execution_matches_plain_execution() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner
            .plan_models(&[ModelId::MobileNetV2, ModelId::SqueezeNet])
            .unwrap();
        let plain = planned.execute(&soc).unwrap();
        let (logged, events) = planned.lower(&soc).unwrap().execute_logged().unwrap();
        assert_eq!(plain.trace.spans, logged.trace.spans);
        assert!(!events.is_empty());
        // One start and one finish event per span.
        let starts = events
            .iter()
            .filter(|e| matches!(e, h2p_simulator::EngineEvent::Start { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, h2p_simulator::EngineEvent::Finish { .. }))
            .count();
        assert_eq!(starts, logged.trace.spans.len());
        assert_eq!(finishes, logged.trace.spans.len());
    }

    #[test]
    fn lowered_traces_audit_clean() {
        // The debug-build gate inside `execute` checks this implicitly;
        // check it explicitly so release test runs cover it too.
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner
            .plan_models(&[ModelId::ResNet50, ModelId::Bert, ModelId::MobileNetV2])
            .unwrap();
        let lowered = planned.lower(&soc).unwrap();
        let tasks = lowered.simulation().tasks().to_vec();
        let (report, _) = lowered.execute_logged().unwrap();
        let audit = h2p_simulator::audit::audit(&soc, &tasks, &report.trace);
        assert!(
            audit.is_clean(),
            "planned workload must audit clean:\n{audit}"
        );
    }

    #[test]
    fn request_slices_envelope_every_request() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner
            .plan_models(&[ModelId::MobileNetV2, ModelId::SqueezeNet, ModelId::Bert])
            .unwrap();
        let r = planned.execute(&soc).unwrap();
        let slices = request_slices(&r.trace);
        assert_eq!(slices.len(), 3);
        for (i, slice) in slices.iter().enumerate() {
            let (start, end) = slice.expect("every request has spans");
            assert!(start < end, "request {i}");
            assert!(
                (end - r.request_latency_ms[i]).abs() < 1e-9,
                "request {i} envelope ends at its completion time"
            );
        }
    }

    #[test]
    fn sensitivity_grows_with_intensity_but_saturates() {
        assert!(sensitivity(0.0) < sensitivity(1.0));
        assert_eq!(sensitivity(2.0), sensitivity(5.0));
    }

    #[test]
    fn arrivals_delay_and_response_times_subtract() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner
            .plan_models(&[ModelId::MobileNetV2, ModelId::SqueezeNet])
            .unwrap();
        let arrivals = [0.0, 500.0];
        let r = planned.execute_with_arrivals(&soc, &arrivals).unwrap();
        // Request 1 cannot finish before its arrival.
        assert!(r.request_latency_ms[1] > 500.0);
        let resp = response_times(&r, &arrivals);
        assert!((resp[1] - (r.request_latency_ms[1] - 500.0)).abs() < 1e-9);
        // A spaced-out stream has higher makespan than the batch run.
        let batch = planned.execute(&soc).unwrap();
        assert!(r.makespan_ms >= batch.makespan_ms);
    }

    #[test]
    fn repeat_placements_skip_weight_staging() {
        // Two identical requests: the second run of each stage placement
        // reuses resident weights, so its stage spans are shorter.
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let planned = planner
            .plan_models(&[ModelId::ResNet50, ModelId::ResNet50])
            .unwrap();
        let r = planned.execute(&soc).unwrap();
        // Group spans per (slot) for the two requests and compare the
        // first occurrence against the second on the same processor with
        // the same label suffix.
        let first: Vec<_> = r
            .trace
            .spans
            .iter()
            .filter(|s| s.label.request() == Some(0))
            .collect();
        let second: Vec<_> = r
            .trace
            .spans
            .iter()
            .filter(|s| s.label.request() == Some(1))
            .collect();
        let sum =
            |v: &[&h2p_simulator::timeline::Span]| -> f64 { v.iter().map(|s| s.solo_ms).sum() };
        assert!(
            sum(&second) < sum(&first),
            "second instance must skip staging: {} vs {}",
            sum(&second),
            sum(&first)
        );
    }
}
