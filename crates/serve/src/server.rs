//! The deterministic virtual-time serving loop.
//!
//! One [`Server`] binds a planner, a calibration, and a dispatch
//! window to an SoC; each [`Server::run`] plays a seeded arrival
//! stream through admission → queue → shed → batch → plan → execute,
//! entirely on the virtual clock. The loop is single-threaded and
//! event-driven: the executor is busy for the makespan of each
//! dispatched batch, arrivals that land during a busy interval are
//! admitted at their own timestamps against the queue state the
//! executor left behind, and shedding runs at every dispatch instant
//! before the next batch is cut.
//!
//! Every request ends in exactly one typed [`ServeOutcome`]; the run
//! re-checks that (and the queue/retry bounds and the lifecycle
//! grammar) in [`ServeReport::verify_invariants`].

use h2p_models::zoo::ModelId;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::{LatencyProfile, SloEntry, SloSummary};
use h2p_telemetry::lifecycle::{
    validate, LifecycleEvent, LifecycleStage, QosClass, RequestId, TraceId,
};
use hetero2pipe::batching::{coalesce, graphs_for_groups};
use hetero2pipe::error::PlanError;
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{chaos_faults, run_with_recovery, RecoveryOutcome, RecoveryPolicy};

use crate::admission::{AdmissionControl, Calibration};
use crate::class_index;
use crate::loadgen::{generate_arrivals, Arrival};
use crate::queue::{AdmitQueue, QueuedRequest};

/// Tolerance when comparing latencies against deadlines.
const DEADLINE_EPS: f64 = 1e-9;

/// Typed backpressure: why admission turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request's class queue is at its depth limit.
    QueueFull,
    /// The backlog estimate says the deadline cannot be met even if
    /// admitted now.
    DeadlineInfeasible,
    /// The class token bucket is empty: offered rate exceeds the
    /// class's sustainable service rate.
    Shedding,
}

impl RejectReason {
    /// Stable lowercase tag used in lifecycle reasons and reports.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineInfeasible => "deadline_infeasible",
            RejectReason::Shedding => "shedding",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The one typed terminal outcome every generated request reaches.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// Completed within its deadline; end-to-end latency from arrival.
    Complete { latency_ms: f64 },
    /// Completed, but after its deadline.
    TimedOut { latency_ms: f64, deadline_ms: f64 },
    /// Admitted but abandoned with a typed reason (execution faults
    /// exhausted recovery, or the dispatch itself failed repeatedly).
    Degraded { reason: String },
    /// Turned away by admission control; never admitted.
    Rejected { reason: RejectReason },
    /// Admitted, then evicted by deadline-aware load shedding after
    /// waiting `waited_ms` in the queue.
    Shed { waited_ms: f64 },
}

impl ServeOutcome {
    /// Stable lowercase tag for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeOutcome::Complete { .. } => "complete",
            ServeOutcome::TimedOut { .. } => "timed_out",
            ServeOutcome::Degraded { .. } => "degraded",
            ServeOutcome::Rejected { .. } => "rejected",
            ServeOutcome::Shed { .. } => "shed",
        }
    }
}

/// One request's full story: identity, class, deadline basis, and the
/// typed terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    pub id: usize,
    pub model: ModelId,
    pub class: QosClass,
    pub arrival_ms: f64,
    /// Calibration solo estimate (the shedding threshold).
    pub solo_ms: f64,
    /// Deadline relative to arrival.
    pub deadline_ms: f64,
    pub outcome: ServeOutcome,
}

/// Outcome tally across one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    pub complete: usize,
    pub timed_out: usize,
    pub degraded: usize,
    pub rejected_queue_full: usize,
    pub rejected_deadline_infeasible: usize,
    pub rejected_shedding: usize,
    pub shed: usize,
}

impl OutcomeCounts {
    fn tally(records: &[RequestRecord]) -> Self {
        let mut c = OutcomeCounts::default();
        for r in records {
            match &r.outcome {
                ServeOutcome::Complete { .. } => c.complete += 1,
                ServeOutcome::TimedOut { .. } => c.timed_out += 1,
                ServeOutcome::Degraded { .. } => c.degraded += 1,
                ServeOutcome::Rejected { reason } => match reason {
                    RejectReason::QueueFull => c.rejected_queue_full += 1,
                    RejectReason::DeadlineInfeasible => c.rejected_deadline_infeasible += 1,
                    RejectReason::Shedding => c.rejected_shedding += 1,
                },
                ServeOutcome::Shed { .. } => c.shed += 1,
            }
        }
        c
    }

    /// All rejections, across reasons.
    pub fn rejected(&self) -> usize {
        self.rejected_queue_full + self.rejected_deadline_infeasible + self.rejected_shedding
    }

    /// Every terminal outcome; equals the generated request count when
    /// no request was lost.
    pub fn total(&self) -> usize {
        self.complete + self.timed_out + self.degraded + self.rejected() + self.shed
    }

    /// Fraction of offered requests turned away (rejected or shed).
    pub fn rejection_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.rejected() + self.shed) as f64 / self.total() as f64
        }
    }

    /// Fraction of requests with deadlines that missed them (timed out
    /// or never finished after admission).
    pub fn deadline_miss_rate(&self) -> f64 {
        let admitted = self.complete + self.timed_out + self.degraded + self.shed;
        if admitted == 0 {
            0.0
        } else {
            (self.timed_out + self.degraded + self.shed) as f64 / admitted as f64
        }
    }
}

/// One serve run's parameters. The seed drives *all* randomness
/// (arrival stream and chaos fault scripts); two runs with the same
/// config produce bit-identical reports.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Offered load, requests per second of virtual time.
    pub qps: f64,
    /// Number of generated requests.
    pub requests: usize,
    pub seed: u64,
    /// Batching cap for adjacent identical lightweight models.
    pub max_batch: u32,
    /// Inject seeded faults and execute through the recovery runner.
    pub chaos: bool,
    /// Retry/backoff/deadline budgets, shared with the recovery layer.
    pub policy: RecoveryPolicy,
    /// SLO error budget for the report's burn-rate accounting.
    pub slo_budget: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            qps: 50.0,
            requests: 64,
            seed: 42,
            max_batch: 8,
            chaos: false,
            policy: RecoveryPolicy::default(),
            slo_budget: SloSummary::DEFAULT_BUDGET,
        }
    }
}

/// Everything a serve run produced, plus the bounds it ran under so
/// [`ServeReport::verify_invariants`] is self-contained.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub qps: f64,
    pub seed: u64,
    pub chaos: bool,
    pub window: usize,
    /// Run-level trace id over the generated model stream.
    pub trace: TraceId,
    /// One record per generated request, in arrival order.
    pub records: Vec<RequestRecord>,
    pub counts: OutcomeCounts,
    /// End-to-end latency profile over served requests (complete and
    /// timed-out); `None` when nothing was served.
    pub latency: Option<LatencyProfile>,
    /// Per-class SLO accounting over admitted requests.
    pub slo: Vec<SloSummary>,
    /// Queue depth limits the run enforced, per class.
    pub queue_limits: [usize; 3],
    /// High-water total queue depth observed.
    pub max_queue_depth: usize,
    /// High-water per-class queue depths observed.
    pub max_class_depth: [usize; 3],
    /// Deepest dispatch retry chain used.
    pub max_dispatch_retries: usize,
    /// The configured retry bound those chains must respect.
    pub retry_limit: usize,
    /// Number of batches dispatched.
    pub dispatches: usize,
    /// Virtual-time horizon: the last recorded event instant.
    pub horizon_ms: f64,
    /// Served (complete + timed-out) requests per second of horizon.
    pub served_per_sec: f64,
    /// The full lifecycle stream (admit/reject/shed/plan/window/
    /// execute/recover/degrade/complete), seq-ordered. The run records
    /// it here directly, so it is whole however long the run, unlike
    /// the planner's windowed log.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Accounting anomalies observed while the run recorded outcomes
    /// (always empty unless the loop itself is broken).
    pub anomalies: Vec<String>,
}

impl ServeReport {
    /// Renders the lifecycle stream as event-log JSONL lines (the
    /// format `h2p report --from` ingests).
    pub fn json_event_lines(&self) -> Vec<String> {
        self.lifecycle
            .iter()
            .map(LifecycleEvent::json_line)
            .collect()
    }

    /// Re-checks the robustness invariants from the recorded evidence:
    ///
    /// 1. every generated request reached exactly one typed terminal
    ///    outcome (no silent loss, no double accounting);
    /// 2. the lifecycle stream validates against the causal grammar,
    ///    and each request carries exactly one terminal event whose
    ///    kind matches its outcome;
    /// 3. observed queue depths never exceeded the configured limits;
    /// 4. dispatch retry chains stayed within the retry bound;
    /// 5. completions beat their deadlines and timeouts missed theirs.
    ///
    /// Returns human-readable violations; empty means the run upheld
    /// every invariant.
    pub fn verify_invariants(&self) -> Vec<String> {
        let mut v: Vec<String> = self.anomalies.clone();
        if self.counts.total() != self.records.len() {
            v.push(format!(
                "outcome tally {} != generated requests {}",
                self.counts.total(),
                self.records.len()
            ));
        }
        for violation in validate(&self.lifecycle) {
            v.push(format!("lifecycle: {violation}"));
        }
        let mut terminals = vec![0usize; self.records.len()];
        for e in &self.lifecycle {
            if e.stage.is_terminal() {
                if let Some(t) = terminals.get_mut(e.request.0) {
                    *t += 1;
                } else {
                    v.push(format!("lifecycle names unknown request {}", e.request));
                }
            }
        }
        for (r, &t) in self.records.iter().zip(&terminals) {
            if t != 1 {
                v.push(format!(
                    "request {} has {t} terminal lifecycle events (outcome {})",
                    r.id,
                    r.outcome.kind()
                ));
            }
        }
        for (c, (&seen, &limit)) in self
            .max_class_depth
            .iter()
            .zip(&self.queue_limits)
            .enumerate()
        {
            if seen > limit {
                v.push(format!(
                    "class {c} queue depth reached {seen}, limit {limit}"
                ));
            }
        }
        let total_limit: usize = self.queue_limits.iter().sum();
        if self.max_queue_depth > total_limit {
            v.push(format!(
                "total queue depth reached {}, limit {total_limit}",
                self.max_queue_depth
            ));
        }
        if self.max_dispatch_retries > self.retry_limit {
            v.push(format!(
                "dispatch retries reached {}, bound {}",
                self.max_dispatch_retries, self.retry_limit
            ));
        }
        for r in &self.records {
            match &r.outcome {
                ServeOutcome::Complete { latency_ms }
                    if *latency_ms > r.deadline_ms + DEADLINE_EPS =>
                {
                    v.push(format!(
                        "request {} completed late ({latency_ms:.3} ms > deadline {:.3} ms) but was not marked timed out",
                        r.id, r.deadline_ms
                    ));
                }
                ServeOutcome::TimedOut {
                    latency_ms,
                    deadline_ms,
                } if *latency_ms <= *deadline_ms + DEADLINE_EPS => {
                    v.push(format!(
                        "request {} marked timed out but met its deadline",
                        r.id
                    ));
                }
                _ => {}
            }
        }
        v
    }
}

/// Outcome of executing one dispatched batch group.
enum GroupResult {
    Done { latency_ms: f64 },
    Failed { reason: String },
}

/// The lifecycle stream one run records and its report returns: every
/// event carries the run's trace id, and its `seq` is its index.
struct Stream {
    trace: TraceId,
    events: Vec<LifecycleEvent>,
}

impl Stream {
    fn record(&mut self, request: usize, at_ms: f64, stage: LifecycleStage) {
        self.events.push(LifecycleEvent {
            trace: self.trace,
            request: RequestId(request),
            seq: self.events.len() as u64,
            at_ms,
            stage,
        });
    }
}

/// Records a terminal outcome exactly once; a second write is an
/// accounting anomaly, reported instead of silently overwriting.
fn set_outcome(
    outcomes: &mut [Option<ServeOutcome>],
    anomalies: &mut Vec<String>,
    id: usize,
    outcome: ServeOutcome,
) {
    match outcomes.get_mut(id) {
        Some(slot @ None) => *slot = Some(outcome),
        Some(Some(prev)) => anomalies.push(format!(
            "request {id} received a second terminal outcome {} after {}",
            outcome.kind(),
            prev.kind()
        )),
        None => anomalies.push(format!("terminal outcome for unknown request {id}")),
    }
}

/// A serving front-end bound to one SoC: the online planner (with its
/// window-plan cache shared across runs), the calibration, and the
/// dispatch window.
pub struct Server {
    online: OnlinePlanner,
    calibration: Calibration,
    window: usize,
}

impl Server {
    /// Builds a server over `soc` dispatching batches of up to
    /// `window` requests (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the planner cannot be constructed for
    /// `soc`.
    pub fn new(soc: &SocSpec, window: usize) -> Result<Self, PlanError> {
        let window = window.max(1);
        let online = OnlinePlanner::new(Planner::new(soc)?, window);
        let mut calibration = Calibration::new(soc);
        // Measured calibration pass: execute each zoo model alone once
        // and replace the roofline solo estimate with the simulator's
        // makespan, so the deadlines admission derives are achievable
        // by a solo run. This also pre-warms the window-plan cache
        // with every single-model window.
        for id in ModelId::ALL {
            let planned = online.plan_incremental(&[id.graph()])?;
            let exec = planned.execute(soc)?;
            calibration.refine_solo(id, exec.makespan_ms);
        }
        Ok(Server {
            online,
            calibration,
            window,
        })
    }

    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    pub fn window(&self) -> usize {
        self.window
    }

    /// Plays one seeded arrival stream through the serving loop.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] only for structural failures the retry
    /// loop cannot absorb (e.g. the simulator rejecting a lowered
    /// graph); load-induced failures are typed outcomes, not errors.
    pub fn run(&self, cfg: &ServeConfig) -> Result<ServeReport, PlanError> {
        let arrivals = generate_arrivals(cfg.seed, cfg.qps, cfg.requests);
        let trace = TraceId::of_names(arrivals.iter().map(|a| a.model.name()));
        let mut admission = AdmissionControl::new(&self.calibration, self.window, cfg.slo_budget);
        let mut queue = AdmitQueue::new(admission.limits());
        let mut stream = Stream {
            trace,
            events: Vec::new(),
        };
        let mut outcomes: Vec<Option<ServeOutcome>> = vec![None; arrivals.len()];
        let mut anomalies: Vec<String> = Vec::new();

        let mut idle_at = 0.0f64;
        let mut next = 0usize;
        let mut dispatches = 0usize;
        let mut max_dispatch_retries = 0usize;

        while next < arrivals.len() || !queue.is_empty() {
            // Admit everything that arrived while the executor was
            // busy, at each request's own arrival instant.
            while next < arrivals.len() && arrivals[next].arrival_ms <= idle_at {
                self.admit(
                    &arrivals[next],
                    idle_at,
                    &mut admission,
                    &mut queue,
                    &mut stream,
                    &mut outcomes,
                    &mut anomalies,
                );
                next += 1;
            }
            if queue.is_empty() {
                let Some(a) = arrivals.get(next) else { break };
                // Idle: jump the clock to the next arrival.
                idle_at = a.arrival_ms;
                continue;
            }
            let now = idle_at;
            // Shed before cutting the batch: evict queued requests
            // whose remaining slack no longer covers their solo path.
            for q in queue.shed_expired(now) {
                stream.record(
                    q.id,
                    now,
                    LifecycleStage::Shed {
                        reason: "slack_below_solo".to_owned(),
                    },
                );
                set_outcome(
                    &mut outcomes,
                    &mut anomalies,
                    q.id,
                    ServeOutcome::Shed {
                        waited_ms: now - q.arrival_ms,
                    },
                );
            }
            let batch = queue.pop_batch(self.window);
            if batch.is_empty() {
                continue;
            }
            dispatches += 1;
            idle_at = self.dispatch(
                &batch,
                now,
                cfg,
                dispatches,
                &mut stream,
                &mut outcomes,
                &mut anomalies,
                &mut max_dispatch_retries,
            )?;
        }

        let (max_queue_depth, max_class_depth) = queue.high_water();
        let records: Vec<RequestRecord> = arrivals
            .iter()
            .zip(outcomes)
            .map(|(a, o)| {
                let outcome = match o {
                    Some(o) => o,
                    None => {
                        anomalies.push(format!("request {} has no terminal outcome", a.id));
                        ServeOutcome::Degraded {
                            reason: "unaccounted".to_owned(),
                        }
                    }
                };
                RequestRecord {
                    id: a.id,
                    model: a.model,
                    class: self.calibration.class(a.model),
                    arrival_ms: a.arrival_ms,
                    solo_ms: self.calibration.solo_ms(a.model),
                    deadline_ms: self.calibration.deadline_ms(a.model),
                    outcome,
                }
            })
            .collect();
        let counts = OutcomeCounts::tally(&records);
        let served: Vec<f64> = records
            .iter()
            .filter_map(|r| match &r.outcome {
                ServeOutcome::Complete { latency_ms }
                | ServeOutcome::TimedOut { latency_ms, .. } => Some(*latency_ms),
                _ => None,
            })
            .collect();
        let slo_entries: Vec<SloEntry> = records
            .iter()
            .filter_map(|r| match &r.outcome {
                ServeOutcome::Rejected { .. } => None,
                ServeOutcome::Complete { latency_ms }
                | ServeOutcome::TimedOut { latency_ms, .. } => Some(SloEntry {
                    class: r.class,
                    latency_ms: Some(*latency_ms),
                    deadline_ms: Some(r.deadline_ms),
                }),
                ServeOutcome::Degraded { .. } | ServeOutcome::Shed { .. } => Some(SloEntry {
                    class: r.class,
                    latency_ms: None,
                    deadline_ms: Some(r.deadline_ms),
                }),
            })
            .collect();
        let lifecycle = stream.events;
        let horizon_ms = lifecycle
            .iter()
            .map(|e| e.at_ms)
            .fold(0.0f64, f64::max)
            .max(arrivals.last().map_or(0.0, |a| a.arrival_ms));
        let served_per_sec = if horizon_ms > 0.0 {
            served.len() as f64 / (horizon_ms / 1000.0)
        } else {
            0.0
        };
        Ok(ServeReport {
            qps: cfg.qps,
            seed: cfg.seed,
            chaos: cfg.chaos,
            window: self.window,
            trace,
            counts,
            latency: LatencyProfile::compute(&served),
            slo: SloSummary::compute(&slo_entries, cfg.slo_budget),
            queue_limits: queue.limits(),
            max_queue_depth,
            max_class_depth,
            max_dispatch_retries,
            retry_limit: cfg.policy.max_retries,
            dispatches,
            horizon_ms,
            served_per_sec,
            lifecycle,
            anomalies,
            records,
        })
    }

    /// Admission decision for one arrival, at its arrival instant.
    /// Checks run cheapest-structural first: depth limit, then
    /// deadline feasibility against the backlog estimate, then the
    /// class token bucket.
    #[expect(
        clippy::too_many_arguments,
        reason = "takes `Server::run`'s loop state (queue, stream, outcomes, \
                  anomalies) as separate borrows"
    )]
    fn admit(
        &self,
        a: &Arrival,
        idle_at: f64,
        admission: &mut AdmissionControl,
        queue: &mut AdmitQueue,
        stream: &mut Stream,
        outcomes: &mut [Option<ServeOutcome>],
        anomalies: &mut Vec<String>,
    ) {
        let now = a.arrival_ms;
        let class = self.calibration.class(a.model);
        let solo = self.calibration.solo_ms(a.model);
        let deadline = self.calibration.deadline_ms(a.model);
        let busy_wait = (idle_at - now).max(0.0);
        let verdict = if queue.class_depth(class) >= queue.limits()[class_index(class)] {
            Err(RejectReason::QueueFull)
        } else if busy_wait + queue.backlog_solo_ms() + solo > deadline {
            Err(RejectReason::DeadlineInfeasible)
        } else if !admission.try_take_token(class, now) {
            Err(RejectReason::Shedding)
        } else {
            queue
                .try_admit(QueuedRequest {
                    id: a.id,
                    model: a.model,
                    class,
                    arrival_ms: now,
                    solo_ms: solo,
                    deadline_ms: deadline,
                })
                .map_err(|_| RejectReason::QueueFull)
        };
        match verdict {
            Ok(()) => stream.record(a.id, now, LifecycleStage::Admit),
            Err(reason) => {
                stream.record(
                    a.id,
                    now,
                    LifecycleStage::Reject {
                        reason: reason.name().to_owned(),
                    },
                );
                set_outcome(outcomes, anomalies, a.id, ServeOutcome::Rejected { reason });
            }
        }
    }

    /// Executes one batch at `start0`, retrying whole-dispatch
    /// failures on the recovery backoff schedule up to the policy's
    /// retry bound. Returns the instant the executor becomes idle.
    #[expect(
        clippy::too_many_arguments,
        reason = "takes `Server::run`'s loop state (queue, stream, outcomes, \
                  anomalies) as separate borrows"
    )]
    fn dispatch(
        &self,
        batch: &[QueuedRequest],
        start0: f64,
        cfg: &ServeConfig,
        dispatch_idx: usize,
        stream: &mut Stream,
        outcomes: &mut [Option<ServeOutcome>],
        anomalies: &mut Vec<String>,
        max_dispatch_retries: &mut usize,
    ) -> Result<f64, PlanError> {
        let ids: Vec<ModelId> = batch.iter().map(|q| q.model).collect();
        let groups = coalesce(&ids, cfg.max_batch);
        let graphs = graphs_for_groups(&groups);
        for q in batch {
            stream.record(q.id, start0, LifecycleStage::Plan);
            stream.record(
                q.id,
                start0,
                LifecycleStage::Window {
                    window: dispatch_idx,
                },
            );
        }
        let mut attempt = 0usize;
        let mut start = start0;
        loop {
            let executed = if cfg.chaos {
                self.execute_chaos(&graphs, cfg, dispatch_idx)
            } else {
                self.execute_planned(&graphs)
            };
            match executed {
                Ok((results, busy_ms)) => {
                    let mut member = 0usize;
                    for (group, result) in groups.iter().zip(&results) {
                        for _ in 0..group.batch {
                            let q = &batch[member];
                            member += 1;
                            stream.record(q.id, start, LifecycleStage::Execute);
                            match result {
                                GroupResult::Done { latency_ms } => {
                                    let finish = start + latency_ms;
                                    let e2e = finish - q.arrival_ms;
                                    stream.record(
                                        q.id,
                                        finish,
                                        LifecycleStage::Complete { latency_ms: e2e },
                                    );
                                    let outcome = if e2e > q.deadline_ms + DEADLINE_EPS {
                                        ServeOutcome::TimedOut {
                                            latency_ms: e2e,
                                            deadline_ms: q.deadline_ms,
                                        }
                                    } else {
                                        ServeOutcome::Complete { latency_ms: e2e }
                                    };
                                    set_outcome(outcomes, anomalies, q.id, outcome);
                                }
                                GroupResult::Failed { reason } => {
                                    stream.record(
                                        q.id,
                                        start + busy_ms,
                                        LifecycleStage::Degrade {
                                            reason: reason.clone(),
                                        },
                                    );
                                    set_outcome(
                                        outcomes,
                                        anomalies,
                                        q.id,
                                        ServeOutcome::Degraded {
                                            reason: reason.clone(),
                                        },
                                    );
                                }
                            }
                        }
                    }
                    return Ok(start + busy_ms);
                }
                Err(e) if attempt < cfg.policy.max_retries => {
                    attempt += 1;
                    *max_dispatch_retries = (*max_dispatch_retries).max(attempt);
                    let delay = cfg.policy.backoff_ms(attempt);
                    for q in batch {
                        stream.record(q.id, start, LifecycleStage::Recover { round: attempt });
                    }
                    let _ = e;
                    start += delay;
                }
                Err(e) => {
                    let reason = format!("dispatch_failed: {e}");
                    for q in batch {
                        stream.record(
                            q.id,
                            start,
                            LifecycleStage::Degrade {
                                reason: reason.clone(),
                            },
                        );
                        set_outcome(
                            outcomes,
                            anomalies,
                            q.id,
                            ServeOutcome::Degraded {
                                reason: reason.clone(),
                            },
                        );
                    }
                    return Ok(start);
                }
            }
        }
    }

    /// Fault-free execution: incremental window planning — a dispatch
    /// that hits the window cache shares the memoized plan — then the
    /// contention simulator.
    fn execute_planned(
        &self,
        graphs: &[h2p_models::graph::ModelGraph],
    ) -> Result<(Vec<GroupResult>, f64), PlanError> {
        let planned = self.online.plan_shared(graphs)?;
        let exec = planned.execute(self.online.planner().soc())?;
        let results = exec
            .request_latency_ms
            .iter()
            .map(|&l| GroupResult::Done { latency_ms: l })
            .collect();
        Ok((results, exec.makespan_ms))
    }

    /// Chaos execution: a seeded fault script per dispatch, run
    /// through the recovery machinery. Per-group completion latencies
    /// come from the recovery report; groups the runner could not
    /// finish degrade with the typed outcome.
    fn execute_chaos(
        &self,
        graphs: &[h2p_models::graph::ModelGraph],
        cfg: &ServeConfig,
        dispatch_idx: usize,
    ) -> Result<(Vec<GroupResult>, f64), PlanError> {
        let planner = self.online.planner();
        let fault_seed = cfg
            .seed
            .wrapping_add((dispatch_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let faults = chaos_faults(planner.soc(), graphs.len(), fault_seed);
        // The runner also records the dispatch's lifecycle on the
        // planner's shared log, which this loop never reads: it keeps
        // its own stream. Clearing that log per dispatch holds it to one
        // dispatch's events instead of a full window of 4,096.
        planner.telemetry().lifecycle.clear();
        let report = run_with_recovery(planner, graphs, &faults, &cfg.policy)?;
        let reason = |outcome: &RecoveryOutcome| match outcome {
            RecoveryOutcome::Recovered => "recovery_incomplete".to_owned(),
            RecoveryOutcome::Degraded(e) => format!("{e}"),
        };
        let results = report
            .completed
            .iter()
            .zip(&report.latency_ms)
            .map(|(&done, latency)| {
                if done {
                    GroupResult::Done {
                        latency_ms: latency.unwrap_or(report.elapsed_ms),
                    }
                } else {
                    GroupResult::Failed {
                        reason: reason(&report.outcome),
                    }
                }
            })
            .collect();
        Ok((results, report.elapsed_ms.max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(&SocSpec::kirin_990(), 4).expect("planner builds")
    }

    #[test]
    fn light_load_completes_everything_with_clean_invariants() {
        let srv = server();
        // Sparse enough that every request is served alone: no
        // busy-wait, so admission never has grounds to refuse.
        let cfg = ServeConfig {
            qps: 0.2,
            requests: 12,
            ..ServeConfig::default()
        };
        let report = srv.run(&cfg).expect("runs");
        assert_eq!(report.counts.total(), 12);
        assert_eq!(report.counts.rejected(), 0, "{:?}", report.counts);
        assert_eq!(
            report.counts.complete + report.counts.timed_out,
            12,
            "{:?}",
            report.counts
        );
        let violations = report.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
        assert!(report.latency.is_some());
        assert!(report.served_per_sec > 0.0);
    }

    #[test]
    fn overload_rejects_with_typed_reasons_and_stays_bounded() {
        let srv = server();
        let cfg = ServeConfig {
            qps: 5000.0,
            requests: 48,
            ..ServeConfig::default()
        };
        let report = srv.run(&cfg).expect("runs");
        assert_eq!(report.counts.total(), 48);
        assert!(
            report.counts.rejected() + report.counts.shed > 0,
            "overload must engage backpressure: {:?}",
            report.counts
        );
        let violations = report.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
        // Queue depth stayed within the admission-derived limits.
        assert!(report.max_queue_depth <= report.queue_limits.iter().sum::<usize>());
    }

    #[test]
    fn runs_are_bit_identical_at_fixed_seed() {
        let srv = server();
        let cfg = ServeConfig {
            qps: 300.0,
            requests: 24,
            ..ServeConfig::default()
        };
        let a = srv.run(&cfg).expect("runs");
        let b = srv.run(&cfg).expect("runs");
        assert_eq!(a.records, b.records);
        assert_eq!(a.json_event_lines(), b.json_event_lines());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn chaos_runs_keep_every_outcome_typed() {
        let srv = server();
        let cfg = ServeConfig {
            qps: 100.0,
            requests: 16,
            chaos: true,
            ..ServeConfig::default()
        };
        let report = srv.run(&cfg).expect("runs");
        assert_eq!(report.counts.total(), 16);
        let violations = report.verify_invariants();
        assert!(violations.is_empty(), "{violations:?}");
        // Chaos must not manufacture untyped losses: every request is
        // complete, timed out, degraded, rejected, or shed.
        assert_eq!(
            report.counts.complete
                + report.counts.timed_out
                + report.counts.degraded
                + report.counts.rejected()
                + report.counts.shed,
            16
        );
    }
}
