//! Trace auditing: validates an executed [`Trace`] against the
//! simulator's contracts.
//!
//! The engine is deterministic, but determinism alone does not prove a
//! trace is *physically meaningful* — a bug in queueing, rate math or
//! the memory ledger produces a perfectly repeatable wrong answer. The
//! auditor re-derives every invariant the engine is supposed to uphold
//! from first principles, using only the submitted [`TaskSpec`]s, the
//! [`SocSpec`] and the finished [`Trace`]:
//!
//! 1. **Shape** — one span per task, matching processor/solo-time/label,
//!    finite and ordered timestamps.
//! 2. **Exclusivity** — spans on one processor never overlap.
//! 3. **Releases** — no span starts before its task's `release_ms`.
//! 4. **Dependencies** — no span starts before all of its dependencies
//!    have ended.
//! 5. **FIFO** — per processor, tasks start in queue-entry order, where
//!    the entry time is reconstructed as `max(release, latest dep end)`
//!    with the engine's task-id tie-break.
//! 6. **Slowdown bounds** — every span takes at least its solo time, and
//!    no longer than the worst case the
//!    [`CouplingMatrix`](crate::interference::CouplingMatrix), thermal
//!    throttling and memory paging can jointly justify.
//! 7. **Bubble accounting** — [`Trace::idle_bubble_ms`] reconciles with
//!    an independent per-processor gap summation (the trace-level
//!    analogue of the paper's Def. 3).
//! 8. **Memory ledger** — samples are time-ordered, internally
//!    consistent, never exceed the sum of all footprints, and drain to
//!    zero by the end of the run.
//!
//! [`audit`] returns an [`AuditReport`] listing every violation found;
//! it never panics, so callers can render violations or gate on them
//! (`h2p trace --audit` exits nonzero on a dirty report, and
//! `execute_with_arrivals` asserts a clean report in debug builds).

use std::fmt;

use crate::engine::{EngineEvent, TaskId, TaskSpec};
use crate::soc::SocSpec;
use crate::thermal::{ThermalMode, ThermalSpec};
use crate::timeline::{Span, Trace};

/// Absolute tolerance for event-time comparisons, matching the engine's
/// completion epsilon.
const TIME_EPS: f64 = 1e-6;

/// One contract violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The trace does not have exactly one span per submitted task, or a
    /// span disagrees with its spec (task id, processor, solo time).
    Shape {
        /// Description of the mismatch.
        detail: String,
    },
    /// Two spans overlap on one processor.
    Overlap {
        /// Processor index.
        processor: usize,
        /// Earlier span's task id.
        first: usize,
        /// Later span's task id.
        second: usize,
        /// Overlap amount in ms.
        by_ms: f64,
    },
    /// A span starts before its task's release time.
    EarlyStart {
        /// Task id.
        task: usize,
        /// Observed start.
        start_ms: f64,
        /// Required release.
        release_ms: f64,
    },
    /// A span starts before one of its dependencies ends.
    DependencyOrder {
        /// Task id.
        task: usize,
        /// The dependency that had not finished.
        dependency: usize,
        /// Observed start of the dependent task.
        start_ms: f64,
        /// End of the dependency.
        dep_end_ms: f64,
    },
    /// Two tasks on one processor started out of queue-entry order.
    FifoOrder {
        /// Processor index.
        processor: usize,
        /// The task that entered the queue first.
        earlier: usize,
        /// The task that entered later but started first.
        later: usize,
    },
    /// A span finished faster than its solo time allows.
    TooFast {
        /// Task id.
        task: usize,
        /// Observed duration.
        duration_ms: f64,
        /// The task's solo time.
        solo_ms: f64,
    },
    /// A span took longer than interference, throttling and paging can
    /// jointly explain.
    TooSlow {
        /// Task id.
        task: usize,
        /// Observed duration.
        duration_ms: f64,
        /// The conservative upper bound.
        bound_ms: f64,
    },
    /// `Trace::idle_bubble_ms` disagrees with an independent
    /// recomputation from the spans.
    BubbleMismatch {
        /// The trace's reported value.
        reported_ms: f64,
        /// The independently recomputed value.
        recomputed_ms: f64,
    },
    /// The memory trace is inconsistent (unordered samples, phantom
    /// allocations, or a ledger that never drains).
    MemoryLedger {
        /// Description of the inconsistency.
        detail: String,
    },
    /// The event log itself is malformed (double start, finish without
    /// start, rate for an idle task, or a task that never finishes).
    ReplayLog {
        /// Description of the malformation.
        detail: String,
    },
    /// A span's claimed boundaries disagree with the exact boundaries
    /// replayed from the event log.
    ReplaySpan {
        /// Task id.
        task: usize,
        /// The trace's claimed start.
        claimed_start_ms: f64,
        /// The trace's claimed end.
        claimed_end_ms: f64,
        /// Start replayed from the event log.
        replayed_start_ms: f64,
        /// End replayed from the event log.
        replayed_end_ms: f64,
    },
    /// Integrating the piecewise rates over a task's span does not
    /// accumulate its solo work: the log's rates cannot explain the
    /// claimed duration.
    ReplayProgress {
        /// Task id.
        task: usize,
        /// `∫ rate(t) dt` over the replayed span.
        integrated_ms: f64,
        /// The task's solo time (the work that must be accumulated).
        solo_ms: f64,
    },
    /// The trace's makespan disagrees with the last finish event.
    ReplayMakespan {
        /// The trace's claimed makespan.
        claimed_ms: f64,
        /// Latest finish time in the event log.
        replayed_ms: f64,
    },
}

impl Violation {
    /// The task a violation is anchored to, when it concerns one
    /// specific task (used to place audit markers on trace timelines).
    pub fn task(&self) -> Option<usize> {
        match self {
            Violation::Overlap { second, .. } => Some(*second),
            Violation::EarlyStart { task, .. }
            | Violation::DependencyOrder { task, .. }
            | Violation::TooFast { task, .. }
            | Violation::TooSlow { task, .. }
            | Violation::ReplaySpan { task, .. }
            | Violation::ReplayProgress { task, .. } => Some(*task),
            Violation::FifoOrder { later, .. } => Some(*later),
            Violation::Shape { .. }
            | Violation::BubbleMismatch { .. }
            | Violation::MemoryLedger { .. }
            | Violation::ReplayLog { .. }
            | Violation::ReplayMakespan { .. } => None,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Shape { detail } => write!(f, "shape: {detail}"),
            Violation::Overlap {
                processor,
                first,
                second,
                by_ms,
            } => write!(
                f,
                "overlap: tasks {first} and {second} overlap by {by_ms:.6} ms on processor {processor}"
            ),
            Violation::EarlyStart {
                task,
                start_ms,
                release_ms,
            } => write!(
                f,
                "release: task {task} started at {start_ms:.6} ms before its release {release_ms:.6} ms"
            ),
            Violation::DependencyOrder {
                task,
                dependency,
                start_ms,
                dep_end_ms,
            } => write!(
                f,
                "dependency: task {task} started at {start_ms:.6} ms before dependency {dependency} ended at {dep_end_ms:.6} ms"
            ),
            Violation::FifoOrder {
                processor,
                earlier,
                later,
            } => write!(
                f,
                "fifo: task {later} started before task {earlier} on processor {processor} despite entering the queue later"
            ),
            Violation::TooFast {
                task,
                duration_ms,
                solo_ms,
            } => write!(
                f,
                "too fast: task {task} ran {duration_ms:.6} ms, under its solo time {solo_ms:.6} ms"
            ),
            Violation::TooSlow {
                task,
                duration_ms,
                bound_ms,
            } => write!(
                f,
                "too slow: task {task} ran {duration_ms:.6} ms, beyond the worst-case bound {bound_ms:.6} ms"
            ),
            Violation::BubbleMismatch {
                reported_ms,
                recomputed_ms,
            } => write!(
                f,
                "bubble: trace reports {reported_ms:.6} ms idle but spans account for {recomputed_ms:.6} ms"
            ),
            Violation::MemoryLedger { detail } => write!(f, "memory: {detail}"),
            Violation::ReplayLog { detail } => write!(f, "replay: {detail}"),
            Violation::ReplaySpan {
                task,
                claimed_start_ms,
                claimed_end_ms,
                replayed_start_ms,
                replayed_end_ms,
            } => write!(
                f,
                "replay: task {task} claims [{claimed_start_ms:.6}, {claimed_end_ms:.6}] ms but the event log replays [{replayed_start_ms:.6}, {replayed_end_ms:.6}] ms"
            ),
            Violation::ReplayProgress {
                task,
                integrated_ms,
                solo_ms,
            } => write!(
                f,
                "replay: task {task} accumulates {integrated_ms:.6} ms of solo-equivalent work under the logged rates, but its solo time is {solo_ms:.6} ms"
            ),
            Violation::ReplayMakespan {
                claimed_ms,
                replayed_ms,
            } => write!(
                f,
                "replay: trace makespan {claimed_ms:.6} ms disagrees with the last logged finish at {replayed_ms:.6} ms"
            ),
        }
    }
}

/// The result of auditing one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Every violation found, in check order.
    pub violations: Vec<Violation>,
    /// Number of individual checks performed.
    pub checks: usize,
}

impl AuditReport {
    /// Whether the trace passed every check.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "audit: clean ({} checks)", self.checks)
        } else {
            writeln!(
                f,
                "audit: {} violation(s) in {} checks",
                self.violations.len(),
                self.checks
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Audits `trace` against the contracts implied by `tasks` and `soc`.
///
/// The audit is pure and panic-free: every failed invariant becomes a
/// [`Violation`] in the returned report. A trace produced by
/// [`crate::engine::Simulation::run`] from the same `tasks` and `soc`
/// always audits clean; the checks exist to catch corrupted, hand-built
/// or regression-bugged traces.
pub fn audit(soc: &SocSpec, tasks: &[TaskSpec], trace: &Trace) -> AuditReport {
    let mut violations = Vec::new();
    let mut checks = 0usize;

    check_shape(soc, tasks, trace, &mut violations, &mut checks);
    // Everything below indexes spans by task id; bail out early if the
    // shape is too broken for that to be meaningful.
    if trace.spans.len() != tasks.len() || trace.spans.iter().enumerate().any(|(i, s)| s.task != i)
    {
        return AuditReport { violations, checks };
    }

    check_exclusivity(trace, &mut violations, &mut checks);
    check_releases(tasks, trace, &mut violations, &mut checks);
    check_dependencies(tasks, trace, &mut violations, &mut checks);
    check_fifo(tasks, trace, &mut violations, &mut checks);
    check_duration_bounds(soc, tasks, trace, &mut violations, &mut checks);
    check_bubbles(trace, &mut violations, &mut checks);
    check_memory(soc, tasks, trace, &mut violations, &mut checks);

    AuditReport { violations, checks }
}

fn check_shape(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    *checks += 1;
    if trace.spans.len() != tasks.len() {
        violations.push(Violation::Shape {
            detail: format!(
                "{} spans for {} submitted tasks",
                trace.spans.len(),
                tasks.len()
            ),
        });
    }
    *checks += 1;
    if trace.processor_count != soc.processors.len() {
        violations.push(Violation::Shape {
            detail: format!(
                "trace claims {} processors, SoC has {}",
                trace.processor_count,
                soc.processors.len()
            ),
        });
    }
    for (i, span) in trace.spans.iter().enumerate() {
        *checks += 1;
        if span.task != i {
            violations.push(Violation::Shape {
                detail: format!("span {i} records task id {}", span.task),
            });
            continue;
        }
        let Some(spec) = tasks.get(i) else { continue };
        if span.processor != spec.processor {
            violations.push(Violation::Shape {
                detail: format!(
                    "task {i} ran on processor {} but was pinned to {}",
                    span.processor.index(),
                    spec.processor.index()
                ),
            });
        }
        if (span.solo_ms - spec.solo_ms).abs() > TIME_EPS {
            violations.push(Violation::Shape {
                detail: format!(
                    "task {i} span records solo {} ms, spec says {} ms",
                    span.solo_ms, spec.solo_ms
                ),
            });
        }
        if !(span.start_ms.is_finite() && span.end_ms.is_finite())
            || span.end_ms < span.start_ms - TIME_EPS
            || span.start_ms < -TIME_EPS
        {
            violations.push(Violation::Shape {
                detail: format!(
                    "task {i} has malformed timestamps [{}, {}]",
                    span.start_ms, span.end_ms
                ),
            });
        }
    }
}

fn check_exclusivity(trace: &Trace, violations: &mut Vec<Violation>, checks: &mut usize) {
    for p in 0..trace.processor_count {
        let mut spans: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.processor.index() == p)
            .collect();
        spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        for w in spans.windows(2) {
            *checks += 1;
            let gap = w[1].start_ms - w[0].end_ms;
            if gap < -TIME_EPS {
                violations.push(Violation::Overlap {
                    processor: p,
                    first: w[0].task,
                    second: w[1].task,
                    by_ms: -gap,
                });
            }
        }
    }
}

fn check_releases(
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    for (i, spec) in tasks.iter().enumerate() {
        *checks += 1;
        let span = &trace.spans[i];
        if span.start_ms < spec.release_ms - TIME_EPS {
            violations.push(Violation::EarlyStart {
                task: i,
                start_ms: span.start_ms,
                release_ms: spec.release_ms,
            });
        }
    }
}

fn check_dependencies(
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    for (i, spec) in tasks.iter().enumerate() {
        let span = &trace.spans[i];
        for d in &spec.deps {
            *checks += 1;
            let Some(dep_span) = trace.spans.get(d.index()) else {
                continue;
            };
            if span.start_ms < dep_span.end_ms - TIME_EPS {
                violations.push(Violation::DependencyOrder {
                    task: i,
                    dependency: d.index(),
                    start_ms: span.start_ms,
                    dep_end_ms: dep_span.end_ms,
                });
            }
        }
    }
}

/// The time at which task `i` became eligible for its processor queue:
/// its release, or the end of its latest dependency, whichever is later.
fn entry_time(tasks: &[TaskSpec], trace: &Trace, i: usize) -> f64 {
    let dep_end = tasks[i]
        .deps
        .iter()
        .filter_map(|d| trace.spans.get(d.index()))
        .map(|s| s.end_ms)
        .fold(0.0f64, f64::max);
    tasks[i].release_ms.max(dep_end)
}

fn check_fifo(
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    for p in 0..trace.processor_count {
        let mut entries: Vec<(f64, usize)> = (0..tasks.len())
            .filter(|&i| tasks[i].processor.index() == p)
            .map(|i| (entry_time(tasks, trace, i), i))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for w in entries.windows(2) {
            let (entry_a, a) = w[0];
            let (entry_b, b) = w[1];
            // Equal entries (within tolerance) are only ordered by the
            // engine when they join the queue at the same event, so the
            // id tie-break is enforced for exact ties only.
            let strictly_earlier = entry_a < entry_b - TIME_EPS;
            let tie_by_id = entry_a == entry_b && a < b;
            if !(strictly_earlier || tie_by_id) {
                continue;
            }
            *checks += 1;
            if trace.spans[a].start_ms > trace.spans[b].start_ms + TIME_EPS {
                violations.push(Violation::FifoOrder {
                    processor: p,
                    earlier: a,
                    later: b,
                });
            }
        }
    }
}

/// The conservative per-task duration ceiling the plain [`audit`]
/// enforces: `solo · (1 + slow_max) / (thermal_min · mem_min)`, where
/// `slow_max` sums each other processor's most intense overlapping
/// span through the coupling matrix. This is a *worst-case envelope* —
/// it assumes maximal co-execution for the whole span, throttling from
/// the first instant, and paging whenever the run ever over-committed.
/// The exact check is [`audit_with_events`], which replays the
/// piecewise rates from the event log; this bound exists for callers
/// that only have a trace (and for crafting in-envelope corruptions in
/// tests).
pub fn conservative_bound_ms(soc: &SocSpec, tasks: &[TaskSpec], trace: &Trace, task: usize) -> f64 {
    let paged = trace
        .memory
        .iter()
        .any(|s| s.allocated_bytes > soc.memory.capacity_bytes);
    let mem_min = if paged {
        soc.memory.page_fault_penalty
    } else {
        1.0
    };
    let spec = &tasks[task];
    let span = &trace.spans[task];

    // Conservative instantaneous slowdown ceiling: at any moment at
    // most one task runs per other processor, so the worst case sums
    // each other processor's most intense overlapping span.
    let me = &soc.processors[spec.processor.index()];
    let mut slow_max = 0.0;
    for (q, other_proc) in soc.processors.iter().enumerate() {
        if q == spec.processor.index() {
            continue;
        }
        let worst_intensity = trace
            .spans
            .iter()
            .filter(|s| {
                s.processor.index() == q
                    && s.start_ms < span.end_ms + TIME_EPS
                    && s.end_ms > span.start_ms - TIME_EPS
            })
            .map(|s| tasks[s.task].intensity.max(0.0))
            .fold(0.0f64, f64::max);
        slow_max += soc.coupling.coupling(me, other_proc) * worst_intensity;
    }
    slow_max *= spec.sensitivity.max(0.0);

    let thermal_min = if soc.thermal_mode == ThermalMode::Disabled {
        1.0
    } else {
        ThermalSpec::for_kind(me.kind).throttle_factor
    };
    spec.solo_ms * (1.0 + slow_max) / (thermal_min * mem_min) + TIME_EPS
}

fn check_duration_bounds(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    for (i, spec) in tasks.iter().enumerate() {
        let span = &trace.spans[i];
        let duration = span.end_ms - span.start_ms;

        *checks += 1;
        if duration < spec.solo_ms - TIME_EPS {
            violations.push(Violation::TooFast {
                task: i,
                duration_ms: duration,
                solo_ms: spec.solo_ms,
            });
        }

        let bound = conservative_bound_ms(soc, tasks, trace, i);
        *checks += 1;
        if duration > bound {
            violations.push(Violation::TooSlow {
                task: i,
                duration_ms: duration,
                bound_ms: bound,
            });
        }
    }
}

fn check_bubbles(trace: &Trace, violations: &mut Vec<Violation>, checks: &mut usize) {
    // Independent recomputation of Def. 3 idle bubbles: per processor,
    // the gaps between consecutive spans.
    let mut recomputed = 0.0;
    for p in 0..trace.processor_count {
        let mut spans: Vec<&Span> = trace
            .spans
            .iter()
            .filter(|s| s.processor.index() == p)
            .collect();
        spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        for w in spans.windows(2) {
            recomputed += (w[1].start_ms - w[0].end_ms).max(0.0);
        }
    }
    *checks += 1;
    let reported = trace.idle_bubble_ms();
    if !(reported - recomputed).abs().is_finite() || (reported - recomputed).abs() > TIME_EPS {
        violations.push(Violation::BubbleMismatch {
            reported_ms: reported,
            recomputed_ms: recomputed,
        });
    }
}

fn check_memory(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    let samples = &trace.memory;
    *checks += 1;
    if samples.is_empty() {
        if !tasks.is_empty() {
            violations.push(Violation::MemoryLedger {
                detail: "no memory samples recorded for a non-empty run".to_owned(),
            });
        }
        return;
    }
    *checks += 1;
    let Some(last) = samples.last() else {
        return; // unreachable: emptiness handled above
    };
    if last.allocated_bytes != 0 {
        violations.push(Violation::MemoryLedger {
            detail: format!(
                "{} bytes still allocated at the end of the run",
                last.allocated_bytes
            ),
        });
    }
    let total_footprint: u64 = tasks.iter().map(|t| t.footprint_bytes).sum();
    let capacity = soc.memory.capacity_bytes;
    let mut prev_time = f64::NEG_INFINITY;
    for (i, s) in samples.iter().enumerate() {
        *checks += 1;
        if s.time_ms < prev_time {
            violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i} at {} ms is earlier than its predecessor at {prev_time} ms",
                    s.time_ms
                ),
            });
        }
        prev_time = s.time_ms;
        if s.allocated_bytes > total_footprint {
            violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i} allocates {} bytes, more than all footprints combined ({total_footprint})",
                    s.allocated_bytes
                ),
            });
        }
        if s.available_bytes != capacity.saturating_sub(s.allocated_bytes) {
            violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i}: available {} inconsistent with capacity {} - allocated {}",
                    s.available_bytes, capacity, s.allocated_bytes
                ),
            });
        }
    }
}

/// One task's execution reconstructed exactly from the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedSpan {
    /// Time of the task's `Start` event.
    pub start_ms: f64,
    /// Time of the task's `Finish` event.
    pub end_ms: f64,
    /// Solo-equivalent work accumulated by integrating the piecewise
    /// rates over the span: `∫ rate(t) dt`. For a well-formed log this
    /// equals the task's solo time (the engine retires a task exactly
    /// when its remaining solo work reaches zero).
    pub integrated_ms: f64,
}

/// Replays the engine's piecewise-constant rates from an event log.
///
/// The engine emits a `Rate` event whenever a running task's effective
/// rate tuple changes (and always at its start, because the
/// per-processor memo resets on finish), so between consecutive events
/// every task's rate is exactly constant and the log is sufficient to
/// reconstruct each span's boundaries *and* the work it accumulated.
///
/// # Errors
///
/// Returns a description of the first structural problem found: an
/// out-of-range task id, a double start, or a rate/finish event for a
/// task that is not running. Tasks with no `Finish` event replay as
/// `None`.
pub fn replay(
    task_count: usize,
    events: &[EngineEvent],
) -> Result<Vec<Option<ReplayedSpan>>, String> {
    struct Run {
        start_ms: f64,
        last_ms: f64,
        rate: f64,
        progress: f64,
    }
    let mut running: Vec<Option<Run>> = (0..task_count).map(|_| None).collect();
    let mut out: Vec<Option<ReplayedSpan>> = vec![None; task_count];
    for ev in events {
        match ev {
            EngineEvent::Ready { task, .. } => {
                if *task >= task_count {
                    return Err(format!("ready event for unknown task {task}"));
                }
            }
            EngineEvent::Start { time_ms, task, .. } => {
                let Some(slot) = running.get_mut(*task) else {
                    return Err(format!("start event for unknown task {task}"));
                };
                if slot.is_some() || out[*task].is_some() {
                    return Err(format!("task {task} started more than once"));
                }
                *slot = Some(Run {
                    start_ms: *time_ms,
                    last_ms: *time_ms,
                    rate: 0.0,
                    progress: 0.0,
                });
            }
            EngineEvent::Rate {
                time_ms,
                task,
                slowdown,
                thermal_factor,
                memory_factor,
                ..
            } => {
                let Some(run) = running.get_mut(*task).and_then(Option::as_mut) else {
                    return Err(format!("rate event for task {task} which is not running"));
                };
                run.progress += run.rate * (time_ms - run.last_ms);
                run.last_ms = *time_ms;
                run.rate = thermal_factor * memory_factor / (1.0 + slowdown);
            }
            EngineEvent::Finish { time_ms, task, .. } => {
                let Some(run) = running.get_mut(*task).and_then(Option::take) else {
                    return Err(format!("finish event for task {task} which is not running"));
                };
                let progress = run.progress + run.rate * (time_ms - run.last_ms);
                out[*task] = Some(ReplayedSpan {
                    start_ms: run.start_ms,
                    end_ms: *time_ms,
                    integrated_ms: progress,
                });
            }
            // Fault markers carry no rate information; the throttle
            // multipliers they announce are already folded into the Rate
            // events, so replay integrates faulted rates exactly.
            EngineEvent::ProcessorDown { .. } | EngineEvent::Throttle { .. } => {}
            EngineEvent::TaskFailed { task, .. } => {
                if running.get_mut(*task).and_then(Option::take).is_none() {
                    return Err(format!(
                        "task_failed event for task {task} which is not running"
                    ));
                }
            }
        }
    }
    Ok(out)
}

fn check_replay(
    tasks: &[TaskSpec],
    events: &[EngineEvent],
    trace: &Trace,
    violations: &mut Vec<Violation>,
    checks: &mut usize,
) {
    let replayed = match replay(tasks.len(), events) {
        Ok(replayed) => replayed,
        Err(detail) => {
            *checks += 1;
            violations.push(Violation::ReplayLog { detail });
            return;
        }
    };
    let mut last_finish = 0.0f64;
    for (i, rep) in replayed.iter().enumerate() {
        *checks += 1;
        let Some(rep) = rep else {
            violations.push(Violation::ReplayLog {
                detail: format!("task {i} never finished in the event log"),
            });
            continue;
        };
        last_finish = last_finish.max(rep.end_ms);
        let span = &trace.spans[i];
        if (span.start_ms - rep.start_ms).abs() > TIME_EPS
            || (span.end_ms - rep.end_ms).abs() > TIME_EPS
        {
            violations.push(Violation::ReplaySpan {
                task: i,
                claimed_start_ms: span.start_ms,
                claimed_end_ms: span.end_ms,
                replayed_start_ms: rep.start_ms,
                replayed_end_ms: rep.end_ms,
            });
        }
        // The engine retires a task when its remaining solo work drops
        // below its 1e-9 ms epsilon, so the integral must land on the
        // solo time up to accumulated float error over the event times.
        *checks += 1;
        let eps = TIME_EPS * (1.0 + tasks[i].solo_ms);
        if (rep.integrated_ms - tasks[i].solo_ms).abs() > eps {
            violations.push(Violation::ReplayProgress {
                task: i,
                integrated_ms: rep.integrated_ms,
                solo_ms: tasks[i].solo_ms,
            });
        }
    }
    *checks += 1;
    let claimed = trace.makespan_ms();
    if (claimed - last_finish).abs() > TIME_EPS {
        violations.push(Violation::ReplayMakespan {
            claimed_ms: claimed,
            replayed_ms: last_finish,
        });
    }
}

/// Audits `trace` as [`audit`] does, then reconciles it exactly against
/// the engine's event log: span boundaries, accumulated work under the
/// logged piecewise rates, and the makespan must all match. This
/// tightens the conservative [`conservative_bound_ms`] envelope to an
/// exact check — a span stretched anywhere inside the envelope passes
/// the plain audit but cannot survive replay.
pub fn audit_with_events(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    events: &[EngineEvent],
    trace: &Trace,
) -> AuditReport {
    let mut report = audit(soc, tasks, trace);
    // Same bail-out rule as `audit`: replay indexes spans by task id.
    if trace.spans.len() != tasks.len() || trace.spans.iter().enumerate().any(|(i, s)| s.task != i)
    {
        return report;
    }
    check_replay(
        tasks,
        events,
        trace,
        &mut report.violations,
        &mut report.checks,
    );
    report
}

/// Audits the completed subset of a faulted run ([`FaultOutcome`])
/// against the full contract battery, adapted for partial completion:
///
/// - Failed and orphaned tasks must have no span, and every dependency
///   of a completed task must itself have completed (a fault kills its
///   whole downstream cone). If that closure is broken the audit bails
///   out, because remapping the subset would be meaningless.
/// - The completed subset is remapped onto a compact task list and
///   audited with the fault-free families: shape, exclusivity,
///   releases, dependencies, FIFO, the too-fast floor, bubble
///   accounting, and the memory ledger (checked against the *original*
///   task list's footprint ceiling — failed tasks genuinely allocated
///   before they were aborted).
/// - The conservative too-*slow* envelope is deliberately skipped:
///   injected throttles can undercut the [`ThermalSpec`] floor, and
///   partially-run failed co-runners contribute slowdown without ever
///   producing a span. Exactness comes from the replay reconciliation
///   instead, which integrates the logged (faulted) piecewise rates:
///   completed spans must replay to their exact boundaries and solo
///   work, killed tasks must not replay a finish, and the last finish
///   must match the completed subset's makespan.
///
/// [`FaultOutcome`]: crate::faults::FaultOutcome
pub fn audit_faulted(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    events: &[EngineEvent],
    outcome: &crate::faults::FaultOutcome,
) -> AuditReport {
    let mut violations = Vec::new();
    let mut checks = 0usize;

    checks += 2;
    if outcome.spans.len() != tasks.len() {
        violations.push(Violation::Shape {
            detail: format!(
                "{} outcome slots for {} submitted tasks",
                outcome.spans.len(),
                tasks.len()
            ),
        });
        return AuditReport { violations, checks };
    }
    if outcome.processor_count != soc.processors.len() {
        violations.push(Violation::Shape {
            detail: format!(
                "outcome claims {} processors, SoC has {}",
                outcome.processor_count,
                soc.processors.len()
            ),
        });
        return AuditReport { violations, checks };
    }

    // A task the faults killed must not also claim a completed span.
    for f in &outcome.failed {
        checks += 1;
        if outcome.spans.get(f.task).is_some_and(Option::is_some) {
            violations.push(Violation::Shape {
                detail: format!("task {} both failed and completed", f.task),
            });
        }
    }
    for &o in &outcome.orphaned {
        checks += 1;
        if outcome.spans.get(o).is_some_and(Option::is_some) {
            violations.push(Violation::Shape {
                detail: format!("task {o} is both orphaned and completed"),
            });
        }
    }

    // Completed-closure invariant: every dependency of a completed task
    // completed. Without it the subset remap below would hide ordering
    // violations, so a broken closure bails out.
    for (i, s) in outcome.spans.iter().enumerate() {
        if s.is_none() {
            continue;
        }
        for d in &tasks[i].deps {
            checks += 1;
            if outcome.spans.get(d.index()).is_none_or(Option::is_none) {
                violations.push(Violation::Shape {
                    detail: format!(
                        "task {i} completed but its dependency {} did not",
                        d.index()
                    ),
                });
            }
        }
    }
    if !violations.is_empty() {
        return AuditReport { violations, checks };
    }

    // Remap the completed subset onto compact ids so the fault-free
    // contract families apply unchanged. The remap is order-preserving,
    // so the engine's task-id FIFO tie-break survives it.
    let completed: Vec<usize> = (0..tasks.len())
        .filter(|&i| outcome.spans[i].is_some())
        .collect();
    let mut new_id = vec![usize::MAX; tasks.len()];
    for (k, &i) in completed.iter().enumerate() {
        new_id[i] = k;
    }
    let sub_tasks: Vec<TaskSpec> = completed
        .iter()
        .map(|&i| {
            let mut t = tasks[i].clone();
            t.deps = t.deps.iter().map(|d| TaskId(new_id[d.index()])).collect();
            t
        })
        .collect();
    let sub_trace = Trace {
        spans: completed
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| {
                outcome.spans[i].as_ref().map(|s| {
                    let mut s = s.clone();
                    s.task = k;
                    s
                })
            })
            .collect(),
        memory: outcome.memory.clone(),
        processor_count: outcome.processor_count,
    };

    check_shape(soc, &sub_tasks, &sub_trace, &mut violations, &mut checks);
    if sub_trace.spans.len() != sub_tasks.len()
        || sub_trace.spans.iter().enumerate().any(|(i, s)| s.task != i)
    {
        return AuditReport { violations, checks };
    }
    check_exclusivity(&sub_trace, &mut violations, &mut checks);
    check_releases(&sub_tasks, &sub_trace, &mut violations, &mut checks);
    check_dependencies(&sub_tasks, &sub_trace, &mut violations, &mut checks);
    check_fifo(&sub_tasks, &sub_trace, &mut violations, &mut checks);
    // Too-fast floor only; see the doc comment for why the too-slow
    // envelope is replaced by exact replay under faults.
    for (i, spec) in sub_tasks.iter().enumerate() {
        checks += 1;
        let duration = sub_trace.spans[i].end_ms - sub_trace.spans[i].start_ms;
        if duration < spec.solo_ms - TIME_EPS {
            violations.push(Violation::TooFast {
                task: i,
                duration_ms: duration,
                solo_ms: spec.solo_ms,
            });
        }
    }
    check_bubbles(&sub_trace, &mut violations, &mut checks);
    // The footprint ceiling must come from the original task list:
    // failed tasks allocated real memory before they were aborted.
    check_memory(soc, tasks, &sub_trace, &mut violations, &mut checks);

    // Replay reconciliation over the original task ids.
    match replay(tasks.len(), events) {
        Err(detail) => {
            checks += 1;
            violations.push(Violation::ReplayLog { detail });
        }
        Ok(replayed) => {
            let mut last_finish = 0.0f64;
            for (i, rep) in replayed.iter().enumerate() {
                checks += 1;
                if let Some(rep) = rep {
                    last_finish = last_finish.max(rep.end_ms);
                }
                match (&outcome.spans[i], rep) {
                    (Some(span), Some(rep)) => {
                        if (span.start_ms - rep.start_ms).abs() > TIME_EPS
                            || (span.end_ms - rep.end_ms).abs() > TIME_EPS
                        {
                            violations.push(Violation::ReplaySpan {
                                task: i,
                                claimed_start_ms: span.start_ms,
                                claimed_end_ms: span.end_ms,
                                replayed_start_ms: rep.start_ms,
                                replayed_end_ms: rep.end_ms,
                            });
                        }
                        checks += 1;
                        let eps = TIME_EPS * (1.0 + tasks[i].solo_ms);
                        if (rep.integrated_ms - tasks[i].solo_ms).abs() > eps {
                            violations.push(Violation::ReplayProgress {
                                task: i,
                                integrated_ms: rep.integrated_ms,
                                solo_ms: tasks[i].solo_ms,
                            });
                        }
                    }
                    (None, Some(_)) => violations.push(Violation::ReplayLog {
                        detail: format!("task {i} finished in the event log but has no span"),
                    }),
                    (Some(_), None) => violations.push(Violation::ReplayLog {
                        detail: format!("task {i} has a span but never finished in the event log"),
                    }),
                    (None, None) => {}
                }
            }
            checks += 1;
            let claimed = sub_trace.makespan_ms();
            if (claimed - last_finish).abs() > TIME_EPS {
                violations.push(Violation::ReplayMakespan {
                    claimed_ms: claimed,
                    replayed_ms: last_finish,
                });
            }
        }
    }

    AuditReport { violations, checks }
}

/// Convenience: audits the trace and panics with the full report if it
/// is not clean. Used by the executor's debug-build audit gate and by
/// tests.
///
/// # Panics
///
/// Panics if the audit finds any violation.
pub fn assert_clean(soc: &SocSpec, tasks: &[TaskSpec], trace: &Trace) {
    let report = audit(soc, tasks, trace);
    assert!(report.is_clean(), "trace audit failed:\n{report}");
}

/// Like [`assert_clean`], but runs the event-log reconciliation too.
/// Used by the `execute_logged` debug-build audit gate.
///
/// # Panics
///
/// Panics if the reconciled audit finds any violation.
pub fn assert_clean_with_events(
    soc: &SocSpec,
    tasks: &[TaskSpec],
    events: &[EngineEvent],
    trace: &Trace,
) {
    let report = audit_with_events(soc, tasks, events, trace);
    assert!(report.is_clean(), "trace audit failed:\n{report}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulation, TaskSpec};
    use crate::processor::{ProcessorId, ProcessorKind};

    fn soc() -> SocSpec {
        SocSpec::kirin_990()
    }

    fn id(soc: &SocSpec, kind: ProcessorKind) -> ProcessorId {
        soc.processor_by_kind(kind).expect("preset has processor")
    }

    /// A small mixed workload: chained pipeline plus independent work.
    fn workload(soc: &SocSpec) -> (Vec<TaskSpec>, Trace) {
        let cpu = id(soc, ProcessorKind::CpuBig);
        let gpu = id(soc, ProcessorKind::Gpu);
        let npu = id(soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(soc);
        let a = sim.add_task(
            TaskSpec::new("a", npu, 8.0)
                .intensity(0.6)
                .footprint(64 << 20)
                .bandwidth(2.0),
        );
        let b = sim.add_task(TaskSpec::new("b", gpu, 6.0).intensity(0.9).after(a));
        sim.add_task(TaskSpec::new("c", cpu, 5.0).intensity(1.0).after(b));
        sim.add_task(TaskSpec::new("d", cpu, 4.0).intensity(0.2).release(3.0));
        sim.add_task(TaskSpec::new("e", npu, 2.0));
        let tasks = sim.tasks().to_vec();
        let trace = sim.run().expect("runs");
        (tasks, trace)
    }

    #[test]
    fn engine_traces_audit_clean() {
        let soc = soc();
        let (tasks, trace) = workload(&soc);
        let report = audit(&soc, &tasks, &trace);
        assert!(report.is_clean(), "unexpected violations:\n{report}");
        assert!(report.checks > 10, "audit must actually check things");
    }

    #[test]
    fn thermal_and_overcommit_traces_audit_clean() {
        // Throttling and paging stretch spans; the upper bound must
        // still accommodate them.
        let mut soc = soc();
        soc.thermal_mode = ThermalMode::SteadyState;
        let cpu = id(&soc, ProcessorKind::CpuBig);
        let cap = soc.memory.capacity_bytes;
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("huge", cpu, 10.0).footprint(cap + 1));
        let tasks = sim.tasks().to_vec();
        let trace = sim.run().expect("runs");
        assert_clean(&soc, &tasks, &trace);
    }

    #[test]
    fn overlapping_spans_are_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Slide task d's span backwards until it overlaps task c on the
        // same CPU (both run there).
        let c_end = trace.spans[2].end_ms;
        trace.spans[3].start_ms = c_end - 1.0;
        trace.spans[3].end_ms = trace.spans[3].start_ms + 4.0;
        let report = audit(&soc, &tasks, &trace);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Overlap { .. })),
            "expected an overlap violation, got:\n{report}"
        );
    }

    #[test]
    fn early_starts_are_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Task d is released at 3.0 ms; forge an earlier start.
        trace.spans[3].start_ms = 0.5;
        let report = audit(&soc, &tasks, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::EarlyStart { task: 3, .. })));
    }

    #[test]
    fn dependency_inversions_are_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Task b depends on a; start it before a ends.
        trace.spans[1].start_ms = trace.spans[0].end_ms - 2.0;
        let report = audit(&soc, &tasks, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DependencyOrder { task: 1, .. })));
    }

    #[test]
    fn superluminal_spans_are_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Task c claims to finish in half its solo time.
        trace.spans[2].end_ms = trace.spans[2].start_ms + tasks[2].solo_ms / 2.0;
        let report = audit(&soc, &tasks, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TooFast { task: 2, .. })));
    }

    #[test]
    fn unexplainable_stretch_is_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Stretch the lone NPU task far beyond anything interference
        // could justify.
        trace.spans[4].end_ms = trace.spans[4].start_ms + tasks[4].solo_ms * 50.0;
        let report = audit(&soc, &tasks, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TooSlow { task: 4, .. })));
    }

    #[test]
    fn fifo_inversions_are_detected() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("first", npu, 3.0));
        sim.add_task(TaskSpec::new("second", npu, 3.0));
        let tasks = sim.tasks().to_vec();
        let mut trace = sim.run().expect("runs");
        // Swap the execution order: second runs [0,3], first runs [3,6].
        trace.spans[0].start_ms = 3.0;
        trace.spans[0].end_ms = 6.0;
        trace.spans[1].start_ms = 0.0;
        trace.spans[1].end_ms = 3.0;
        let report = audit(&soc, &tasks, &trace);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::FifoOrder {
                    earlier: 0,
                    later: 1,
                    ..
                }
            )),
            "expected a FIFO violation, got:\n{report}"
        );
    }

    #[test]
    fn leaked_memory_is_detected() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        // Forge a ledger that never drains.
        if let Some(last) = trace.memory.last_mut() {
            last.allocated_bytes = 123;
        }
        let report = audit(&soc, &tasks, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MemoryLedger { .. })));
    }

    #[test]
    fn shape_mismatches_are_detected() {
        let soc = soc();
        let (tasks, trace) = workload(&soc);
        // Dropped span.
        let mut short = trace.clone();
        short.spans.pop();
        assert!(!audit(&soc, &tasks, &short).is_clean());
        // Wrong processor recorded.
        let mut moved = trace.clone();
        moved.spans[0].processor = ProcessorId(0);
        let report = audit(&soc, &tasks, &moved);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Shape { .. })));
    }

    /// The same mixed workload as [`workload`], but run with the event
    /// log attached.
    fn logged_workload(soc: &SocSpec) -> (Vec<TaskSpec>, Trace, Vec<crate::engine::EngineEvent>) {
        let cpu = id(soc, ProcessorKind::CpuBig);
        let gpu = id(soc, ProcessorKind::Gpu);
        let npu = id(soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(soc);
        let a = sim.add_task(
            TaskSpec::new("a", npu, 8.0)
                .intensity(0.6)
                .footprint(64 << 20)
                .bandwidth(2.0),
        );
        let b = sim.add_task(TaskSpec::new("b", gpu, 6.0).intensity(0.9).after(a));
        sim.add_task(TaskSpec::new("c", cpu, 5.0).intensity(1.0).after(b));
        sim.add_task(TaskSpec::new("d", cpu, 4.0).intensity(0.2).release(3.0));
        sim.add_task(TaskSpec::new("e", npu, 2.0));
        let tasks = sim.tasks().to_vec();
        let (trace, events) = sim.run_with_events().expect("runs");
        (tasks, trace, events)
    }

    #[test]
    fn engine_event_logs_reconcile_clean() {
        let soc = soc();
        let (tasks, trace, events) = logged_workload(&soc);
        let report = audit_with_events(&soc, &tasks, &events, &trace);
        assert!(report.is_clean(), "unexpected violations:\n{report}");
        // Reconciliation adds checks on top of the plain audit.
        assert!(report.checks > audit(&soc, &tasks, &trace).checks);
    }

    #[test]
    fn replay_integrates_solo_work_exactly() {
        let soc = soc();
        let (tasks, _, events) = logged_workload(&soc);
        let replayed = replay(tasks.len(), &events).expect("well-formed log");
        for (i, rep) in replayed.iter().enumerate() {
            let rep = rep.as_ref().expect("all tasks finish");
            assert!(
                (rep.integrated_ms - tasks[i].solo_ms).abs() < 1e-6 * (1.0 + tasks[i].solo_ms),
                "task {i}: integrated {} vs solo {}",
                rep.integrated_ms,
                tasks[i].solo_ms
            );
        }
    }

    #[test]
    fn in_envelope_stretch_passes_plain_audit_but_fails_replay() {
        let soc = soc();
        let (tasks, mut trace, events) = logged_workload(&soc);
        // Stretch the globally last span (no dependents, last on its
        // processor) to midway between its true duration and the
        // conservative envelope: invisible to the plain audit, exactly
        // what the replay reconciliation exists to catch.
        let last = (0..trace.spans.len())
            .max_by(|&a, &b| trace.spans[a].end_ms.total_cmp(&trace.spans[b].end_ms))
            .expect("non-empty");
        let span = &trace.spans[last];
        let duration = span.end_ms - span.start_ms;
        let bound = conservative_bound_ms(&soc, &tasks, &trace, last);
        assert!(
            bound > duration + 1e-3,
            "test needs slack inside the envelope (bound {bound}, duration {duration})"
        );
        trace.spans[last].end_ms = trace.spans[last].start_ms + (duration + bound) / 2.0;

        let plain = audit(&soc, &tasks, &trace);
        assert!(
            plain.is_clean(),
            "the stretch must stay inside the conservative envelope:\n{plain}"
        );
        let reconciled = audit_with_events(&soc, &tasks, &events, &trace);
        assert!(reconciled
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplaySpan { task, .. } if *task == last)));
        assert!(reconciled
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayMakespan { .. })));
    }

    #[test]
    fn tampered_rates_fail_progress_reconciliation() {
        let soc = soc();
        let (tasks, trace, mut events) = logged_workload(&soc);
        // Halve the rate a task claims to have run at: its span
        // boundaries still match, but the integral no longer explains
        // its solo work.
        let tampered = events
            .iter_mut()
            .find_map(|e| match e {
                crate::engine::EngineEvent::Rate { task, slowdown, .. } => {
                    *slowdown = 2.0 * *slowdown + 1.0;
                    Some(*task)
                }
                _ => None,
            })
            .expect("log has rate events");
        let report = audit_with_events(&soc, &tasks, &events, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayProgress { task, .. } if *task == tampered)));
    }

    #[test]
    fn malformed_logs_are_rejected() {
        let soc = soc();
        let (tasks, trace, events) = logged_workload(&soc);
        // Drop the first start event: its finish is now orphaned.
        let without_start: Vec<_> = {
            let mut dropped = false;
            events
                .iter()
                .filter(|e| {
                    if !dropped && matches!(e, crate::engine::EngineEvent::Start { .. }) {
                        dropped = true;
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect()
        };
        let report = audit_with_events(&soc, &tasks, &without_start, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayLog { .. })));
        // Truncated log: some task never finishes.
        let truncated = &events[..events.len() - 1];
        let report = audit_with_events(&soc, &tasks, truncated, &trace);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplayLog { .. })));
    }

    #[test]
    fn violation_task_anchors() {
        let v = Violation::ReplaySpan {
            task: 3,
            claimed_start_ms: 0.0,
            claimed_end_ms: 1.0,
            replayed_start_ms: 0.0,
            replayed_end_ms: 0.5,
        };
        assert_eq!(v.task(), Some(3));
        assert!(v.to_string().contains("replays"));
        let v = Violation::ReplayMakespan {
            claimed_ms: 2.0,
            replayed_ms: 1.0,
        };
        assert_eq!(v.task(), None);
    }

    #[test]
    fn report_display_lists_violations() {
        let soc = soc();
        let (tasks, mut trace) = workload(&soc);
        trace.spans[2].end_ms = trace.spans[2].start_ms + 0.1;
        let report = audit(&soc, &tasks, &trace);
        let text = report.to_string();
        assert!(text.contains("violation"));
        assert!(text.contains("too fast"));
        let clean = AuditReport {
            violations: Vec::new(),
            checks: 7,
        };
        assert!(clean.to_string().contains("clean"));
    }
}
