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

use crate::engine::{EngineEvent, TaskSpec};
use crate::memory::MemorySample;
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
    let mut report = AuditReport {
        violations: Vec::new(),
        checks: 1,
    };
    if trace.spans.len() != tasks.len() {
        report.violations.push(Violation::Shape {
            detail: format!(
                "{} spans for {} submitted tasks",
                trace.spans.len(),
                tasks.len()
            ),
        });
    }
    report.checks += 1;
    if trace.processor_count != soc.processors.len() {
        report.violations.push(Violation::Shape {
            detail: format!(
                "trace claims {} processors, SoC has {}",
                trace.processor_count,
                soc.processors.len()
            ),
        });
    }
    let ids: Vec<usize> = (0..trace.spans.len()).collect();
    let subject = Subject {
        soc,
        tasks,
        slots: Slots::Trace(&trace.spans),
        ids: &ids,
        memory: &trace.memory,
        processor_count: trace.processor_count,
    };
    // Everything below indexes spans by task id; bail out early if the
    // shape is too broken for that to be meaningful.
    if !check_spans(&subject, &mut report) || trace.spans.len() != tasks.len() {
        return report;
    }
    check_families(&subject, Some(trace), &mut report);
    report
}

/// The spans an audit reads, by submitted task id: a fault-free trace
/// holds one per task, a faulted outcome one per completed task.
#[derive(Clone, Copy)]
enum Slots<'a> {
    Trace(&'a [Span]),
    Outcome(&'a [Option<Span>]),
}

impl<'a> Slots<'a> {
    fn get(self, task: usize) -> Option<&'a Span> {
        match self {
            Slots::Trace(spans) => spans.get(task),
            Slots::Outcome(slots) => slots.get(task).and_then(Option::as_ref),
        }
    }
}

/// What the contract families check: the submitted tasks, their spans
/// where they lie, and the audited ids (ascending). Every violation
/// names a submitted id.
struct Subject<'a> {
    soc: &'a SocSpec,
    tasks: &'a [TaskSpec],
    slots: Slots<'a>,
    ids: &'a [usize],
    memory: &'a [MemorySample],
    processor_count: usize,
}

impl<'a> Subject<'a> {
    /// The audited ids with their spans, in id order.
    fn audited(&self) -> impl Iterator<Item = (usize, &'a Span)> + '_ {
        self.ids
            .iter()
            .filter_map(|&i| Some((i, self.slots.get(i)?)))
    }
}

/// The per-span shape family: each audited slot records its own task id,
/// ran on its pinned processor with its spec's solo time, and has finite,
/// ordered timestamps. Returns whether every slot recorded its own id.
fn check_spans(s: &Subject, report: &mut AuditReport) -> bool {
    let mut indexed = true;
    for (i, span) in s.audited() {
        report.checks += 1;
        if span.task != i {
            indexed = false;
            report.violations.push(Violation::Shape {
                detail: format!("span {i} records task id {}", span.task),
            });
            continue;
        }
        let Some(spec) = s.tasks.get(i) else { continue };
        if span.processor != spec.processor {
            report.violations.push(Violation::Shape {
                detail: format!(
                    "task {i} ran on processor {} but was pinned to {}",
                    span.processor.index(),
                    spec.processor.index()
                ),
            });
        }
        if (span.solo_ms - spec.solo_ms).abs() > TIME_EPS {
            report.violations.push(Violation::Shape {
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
            report.violations.push(Violation::Shape {
                detail: format!(
                    "task {i} has malformed timestamps [{}, {}]",
                    span.start_ms, span.end_ms
                ),
            });
        }
    }
    indexed
}

/// One entry of the per-processor index buffer: (processor, sort key,
/// task id).
type Entry = (usize, f64, usize);

/// Orders the index buffer by processor, then key, then id. The id
/// breaks ties as a stable sort over id-ordered input would, so every
/// per-processor pass visits spans, and sums gaps, in the same order.
fn by_processor(a: &Entry, b: &Entry) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// The contract families after the shape check, on spans that record
/// their own ids. `envelope` is the trace whose conservative too-slow
/// bound applies; the faulted audit has none.
fn check_families(s: &Subject, envelope: Option<&Trace>, report: &mut AuditReport) {
    // One index buffer serves the per-processor families: sorted by
    // start for exclusivity (which also sums the idle gaps the bubble
    // family reconciles), then re-sorted by queue entry for FIFO.
    let mut order: Vec<Entry> = Vec::with_capacity(s.ids.len());
    order.extend(s.audited().filter_map(|(i, span)| {
        let p = span.processor.index();
        (p < s.processor_count).then_some((p, span.start_ms, i))
    }));
    order.sort_unstable_by(by_processor);
    let gaps = check_exclusivity(s, &order, report);
    check_releases(s, report);
    check_dependencies(s, report);
    order.clear();
    order.extend(s.audited().filter_map(|(i, _)| {
        let p = s.tasks[i].processor.index();
        (p < s.processor_count).then(|| (p, entry_time(s, i), i))
    }));
    order.sort_unstable_by(by_processor);
    check_fifo(s, &order, report);
    check_durations(s, envelope, report);
    check_bubbles(s, gaps, report);
    check_memory(s, report);
}

/// Flags overlapping neighbours in the start-sorted buffer and returns
/// the summed idle gaps between them: the bubble family's independent
/// recomputation of Def. 3.
fn check_exclusivity(s: &Subject, order: &[Entry], report: &mut AuditReport) -> f64 {
    let mut gaps = 0.0;
    for w in order.windows(2) {
        let ((p, _, a), (q, _, b)) = (w[0], w[1]);
        if p != q {
            continue;
        }
        let (Some(first), Some(second)) = (s.slots.get(a), s.slots.get(b)) else {
            continue;
        };
        report.checks += 1;
        let gap = second.start_ms - first.end_ms;
        if gap < -TIME_EPS {
            report.violations.push(Violation::Overlap {
                processor: p,
                first: a,
                second: b,
                by_ms: -gap,
            });
        }
        gaps += gap.max(0.0);
    }
    gaps
}

fn check_releases(s: &Subject, report: &mut AuditReport) {
    for (i, span) in s.audited() {
        report.checks += 1;
        let release_ms = s.tasks[i].release_ms;
        if span.start_ms < release_ms - TIME_EPS {
            report.violations.push(Violation::EarlyStart {
                task: i,
                start_ms: span.start_ms,
                release_ms,
            });
        }
    }
}

fn check_dependencies(s: &Subject, report: &mut AuditReport) {
    for (i, span) in s.audited() {
        for d in &s.tasks[i].deps {
            report.checks += 1;
            let Some(dep_span) = s.slots.get(d.index()) else {
                continue;
            };
            if span.start_ms < dep_span.end_ms - TIME_EPS {
                report.violations.push(Violation::DependencyOrder {
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
fn entry_time(s: &Subject, i: usize) -> f64 {
    let dep_end = s.tasks[i]
        .deps
        .iter()
        .filter_map(|d| s.slots.get(d.index()))
        .map(|span| span.end_ms)
        .fold(0.0f64, f64::max);
    s.tasks[i].release_ms.max(dep_end)
}

/// Checks queue-entry neighbours in the entry-sorted buffer.
fn check_fifo(s: &Subject, order: &[Entry], report: &mut AuditReport) {
    for w in order.windows(2) {
        let ((p, entry_a, a), (q, entry_b, b)) = (w[0], w[1]);
        if p != q {
            continue;
        }
        // Equal entries (within tolerance) are only ordered by the
        // engine when they join the queue at the same event, so the id
        // tie-break is enforced for exact ties only.
        let strictly_earlier = entry_a < entry_b - TIME_EPS;
        let tie_by_id = entry_a == entry_b && a < b;
        if !(strictly_earlier || tie_by_id) {
            continue;
        }
        let (Some(span_a), Some(span_b)) = (s.slots.get(a), s.slots.get(b)) else {
            continue;
        };
        report.checks += 1;
        if span_a.start_ms > span_b.start_ms + TIME_EPS {
            report.violations.push(Violation::FifoOrder {
                processor: p,
                earlier: a,
                later: b,
            });
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

/// The too-fast floor for every audited span, and the too-slow
/// envelope of `envelope`'s trace when there is one.
fn check_durations(s: &Subject, envelope: Option<&Trace>, report: &mut AuditReport) {
    for (i, span) in s.audited() {
        let solo_ms = s.tasks[i].solo_ms;
        let duration = span.end_ms - span.start_ms;

        report.checks += 1;
        if duration < solo_ms - TIME_EPS {
            report.violations.push(Violation::TooFast {
                task: i,
                duration_ms: duration,
                solo_ms,
            });
        }

        let Some(trace) = envelope else { continue };
        let bound = conservative_bound_ms(s.soc, s.tasks, trace, i);
        report.checks += 1;
        if duration > bound {
            report.violations.push(Violation::TooSlow {
                task: i,
                duration_ms: duration,
                bound_ms: bound,
            });
        }
    }
}

/// Reconciles the idle bubbles the spans report (the function behind
/// [`Trace::idle_bubble_ms`]) with the gaps `check_exclusivity` summed.
fn check_bubbles(s: &Subject, recomputed: f64, report: &mut AuditReport) {
    report.checks += 1;
    let reported =
        crate::timeline::idle_bubble_ms(s.audited().map(|(_, span)| span), s.processor_count);
    if !(reported - recomputed).abs().is_finite() || (reported - recomputed).abs() > TIME_EPS {
        report.violations.push(Violation::BubbleMismatch {
            reported_ms: reported,
            recomputed_ms: recomputed,
        });
    }
}

/// The memory ledger. Its footprint ceiling sums every submitted task,
/// audited or not: a task a fault killed allocated real memory before
/// it was aborted.
fn check_memory(s: &Subject, report: &mut AuditReport) {
    let samples = s.memory;
    report.checks += 1;
    if samples.is_empty() {
        if !s.tasks.is_empty() {
            report.violations.push(Violation::MemoryLedger {
                detail: "no memory samples recorded for a non-empty run".to_owned(),
            });
        }
        return;
    }
    report.checks += 1;
    let Some(last) = samples.last() else {
        return; // unreachable: emptiness handled above
    };
    if last.allocated_bytes != 0 {
        report.violations.push(Violation::MemoryLedger {
            detail: format!(
                "{} bytes still allocated at the end of the run",
                last.allocated_bytes
            ),
        });
    }
    let total_footprint: u64 = s.tasks.iter().map(|t| t.footprint_bytes).sum();
    let capacity = s.soc.memory.capacity_bytes;
    let mut prev_time = f64::NEG_INFINITY;
    for (i, sample) in samples.iter().enumerate() {
        report.checks += 1;
        if sample.time_ms < prev_time {
            report.violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i} at {} ms is earlier than its predecessor at {prev_time} ms",
                    sample.time_ms
                ),
            });
        }
        prev_time = sample.time_ms;
        if sample.allocated_bytes > total_footprint {
            report.violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i} allocates {} bytes, more than all footprints combined ({total_footprint})",
                    sample.allocated_bytes
                ),
            });
        }
        if sample.available_bytes != capacity.saturating_sub(sample.allocated_bytes) {
            report.violations.push(Violation::MemoryLedger {
                detail: format!(
                    "sample {i}: available {} inconsistent with capacity {} - allocated {}",
                    sample.available_bytes, capacity, sample.allocated_bytes
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

/// The replay family: every span replays from the event log to its
/// exact boundaries and solo work, a task without a span never
/// finishes, and the last logged finish is the last span's end.
fn check_replay(
    slots: Slots,
    tasks: &[TaskSpec],
    events: &[EngineEvent],
    report: &mut AuditReport,
) {
    let replayed = match replay(tasks.len(), events) {
        Ok(replayed) => replayed,
        Err(detail) => {
            report.checks += 1;
            report.violations.push(Violation::ReplayLog { detail });
            return;
        }
    };
    let (mut claimed, mut last_finish) = (0.0f64, 0.0f64);
    for (i, rep) in replayed.iter().enumerate() {
        report.checks += 1;
        let span = slots.get(i);
        if let Some(span) = span {
            claimed = claimed.max(span.end_ms);
        }
        if let Some(rep) = rep {
            last_finish = last_finish.max(rep.end_ms);
        }
        let (span, rep) = match (span, rep) {
            (Some(span), Some(rep)) => (span, rep),
            (None, Some(_)) => {
                report.violations.push(Violation::ReplayLog {
                    detail: format!("task {i} finished in the event log but has no span"),
                });
                continue;
            }
            (Some(_), None) => {
                report.violations.push(Violation::ReplayLog {
                    detail: format!("task {i} has a span but never finished in the event log"),
                });
                continue;
            }
            (None, None) => continue,
        };
        if (span.start_ms - rep.start_ms).abs() > TIME_EPS
            || (span.end_ms - rep.end_ms).abs() > TIME_EPS
        {
            report.violations.push(Violation::ReplaySpan {
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
        report.checks += 1;
        let eps = TIME_EPS * (1.0 + tasks[i].solo_ms);
        if (rep.integrated_ms - tasks[i].solo_ms).abs() > eps {
            report.violations.push(Violation::ReplayProgress {
                task: i,
                integrated_ms: rep.integrated_ms,
                solo_ms: tasks[i].solo_ms,
            });
        }
    }
    report.checks += 1;
    if (claimed - last_finish).abs() > TIME_EPS {
        report.violations.push(Violation::ReplayMakespan {
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
    check_replay(Slots::Trace(&trace.spans), tasks, events, &mut report);
    report
}

/// Audits the completed subset of a faulted run ([`FaultOutcome`])
/// against the full contract battery, adapted for partial completion:
///
/// - Failed and orphaned tasks must have no span, and every dependency
///   of a completed task must itself have completed (a fault kills its
///   whole downstream cone). If that closure is broken the audit bails
///   out, because the subset's ordering checks would read missing
///   dependencies.
/// - The completed subset is audited where it lies, keyed by the
///   submitted task ids, with the fault-free families: shape,
///   exclusivity, releases, dependencies, FIFO, the too-fast floor,
///   bubble accounting, and the memory ledger (checked against the
///   whole task list's footprint ceiling — failed tasks genuinely
///   allocated before they were aborted). Every violation names a
///   submitted task id.
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
    let mut report = AuditReport {
        violations: Vec::new(),
        checks: 2,
    };
    if outcome.spans.len() != tasks.len() {
        report.violations.push(Violation::Shape {
            detail: format!(
                "{} outcome slots for {} submitted tasks",
                outcome.spans.len(),
                tasks.len()
            ),
        });
        return report;
    }
    if outcome.processor_count != soc.processors.len() {
        report.violations.push(Violation::Shape {
            detail: format!(
                "outcome claims {} processors, SoC has {}",
                outcome.processor_count,
                soc.processors.len()
            ),
        });
        return report;
    }

    // A task the faults killed must not also claim a completed span.
    for f in &outcome.failed {
        report.checks += 1;
        if outcome.spans.get(f.task).is_some_and(Option::is_some) {
            report.violations.push(Violation::Shape {
                detail: format!("task {} both failed and completed", f.task),
            });
        }
    }
    for &o in &outcome.orphaned {
        report.checks += 1;
        if outcome.spans.get(o).is_some_and(Option::is_some) {
            report.violations.push(Violation::Shape {
                detail: format!("task {o} is both orphaned and completed"),
            });
        }
    }

    // Completed-closure invariant: every dependency of a completed task
    // completed. Without it the ordering families below would skip the
    // missing dependencies, so a broken closure bails out.
    for (i, s) in outcome.spans.iter().enumerate() {
        if s.is_none() {
            continue;
        }
        for d in &tasks[i].deps {
            report.checks += 1;
            if outcome.spans.get(d.index()).is_none_or(Option::is_none) {
                report.violations.push(Violation::Shape {
                    detail: format!(
                        "task {i} completed but its dependency {} did not",
                        d.index()
                    ),
                });
            }
        }
    }
    if !report.violations.is_empty() {
        return report;
    }

    let ids: Vec<usize> = (0..tasks.len())
        .filter(|&i| outcome.spans[i].is_some())
        .collect();
    let subject = Subject {
        soc,
        tasks,
        slots: Slots::Outcome(&outcome.spans),
        ids: &ids,
        memory: &outcome.memory,
        processor_count: outcome.processor_count,
    };
    // The subset's span and processor counts match by construction.
    report.checks += 2;
    if !check_spans(&subject, &mut report) {
        return report;
    }
    // Too-fast floor only; see the doc comment for why the too-slow
    // envelope is replaced by exact replay under faults.
    check_families(&subject, None, &mut report);

    check_replay(Slots::Outcome(&outcome.spans), tasks, events, &mut report);
    report
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

    /// Two chains on Kirin 990: task 0 fails transiently, so its
    /// successor task 1 is orphaned, while tasks 2 → 3 complete.
    fn faulted_chains(
        soc: &SocSpec,
    ) -> (
        Vec<TaskSpec>,
        crate::faults::FaultOutcome,
        Vec<crate::engine::EngineEvent>,
    ) {
        let cpu = id(soc, ProcessorKind::CpuBig);
        let gpu = id(soc, ProcessorKind::Gpu);
        let npu = id(soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 6.0));
        sim.add_task(TaskSpec::new("b", gpu, 3.0).after(a));
        let c = sim.add_task(TaskSpec::new("c", cpu, 5.0));
        sim.add_task(TaskSpec::new("d", gpu, 4.0).after(c));
        let inj = crate::faults::FaultInjector::new(soc.processors.len()).fail_task(0, 0.5);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert_eq!(outcome.orphaned, vec![1]);
        assert!(outcome.spans[2].is_some() && outcome.spans[3].is_some());
        (sim.tasks().to_vec(), outcome, events)
    }

    #[test]
    fn faulted_violations_name_submitted_ids() {
        let soc = soc();
        let (tasks, mut outcome, events) = faulted_chains(&soc);
        assert!(audit_faulted(&soc, &tasks, &events, &outcome).is_clean());
        // Shrink task 3's span: the too-fast floor and the replay both
        // catch it, and both must name task 3 (the subset's second
        // completed task), never the orphaned task 1.
        if let Some(span) = outcome.spans[3].as_mut() {
            span.end_ms = span.start_ms + 0.5;
        }
        let report = audit_faulted(&soc, &tasks, &events, &outcome);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::TooFast { task: 3, .. })),
            "{report}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ReplaySpan { task: 3, .. })),
            "{report}"
        );
        for v in &report.violations {
            assert!(matches!(v.task(), None | Some(3)), "{v}");
        }
        assert!(report.to_string().contains("too fast: task 3"), "{report}");
    }

    #[test]
    fn faulted_span_recording_another_id_is_a_shape_violation() {
        let soc = soc();
        let (tasks, mut outcome, events) = faulted_chains(&soc);
        if let Some(span) = outcome.spans[2].as_mut() {
            span.task = 9;
        }
        let report = audit_faulted(&soc, &tasks, &events, &outcome);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::Shape { detail } if detail == "span 2 records task id 9"
            )),
            "{report}"
        );
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
