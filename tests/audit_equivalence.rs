//! Equivalence of the in-place trace audits with the copy-based oracle.
//!
//! `audit::audit_faulted` checks a faulted run's completed subset where
//! it lies, keyed by the submitted task ids, and `audit::audit` runs the
//! same family code over every id. The [`oracle`] module keeps the
//! copy-based formulation: the completed subset is cloned onto a compact
//! task list and trace, and the contract families run there, each with
//! its own per-processor collect-and-sort. The oracle names every task
//! by its submitted id, so the two must produce identical reports: the
//! same violations in the same order, and the same check count.
//!
//! Inputs are seeded `chaos_faults` scenarios (round 0 of the recovery
//! runner: the planned, lowered batch under the scripted dropouts,
//! throttles, transient failures and misprediction) over random 1-8
//! model mixes on the three evaluation SoCs. Each run is compared clean
//! and under every corruption class the audit exists to catch. The one
//! stated difference is a span whose `task` field disagrees with its
//! slot: the oracle's remap overwrote that field, the in-place audit
//! reports it.

use proptest::prelude::*;

use h2p_models::zoo::ModelId;
use h2p_simulator::audit::{self, AuditReport, Violation};
use h2p_simulator::engine::EngineEvent;
use h2p_simulator::faults::{compile_injector, FaultOutcome, FaultSpec};
use h2p_simulator::{SocSpec, TaskSpec, Trace};
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::chaos_faults;

/// The copy-based audits as they stood before the in-place rewrite, with
/// every violation naming the submitted task id (`name[k]` for the
/// oracle's compact id `k`).
mod oracle {
    use h2p_simulator::audit::{conservative_bound_ms, replay, AuditReport, Violation};
    use h2p_simulator::engine::{EngineEvent, Simulation, TaskId, TaskSpec};
    use h2p_simulator::faults::FaultOutcome;
    use h2p_simulator::timeline::{Span, Trace};
    use h2p_simulator::{ProcessorId, SocSpec};

    const TIME_EPS: f64 = 1e-6;

    /// The fault-free audit: every id names itself.
    pub fn audit(soc: &SocSpec, tasks: &[TaskSpec], trace: &Trace) -> AuditReport {
        let name: Vec<usize> = (0..trace.spans.len().max(tasks.len())).collect();
        let mut violations = Vec::new();
        let mut checks = 0usize;
        check_shape(soc, tasks, trace, &name, &mut violations, &mut checks);
        if trace.spans.len() != tasks.len()
            || trace.spans.iter().enumerate().any(|(i, s)| s.task != i)
        {
            return AuditReport { violations, checks };
        }
        check_exclusivity(trace, &name, &mut violations, &mut checks);
        check_releases(tasks, trace, &name, &mut violations, &mut checks);
        check_dependencies(tasks, trace, &name, &mut violations, &mut checks);
        check_fifo(tasks, trace, &name, &mut violations, &mut checks);
        for (i, spec) in tasks.iter().enumerate() {
            let span = &trace.spans[i];
            let duration = span.end_ms - span.start_ms;
            checks += 1;
            if duration < spec.solo_ms - TIME_EPS {
                violations.push(Violation::TooFast {
                    task: name[i],
                    duration_ms: duration,
                    solo_ms: spec.solo_ms,
                });
            }
            let bound = conservative_bound_ms(soc, tasks, trace, i);
            checks += 1;
            if duration > bound {
                violations.push(Violation::TooSlow {
                    task: name[i],
                    duration_ms: duration,
                    bound_ms: bound,
                });
            }
        }
        check_bubbles(trace, &mut violations, &mut checks);
        check_memory(soc, tasks, trace, &mut violations, &mut checks);
        AuditReport { violations, checks }
    }

    /// The faulted audit: the completed subset is remapped onto compact
    /// ids, audited there, and its violations name submitted ids.
    pub fn audit_faulted(
        soc: &SocSpec,
        tasks: &[TaskSpec],
        events: &[EngineEvent],
        outcome: &FaultOutcome,
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

        let completed: Vec<usize> = (0..tasks.len())
            .filter(|&i| outcome.spans[i].is_some())
            .collect();
        let mut new_id = vec![usize::MAX; tasks.len()];
        for (k, &i) in completed.iter().enumerate() {
            new_id[i] = k;
        }
        let handle = task_ids(soc, completed.len());
        let sub_tasks: Vec<TaskSpec> = completed
            .iter()
            .map(|&i| {
                let mut t = tasks[i].clone();
                t.deps = t.deps.iter().map(|d| handle[new_id[d.index()]]).collect();
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
        let name = &completed;

        check_shape(
            soc,
            &sub_tasks,
            &sub_trace,
            name,
            &mut violations,
            &mut checks,
        );
        if sub_trace.spans.len() != sub_tasks.len()
            || sub_trace.spans.iter().enumerate().any(|(i, s)| s.task != i)
        {
            return AuditReport { violations, checks };
        }
        check_exclusivity(&sub_trace, name, &mut violations, &mut checks);
        check_releases(&sub_tasks, &sub_trace, name, &mut violations, &mut checks);
        check_dependencies(&sub_tasks, &sub_trace, name, &mut violations, &mut checks);
        check_fifo(&sub_tasks, &sub_trace, name, &mut violations, &mut checks);
        for (i, spec) in sub_tasks.iter().enumerate() {
            checks += 1;
            let duration = sub_trace.spans[i].end_ms - sub_trace.spans[i].start_ms;
            if duration < spec.solo_ms - TIME_EPS {
                violations.push(Violation::TooFast {
                    task: name[i],
                    duration_ms: duration,
                    solo_ms: spec.solo_ms,
                });
            }
        }
        check_bubbles(&sub_trace, &mut violations, &mut checks);
        check_memory(soc, tasks, &sub_trace, &mut violations, &mut checks);

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
                            detail: format!(
                                "task {i} has a span but never finished in the event log"
                            ),
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

    /// Task ids `0..n`: the simulator hands them out in submission
    /// order and has no other public constructor.
    fn task_ids(soc: &SocSpec, n: usize) -> Vec<TaskId> {
        let mut sim = Simulation::new(soc);
        (0..n)
            .map(|_| sim.add_task(TaskSpec::new("id", ProcessorId(0), 0.0)))
            .collect()
    }

    fn check_shape(
        soc: &SocSpec,
        tasks: &[TaskSpec],
        trace: &Trace,
        name: &[usize],
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
                    detail: format!("span {} records task id {}", name[i], span.task),
                });
                continue;
            }
            let Some(spec) = tasks.get(i) else { continue };
            if span.processor != spec.processor {
                violations.push(Violation::Shape {
                    detail: format!(
                        "task {} ran on processor {} but was pinned to {}",
                        name[i],
                        span.processor.index(),
                        spec.processor.index()
                    ),
                });
            }
            if (span.solo_ms - spec.solo_ms).abs() > TIME_EPS {
                violations.push(Violation::Shape {
                    detail: format!(
                        "task {} span records solo {} ms, spec says {} ms",
                        name[i], span.solo_ms, spec.solo_ms
                    ),
                });
            }
            if !(span.start_ms.is_finite() && span.end_ms.is_finite())
                || span.end_ms < span.start_ms - TIME_EPS
                || span.start_ms < -TIME_EPS
            {
                violations.push(Violation::Shape {
                    detail: format!(
                        "task {} has malformed timestamps [{}, {}]",
                        name[i], span.start_ms, span.end_ms
                    ),
                });
            }
        }
    }

    fn check_exclusivity(
        trace: &Trace,
        name: &[usize],
        violations: &mut Vec<Violation>,
        checks: &mut usize,
    ) {
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
                        first: name[w[0].task],
                        second: name[w[1].task],
                        by_ms: -gap,
                    });
                }
            }
        }
    }

    fn check_releases(
        tasks: &[TaskSpec],
        trace: &Trace,
        name: &[usize],
        violations: &mut Vec<Violation>,
        checks: &mut usize,
    ) {
        for (i, spec) in tasks.iter().enumerate() {
            *checks += 1;
            let span = &trace.spans[i];
            if span.start_ms < spec.release_ms - TIME_EPS {
                violations.push(Violation::EarlyStart {
                    task: name[i],
                    start_ms: span.start_ms,
                    release_ms: spec.release_ms,
                });
            }
        }
    }

    fn check_dependencies(
        tasks: &[TaskSpec],
        trace: &Trace,
        name: &[usize],
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
                        task: name[i],
                        dependency: name[d.index()],
                        start_ms: span.start_ms,
                        dep_end_ms: dep_span.end_ms,
                    });
                }
            }
        }
    }

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
        name: &[usize],
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
                let strictly_earlier = entry_a < entry_b - TIME_EPS;
                let tie_by_id = entry_a == entry_b && a < b;
                if !(strictly_earlier || tie_by_id) {
                    continue;
                }
                *checks += 1;
                if trace.spans[a].start_ms > trace.spans[b].start_ms + TIME_EPS {
                    violations.push(Violation::FifoOrder {
                        processor: p,
                        earlier: name[a],
                        later: name[b],
                    });
                }
            }
        }
    }

    fn check_bubbles(trace: &Trace, violations: &mut Vec<Violation>, checks: &mut usize) {
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
            return;
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
}

/// One seeded chaos scenario, as round 0 of the recovery runner runs
/// it: the planned batch lowered, its solo times scaled by any
/// misprediction, under the scripted dropouts and throttles, with every
/// flaky request's final task failing halfway.
struct Scenario {
    soc: SocSpec,
    tasks: Vec<TaskSpec>,
    outcome: FaultOutcome,
    events: Vec<EngineEvent>,
    /// The same tasks run without faults.
    trace: Trace,
}

fn scenario(picks: &[usize], soc_pick: usize, seed: u64) -> Scenario {
    let soc = SocSpec::evaluation_platforms()
        .into_iter()
        .nth(soc_pick)
        .expect("three platforms");
    let graphs: Vec<_> = picks.iter().map(|&i| ModelId::ALL[i].graph()).collect();
    let planner = Planner::new(&soc).expect("planner trains");
    let planned = planner.plan(&graphs).expect("plans");
    let (mut sim, final_task, _) = planned.lower(&soc).expect("lowers").into_parts();
    let faults = chaos_faults(&soc, graphs.len(), seed);
    let mut inj = compile_injector(&faults, &soc);
    for spec in &faults {
        match *spec {
            FaultSpec::TransientFailure { request, failures } if failures > 0 => {
                if let Some(t) = final_task.get(request).copied().flatten() {
                    inj = inj.fail_task(t.index(), 0.5);
                }
            }
            FaultSpec::CostMisprediction { scale } => {
                for t in sim.tasks_mut() {
                    t.solo_ms *= scale;
                }
            }
            _ => {}
        }
    }
    let (outcome, events) = sim.run_faulted(&inj).expect("faulted run");
    let trace = sim.run().expect("fault-free run");
    Scenario {
        tasks: sim.tasks().to_vec(),
        soc,
        outcome,
        events,
        trace,
    }
}

/// A deterministic pick from `0..n` (`n > 0`) for corruption `salt`.
fn pick(seed: u64, salt: u64, n: usize) -> usize {
    (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ salt.wrapping_mul(0xff51_afd7))
        as usize
        % n
}

/// Every corruption class applied to a faulted run, each named; a class
/// the run gives nothing to corrupt (say, no failed task) is skipped.
fn faulted_corruptions(
    sc: &Scenario,
    seed: u64,
) -> Vec<(&'static str, FaultOutcome, Vec<EngineEvent>)> {
    let done: Vec<usize> = (0..sc.tasks.len())
        .filter(|&i| sc.outcome.spans[i].is_some())
        .collect();
    let mut out = Vec::new();
    let mut with = |name, edit: &dyn Fn(&mut FaultOutcome, &mut Vec<EngineEvent>)| {
        let (mut outcome, mut events) = (sc.outcome.clone(), sc.events.clone());
        edit(&mut outcome, &mut events);
        out.push((name, outcome, events));
    };
    if let Some(&k) = done.get(pick(seed, 1, done.len().max(1))) {
        let by = if seed.is_multiple_of(2) { -1.5 } else { 2.0 };
        with("shifted", &|o, _| {
            if let Some(s) = o.spans[k].as_mut() {
                s.start_ms += by;
                s.end_ms += by;
            }
        });
        with("shrunk", &|o, _| {
            if let Some(s) = o.spans[k].as_mut() {
                s.end_ms = s.start_ms + 0.5 * (s.end_ms - s.start_ms);
            }
        });
        with("dropped finish", &|_, e| {
            e.retain(|ev| !matches!(ev, EngineEvent::Finish { task, .. } if *task == k));
        });
        // Two spans starting at one instant on one processor: the
        // exclusivity pair and the bubble sum depend on the tie-break.
        let twin = done.iter().copied().find(|&j| {
            j != k
                && sc.outcome.spans[j].as_ref().map(|s| s.processor)
                    == sc.outcome.spans[k].as_ref().map(|s| s.processor)
        });
        if let Some(j) = twin {
            with("swapped", &|o, _| {
                if let (Some(a), Some(b)) = (o.spans[j].clone(), o.spans[k].clone()) {
                    for (slot, from) in [(j, b), (k, a)] {
                        if let Some(s) = o.spans[slot].as_mut() {
                            s.start_ms = from.start_ms;
                            s.end_ms = from.end_ms;
                        }
                    }
                }
            });
            with("same start", &|o, _| {
                let start = o.spans[k].as_ref().map(|s| s.start_ms);
                if let (Some(sj), Some(start)) = (o.spans[j].as_mut(), start) {
                    let len = sj.end_ms - sj.start_ms;
                    sj.start_ms = start;
                    sj.end_ms = start + len;
                }
            });
        }
        with("task field", &|o, _| {
            if let Some(s) = o.spans[k].as_mut() {
                s.task = k + 1000;
            }
        });
    }
    let killed = sc
        .outcome
        .failed
        .first()
        .map(|f| f.task)
        .or_else(|| sc.outcome.orphaned.first().copied());
    if let (Some(t), Some(&k)) = (killed, done.first()) {
        with("span on a killed task", &|o, _| {
            let mut s = o.spans[k].clone();
            if let Some(s) = s.as_mut() {
                s.task = t;
            }
            o.spans[t] = s;
        });
    }
    let dependent = done.iter().copied().find(|&i| !sc.tasks[i].deps.is_empty());
    if let Some(i) = dependent {
        let dep = sc.tasks[i].deps[0].index();
        with("broken closure", &|o, _| o.spans[dep] = None);
    }
    if sc.outcome.memory.len() > 2 {
        let m = 1 + pick(seed, 2, sc.outcome.memory.len() - 2);
        with("tampered memory", &|o, _| {
            o.memory[m].allocated_bytes += 4096;
        });
    }
    out
}

/// The fault-free trace's corruptions: shifted, shrunk, swapped spans,
/// a wrong task field and a tampered memory sample.
fn trace_corruptions(trace: &Trace, seed: u64) -> Vec<(&'static str, Trace)> {
    let n = trace.spans.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let k = pick(seed, 3, n);
    let mut with = |name, edit: &dyn Fn(&mut Trace)| {
        let mut t = trace.clone();
        edit(&mut t);
        out.push((name, t));
    };
    with("shifted", &|t| {
        t.spans[k].start_ms -= 1.5;
        t.spans[k].end_ms -= 1.5;
    });
    with("shrunk", &|t| {
        let s = &mut t.spans[k];
        s.end_ms = s.start_ms + 0.5 * (s.end_ms - s.start_ms);
    });
    if let Some(j) =
        (0..n).find(|&j| j != k && trace.spans[j].processor == trace.spans[k].processor)
    {
        with("swapped", &|t| {
            let (a, b) = (t.spans[j].clone(), t.spans[k].clone());
            t.spans[j].start_ms = b.start_ms;
            t.spans[j].end_ms = b.end_ms;
            t.spans[k].start_ms = a.start_ms;
            t.spans[k].end_ms = a.end_ms;
        });
    }
    with("task field", &|t| t.spans[k].task = k + 1000);
    if trace.memory.len() > 2 {
        let m = 1 + pick(seed, 4, trace.memory.len() - 2);
        with("tampered memory", &|t| t.memory[m].allocated_bytes += 4096);
    }
    out
}

fn same(a: &AuditReport, b: &AuditReport) -> bool {
    a.checks == b.checks && a.violations == b.violations
}

proptest! {
    // Each case trains a planner and plans a batch.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-place audits report exactly what the copy-based oracle
    /// reports, on clean and corrupted runs, faulted and fault-free.
    #[test]
    fn in_place_audits_match_the_copy_based_oracle(
        picks in prop::collection::vec(0usize..10, 1..9),
        soc_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let sc = scenario(&picks, soc_pick, seed);
        let audited = audit::audit_faulted(&sc.soc, &sc.tasks, &sc.events, &sc.outcome);
        prop_assert!(audited.is_clean(), "clean faulted run:\n{audited}");
        prop_assert!(same(
            &audited,
            &oracle::audit_faulted(&sc.soc, &sc.tasks, &sc.events, &sc.outcome)
        ));
        for (class, outcome, events) in faulted_corruptions(&sc, seed) {
            let new = audit::audit_faulted(&sc.soc, &sc.tasks, &events, &outcome);
            let old = oracle::audit_faulted(&sc.soc, &sc.tasks, &events, &outcome);
            if class == "task field" {
                // The stated exception: the oracle's remap overwrote the
                // field, the in-place audit reports it.
                prop_assert!(
                    new.violations.iter().any(|v| matches!(v, Violation::Shape { .. })),
                    "{new}"
                );
                continue;
            }
            prop_assert!(!new.is_clean(), "{class} went unnoticed");
            prop_assert!(same(&new, &old), "{class}:\nin place {new}\noracle {old}");
        }

        let audited = audit::audit(&sc.soc, &sc.tasks, &sc.trace);
        prop_assert!(audited.is_clean(), "clean trace:\n{audited}");
        prop_assert!(same(&audited, &oracle::audit(&sc.soc, &sc.tasks, &sc.trace)));
        for (class, trace) in trace_corruptions(&sc.trace, seed) {
            let new = audit::audit(&sc.soc, &sc.tasks, &trace);
            let old = oracle::audit(&sc.soc, &sc.tasks, &trace);
            prop_assert!(same(&new, &old), "{class}:\nin place {new}\noracle {old}");
        }
    }
}
