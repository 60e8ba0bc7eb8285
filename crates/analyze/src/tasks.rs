//! Static lint over lowered task graphs (`&[TaskSpec]`).
//!
//! Baseline schemes (MNN-serial, Band, DART) build task graphs directly
//! rather than going through a `PipelinePlan`, and the executor's
//! `LoweredPlan` holds one too. [`lint_tasks`] gives both the same
//! pre-execution verification surface the plan-level lint gives the
//! planner: processor indices valid, costs finite, dependencies
//! consistent with submission order, and footprints inside the ledger.

use h2p_simulator::engine::TaskSpec;
use h2p_simulator::soc::SocSpec;

use crate::diag::{DiagCode, Diagnostic, Diagnostics};

/// Lints a lowered task graph against `soc` without executing it.
pub fn lint_tasks(soc: &SocSpec, tasks: &[TaskSpec]) -> Diagnostics {
    let mut out = Diagnostics::default();

    out.record_check();
    if tasks.is_empty() {
        out.push(Diagnostic::new(
            DiagCode::EmptyPlan,
            "task graph contains no tasks",
        ));
        return out;
    }

    // Processor feasibility.
    out.record_check();
    let n_procs = soc.processors.len();
    for (i, t) in tasks.iter().enumerate() {
        if t.processor.index() >= n_procs {
            out.push(
                Diagnostic::new(
                    DiagCode::ProcFeasibility,
                    format!(
                        "task '{}' targets processor index {} but {} has {} processors",
                        t.label,
                        t.processor.index(),
                        soc.name,
                        n_procs
                    ),
                )
                .request(i),
            );
        }
    }

    // Finite, non-negative costs.
    out.record_check();
    for (i, t) in tasks.iter().enumerate() {
        for (what, v) in [
            ("solo time", t.solo_ms),
            ("intensity", t.intensity),
            ("sensitivity", t.sensitivity),
            ("bandwidth", t.bandwidth_gbps),
            ("release time", t.release_ms),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                out.push(
                    Diagnostic::new(
                        DiagCode::NonFiniteCost,
                        format!(
                            "task '{}': {what} {v} is not a finite non-negative number",
                            t.label
                        ),
                    )
                    .request(i),
                );
            }
        }
    }

    // DAG sanity: `Simulation::add_task` hands out ids in submission
    // order, so every dependency must point strictly backwards — a
    // forward or self edge can never be satisfied and deadlocks the run.
    out.record_check();
    for (i, t) in tasks.iter().enumerate() {
        for dep in &t.deps {
            if dep.index() >= i {
                out.push(
                    Diagnostic::new(
                        DiagCode::DagOrder,
                        format!(
                            "task '{}' (index {i}) depends on task index {} — dependencies must \
                             precede the task in submission order",
                            t.label,
                            dep.index()
                        ),
                    )
                    .request(i),
                );
            }
        }
    }

    // Memory budget: a single task whose footprint exceeds physical
    // capacity is guaranteed to page for its whole duration.
    out.record_check();
    let capacity = soc.memory.capacity_bytes;
    for (i, t) in tasks.iter().enumerate() {
        if t.footprint_bytes > capacity {
            let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
            out.push(
                Diagnostic::new(
                    DiagCode::MemoryBudget,
                    format!(
                        "task '{}' footprint {:.1} MB exceeds {} capacity {:.1} MB — it will \
                         page for its entire run",
                        t.label,
                        mb(t.footprint_bytes),
                        soc.name,
                        mb(capacity)
                    ),
                )
                .request(i),
            );
        }
    }

    out
}

/// Lints a lowered task graph against `soc` with an availability mask:
/// everything [`lint_tasks`] checks, plus H2P009 — no task may target a
/// processor marked unavailable in `down` (`down[p] == true` means
/// processor `p` has dropped out). Recovery replans run this instead of
/// [`lint_tasks`] so a plan that routes work onto a dead processor is
/// rejected before execution.
///
/// `down` is indexed by processor; indices beyond its length are
/// treated as available (their validity is already H2P003's job).
pub fn lint_tasks_available(soc: &SocSpec, tasks: &[TaskSpec], down: &[bool]) -> Diagnostics {
    let mut out = lint_tasks(soc, tasks);
    out.record_check();
    for (i, t) in tasks.iter().enumerate() {
        let p = t.processor.index();
        if down.get(p).copied().unwrap_or(false) {
            let name = soc
                .processors
                .get(p)
                .map_or_else(|| format!("processor {p}"), |spec| spec.name.clone());
            out.push(
                Diagnostic::new(
                    DiagCode::ProcessorDown,
                    format!(
                        "task '{}' targets {name}, which is marked unavailable",
                        t.label
                    ),
                )
                .request(i),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_simulator::engine::Simulation;
    use h2p_simulator::processor::ProcessorId;

    fn soc() -> SocSpec {
        SocSpec::kirin_990()
    }

    fn graph(soc: &SocSpec) -> Vec<TaskSpec> {
        let cpu = soc.processors_by_power()[0];
        let mut sim = Simulation::new(soc);
        let a = sim.add_task(TaskSpec::new("a", cpu, 2.0));
        let mut b = TaskSpec::new("b", cpu, 3.0);
        b.deps.push(a);
        sim.add_task(b);
        sim.tasks().to_vec()
    }

    #[test]
    fn well_formed_graph_lints_clean() {
        let soc = soc();
        let d = lint_tasks(&soc, &graph(&soc));
        assert!(d.is_clean(), "{d}");
        assert_eq!(d.warn_count(), 0, "{d}");
        assert_eq!(d.checks, 5);
    }

    #[test]
    fn empty_graph_warns() {
        let d = lint_tasks(&soc(), &[]);
        assert!(d.is_clean());
        assert_eq!(d.diags[0].code, DiagCode::EmptyPlan);
    }

    #[test]
    fn out_of_range_processor_errors() {
        let soc = soc();
        let mut tasks = graph(&soc);
        tasks[0].processor = ProcessorId(42);
        let d = lint_tasks(&soc, &tasks);
        assert!(
            d.diags.iter().any(|x| x.code == DiagCode::ProcFeasibility),
            "{d}"
        );
    }

    #[test]
    fn nan_and_negative_costs_error() {
        let soc = soc();
        let mut tasks = graph(&soc);
        tasks[0].solo_ms = f64::NAN;
        tasks[1].sensitivity = -1.0;
        let d = lint_tasks(&soc, &tasks);
        assert_eq!(
            d.diags
                .iter()
                .filter(|x| x.code == DiagCode::NonFiniteCost)
                .count(),
            2,
            "{d}"
        );
    }

    #[test]
    fn forward_dependency_errors() {
        let soc = soc();
        let mut tasks = graph(&soc);
        // Make task 0 depend on task 1: impossible under submission order.
        let dep = tasks[1].deps[0];
        tasks.swap(0, 1);
        tasks[0].deps = vec![dep];
        tasks[1].deps.clear();
        let d = lint_tasks(&soc, &tasks);
        assert!(d.diags.iter().any(|x| x.code == DiagCode::DagOrder), "{d}");
    }

    #[test]
    fn down_processor_fires_h2p009() {
        let soc = soc();
        let tasks = graph(&soc);
        let used = tasks[0].processor.index();
        let mut down = vec![false; soc.processors.len()];

        // All processors up: the extra check runs and stays clean.
        let d = lint_tasks_available(&soc, &tasks, &down);
        assert!(d.is_clean(), "{d}");
        assert_eq!(d.checks, 6);

        down[used] = true;
        let d = lint_tasks_available(&soc, &tasks, &down);
        assert!(!d.is_clean(), "{d}");
        assert_eq!(
            d.diags
                .iter()
                .filter(|x| x.code == DiagCode::ProcessorDown)
                .count(),
            2,
            "both tasks target the down processor: {d}"
        );

        // A short mask treats unlisted processors as available.
        let d = lint_tasks_available(&soc, &tasks, &[]);
        assert!(d.is_clean(), "{d}");
    }

    #[test]
    fn oversized_footprint_warns() {
        let soc = soc();
        let mut tasks = graph(&soc);
        tasks[0].footprint_bytes = soc.memory.capacity_bytes + 1;
        let d = lint_tasks(&soc, &tasks);
        assert!(d.is_clean(), "{d}");
        assert!(
            d.diags.iter().any(|x| x.code == DiagCode::MemoryBudget),
            "{d}"
        );
    }
}
