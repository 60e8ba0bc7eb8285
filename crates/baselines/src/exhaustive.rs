//! Exhaustive search over the vertical arrangement (Fig. 8a reference).
//!
//! With horizontal partitions fixed (the same DP output Hetero²Pipe
//! uses), the remaining vertical choice is the request order. This module
//! enumerates every permutation, evaluates each with the same
//! work-stealing alignment the planner applies, and realizes the best
//! one. Factorial cost — usable only for the small request sets of the
//! ablation study, which is exactly its role in the paper: Hetero²Pipe's
//! polynomial-time plan lands within a few percent of this optimum.

use std::sync::Arc;

use h2p_models::graph::ModelGraph;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::estimate::Estimator;
use hetero2pipe::executor::{self, ExecutionReport};
use hetero2pipe::plan::PipelinePlan;
use hetero2pipe::planner::{PlannedPipeline, Planner, PlannerConfig};
use hetero2pipe::worksteal::{self, CollapseSlots};

/// Result of a vertical-arrangement search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Execution report of the best arrangement found.
    pub report: ExecutionReport,
    /// The winning order (positions → original request indices).
    pub best_order: Vec<usize>,
    /// Estimated makespan of the winning arrangement.
    pub best_estimate_ms: f64,
    /// Number of arrangements evaluated.
    pub evaluated: usize,
    /// Whether the search space was covered completely.
    pub complete: bool,
}

/// The horizontal-only plan every arrangement permutes, with what the
/// vertical passes read: the estimator and each request's tail-collapse
/// candidates (indexed by original request index).
pub(crate) struct Base {
    planned: PlannedPipeline,
    estimator: Estimator,
    collapse: Vec<Arc<CollapseSlots>>,
}

/// Builds the horizontal-only plan shared by every arrangement.
pub(crate) fn base_plan(soc: &SocSpec, requests: &[ModelGraph]) -> Result<Base, PlanError> {
    let cfg = PlannerConfig {
        contention_mitigation: false,
        work_stealing: false,
        tail_optimization: false,
        ..PlannerConfig::default()
    };
    let planner = Planner::with_config(soc, cfg)?;
    let planned = planner.plan(requests)?;
    let estimator = planner.estimator().clone();
    // The candidates the reference tail search would rebuild for every
    // order it scores, built once per request from the cached tables.
    let collapse = requests
        .iter()
        .map(|graph| {
            let (tables, _) = estimator.tables_cached(graph, &planned.plan.procs);
            let slots = tables.slot_count();
            Arc::new(worksteal::collapse_candidates(
                &tables,
                estimator.cost(),
                slots,
            ))
        })
        .collect();
    Ok(Base {
        planned,
        estimator,
        collapse,
    })
}

/// One arrangement after the planner's vertical passes: the base plan's
/// requests permuted into `order`, then work stealing and the tail
/// search.
fn arrange(base: &Base, order: &[usize]) -> PipelinePlan {
    let mut plan = PipelinePlan {
        procs: base.planned.plan.procs.clone(),
        requests: order
            .iter()
            .map(|&i| base.planned.plan.requests[i].clone())
            .collect(),
    };
    let contexts = &base.planned.contexts;
    worksteal::align_by_stealing(&mut plan, |r| &contexts[r], base.estimator.cost());
    worksteal::optimize_tail_cached(&mut plan, &base.collapse);
    plan
}

/// Estimated makespan of one arrangement: the column-sum estimate of
/// [`arrange`]'s plan.
pub(crate) fn evaluate_order(base: &Base, order: &[usize]) -> f64 {
    arrange(base, order).estimated_makespan_contention_ms(base.estimator.cost().soc())
}

/// Realizes an arrangement end to end: [`arrange`] plus simulator
/// execution.
pub(crate) fn realize(
    base: &Base,
    order: &[usize],
    soc: &SocSpec,
) -> Result<ExecutionReport, PlanError> {
    executor::execute(&arrange(base, order), soc)
}

/// How candidate arrangements are scored during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluation {
    /// The planner's synchronous-column makespan estimate — cheap, and
    /// the same information polynomial-time planners have.
    Estimate,
    /// Full simulated execution — the oracle the paper's exhaustive
    /// search has when it measures every candidate on the device.
    Simulated,
}

/// Exhaustively searches request orderings, evaluating at most
/// `max_permutations` (set it above `n!` for a complete search).
///
/// # Errors
///
/// Returns [`PlanError`] if planning or execution fails.
pub fn run(
    soc: &SocSpec,
    requests: &[ModelGraph],
    max_permutations: usize,
) -> Result<SearchOutcome, PlanError> {
    run_with(soc, requests, max_permutations, Evaluation::Estimate)
}

/// Exhaustive search with an explicit evaluation mode; see [`Evaluation`].
///
/// # Errors
///
/// Returns [`PlanError`] if planning or execution fails.
pub fn run_with(
    soc: &SocSpec,
    requests: &[ModelGraph],
    max_permutations: usize,
    evaluation: Evaluation,
) -> Result<SearchOutcome, PlanError> {
    let base = base_plan(soc, requests)?;
    let n = requests.len();
    let score = |order: &[usize]| -> Result<f64, PlanError> {
        Ok(match evaluation {
            Evaluation::Estimate => evaluate_order(&base, order),
            Evaluation::Simulated => realize(&base, order, soc)?.makespan_ms,
        })
    };
    let mut order: Vec<usize> = (0..n).collect();
    let mut best_order = order.clone();
    let mut best = score(&order)?;
    let mut evaluated = 1usize;
    let mut complete = true;

    // Heap's algorithm for permutations.
    let mut c = vec![0usize; n];
    let mut i = 0usize;
    while i < n {
        if evaluated >= max_permutations {
            complete = false;
            break;
        }
        if c[i] < i {
            if i.is_multiple_of(2) {
                order.swap(0, i);
            } else {
                order.swap(c[i], i);
            }
            let e = score(&order)?;
            evaluated += 1;
            if e < best {
                best = e;
                best_order = order.clone();
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }

    let report = realize(&base, &best_order, soc)?;
    Ok(SearchOutcome {
        report,
        best_order,
        best_estimate_ms: best,
        evaluated,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;

    fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
        ids.iter().map(|m| m.graph()).collect()
    }

    #[test]
    fn covers_all_permutations_of_small_sets() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::SqueezeNet, ModelId::ResNet50, ModelId::Bert]);
        let out = run(&soc, &reqs, 1000).unwrap();
        assert!(out.complete);
        assert_eq!(out.evaluated, 6, "3! orderings");
        let mut sorted = out.best_order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn exhaustive_is_at_least_as_good_as_identity_order() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::Bert,
            ModelId::SqueezeNet,
            ModelId::Vgg16,
            ModelId::MobileNetV2,
        ]);
        let base = base_plan(&soc, &reqs).unwrap();
        let identity: Vec<usize> = (0..reqs.len()).collect();
        let id_est = evaluate_order(&base, &identity);
        let out = run(&soc, &reqs, 10_000).unwrap();
        assert!(out.best_estimate_ms <= id_est + 1e-9);
    }

    #[test]
    fn permutation_cap_truncates_search() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::SqueezeNet,
            ModelId::ResNet50,
            ModelId::Bert,
            ModelId::AlexNet,
        ]);
        let out = run(&soc, &reqs, 5).unwrap();
        assert!(!out.complete);
        assert_eq!(out.evaluated, 5);
    }
}
