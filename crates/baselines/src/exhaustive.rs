//! Exhaustive search over the vertical arrangement (Fig. 8a reference).
//!
//! With horizontal partitions fixed (the same step-1 output Hetero²Pipe
//! uses), the remaining vertical choice is the request order. This module
//! enumerates every permutation, scores each through the planner's own
//! steps 2–3 ([`Prepared::score`]: work stealing, the tail search and the
//! contention-aware estimate), and realizes the best one. Factorial cost
//! — usable only for the small request sets of the ablation study, which
//! is exactly its role in the paper: Hetero²Pipe's polynomial-time plan
//! lands within a few percent of this optimum.

use h2p_models::graph::ModelGraph;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::{self, ExecutionReport};
use hetero2pipe::planner::{Planner, Prepared};

/// Result of a vertical-arrangement search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Execution report of the best arrangement found.
    pub report: ExecutionReport,
    /// The winning order (positions → original request indices).
    pub best_order: Vec<usize>,
    /// Score of the winning arrangement (see [`Evaluation`]).
    pub best_estimate_ms: f64,
    /// Number of arrangements evaluated.
    pub evaluated: usize,
    /// Whether the search space was covered completely.
    pub complete: bool,
}

/// Simulates the order `prepared` kept: the report a search returns.
pub(crate) fn realize(prepared: Prepared<'_>, soc: &SocSpec) -> Result<ExecutionReport, PlanError> {
    executor::execute(&prepared.into_plan().plan, soc)
}

/// How candidate arrangements are scored during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evaluation {
    /// The planner's contention-aware makespan estimate — cheap, and
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
    let planner = Planner::new(soc)?;
    let mut prepared = planner.prepare(requests)?;
    let n = requests.len();
    let score = |prepared: &mut Prepared<'_>, order: &[usize]| -> Result<f64, PlanError> {
        let estimate = prepared.score(order.iter().copied());
        Ok(match evaluation {
            Evaluation::Estimate => estimate,
            Evaluation::Simulated => executor::execute(&prepared.scored_plan(), soc)?.makespan_ms,
        })
    };
    let mut order: Vec<usize> = (0..n).collect();
    let mut best_order = order.clone();
    let mut best = score(&mut prepared, &order)?;
    prepared.keep();
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
            let e = score(&mut prepared, &order)?;
            evaluated += 1;
            if e < best {
                best = e;
                best_order.clone_from(&order);
                prepared.keep();
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }

    Ok(SearchOutcome {
        report: realize(prepared, soc)?,
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
        let planner = Planner::new(&soc).unwrap();
        let id_est = planner.prepare(&reqs).unwrap().score(0..reqs.len());
        let out = run(&soc, &reqs, 10_000).unwrap();
        assert!(out.best_estimate_ms <= id_est);
    }

    /// Scored by simulation, the best score is the simulated makespan of
    /// the order the search realizes.
    #[test]
    fn simulated_search_reports_the_realized_makespan() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::SqueezeNet, ModelId::ResNet50, ModelId::Bert]);
        let out = run_with(&soc, &reqs, 1000, Evaluation::Simulated).unwrap();
        assert!(out.complete);
        assert_eq!(out.evaluated, 6);
        assert_eq!(
            out.best_estimate_ms.to_bits(),
            out.report.makespan_ms.to_bits()
        );
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
