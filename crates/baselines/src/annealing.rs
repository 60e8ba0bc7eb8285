//! Simulated-annealing search over the vertical arrangement (Fig. 8a's
//! meta-heuristic comparator).
//!
//! Same search space as [`crate::exhaustive`] — request orderings with
//! fixed horizontal partitions — explored by simulated annealing with a
//! geometric cooling schedule and pairwise-swap neighbourhood. The paper
//! shows Hetero²Pipe outperforms this meta-heuristic at much lower
//! complexity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use h2p_models::graph::ModelGraph;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::planner::Planner;

use crate::exhaustive::{realize, SearchOutcome};

/// Tuning parameters for the annealer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingParams {
    /// Iterations (neighbour evaluations).
    pub iterations: usize,
    /// Initial temperature as a fraction of the initial estimate.
    pub initial_temp_frac: f64,
    /// Geometric cooling factor applied each iteration.
    pub cooling: f64,
}

impl Default for AnnealingParams {
    fn default() -> Self {
        AnnealingParams {
            iterations: 400,
            initial_temp_frac: 0.10,
            cooling: 0.99,
        }
    }
}

/// Runs simulated annealing over request orderings with the given seed.
///
/// # Errors
///
/// Returns [`PlanError`] if planning or execution fails.
pub fn run(
    soc: &SocSpec,
    requests: &[ModelGraph],
    seed: u64,
    params: AnnealingParams,
) -> Result<SearchOutcome, PlanError> {
    let planner = Planner::new(soc)?;
    let mut prepared = planner.prepare(requests)?;
    let n = requests.len();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut order: Vec<usize> = (0..n).collect();
    let mut energy = prepared.score(0..n);
    prepared.keep();
    let mut best_order = order.clone();
    let mut best = energy;
    let mut temp = energy * params.initial_temp_frac;
    let mut evaluated = 1usize;

    if n > 1 {
        for _ in 0..params.iterations {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            order.swap(a, b);
            let e = prepared.score(order.iter().copied());
            evaluated += 1;
            let accept = e <= energy || {
                let d = (e - energy) / temp.max(1e-9);
                rng.gen::<f64>() < (-d).exp()
            };
            if accept {
                energy = e;
                if e < best {
                    best = e;
                    best_order.clone_from(&order);
                    prepared.keep();
                }
            } else {
                order.swap(a, b); // revert
            }
            temp *= params.cooling;
        }
    }

    Ok(SearchOutcome {
        report: realize(prepared, soc)?,
        best_order,
        best_estimate_ms: best,
        evaluated,
        complete: false,
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
    fn annealing_never_beats_exhaustive() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::Bert,
            ModelId::SqueezeNet,
            ModelId::ResNet50,
            ModelId::MobileNetV2,
        ]);
        let ex = crate::exhaustive::run(&soc, &reqs, 100_000).unwrap();
        let sa = run(&soc, &reqs, 7, AnnealingParams::default()).unwrap();
        assert!(sa.best_estimate_ms >= ex.best_estimate_ms - 1e-9);
    }

    #[test]
    fn annealing_improves_or_matches_identity_order() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::SqueezeNet,
            ModelId::GoogLeNet,
            ModelId::Vgg16,
            ModelId::Bert,
            ModelId::MobileNetV2,
        ]);
        let planner = Planner::new(&soc).unwrap();
        let id_e = planner.prepare(&reqs).unwrap().score(0..reqs.len());
        let sa = run(&soc, &reqs, 1, AnnealingParams::default()).unwrap();
        assert!(sa.best_estimate_ms <= id_e);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit]);
        let a = run(&soc, &reqs, 42, AnnealingParams::default()).unwrap();
        let b = run(&soc, &reqs, 42, AnnealingParams::default()).unwrap();
        assert_eq!(a.best_order, b.best_order);
        assert_eq!(a.best_estimate_ms, b.best_estimate_ms);
    }

    #[test]
    fn single_request_is_trivial() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::ResNet50]);
        let sa = run(&soc, &reqs, 0, AnnealingParams::default()).unwrap();
        assert_eq!(sa.best_order, vec![0]);
        assert_eq!(sa.evaluated, 1);
    }
}
