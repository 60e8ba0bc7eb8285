//! Vanilla MNN v2.6.0 baseline: CPU-centric serial execution.
//!
//! "Since the CPU still outperforms the embedded GPU in most mobile
//! consumer devices, this represents the vanilla CPU-centric
//! implementation on the Big cores" — every request runs whole-model on
//! the CPU Big cluster, one after another (Fig. 2a's accumulating
//! queueing delay).

use h2p_models::cost::CostModel;
use h2p_models::graph::{LayerRange, ModelGraph};
use h2p_simulator::engine::{Simulation, TaskId, TaskLabel, TaskSpec};
use h2p_simulator::processor::ProcessorKind;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::{ExecutionReport, LoweredPlan};

/// Lowers `requests` to a serial CPU-Big task chain without running it.
///
/// # Errors
///
/// Returns [`PlanError::NoCpu`] if the SoC lacks a big CPU cluster.
pub fn lower<'soc>(
    soc: &'soc SocSpec,
    requests: &[ModelGraph],
) -> Result<LoweredPlan<'soc>, PlanError> {
    if requests.is_empty() {
        return Err(PlanError::EmptyRequestSet);
    }
    let big = soc
        .processor_by_kind(ProcessorKind::CpuBig)
        .ok_or(PlanError::NoCpu)?;
    let cost = CostModel::new(soc);
    let mut sim = Simulation::new(soc);
    let mut final_tasks: Vec<Option<TaskId>> = Vec::with_capacity(requests.len());
    let mut seen = std::collections::HashSet::new();
    for (idx, graph) in requests.iter().enumerate() {
        let whole = LayerRange::new(0, graph.len() - 1);
        let ms = cost.slice_latency_ms(graph, whole, big).ok_or_else(|| {
            PlanError::NoFeasiblePipeline {
                model: graph.name().to_owned(),
            }
        })?;
        let upload = hetero2pipe::executor::staging_ms(
            &mut seen,
            (graph.name(), big.index(), 0, graph.len() - 1),
            (graph.footprint_bytes() as f64 * cost.footprint_scale()) as u64,
        );
        let bw = cost.slice_bandwidth_gbps(graph, whole, big).unwrap_or(0.0);
        let id = sim.add_task(
            TaskSpec::new(
                TaskLabel::stage(graph.shared_name().clone(), idx, 0),
                big,
                ms + upload,
            )
            .intensity(bw / h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS)
            .bandwidth(bw)
            .footprint((graph.footprint_bytes() as f64 * cost.footprint_scale()) as u64),
        );
        final_tasks.push(Some(id));
    }
    Ok(LoweredPlan::from_parts(sim, final_tasks, requests.len()))
}

/// Executes `requests` serially on the CPU Big cores.
///
/// # Errors
///
/// Returns [`PlanError::NoCpu`] if the SoC lacks a big CPU cluster, or
/// [`PlanError::Simulation`] if the simulation fails.
pub fn run(soc: &SocSpec, requests: &[ModelGraph]) -> Result<ExecutionReport, PlanError> {
    lower(soc, requests)?.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;

    #[test]
    fn serial_latency_accumulates() {
        // Fig. 2(a): queueing delay accumulates with serial execution.
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = vec![ModelId::ResNet50.graph(); 3];
        let r = run(&soc, &reqs).unwrap();
        let l = &r.request_latency_ms;
        assert!(
            l[0] < l[1] && l[1] < l[2],
            "latencies must accumulate: {l:?}"
        );
        // Uniform models: equal spacing.
        let d1 = l[1] - l[0];
        let d2 = l[2] - l[1];
        assert!((d1 - d2).abs() < 1e-6);
    }

    #[test]
    fn only_the_big_cpu_is_used() {
        let soc = SocSpec::kirin_990();
        let big = soc.processor_by_kind(ProcessorKind::CpuBig).unwrap();
        let reqs = vec![ModelId::SqueezeNet.graph(), ModelId::Bert.graph()];
        let r = run(&soc, &reqs).unwrap();
        assert!(r.trace.spans.iter().all(|s| s.processor == big));
    }

    #[test]
    fn empty_request_set_is_rejected() {
        let soc = SocSpec::kirin_990();
        assert_eq!(run(&soc, &[]).unwrap_err(), PlanError::EmptyRequestSet);
    }
}
