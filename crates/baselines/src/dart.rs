//! DART baseline (RTSS '19): pipelined data-parallel CPU/GPU scheduling.
//!
//! DART distributes whole inference requests across CPU and GPU worker
//! queues (data parallelism between requests rather than model
//! parallelism within one), without NPU support, model heterogeneity
//! awareness or contention modeling (Table I). We reproduce the policy as
//! shortest-estimated-queue dispatch of whole models over the CPU Big
//! cluster and the GPU.

use h2p_models::cost::CostModel;
use h2p_models::graph::{LayerRange, ModelGraph};
use h2p_simulator::engine::{Simulation, TaskId, TaskLabel, TaskSpec};
use h2p_simulator::processor::ProcessorKind;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::{ExecutionReport, LoweredPlan};

/// Lowers `requests` to DART's two-worker task graph without running it.
///
/// # Errors
///
/// Returns [`PlanError`] if the SoC lacks a CPU or GPU.
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
    let gpu = soc
        .processor_by_kind(ProcessorKind::Gpu)
        .ok_or(PlanError::NoCpu)?;
    let workers = [big, gpu];
    let cost = CostModel::new(soc);
    let mut avail = [0.0f64; 2];
    let mut sim = Simulation::new(soc);
    let mut final_tasks: Vec<Option<TaskId>> = vec![None; requests.len()];
    let mut seen = std::collections::HashSet::new();

    for (idx, graph) in requests.iter().enumerate() {
        let whole = LayerRange::new(0, graph.len() - 1);
        // Dispatch to the worker with the earliest estimated finish.
        let mut best = 0usize;
        let mut best_finish = f64::INFINITY;
        let mut best_ms = 0.0;
        for (w, &p) in workers.iter().enumerate() {
            let ms = cost.slice_latency_ms(graph, whole, p).ok_or_else(|| {
                PlanError::NoFeasiblePipeline {
                    model: graph.name().to_owned(),
                }
            })?;
            let finish = avail[w] + ms;
            if finish < best_finish {
                best_finish = finish;
                best = w;
                best_ms = ms;
            }
        }
        avail[best] = best_finish;
        let p = workers[best];
        let footprint = (graph.footprint_bytes() as f64 * cost.footprint_scale()) as u64;
        let upload = hetero2pipe::executor::staging_ms(
            &mut seen,
            (graph.name(), p.index(), 0, graph.len() - 1),
            footprint,
        );
        let bw = cost.slice_bandwidth_gbps(graph, whole, p).unwrap_or(0.0);
        let id = sim.add_task(
            TaskSpec::new(
                TaskLabel::stage(graph.shared_name().clone(), idx, 0),
                p,
                best_ms + upload,
            )
            .intensity(bw / h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS)
            .bandwidth(bw)
            .footprint(footprint),
        );
        final_tasks[idx] = Some(id);
    }

    Ok(LoweredPlan::from_parts(sim, final_tasks, requests.len()))
}

/// Plans and executes `requests` under DART's data-parallel policy.
///
/// # Errors
///
/// Returns [`PlanError`] if the SoC lacks a CPU or GPU, or simulation
/// fails.
pub fn run(soc: &SocSpec, requests: &[ModelGraph]) -> Result<ExecutionReport, PlanError> {
    lower(soc, requests)?.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;

    #[test]
    fn dart_uses_both_cpu_and_gpu() {
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = vec![ModelId::ResNet50.graph(); 4];
        let r = run(&soc, &reqs).unwrap();
        let used: std::collections::HashSet<_> =
            r.trace.spans.iter().map(|s| s.processor).collect();
        assert_eq!(used.len(), 2, "whole models spread over CPU_B and GPU");
    }

    #[test]
    fn dart_beats_serial_but_trails_hetero2pipe() {
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = [
            ModelId::ResNet50,
            ModelId::InceptionV4,
            ModelId::Vgg16,
            ModelId::GoogLeNet,
            ModelId::AlexNet,
            ModelId::MobileNetV2,
        ]
        .iter()
        .map(|m| m.graph())
        .collect();
        let dart = run(&soc, &reqs).unwrap();
        let serial = crate::mnn_serial::run(&soc, &reqs).unwrap();
        let h2p = crate::Scheme::Hetero2Pipe.run(&soc, &reqs).unwrap();
        assert!(
            dart.makespan_ms < serial.makespan_ms,
            "two workers beat one"
        );
        assert!(
            h2p.makespan_ms < dart.makespan_ms,
            "the NPU-aware pipeline must beat CPU/GPU data parallelism: {} vs {}",
            h2p.makespan_ms,
            dart.makespan_ms
        );
    }

    #[test]
    fn dart_requires_a_gpu() {
        let mut soc = SocSpec::kirin_990();
        soc.processors.retain(|p| p.kind != ProcessorKind::Gpu);
        assert!(run(&soc, &[ModelId::ResNet50.graph()]).is_err());
    }
}
