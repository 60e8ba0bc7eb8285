//! Pipe-it baseline: CPU-only Big/Small pipeline.
//!
//! Pipe-it pipelines DNN inference across CPU core clusters only. As in
//! the paper's evaluation, we adapt it to heterogeneous DNNs and use the
//! per-cluster granularity (all four Big cores as stage 1, all four Small
//! cores as stage 2) — the paper's Fig. 10 shows finer in-cluster splits
//! suffer up to 70% intra-cluster slowdown, so the cluster split is the
//! "fastest core combination". Each model is partitioned with the same DP
//! used by Hetero²Pipe's horizontal step, but there is no NPU/GPU, no
//! contention mitigation and no vertical alignment.

use h2p_models::graph::ModelGraph;
use h2p_simulator::processor::ProcessorKind;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::estimate::Estimator;
use hetero2pipe::executor::{self, ExecutionReport};
use hetero2pipe::partition::min_max_partition;
use hetero2pipe::plan::{PipelinePlan, RequestPlan};

/// Builds the Big→Small CPU pipeline plan without executing it.
///
/// # Errors
///
/// Returns [`PlanError`] if the SoC lacks CPU clusters or a model cannot
/// be partitioned.
pub fn plan(soc: &SocSpec, requests: &[ModelGraph]) -> Result<PipelinePlan, PlanError> {
    if requests.is_empty() {
        return Err(PlanError::EmptyRequestSet);
    }
    let big = soc
        .processor_by_kind(ProcessorKind::CpuBig)
        .ok_or(PlanError::NoCpu)?;
    let small = soc
        .processor_by_kind(ProcessorKind::CpuSmall)
        .ok_or(PlanError::NoCpu)?;
    let estimator = Estimator::new(soc)?;
    let cost = estimator.cost();
    let procs = vec![big, small];

    let mut plans = Vec::with_capacity(requests.len());
    for (idx, graph) in requests.iter().enumerate() {
        // Two-stage DP partition over Big → Small (CPUs support all ops).
        let ctx = estimator.context(graph, &procs, vec![0, 1]);
        let k = ctx.stage_count().min(graph.len());
        let ctx = if k < 2 {
            estimator.context(graph, &procs, vec![0])
        } else {
            ctx
        };
        let p = min_max_partition(graph.len(), ctx.stage_count(), |a, i, j| {
            ctx.stage_cost(cost, a, i, j)
        })
        .ok_or_else(|| PlanError::NoFeasiblePipeline {
            model: graph.name().to_owned(),
        })?;
        let stages = ctx
            .build_stages(cost, &p.splits, procs.len())
            .ok_or_else(|| PlanError::NoFeasiblePipeline {
                model: graph.name().to_owned(),
            })?;
        plans.push(RequestPlan {
            request: idx,
            model: graph.shared_name().clone(),
            stages,
            intensity: estimator.predict_intensity(graph),
            class: estimator.classify(graph),
        });
    }
    Ok(PipelinePlan {
        procs,
        requests: plans,
    })
}

/// Plans and executes `requests` as a Big→Small CPU pipeline.
///
/// # Errors
///
/// Returns [`PlanError`] if the SoC lacks CPU clusters or simulation
/// fails.
pub fn run(soc: &SocSpec, requests: &[ModelGraph]) -> Result<ExecutionReport, PlanError> {
    executor::execute(&plan(soc, requests)?, soc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;

    #[test]
    fn uses_only_cpu_clusters() {
        let soc = SocSpec::kirin_990();
        let reqs = vec![ModelId::ResNet50.graph(), ModelId::Vgg16.graph()];
        let r = run(&soc, &reqs).unwrap();
        let big = soc.processor_by_kind(ProcessorKind::CpuBig).unwrap();
        let small = soc.processor_by_kind(ProcessorKind::CpuSmall).unwrap();
        assert!(r
            .trace
            .spans
            .iter()
            .all(|s| s.processor == big || s.processor == small));
    }

    #[test]
    fn pipelining_beats_pure_serial_on_long_request_streams() {
        // Two-stage Big/Small pipelining pays off in steady state: the
        // pipeline fill cost amortizes over a long enough stream.
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = vec![ModelId::ResNet50.graph(); 10];
        let pipe = run(&soc, &reqs).unwrap();
        let serial = crate::mnn_serial::run(&soc, &reqs).unwrap();
        assert!(
            pipe.makespan_ms < serial.makespan_ms,
            "pipe {} vs serial {}",
            pipe.makespan_ms,
            serial.makespan_ms
        );
    }

    #[test]
    fn single_layer_models_fall_back_to_one_stage() {
        use h2p_models::layer::{Layer, OpKind};
        let soc = SocSpec::kirin_990();
        let g = ModelGraph::new(
            "tiny",
            1024,
            vec![Layer::new("only", OpKind::Conv, 1e8, 1024, 1024, 4096)],
        );
        let r = run(&soc, &[g]).unwrap();
        assert_eq!(r.trace.spans.len(), 1);
    }
}
