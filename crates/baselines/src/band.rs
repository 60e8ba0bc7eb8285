//! Band baseline (MobiSys '22): coordinated multi-DNN inference via
//! greedy subgraph-to-processor mapping with operator fallback.
//!
//! Band "prioritizes model inference on high-performance processors based
//! on operator supportability, and falls back to secondary ones for
//! unsupported operators ... through dynamic processor switching", but
//! "does not purposely optimize pipelines". We reproduce that policy:
//!
//! 1. Each model is cut into maximal subgraphs at NPU-supportability
//!    boundaries (the fallback points).
//! 2. Each subgraph greedily picks the processor minimizing its estimated
//!    finish time — current estimated availability + copy + execution —
//!    among the processors supporting it.
//! 3. No re-ordering, no stage balancing, no bubble optimization.

use h2p_models::cost::CostModel;
use h2p_models::graph::{LayerRange, ModelGraph};
use h2p_simulator::engine::{Simulation, TaskId, TaskSpec};
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::{ExecutionReport, LoweredPlan};

/// Cuts `graph` into maximal runs of uniform NPU supportability.
fn fallback_segments(graph: &ModelGraph) -> Vec<LayerRange> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut cur = graph.layers()[0].op.npu_supported();
    for (i, layer) in graph.layers().iter().enumerate().skip(1) {
        let s = layer.op.npu_supported();
        if s != cur {
            segments.push(LayerRange::new(start, i - 1));
            start = i;
            cur = s;
        }
    }
    segments.push(LayerRange::new(start, graph.len() - 1));
    segments
}

/// Lowers `requests` to Band's greedy task graph without running it.
///
/// # Errors
///
/// Returns [`PlanError`] if a segment cannot run anywhere.
pub fn lower<'soc>(
    soc: &'soc SocSpec,
    requests: &[ModelGraph],
) -> Result<LoweredPlan<'soc>, PlanError> {
    if requests.is_empty() {
        return Err(PlanError::EmptyRequestSet);
    }
    let cost = CostModel::new(soc);
    let procs: Vec<ProcessorId> = soc.processors_by_power();
    // Estimated availability per processor (planner-side view).
    let mut avail = vec![0.0f64; soc.processors.len()];
    let mut sim = Simulation::new(soc);
    let mut final_tasks: Vec<Option<TaskId>> = vec![None; requests.len()];
    // First-touch weight staging: Band's dynamic processor switching means
    // a repeat request whose segment lands on a *different* processor must
    // re-stage its weights there — the memory churn the paper criticizes.
    let mut seen: std::collections::HashSet<(&str, usize, usize, usize)> =
        std::collections::HashSet::new();

    for (idx, graph) in requests.iter().enumerate() {
        let mut prev_task: Option<TaskId> = None;
        let mut prev_proc: Option<ProcessorId> = None;
        let mut ready = 0.0f64; // estimated time the segment's input is ready
        for seg in fallback_segments(graph) {
            // Greedy choice: earliest estimated finish among supported
            // processors (power order breaks ties toward the NPU).
            let mut best: Option<(ProcessorId, f64, f64, f64)> = None;
            for &p in &procs {
                let Some(exec) = cost.slice_latency_ms(graph, seg, p) else {
                    continue;
                };
                let copy = match prev_proc {
                    Some(q) => cost.copy_ms(graph.slice_input_bytes(seg), q, p),
                    None => 0.0,
                };
                let start = avail[p.index()].max(ready);
                let finish = start + copy + exec;
                if best.as_ref().is_none_or(|b| finish < b.1 - 1e-12) {
                    best = Some((p, finish, exec, copy));
                }
            }
            let (p, finish, exec, copy) = best.ok_or_else(|| PlanError::NoFeasiblePipeline {
                model: graph.name().to_owned(),
            })?;
            avail[p.index()] = finish;
            ready = finish;
            let bw = cost.slice_bandwidth_gbps(graph, seg, p).unwrap_or(0.0);
            let footprint = ((graph.slice_weight_bytes(seg)
                + graph.slice_input_bytes(seg)
                + graph.boundary_bytes(seg.last)) as f64
                * cost.footprint_scale()) as u64;
            let upload = hetero2pipe::executor::staging_ms(
                &mut seen,
                (graph.name(), p.index(), seg.first, seg.last),
                footprint,
            );
            let mut spec = TaskSpec::new(
                format!("{}#{idx}@{}", graph.name(), seg),
                p,
                exec + copy + upload,
            )
            .intensity(bw / h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS)
            .bandwidth(bw)
            .footprint(footprint);
            if let Some(t) = prev_task {
                spec = spec.after(t);
            }
            let id = sim.add_task(spec);
            prev_task = Some(id);
            prev_proc = Some(p);
        }
        final_tasks[idx] = prev_task;
    }

    Ok(LoweredPlan::from_parts(sim, final_tasks, requests.len()))
}

/// Plans and executes `requests` under Band's greedy policy.
///
/// # Errors
///
/// Returns [`PlanError`] if a segment cannot run anywhere or simulation
/// fails.
pub fn run(soc: &SocSpec, requests: &[ModelGraph]) -> Result<ExecutionReport, PlanError> {
    lower(soc, requests)?.execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;
    use h2p_simulator::processor::ProcessorKind;

    #[test]
    fn npu_supported_model_lands_on_the_npu() {
        let soc = SocSpec::kirin_990();
        let npu = soc.processor_by_kind(ProcessorKind::Npu).unwrap();
        let r = run(&soc, &[ModelId::ResNet50.graph()]).unwrap();
        assert!(r.trace.spans.iter().any(|s| s.processor == npu));
    }

    #[test]
    fn yolo_segments_fall_back_around_mish() {
        let g = ModelId::YoloV4.graph();
        let segs = fallback_segments(&g);
        assert!(segs.len() > 3, "YOLOv4 alternates supported/unsupported");
        // Segments tile the model contiguously.
        assert_eq!(segs[0].first, 0);
        for w in segs.windows(2) {
            assert_eq!(w[0].last + 1, w[1].first);
        }
        assert_eq!(segs.last().unwrap().last, g.len() - 1);
    }

    #[test]
    fn fallback_models_occupy_multiple_processors() {
        // YOLOv4's Mish/upsample segments cannot run on the NPU, so Band
        // is forced into dynamic processor switching.
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = vec![ModelId::YoloV4.graph(); 2];
        let r = run(&soc, &reqs).unwrap();
        let used: std::collections::HashSet<_> =
            r.trace.spans.iter().map(|s| s.processor).collect();
        assert!(used.len() >= 2, "fallback must spread across processors");
    }

    #[test]
    fn npu_monopolizes_short_queues_then_overflows() {
        // With a short queue of NPU-friendly models, greedy keeps
        // everything on the (~4x faster) NPU; once the queue grows long
        // enough, waiting for the NPU loses to an idle CPU/GPU and the
        // greedy overflows.
        let soc = SocSpec::kirin_990();
        let npu = soc.processor_by_kind(ProcessorKind::Npu).unwrap();
        let short: Vec<ModelGraph> = vec![ModelId::ResNet50.graph(); 2];
        let r = run(&soc, &short).unwrap();
        assert!(r.trace.spans.iter().all(|s| s.processor == npu));
        let long: Vec<ModelGraph> = vec![ModelId::ResNet50.graph(); 8];
        let r = run(&soc, &long).unwrap();
        assert!(
            !r.trace.spans.iter().all(|s| s.processor == npu),
            "long queues must overflow to other processors"
        );
    }

    #[test]
    fn band_beats_serial_mnn() {
        let soc = SocSpec::kirin_990();
        let reqs: Vec<ModelGraph> = vec![
            ModelId::ResNet50.graph(),
            ModelId::InceptionV4.graph(),
            ModelId::Vgg16.graph(),
        ];
        let band = run(&soc, &reqs).unwrap();
        let mnn = crate::mnn_serial::run(&soc, &reqs).unwrap();
        assert!(band.makespan_ms < mnn.makespan_ms);
    }

    #[test]
    fn works_without_an_npu() {
        let soc = SocSpec::snapdragon_870();
        let r = run(&soc, &[ModelId::Bert.graph(), ModelId::ResNet50.graph()]).unwrap();
        assert_eq!(r.request_latency_ms.len(), 2);
    }
}
