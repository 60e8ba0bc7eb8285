//! The recovery-round invariant over the whole fault/completion event
//! space of a small workload: from three requests on the Kirin 990
//! planner, every sequence of request completions and processor
//! dropouts (at most two drops) is explored depth first, and at every
//! state the real `replan_on_survivors` must never assign a stage or a
//! fallback run to a down processor.

use std::collections::HashMap;

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::replan_on_survivors;

/// The verdict on replanning the `pending` requests with the `down`
/// processors gone. A stage or a fallback run on a down processor, or a
/// tripped H2P009 gate, is a violation; running out of processors
/// (`NoSurvivingProcessors`) is an accepted, typed end.
fn validate_replan(
    planner: &Planner,
    graphs: &[ModelGraph],
    pending: &[usize],
    down: &[bool],
) -> Result<(), String> {
    if pending.is_empty() {
        return Ok(());
    }
    let is_down = |p: h2p_simulator::ProcessorId| down.get(p.index()).copied().unwrap_or(false);
    match replan_on_survivors(planner, graphs, pending, down) {
        Ok(plan) => {
            // `plan.procs` keeps the full slot list (slot identity is
            // stable across rounds); no stage or run may use a down
            // processor.
            for request in &plan.requests {
                for stage in request.stages.iter().flatten() {
                    if is_down(stage.proc) {
                        return Err(format!(
                            "replan assigned request {} a stage on down processor {:?}",
                            request.request, stage.proc
                        ));
                    }
                    for run in &stage.runs {
                        if is_down(run.proc) {
                            return Err(format!(
                                "replan routed a fallback run of request {} to down \
                                 processor {:?}",
                                request.request, run.proc
                            ));
                        }
                    }
                }
            }
            Ok(())
        }
        Err(PlanError::NoSurvivingProcessors) => Ok(()),
        // The release-mode H2P009 gate tripping means a down processor
        // made it into a plan.
        Err(e @ PlanError::UnavailableProcessor { .. }) => {
            Err(format!("H2P009 gate tripped during replan: {e}"))
        }
        Err(e) => Err(format!("replan failed with unexpected error: {e}")),
    }
}

#[test]
fn recovery_rounds_never_use_down_processors() {
    let planner = Planner::new(&SocSpec::kirin_990()).expect("planner");
    let graphs: Vec<ModelGraph> = [ModelId::SqueezeNet, ModelId::MobileNetV2, ModelId::AlexNet]
        .iter()
        .map(|id| id.graph())
        .collect();
    let procs = planner.pipeline_procs().to_vec();
    let down_len = procs.iter().map(|p| p.index()).max().unwrap_or(0) + 1;
    // A replan is a pure function of (down set, pending count), so the
    // verdict is memoized across the whole search.
    let mut memo: HashMap<(u64, usize), Result<(), String>> = HashMap::new();
    let (mut states, mut leaves) = (0usize, 0usize);
    let mut violations: Vec<String> = Vec::new();
    let mut stack: Vec<(Vec<bool>, usize, usize)> = vec![(vec![false; down_len], 3, 0)];
    while let Some((down, pending_count, drops)) = stack.pop() {
        states += 1;
        let pending: Vec<usize> = (3 - pending_count..3).collect();
        let mask: u64 = down
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| 1u64 << i)
            .sum();
        let verdict = memo
            .entry((mask, pending_count))
            .or_insert_with(|| validate_replan(&planner, &graphs, &pending, &down));
        if let Err(msg) = verdict {
            violations.push(msg.clone());
            continue;
        }
        if pending_count == 0 {
            leaves += 1;
            continue;
        }
        // The next event: the oldest pending request completes, or (up
        // to two times) a live pipeline processor drops out.
        stack.push((down.clone(), pending_count - 1, drops));
        if drops < 2 {
            for p in procs.iter().map(|p| p.index()).filter(|&p| !down[p]) {
                let mut next = down.clone();
                next[p] = true;
                stack.push((next, pending_count, drops + 1));
            }
        }
    }
    assert!(violations.is_empty(), "{violations:#?}");
    // The event space of this workload: every path ends with all three
    // requests complete.
    assert_eq!(leaves, 85, "leaf paths");
    assert_eq!(states, 232, "visited states");
}
