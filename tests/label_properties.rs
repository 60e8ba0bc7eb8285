//! Pins the structured task labels to the text the lowering used to
//! format: over seeded random model mixes on every SoC preset, each
//! lowered task's label renders exactly `{model}#{request}@s{slot}` (or
//! `…@s{slot}r{run}` for an operator-fallback run) as built from the
//! plan, and the request it names equals the one parsed back from that
//! text.

use h2p_simulator::engine::request_of_label;
use h2p_simulator::SocSpec;
use hetero2pipe::plan::PipelinePlan;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::random_combinations;

/// The labels the lowering's text format gives `plan`'s tasks, in
/// submission order.
fn formatted_labels(plan: &PipelinePlan) -> Vec<String> {
    let mut labels = Vec::new();
    for req in &plan.requests {
        for (slot, stage) in req.stages.iter().enumerate() {
            let Some(stage) = stage else { continue };
            if stage.runs.is_empty() {
                labels.push(format!("{}#{}@s{}", req.model, req.request, slot));
            } else {
                for run in 0..stage.runs.len() {
                    labels.push(format!("{}#{}@s{}r{}", req.model, req.request, slot, run));
                }
            }
        }
    }
    labels
}

#[test]
fn lowered_labels_render_the_formatted_text() {
    let socs = [
        SocSpec::kirin_990(),
        SocSpec::snapdragon_778g(),
        SocSpec::snapdragon_870(),
    ];
    let mut checked = 0usize;
    let mut fallback_runs = 0usize;
    for (s, soc) in socs.iter().enumerate() {
        let planner = Planner::new(soc).expect("planner");
        for combo in random_combinations(0x1abe1 + s as u64, 12, 1, 12) {
            let planned = planner.plan_models(&combo).expect("plan");
            let lowered = planned.lower(soc).expect("lower");
            let tasks = lowered.simulation().tasks();
            let expected = formatted_labels(&planned.plan);
            assert_eq!(tasks.len(), expected.len(), "{}: {combo:?}", soc.name);
            for (task, text) in tasks.iter().zip(&expected) {
                let rendered = task.label.to_string();
                assert_eq!(&rendered, text, "{}: {combo:?}", soc.name);
                assert_eq!(task.label.request(), request_of_label(&rendered));
                assert!(task.label.request().is_some(), "{rendered}");
                fallback_runs += usize::from(
                    text.rsplit_once('@')
                        .is_some_and(|(_, at)| at.contains('r')),
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "only {checked} labels checked");
    assert!(fallback_runs > 0, "no operator-fallback run was lowered");
}
