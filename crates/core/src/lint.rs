//! Bridge from planner types to the `h2p-analyze` static verifier.
//!
//! `h2p-analyze` sits below this crate in the dependency graph (so the
//! planner can gate on it in debug builds) and therefore defines its own
//! plan IR. This module owns the `PipelinePlan → PlanIr` conversion plus
//! the planner-side extra checks the analyzer cannot express: validity
//! of the mitigation permutation and finiteness of its LAP cost.

use h2p_analyze::{DiagCode, Diagnostic, Diagnostics, PlanIr, RequestIr, RunIr, Severity, StageIr};
use h2p_models::graph::ModelGraph;
use h2p_simulator::soc::SocSpec;

use crate::executor::WEIGHT_STAGING_GBPS;
use crate::plan::PipelinePlan;
use crate::planner::PlannedPipeline;

/// Converts a plan to the analyzer IR.
///
/// `graphs[i]` must be the model graph of *original* request index `i`
/// (the indexing `PlannedPipeline::contexts` uses) — the plan's request
/// order may be a mitigation permutation of it. A request whose original
/// index has no graph converts with `layer_count = 0`, which the
/// coverage check reports; that only happens for corrupted plans.
pub fn plan_ir(plan: &PipelinePlan, graphs: &[&ModelGraph]) -> PlanIr {
    let requests = plan
        .requests
        .iter()
        .map(|req| {
            let (layer_count, npu_supported) = match graphs.get(req.request) {
                Some(g) => (
                    g.len(),
                    g.layers().iter().map(|l| l.op.npu_supported()).collect(),
                ),
                None => (0, Vec::new()),
            };
            RequestIr {
                request: req.request,
                model: req.model.to_string(),
                layer_count,
                npu_supported,
                class: req.class,
                stages: req
                    .stages
                    .iter()
                    .map(|s| {
                        s.as_ref().map(|s| StageIr {
                            range: s.range,
                            proc: s.proc,
                            exec_ms: s.exec_ms,
                            copy_in_ms: s.copy_in_ms,
                            intensity: s.intensity,
                            footprint_bytes: s.footprint_bytes,
                            runs: s
                                .runs
                                .iter()
                                .map(|r| RunIr {
                                    range: r.range,
                                    proc: r.proc,
                                    ms: r.ms,
                                })
                                .collect(),
                        })
                    })
                    .collect(),
            }
        })
        .collect();
    PlanIr {
        procs: plan.procs.clone(),
        requests,
        claimed_makespan_ms: plan.estimated_makespan_ms(),
        claimed_bubble_ms: plan.total_bubble_ms(),
        staging_gbps: WEIGHT_STAGING_GBPS,
    }
}

impl PlannedPipeline {
    /// Converts this pipeline's plan to the analyzer IR, using the
    /// planning contexts as the source of model-graph truth.
    pub fn plan_ir(&self) -> PlanIr {
        let graphs: Vec<&ModelGraph> = self.contexts.iter().map(|c| &c.graph).collect();
        plan_ir(&self.plan, &graphs)
    }

    /// Statically verifies this pipeline against `soc` without executing
    /// it: the full `h2p-analyze` check battery over the plan, plus
    /// planner-side checks of the mitigation outcome.
    pub fn lint(&self, soc: &SocSpec) -> Diagnostics {
        let mut out = h2p_analyze::lint_plan(soc, &self.plan_ir());
        if let Some(m) = &self.mitigation {
            out.record_check();
            let n = self.plan.requests.len();
            let mut seen = vec![false; n];
            let valid = m.order.len() == n
                && m.order
                    .iter()
                    .all(|&orig| orig < n && !std::mem::replace(&mut seen[orig], true));
            if !valid {
                let mut d = Diagnostic::new(
                    DiagCode::ContentionWindow,
                    format!(
                        "mitigation order {:?} is not a permutation of {} requests — the \
                         relocation pass corrupted the sequence",
                        m.order, n
                    ),
                );
                d.severity = Severity::Error;
                out.push(d);
            }
            if !(m.displacement_cost.is_finite() && m.displacement_cost >= 0.0) {
                out.push(Diagnostic::new(
                    DiagCode::NonFiniteCost,
                    format!(
                        "mitigation displacement cost {} is not a finite non-negative number — \
                         the LAP assignment matched a padded slot to a real request",
                        m.displacement_cost
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::MitigationOutcome;
    use crate::planner::Planner;
    use h2p_models::zoo::ModelId;

    #[test]
    fn planner_output_lints_clean() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).expect("planner builds");
        let planned = planner
            .plan_models(&[ModelId::YoloV4, ModelId::MobileNetV2, ModelId::Bert])
            .expect("plan succeeds");
        let diags = planned.lint(&soc);
        assert!(diags.is_clean(), "{diags}");
    }

    #[test]
    fn corrupt_mitigation_order_is_an_error() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).expect("planner builds");
        let mut planned = planner
            .plan_models(&[ModelId::YoloV4, ModelId::MobileNetV2, ModelId::Bert])
            .expect("plan succeeds");
        planned.mitigation = Some(MitigationOutcome {
            order: vec![0, 0, 2], // not a permutation
            moves: 1,
            displacement_cost: f64::INFINITY,
            resolved: true,
        });
        let diags = planned.lint(&soc);
        assert!(
            diags
                .diags
                .iter()
                .any(|d| d.code == DiagCode::ContentionWindow && d.severity == Severity::Error),
            "{diags}"
        );
        assert!(
            diags
                .diags
                .iter()
                .any(|d| d.code == DiagCode::NonFiniteCost),
            "{diags}"
        );
    }

    #[test]
    fn mutated_plans_fail_the_lint() {
        let soc = SocSpec::snapdragon_870();
        let planner = Planner::new(&soc).expect("planner builds");
        let planned = planner
            .plan_models(&[ModelId::ResNet50, ModelId::MobileNetV2])
            .expect("plan succeeds");
        for m in h2p_analyze::Mutation::ALL {
            let mut ir = planned.plan_ir();
            assert!(h2p_analyze::apply(&mut ir, m), "{} applies", m.name());
            let diags = h2p_analyze::lint_plan(&soc, &ir);
            assert!(
                !diags.is_clean(),
                "{} must be caught, got: {diags}",
                m.name()
            );
        }
    }
}
