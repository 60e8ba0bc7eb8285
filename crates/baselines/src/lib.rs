//! # h2p-baselines
//!
//! From-scratch reimplementations of the scheduling *policies* the paper
//! compares against, all executing on the same [`h2p_simulator`] substrate
//! so the comparison isolates the scheduling decisions:
//!
//! * [`mnn_serial`] — vanilla MNN v2.6.0: CPU-centric serial execution on
//!   the Big cores.
//! * [`pipe_it`] — Pipe-it adapted as in the paper's evaluation: a
//!   CPU-only Big/Small two-stage pipeline with DP core partitioning.
//! * [`band`] — Band: greedy fastest-supported-processor subgraph mapping
//!   with NPU operator fallback and no pipeline planning.
//! * [`exhaustive`] / [`annealing`] — the Fig. 8 ablation searchers over
//!   the vertical arrangement (request order).
//!
//! The "No C/T" ablation is [`hetero2pipe::PlannerConfig::no_ct`] and is
//! exposed here through [`Scheme::NoCt`].

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod annealing;
pub mod band;
pub mod dart;
pub mod exhaustive;
pub mod mnn_serial;
pub mod pipe_it;

use h2p_models::graph::ModelGraph;
use h2p_simulator::soc::SocSpec;
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::{self, ExecutionReport, LoweredPlan};
use hetero2pipe::planner::{Planner, PlannerConfig};

/// The schemes compared in Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Vanilla MNN: serial execution on the CPU Big cores.
    MnnSerial,
    /// Pipe-it: CPU-only Big/Small pipeline.
    PipeIt,
    /// Band: greedy heterogeneous mapping with operator fallback.
    Band,
    /// DART: data-parallel whole-model dispatch over CPU/GPU workers.
    Dart,
    /// Hetero²Pipe without contention mitigation / tail optimization.
    NoCt,
    /// The full Hetero²Pipe planner.
    Hetero2Pipe,
}

impl Scheme {
    /// All schemes in the paper's Fig. 7 ordering.
    pub const ALL: [Scheme; 6] = [
        Scheme::MnnSerial,
        Scheme::PipeIt,
        Scheme::Dart,
        Scheme::Band,
        Scheme::NoCt,
        Scheme::Hetero2Pipe,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::MnnSerial => "MNN",
            Scheme::PipeIt => "Pipe-it",
            Scheme::Band => "Band",
            Scheme::Dart => "DART",
            Scheme::NoCt => "H2P (No C/T)",
            Scheme::Hetero2Pipe => "Hetero2Pipe",
        }
    }

    /// Plans `requests` under this scheme and lowers the result onto a
    /// fresh simulation of `soc` without running it.
    ///
    /// Every scheme flows through [`LoweredPlan`], so all of them share
    /// the executor's pre-execution static lint and (in debug builds)
    /// the post-execution trace audit — the task graphs a baseline
    /// produces can be inspected, linted and event-logged exactly like
    /// the planner's own.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if planning fails.
    pub fn lower<'soc>(
        self,
        soc: &'soc SocSpec,
        requests: &[ModelGraph],
    ) -> Result<LoweredPlan<'soc>, PlanError> {
        match self {
            Scheme::MnnSerial => mnn_serial::lower(soc, requests),
            Scheme::PipeIt => executor::lower(&pipe_it::plan(soc, requests)?, soc),
            Scheme::Band => band::lower(soc, requests),
            Scheme::Dart => dart::lower(soc, requests),
            Scheme::NoCt => {
                let planner = Planner::with_config(soc, PlannerConfig::no_ct())?;
                planner.plan(requests)?.lower(soc)
            }
            Scheme::Hetero2Pipe => {
                let planner = Planner::new(soc)?;
                planner.plan(requests)?.lower(soc)
            }
        }
    }

    /// Plans and executes `requests` on `soc` under this scheme.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if planning or simulation fails.
    pub fn run(self, soc: &SocSpec, requests: &[ModelGraph]) -> Result<ExecutionReport, PlanError> {
        self.lower(soc, requests)?.execute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;

    fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
        ids.iter().map(|m| m.graph()).collect()
    }

    #[test]
    fn every_scheme_completes_a_mixed_workload() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::ResNet50,
            ModelId::SqueezeNet,
            ModelId::Bert,
            ModelId::MobileNetV2,
        ]);
        for scheme in Scheme::ALL {
            let r = scheme.run(&soc, &reqs).unwrap_or_else(|e| {
                panic!("{} failed: {e}", scheme.name());
            });
            assert!(r.makespan_ms > 0.0, "{}", scheme.name());
            assert_eq!(r.request_latency_ms.len(), reqs.len(), "{}", scheme.name());
        }
    }

    #[test]
    fn every_scheme_lowers_to_a_lint_clean_task_graph() {
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::YoloV4, ModelId::MobileNetV2, ModelId::Bert]);
        for scheme in Scheme::ALL {
            let lowered = scheme.lower(&soc, &reqs).unwrap_or_else(|e| {
                panic!("{} failed to lower: {e}", scheme.name());
            });
            let diags = lowered.lint();
            assert!(diags.is_clean(), "{}: {diags}", scheme.name());
        }
    }

    #[test]
    fn every_scheme_produces_an_audit_clean_trace() {
        // The trace-audit gate extended to the baselines: every scheme's
        // executed trace must satisfy the simulator contracts, exactly
        // like the planner's own (`h2p trace --scheme X --audit` asserts
        // the same in scripts/ci.sh).
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[ModelId::Bert, ModelId::YoloV4, ModelId::MobileNetV2]);
        for scheme in Scheme::ALL {
            let lowered = scheme.lower(&soc, &reqs).unwrap_or_else(|e| {
                panic!("{} failed to lower: {e}", scheme.name());
            });
            let tasks = lowered.simulation().tasks().to_vec();
            let (report, _events) = lowered.execute_logged().unwrap_or_else(|e| {
                panic!("{} failed to execute: {e}", scheme.name());
            });
            let audit = h2p_simulator::audit::audit(&soc, &tasks, &report.trace);
            assert!(audit.is_clean(), "{}: {audit}", scheme.name());
        }
    }

    #[test]
    fn hetero2pipe_beats_serial_mnn_substantially() {
        // The paper's headline: 4.2x average speedup vs MNN, up to 8.8x
        // on Kirin 990. Require at least 2x on a friendly mix.
        let soc = SocSpec::kirin_990();
        let reqs = graphs(&[
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::MobileNetV2,
            ModelId::InceptionV4,
            ModelId::GoogLeNet,
            ModelId::AlexNet,
        ]);
        let mnn = Scheme::MnnSerial.run(&soc, &reqs).unwrap();
        let h2p = Scheme::Hetero2Pipe.run(&soc, &reqs).unwrap();
        let speedup = mnn.makespan_ms / h2p.makespan_ms;
        assert!(speedup > 2.0, "speedup only {speedup:.2}x");
    }
}
