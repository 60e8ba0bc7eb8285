//! # hetero2pipe
//!
//! A from-scratch reproduction of **Hetero²Pipe** (ICDCS 2025):
//! contention-aware pipeline planning for multi-DNN inference on
//! heterogeneous mobile processors under co-execution slowdown.
//!
//! The planner decouples the intractable joint problem into two steps:
//!
//! * **Horizontal (P1)** — [`partition`]: per-model dynamic programming
//!   that slices each network into pipeline stages across the SoC's
//!   power-ranked processors, with NPU operator fallback.
//! * **Vertical (P2)** — [`mitigation`] re-orders the request sequence so
//!   high-contention models never overlap temporally (a Linear Assignment
//!   Problem solved by the Kuhn–Munkres algorithm in [`lap`]), and
//!   [`worksteal`] aligns stage times across requests via work stealing
//!   plus tail-bubble collapse.
//!
//! Plans ([`plan::PipelinePlan`]) carry full bubble accounting (Def. 3)
//! and execute on the [`h2p_simulator`] SoC simulator through
//! [`executor`], where interference, thermal throttling and memory
//! pressure play out dynamically.
//!
//! ## Quickstart
//!
//! ```
//! use hetero2pipe::planner::Planner;
//! use h2p_models::zoo::ModelId;
//! use h2p_simulator::SocSpec;
//!
//! # fn main() -> Result<(), hetero2pipe::error::PlanError> {
//! let soc = SocSpec::kirin_990();
//! let planner = Planner::new(&soc)?;
//! let planned = planner.plan_models(&[
//!     ModelId::YoloV4,
//!     ModelId::MobileNetV2,
//!     ModelId::Bert,
//! ])?;
//! let report = planned.execute(&soc)?;
//! assert!(report.throughput_per_sec > 0.0);
//! println!(
//!     "latency {:.1} ms, throughput {:.2}/s, bubbles {:.1} ms",
//!     report.makespan_ms,
//!     report.throughput_per_sec,
//!     report.measured_bubble_ms,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod batching;
pub mod error;
pub mod estimate;
pub mod executor;
pub mod lap;
pub mod lint;
pub mod mitigation;
pub mod online;
pub mod partition;
pub mod plan;
pub mod planner;
pub mod recovery;
pub mod report;
pub mod searchspace;
pub mod workload;
pub mod worksteal;

pub use error::PlanError;
pub use estimate::Estimator;
pub use executor::{execute, ExecutionReport};
pub use plan::{PipelinePlan, RequestPlan, StagePlan};
pub use planner::{PlannedPipeline, Planner, PlannerConfig};
pub use recovery::{
    chaos_faults, replan_on_survivors, run_with_recovery, RecoveryOutcome, RecoveryPolicy,
    RecoveryReport, RoundLog,
};
