//! # h2p-analyze
//!
//! Static plan verifier for the Hetero²Pipe reproduction: pre-execution
//! analysis of pipeline plans and lowered task graphs, with typed
//! diagnostics and machine-readable JSON output.
//!
//! The suite has two verification layers:
//!
//! * **Static** (this crate, surfaced as `h2p lint`) — checks a plan
//!   *before* anything runs: layer coverage, slot/processor feasibility,
//!   memory budget, DAG sanity, contention-window invariants, and a
//!   bound analysis that brackets the claimed makespan with a
//!   synchronous lower bound and a worst-case contention upper bound.
//! * **Dynamic** (`h2p_simulator::audit`, surfaced as
//!   `h2p trace --audit`) — re-validates a finished trace against the
//!   engine's execution contracts.
//!
//! Both judge plans and runs. The repository's own source is held to
//! the determinism rules (no hash-order iteration, no wall-clock read)
//! by clippy, configured in the root `clippy.toml` and lint tables.
//!
//! Entry points: [`lint_plan`] over the analyzer IR ([`PlanIr`]),
//! [`lint_tasks`] over a lowered `&[TaskSpec]` graph, and the
//! [`mutate`] corruption harness that backs `h2p lint --corrupt`.
//!
//! The crate sits below the planner in the dependency graph so that the
//! planner can gate on it in debug builds; the planner crate owns the
//! `PipelinePlan → PlanIr` conversion.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod checks;
pub mod diag;
pub mod ir;
pub mod mutate;
pub mod tasks;

pub use checks::lint_plan;
pub use diag::{DiagCode, Diagnostic, Diagnostics, Severity};
pub use ir::{PlanIr, RequestIr, RunIr, StageIr};
pub use mutate::{apply, Mutation};
pub use tasks::{lint_tasks, lint_tasks_available};
