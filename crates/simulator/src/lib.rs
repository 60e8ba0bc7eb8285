//! # h2p-simulator
//!
//! A deterministic, rate-based discrete-event simulator of heterogeneous
//! mobile systems-on-chip (SoCs), built as the hardware substrate for the
//! Hetero²Pipe reproduction.
//!
//! The simulator models the properties of commercial mobile SoCs that the
//! paper's planner depends on:
//!
//! * **Heterogeneous processors** — CPU Big/Small clusters, an OpenCL GPU
//!   and an NPU, each with distinct throughput, per-kernel overhead and
//!   operator support ([`processor`], [`soc`]).
//! * **Co-execution slowdown** — tasks that overlap in time on *different*
//!   processors interfere on the shared memory bus. Progress rates are
//!   recomputed at every start/finish event from the co-runners'
//!   contention intensities and a per-processor-pair coupling matrix
//!   ([`interference`]). Slowdown is symmetric across CPU/GPU
//!   (Observation 1 of the paper) and NPU pairs are nearly immune.
//! * **Memory subsystem** — a footprint ledger with a capacity constraint,
//!   page-fault penalties when the working set exceeds physical memory and
//!   a demand-driven memory-frequency governor ([`memory`]).
//! * **Thermal behaviour** — a heat integrator per processor with
//!   frequency throttling above a threshold ([`thermal`]).
//!
//! The main entry point is [`engine::Simulation`]: submit a DAG of
//! [`engine::TaskSpec`]s, call [`engine::Simulation::run`], and inspect the
//! returned [`timeline::Trace`]. [`engine::Simulation::run_with_events`]
//! additionally yields a structured event log, and [`audit::audit`]
//! re-validates a finished trace against every contract the engine is
//! supposed to uphold.
//!
//! ## Example
//!
//! ```
//! use h2p_simulator::soc::SocSpec;
//! use h2p_simulator::engine::{Simulation, TaskSpec};
//!
//! # fn main() -> Result<(), h2p_simulator::error::SimError> {
//! let soc = SocSpec::kirin_990();
//! let cpu_big = soc.processor_by_name("CPU_B").expect("preset has CPU_B");
//! let mut sim = Simulation::new(&soc);
//! let a = sim.add_task(TaskSpec::new("warmup", cpu_big, 2.0));
//! let mut b = TaskSpec::new("infer", cpu_big, 10.0);
//! b.deps.push(a);
//! sim.add_task(b);
//! let trace = sim.run()?;
//! assert!(trace.makespan_ms() >= 12.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod audit;
pub mod engine;
pub mod error;
pub mod eventlog;
pub mod export;
pub mod faults;
pub mod interference;
pub mod label;
pub mod memory;
pub mod power;
pub mod processor;
pub mod soc;
pub mod thermal;
pub mod timeline;

pub use audit::{AuditReport, Violation};
pub use engine::{EngineEvent, Simulation, TaskId, TaskSpec};
pub use error::SimError;
pub use eventlog::{parse_event_log, ParseError, ParseWarning, ParsedLog};
pub use faults::{FaultInjector, FaultKind, FaultOutcome, FaultSpec};
pub use label::TaskLabel;
pub use processor::{ProcessorId, ProcessorKind, ProcessorSpec};
pub use soc::SocSpec;
pub use timeline::Trace;
