//! # h2p-check
//!
//! Loom-style schedule-space model checker for the planner's
//! concurrency layer. Built on the `h2p_core::sync` shim compiled with
//! `feature = "model-check"`: every atomic, mutex and scoped spawn/join
//! in `par.rs`, `estimate.rs`, `online.rs` and the planner fan-out
//! becomes a yield point of a controlled scheduler, and this crate
//! enumerates schedules — exhaustive DFS for small configurations,
//! randomized PCT for the full planner — asserting the determinism
//! invariants under every one.
//!
//! The checker also verifies *itself*: [`run_injected`] seeds a
//! concurrency bug into the cursor claim path (a dropped or torn claim)
//! and demands the exploration catch it.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod explore;
pub mod scenarios;

pub use explore::ModelReport;
pub use hetero2pipe::sync::model::InjectedFault;
pub use scenarios::CheckOptions;

/// Run the standard model suite: cursor partition/error-rule models
/// (exhaustive), the tables cache, the partition memo and the DP scratch
/// pool (exhaustive),
/// the full planner under PCT, and the recovery-round event machine.
pub fn run_standard(opts: CheckOptions) -> Vec<ModelReport> {
    vec![
        scenarios::cursor_map(2, 3, None, opts),
        scenarios::cursor_map(2, 4, None, opts),
        scenarios::cursor_map(3, 4, None, opts),
        scenarios::cursor_try_map(2, 3, vec![1], opts),
        scenarios::cursor_try_map(2, 4, Vec::new(), opts),
        scenarios::cursor_try_map(2, 4, vec![1, 3], opts),
        scenarios::cursor_try_map(3, 3, vec![0], opts),
        scenarios::tables_cache(opts),
        scenarios::partition_memo(opts),
        scenarios::scratch_pool(opts),
        scenarios::planner_bits(opts),
        scenarios::recovery_rounds(),
    ]
}

/// Run the cursor model with an injected claim bug. A healthy checker
/// returns a report with `violations > 0`: the dropped claim
/// (`skip-claim`) loses an item under every schedule, the torn claim
/// (`split-claim`) double-claims only under adversarial interleavings —
/// both must be found.
pub fn run_injected(fault: InjectedFault, opts: CheckOptions) -> ModelReport {
    let opts = CheckOptions {
        stop_on_violation: true,
        ..opts
    };
    scenarios::cursor_map(2, 3, Some(fault), opts)
}
