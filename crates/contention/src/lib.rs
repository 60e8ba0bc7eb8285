//! # h2p-contention
//!
//! Synthetic PMU counters and the ridge-regression contention-intensity
//! model of the paper's Section III.
//!
//! On real silicon the paper reads perf events (IPC, cache-miss rate,
//! stalled-cycles-backend) from the CPU's Performance Monitor Unit and
//! fits a ridge regression (Eq. 1) predicting each model's *contention
//! intensity*, so that new inference requests can be classified into
//! high/low contention without profiling every co-execution pair.
//!
//! This crate substitutes the hardware PMU with counters derived from the
//! models' layer structure ([`counters`]), provides a small dense linear
//! algebra kernel ([`linalg`]) and the closed-form ridge solver
//! ([`ridge`]), and exposes the end-to-end intensity estimator and
//! high/low classifier used by the planner ([`intensity`]).

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod counters;
pub mod intensity;
pub mod linalg;
pub mod ridge;

pub use counters::PmuSample;
pub use intensity::{ContentionClass, IntensityModel};
pub use ridge::RidgeRegression;
