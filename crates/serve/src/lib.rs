//! # h2p-serve
//!
//! An overload-robust serving front-end for the Hetero²Pipe planner:
//! a *deterministic virtual-time* loop that ingests a seeded request
//! stream and drives it through admission control, per-QoS-class
//! queueing, lightweight-model batching, incremental window planning,
//! and (under chaos) the recovery machinery — while guaranteeing that
//! no request ever leaves the system silently.
//!
//! The paper's planner assumes well-formed batches; a production-scale
//! deployment must instead stay correct when offered more load than
//! the SoC can absorb. The pieces:
//!
//! * **Admission control** ([`admission`]) — per-class token buckets
//!   and queue depth limits derived from calibration-time capacity
//!   estimates ([`h2p_telemetry::analytics::SloSummary`] over the
//!   zoo's solo latencies).
//! * **Backpressure** — every refusal is a typed
//!   [`RejectReason`] (`QueueFull`, `DeadlineInfeasible`, `Shedding`)
//!   surfaced as a [`ServeOutcome::Rejected`] and a `reject` lifecycle
//!   event; there are no silent drops.
//! * **Deadline-aware load shedding** ([`queue`]) — queued requests
//!   whose remaining slack can no longer cover their solo critical
//!   path are evicted oldest-lowest-class first, each with a typed
//!   [`ServeOutcome::Shed`] and a `shed` lifecycle event.
//! * **Bounded retry/timeout/backoff** — transiently failed dispatches
//!   retry on the shared
//!   [`hetero2pipe::recovery::RecoveryPolicy::backoff_ms`] schedule,
//!   at most `max_retries` times, then degrade with a typed reason.
//!
//! Everything is virtual-time: the clock is the simulator's, all
//! randomness flows from explicit seeds, and a run at a fixed seed is
//! bit-identical (clippy's determinism rules disallow wall-clock reads).
//! The robustness invariants
//! — exactly one typed terminal outcome per request, bounded queue
//! depth, bounded retries, a causally valid lifecycle stream — are
//! re-checked after every run by [`ServeReport::verify_invariants`],
//! and the queue's accounting is property-tested over random
//! admit / shed / dispatch sequences.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod admission;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod sweep;

pub use admission::{AdmissionControl, Calibration};
pub use loadgen::{generate_arrivals, Arrival};
pub use queue::{AdmitQueue, QueuedRequest};
pub use server::{
    OutcomeCounts, RejectReason, RequestRecord, ServeConfig, ServeOutcome, ServeReport, Server,
};
pub use sweep::{sweep, SweepPoint};

pub use h2p_telemetry::lifecycle::QosClass;

/// QoS class a request serves, by model compute size: small models are
/// interactive traffic, mid-size standard, heavyweights batch. Shared
/// by the serving loop and the `h2p` report pipeline so both sides
/// classify a model identically.
pub fn qos_class(flops: f64) -> QosClass {
    if flops < 2e9 {
        QosClass::Interactive
    } else if flops < 15e9 {
        QosClass::Standard
    } else {
        QosClass::Batch
    }
}

/// Deadline slack per class, as a multiple of the request's solo
/// (zero-contention) service time. Interactive requests get the
/// tightest envelope, batch the loosest.
pub fn slo_multiplier(class: QosClass) -> f64 {
    match class {
        QosClass::Interactive => 2.0,
        QosClass::Standard => 3.0,
        QosClass::Batch => 5.0,
    }
}

/// Dense index of a [`QosClass`] into per-class arrays, in
/// [`QosClass::ALL`] order.
pub fn class_index(class: QosClass) -> usize {
    match class {
        QosClass::Interactive => 0,
        QosClass::Standard => 1,
        QosClass::Batch => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_classes_partition_the_flops_axis() {
        assert_eq!(qos_class(1e9), QosClass::Interactive);
        assert_eq!(qos_class(5e9), QosClass::Standard);
        assert_eq!(qos_class(40e9), QosClass::Batch);
        for (i, c) in QosClass::ALL.iter().enumerate() {
            assert_eq!(class_index(*c), i);
        }
        assert!(slo_multiplier(QosClass::Interactive) < slo_multiplier(QosClass::Batch));
    }
}
