//! Zero-dependency observability primitives for the Hetero2Pipe suite.
//!
//! Five layers, each usable on its own:
//!
//! - [`metrics`] — a thread-safe registry of counters, gauges, and
//!   log-bucketed histograms with exact-rank quantiles and mergeable
//!   snapshots, renderable to hand-written JSON or a human-readable
//!   table. Designed for coarse-grained recording: hot loops count
//!   locally and flush once, so instrumentation never sits on a planner
//!   hot path.
//! - [`span`](mod@span) — RAII phase spans with deterministic content-derived ids
//!   and per-thread lanes, recording the planner's phase tree.
//! - [`lifecycle`] — the causal request-lifecycle model: typed
//!   admit → plan → window → execute → recover/degrade → complete
//!   events keyed by stable [`RequestId`]/[`TraceId`], JSONL-renderable
//!   so any request's history is reconstructible from the event log.
//! - [`analytics`] — derived run-level views over executed spans and
//!   lifecycle events: per-processor utilization/bubble timelines,
//!   contention-window occupancy, latency profiles (p50/p95/p99), and
//!   deadline/SLO burn-rate accounting.
//! - [`chrome`] — a structured Chrome Trace Event Format document
//!   (`chrome://tracing` / Perfetto-loadable JSON) with a schema
//!   validator, fed by the simulator's engine event log and the span
//!   recorder.
//!
//! The crate is `std`-only by design: the workspace has no registry
//! access, and telemetry must never drag a dependency into the build.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analytics;
pub mod chrome;
pub mod lifecycle;
pub mod metrics;
pub mod span;

pub use lifecycle::{LifecycleEvent, LifecycleLog, LifecycleStage, QosClass, RequestId, TraceId};
pub use metrics::{FlushHandle, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanGuard, SpanRecord, SpanRecorder};

/// Bundle of the recording layers, shared behind an `Arc` by the
/// planner, the online planner, and the CLI exporter.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub metrics: MetricsRegistry,
    pub spans: SpanRecorder,
    pub lifecycle: LifecycleLog,
}

impl Telemetry {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Opens a span on a recorder and binds the RAII guard to a local.
///
/// ```
/// use h2p_telemetry::{span, SpanRecorder};
/// let rec = SpanRecorder::default();
/// {
///     span!(rec, "plan");
///     span!(rec, "prepare:{}", 3);
/// }
/// assert_eq!(rec.records().len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($recorder:expr, $name:literal) => {
        let _span_guard = $recorder.enter($name);
    };
    ($recorder:expr, $fmt:literal, $($arg:tt)*) => {
        let _span_guard = $recorder.enter(format!($fmt, $($arg)*));
    };
}

/// Escapes a string for inclusion in a JSON string literal. Shared by
/// the metrics snapshot and the chrome exporter.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number; non-finite values (which would
/// produce invalid JSON) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
