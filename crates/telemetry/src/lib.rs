//! Zero-dependency observability primitives for the Hetero2Pipe suite.
//!
//! Five layers, each usable on its own:
//!
//! - [`metrics`] — a registry of counters, gauges, and log-bucketed
//!   histograms with exact-rank quantiles, snapshotted to hand-written
//!   JSON or a human-readable table. A metric is registered once and
//!   updated through its `Copy` handle, one indexed add; hot loops
//!   still count locally and flush once.
//! - [`span`](mod@span) — RAII phase spans with deterministic
//!   content-derived ids, recording the planner's phase tree. The
//!   [`span!`] macro keys a formatted name by its format string and
//!   arguments, so a warm span costs its two clock reads and a few
//!   lookups, and formats its name only the first time.
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
//! The recording layers have one owner each. They hold their state in
//! `RefCell`s, so they are `!Sync`: the planner plans on the calling
//! thread and shares its [`Telemetry`] through an `Rc`, and the compiler
//! rather than a lock rules out a second thread.
//!
//! The crate is `std`-only by design: the workspace has no registry
//! access, and telemetry must never drag a dependency into the build.

#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod analytics;
pub mod chrome;
pub mod lifecycle;
pub mod metrics;
pub mod span;

pub use lifecycle::{LifecycleEvent, LifecycleLog, LifecycleStage, QosClass, RequestId, TraceId};
pub use metrics::{CounterId, GaugeId, HistogramId, Metric, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanArg, SpanGuard, SpanRecord, SpanRecorder};

/// Bundle of the recording layers, shared through an `Rc` by the
/// planner, its clones, the online planner, and the CLI exporter.
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
/// A literal name is entered as text ([`SpanRecorder::enter`]). A name
/// with arguments passes its format string and the arguments, each a
/// `usize` or a `&str` evaluated once, as a typed key
/// ([`SpanRecorder::enter_fmt`]), so the name is formatted only the
/// first time the recorder sees that key.
///
/// ```
/// use h2p_telemetry::{span, SpanRecorder};
/// let rec = SpanRecorder::default();
/// {
///     span!(rec, "plan");
///     span!(rec, "prepare:{}:{}", 3, "BERT");
/// }
/// let names: Vec<String> = rec.records().into_iter().map(|r| r.name).collect();
/// assert_eq!(names, ["plan", "prepare:3:BERT"]);
/// ```
#[macro_export]
macro_rules! span {
    ($recorder:expr, $($name:tt)+) => {
        let _span_guard = $crate::span_guard!($recorder, $($name)+);
    };
}

/// The expression form of [`span!`]: opens the span and returns its
/// guard, for a caller that holds or drops the guard itself.
#[macro_export]
macro_rules! span_guard {
    // Binds each argument to its own `arg` (every recursion step's
    // `arg` is a distinct identifier), so it is evaluated once for the
    // key and read again only to format the name.
    (@bind $recorder:expr, $fmt:literal, [$($bound:ident)*] $arg:expr $(, $rest:expr)*) => {
        match $arg {
            arg => $crate::span_guard!(@bind $recorder, $fmt, [$($bound)* arg] $($rest),*),
        }
    };
    (@bind $recorder:expr, $fmt:literal, [$($bound:ident)*]) => {
        $recorder.enter_fmt(
            $fmt,
            &[$($crate::span::SpanArg::from($bound)),*],
            || ::std::format!($fmt, $($bound),*),
        )
    };
    ($recorder:expr, $name:literal) => {
        $recorder.enter($name)
    };
    ($recorder:expr, $fmt:literal, $($arg:expr),+ $(,)?) => {
        $crate::span_guard!(@bind $recorder, $fmt, [] $($arg),+)
    };
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and control characters. The one escaper of the
/// workspace: the metrics snapshot, the chrome exporter, the lifecycle
/// log and the simulator's event log all route names and labels through
/// it.
pub fn json_escape(s: &str) -> String {
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
