//! Causal request-lifecycle model: typed events tracing each request
//! from admission through planning, window assignment, execution, and
//! recovery to completion (or degradation), keyed by a stable
//! [`RequestId`] and a content-derived [`TraceId`].
//!
//! Events carry *simulated* time (the engine's millisecond clock) and a
//! global sequence number assigned at record time — never wall-clock
//! time, so a replayed run emits a byte-identical lifecycle stream
//! (clippy's determinism rules disallow the clock reads). The JSONL
//! rendering interleaves with the
//! engine event log: each line is a flat object with
//! `"event":"lifecycle"`, so the existing hardened event-log parser can
//! ingest mixed streams.
//!
//! Validation ([`validate`]) checks the causal ordering per request:
//! the first event must be an admission (or a rejection at the door),
//! nothing may follow a terminal completion/degradation/rejection/shed,
//! duplicate completions are a typed violation, and a completion must
//! be preceded by an execution or recovery on the same request.
//! Duplicate admissions are allowed — a request re-admitted by a
//! recovery round is still one request.
//!
//! The serving front-end (`h2p-serve`) extends the grammar with two
//! backpressure terminals: `reject` (admission control turned the
//! request away before it was ever admitted) and `shed` (an admitted,
//! queued request was evicted because its remaining slack could no
//! longer cover its solo critical path). Both carry a typed reason so
//! no request ever leaves the system silently.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

use crate::{json_escape, json_num};

/// Stable per-request identity: the request's index in the batch handed
/// to the planner. Survives replanning, recovery rounds, and window
/// splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub usize);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Content-derived trace identity for one planning invocation: FNV-1a
/// over the ordered model names, so the same workload always yields the
/// same trace id (no wall clock, no RNG) and the planner, the online
/// planner, and the recovery loop independently derive matching ids for
/// the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// FNV-1a over the ordered model names, with a separator byte so
    /// `["ab","c"]` and `["a","bc"]` differ.
    pub fn of_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for name in names {
            for b in name.as_ref().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TraceId(h)
    }

    /// Parses the 16-hex-digit rendering produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Quality-of-service class a request is accounted under. Derived
/// deterministically from workload size at report time (small models
/// are interactive, heavyweight ones are batch) until an ingestion
/// layer assigns classes explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-critical (e.g. keyboard/vision UX models).
    Interactive,
    /// Default class.
    Standard,
    /// Throughput-oriented background work.
    Batch,
}

impl QosClass {
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::Batch => "batch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(QosClass::Interactive),
            "standard" => Some(QosClass::Standard),
            "batch" => Some(QosClass::Batch),
            _ => None,
        }
    }

    /// All classes, in display order.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage of a request's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleStage {
    /// Request entered a planning invocation.
    Admit,
    /// A plan covering this request was produced.
    Plan,
    /// Request was assigned to contention window `window`.
    Window { window: usize },
    /// Request began executing on the simulated SoC.
    Execute,
    /// A recovery round replanned this request after a fault.
    Recover { round: usize },
    /// Request was abandoned with a typed reason (deadline exceeded,
    /// retries exhausted, no surviving processors).
    Degrade { reason: String },
    /// Request finished; `latency_ms` is its end-to-end simulated
    /// latency.
    Complete { latency_ms: f64 },
    /// Admission control turned the request away before it entered the
    /// queue (queue full, deadline infeasible, or shedding pressure).
    /// Terminal, and legal as a request's *first* event — a rejected
    /// request is never admitted.
    Reject { reason: String },
    /// An admitted, queued request was evicted by deadline-aware load
    /// shedding before it could execute. Terminal; requires a prior
    /// admission.
    Shed { reason: String },
}

impl LifecycleStage {
    /// Stable lowercase tag used in the JSONL rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            LifecycleStage::Admit => "admit",
            LifecycleStage::Plan => "plan",
            LifecycleStage::Window { .. } => "window",
            LifecycleStage::Execute => "execute",
            LifecycleStage::Recover { .. } => "recover",
            LifecycleStage::Degrade { .. } => "degrade",
            LifecycleStage::Complete { .. } => "complete",
            LifecycleStage::Reject { .. } => "reject",
            LifecycleStage::Shed { .. } => "shed",
        }
    }

    /// Terminal stages end a request's history; nothing may follow.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            LifecycleStage::Complete { .. }
                | LifecycleStage::Degrade { .. }
                | LifecycleStage::Reject { .. }
                | LifecycleStage::Shed { .. }
        )
    }
}

/// One lifecycle event: stage `stage` of request `request` in trace
/// `trace`, at simulated time `at_ms`, with a global record-order
/// sequence number `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleEvent {
    pub trace: TraceId,
    pub request: RequestId,
    pub seq: u64,
    /// Simulated milliseconds (0.0 for plan-time stages, which precede
    /// the simulated clock).
    pub at_ms: f64,
    pub stage: LifecycleStage,
}

impl LifecycleEvent {
    /// Renders the event as one flat JSONL object, shaped to interleave
    /// with the engine event log:
    /// `{"event":"lifecycle","trace":"<16 hex>","request":0,"seq":3,"at_ms":1.5,"stage":"window","window":2}`.
    pub fn json_line(&self) -> String {
        let mut extra = String::new();
        match &self.stage {
            LifecycleStage::Window { window } => {
                extra = format!(",\"window\":{window}");
            }
            LifecycleStage::Recover { round } => {
                extra = format!(",\"round\":{round}");
            }
            LifecycleStage::Degrade { reason }
            | LifecycleStage::Reject { reason }
            | LifecycleStage::Shed { reason } => {
                extra = format!(",\"reason\":\"{}\"", json_escape(reason));
            }
            LifecycleStage::Complete { latency_ms } => {
                extra = format!(",\"latency_ms\":{}", json_num(*latency_ms));
            }
            LifecycleStage::Admit | LifecycleStage::Plan | LifecycleStage::Execute => {}
        }
        format!(
            "{{\"event\":\"lifecycle\",\"trace\":\"{}\",\"request\":{},\"seq\":{},\"at_ms\":{},\"stage\":\"{}\"{}}}",
            self.trace,
            self.request.0,
            self.seq,
            json_num(self.at_ms),
            self.stage.tag(),
            extra
        )
    }
}

/// Causal-order violation found by [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleViolation {
    /// A request's first event was not an admission.
    MissingAdmit { request: RequestId },
    /// An event followed a terminal complete/degrade on the same
    /// request.
    AfterTerminal { request: RequestId, seq: u64 },
    /// A completion with no prior execute/recover on the request.
    CompleteWithoutExecute { request: RequestId, seq: u64 },
    /// A second `complete` after the request already completed — a
    /// double-accounted request, reported as its own typed violation
    /// rather than a generic after-terminal event.
    DuplicateComplete { request: RequestId, seq: u64 },
    /// A `reject` on a request that was already admitted: admission
    /// control may only turn requests away at the door (an admitted
    /// request that must be abandoned is shed or degraded instead).
    RejectAfterAdmit { request: RequestId, seq: u64 },
}

impl fmt::Display for LifecycleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleViolation::MissingAdmit { request } => {
                write!(f, "request {request}: first lifecycle event is not admit")
            }
            LifecycleViolation::AfterTerminal { request, seq } => {
                write!(f, "request {request}: event seq {seq} after terminal stage")
            }
            LifecycleViolation::CompleteWithoutExecute { request, seq } => {
                write!(
                    f,
                    "request {request}: complete at seq {seq} without execute"
                )
            }
            LifecycleViolation::DuplicateComplete { request, seq } => {
                write!(f, "request {request}: duplicate complete at seq {seq}")
            }
            LifecycleViolation::RejectAfterAdmit { request, seq } => {
                write!(
                    f,
                    "request {request}: reject at seq {seq} after the request was admitted"
                )
            }
        }
    }
}

/// Checks the per-request causal ordering of a lifecycle stream (any
/// interleaving across requests is legal; order within a request is
/// `seq`-ascending as recorded). Histories are keyed on
/// `(trace, request)`, so a log that interleaves several batches —
/// e.g. per-window planner streams under window-local trace ids — is
/// validated per batch rather than falsely cross-linked.
pub fn validate(events: &[LifecycleEvent]) -> Vec<LifecycleViolation> {
    use std::collections::BTreeMap;
    #[derive(Clone, Copy, PartialEq)]
    enum Terminal {
        Completed,
        Other,
    }
    #[derive(Default)]
    struct ReqState {
        seen_any: bool,
        /// True only on an *actual* admit event (not the implicit
        /// admission assumed after a MissingAdmit), so RejectAfterAdmit
        /// fires precisely when the log recorded a real admission.
        seen_admit: bool,
        executed: bool,
        terminal: Option<Terminal>,
    }
    let mut states: BTreeMap<(u64, usize), ReqState> = BTreeMap::new();
    let mut violations = Vec::new();
    for e in events {
        let st = states.entry((e.trace.0, e.request.0)).or_default();
        if let Some(kind) = st.terminal {
            if kind == Terminal::Completed && matches!(e.stage, LifecycleStage::Complete { .. }) {
                violations.push(LifecycleViolation::DuplicateComplete {
                    request: e.request,
                    seq: e.seq,
                });
            } else {
                violations.push(LifecycleViolation::AfterTerminal {
                    request: e.request,
                    seq: e.seq,
                });
            }
            continue;
        }
        if !st.seen_any {
            st.seen_any = true;
            // A request may open with an admission or with a rejection
            // at the door; anything else (including a shed, which needs
            // a prior admit) is out of order. Flag once and treat as
            // implicitly admitted so one missing admit doesn't cascade
            // into a violation per event.
            if !matches!(
                e.stage,
                LifecycleStage::Admit | LifecycleStage::Reject { .. }
            ) {
                violations.push(LifecycleViolation::MissingAdmit { request: e.request });
            }
        }
        match &e.stage {
            LifecycleStage::Admit => st.seen_admit = true,
            LifecycleStage::Execute | LifecycleStage::Recover { .. } => st.executed = true,
            LifecycleStage::Complete { .. } => {
                if !st.executed {
                    violations.push(LifecycleViolation::CompleteWithoutExecute {
                        request: e.request,
                        seq: e.seq,
                    });
                }
                st.terminal = Some(Terminal::Completed);
            }
            LifecycleStage::Degrade { .. } | LifecycleStage::Shed { .. } => {
                st.terminal = Some(Terminal::Other);
            }
            LifecycleStage::Reject { .. } => {
                if st.seen_admit {
                    violations.push(LifecycleViolation::RejectAfterAdmit {
                        request: e.request,
                        seq: e.seq,
                    });
                }
                st.terminal = Some(Terminal::Other);
            }
            LifecycleStage::Plan | LifecycleStage::Window { .. } => {}
        }
    }
    violations
}

/// The most recent events a [`LifecycleLog`] retains.
pub const LIFECYCLE_WINDOW: usize = 4096;

/// Log of the [`LIFECYCLE_WINDOW`] most recent lifecycle events. It has
/// one owner: it holds its window in a `RefCell`, so it is `!Sync`, and
/// the planner that records into it shares it through an `Rc`.
/// Sequence numbers are assigned in record order, so a log yields a
/// totally ordered stream. An event's `seq` counts the events recorded
/// before it, evicted ones included, so a retained event carries the
/// `seq` an unbounded log would give it.
///
/// Once [`LifecycleLog::dropped`] is nonzero the retained tail is not a
/// complete causal stream: a request whose admission was evicted reads
/// as [`LifecycleViolation::MissingAdmit`] to [`validate`]. A stream
/// that must validate whole is recorded by its owner, as
/// `h2p-serve`'s loop records its own.
#[derive(Debug, Default)]
pub struct LifecycleLog {
    window: RefCell<Window>,
}

#[derive(Debug, Default)]
struct Window {
    events: VecDeque<LifecycleEvent>,
    /// Events evicted from the front so far.
    dropped: u64,
}

impl LifecycleLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event, assigning the next sequence number. At the
    /// window's bound the oldest event is evicted first, so the
    /// deque's capacity stays at the bound.
    pub fn record(&self, trace: TraceId, request: RequestId, at_ms: f64, stage: LifecycleStage) {
        let mut window = self.window.borrow_mut();
        let seq = window.dropped + window.events.len() as u64;
        if window.events.len() == LIFECYCLE_WINDOW {
            window.events.pop_front();
            window.dropped += 1;
        }
        window.events.push_back(LifecycleEvent {
            trace,
            request,
            seq,
            at_ms,
            stage,
        });
    }

    /// Copies the retained events out, in sequence order.
    pub fn records(&self) -> Vec<LifecycleEvent> {
        self.window.borrow().events.iter().cloned().collect()
    }

    /// Retained events.
    pub fn len(&self) -> usize {
        self.window.borrow().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to keep the window: `len() + dropped()` is the
    /// number recorded since the log was created or last cleared.
    pub fn dropped(&self) -> u64 {
        self.window.borrow().dropped
    }

    /// Drops all recorded events and the eviction count, so sequence
    /// numbers restart at 0 (e.g. between planning invocations in a
    /// long-lived process).
    pub fn clear(&self) {
        let mut window = self.window.borrow_mut();
        window.events.clear();
        window.dropped = 0;
    }

    /// Renders every retained event as a JSONL line, in sequence order.
    pub fn json_lines(&self) -> Vec<String> {
        self.window
            .borrow()
            .events
            .iter()
            .map(LifecycleEvent::json_line)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trace_id_is_content_deterministic() {
        let a = TraceId::of_names(["bert", "vit"]);
        let b = TraceId::of_names(["bert", "vit"]);
        assert_eq!(a, b);
        assert_ne!(a, TraceId::of_names(["vit", "bert"]));
        // Separator prevents concatenation collisions.
        assert_ne!(
            TraceId::of_names(["ab", "c"]),
            TraceId::of_names(["a", "bc"])
        );
        let rendered = a.to_string();
        assert_eq!(rendered.len(), 16);
        assert_eq!(TraceId::parse(&rendered), Some(a));
        assert_eq!(TraceId::parse("xyz"), None);
    }

    #[test]
    fn log_assigns_sequence_numbers_in_record_order() {
        let log = LifecycleLog::new();
        let t = TraceId::of_names(["m"]);
        log.record(t, RequestId(0), 0.0, LifecycleStage::Admit);
        log.record(t, RequestId(1), 0.0, LifecycleStage::Admit);
        log.record(t, RequestId(0), 0.0, LifecycleStage::Plan);
        let events = log.records();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(log.len(), 3);
        log.clear();
        assert!(log.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Past the window, the log holds exactly the tail of an
        /// unbounded stream, `seq` included, and counts the rest as
        /// dropped; `clear` restarts `seq` at 0.
        #[test]
        fn the_window_keeps_the_tail_of_an_unbounded_stream(
            seed in any::<u64>(),
            extra in 0usize..3 * LIFECYCLE_WINDOW,
        ) {
            let total = LIFECYCLE_WINDOW + extra;
            let log = LifecycleLog::new();
            let mut shadow = Vec::with_capacity(total);
            for k in 0..total {
                let mix = (seed ^ k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                let stage = match mix % 4 {
                    0 => LifecycleStage::Admit,
                    1 => LifecycleStage::Window { window: k },
                    2 => LifecycleStage::Complete { latency_ms: k as f64 },
                    _ => LifecycleStage::Shed { reason: format!("s{mix}") },
                };
                let (trace, request) = (TraceId(mix % 3), RequestId(k % 11));
                log.record(trace, request, k as f64 * 0.5, stage.clone());
                shadow.push(LifecycleEvent {
                    trace,
                    request,
                    seq: k as u64,
                    at_ms: k as f64 * 0.5,
                    stage,
                });
            }
            prop_assert_eq!(log.len(), LIFECYCLE_WINDOW);
            prop_assert_eq!(log.dropped(), extra as u64);
            prop_assert_eq!(log.records(), shadow[extra..].to_vec());
            log.clear();
            prop_assert!(log.is_empty());
            prop_assert_eq!(log.dropped(), 0);
            log.record(TraceId(1), RequestId(0), 0.0, LifecycleStage::Admit);
            prop_assert_eq!(log.records()[0].seq, 0);
        }
    }

    #[test]
    fn json_lines_are_flat_and_tagged() {
        let log = LifecycleLog::new();
        let t = TraceId(0xabc);
        log.record(t, RequestId(2), 0.0, LifecycleStage::Admit);
        log.record(t, RequestId(2), 0.0, LifecycleStage::Window { window: 3 });
        log.record(
            t,
            RequestId(2),
            1.5,
            LifecycleStage::Degrade {
                reason: "deadline \"exceeded\"".into(),
            },
        );
        log.record(
            t,
            RequestId(2),
            9.25,
            LifecycleStage::Complete { latency_ms: 9.25 },
        );
        let lines = log.json_lines();
        assert_eq!(
            lines[0],
            "{\"event\":\"lifecycle\",\"trace\":\"0000000000000abc\",\"request\":2,\"seq\":0,\"at_ms\":0,\"stage\":\"admit\"}"
        );
        assert!(lines[1].contains("\"stage\":\"window\",\"window\":3"));
        assert!(lines[2].contains("\"reason\":\"deadline \\\"exceeded\\\"\""));
        assert!(lines[3].contains("\"latency_ms\":9.25"));
    }

    #[test]
    fn validate_flags_causal_violations() {
        let t = TraceId(1);
        let ev = |request: usize, seq: u64, stage: LifecycleStage| LifecycleEvent {
            trace: t,
            request: RequestId(request),
            seq,
            at_ms: 0.0,
            stage,
        };
        // Clean history: admit → plan → execute → complete.
        let ok = vec![
            ev(0, 0, LifecycleStage::Admit),
            ev(0, 1, LifecycleStage::Plan),
            ev(0, 2, LifecycleStage::Execute),
            ev(0, 3, LifecycleStage::Complete { latency_ms: 1.0 }),
        ];
        assert!(validate(&ok).is_empty());
        // Duplicate admit (recovery re-admission) is legal.
        let readmit = vec![
            ev(0, 0, LifecycleStage::Admit),
            ev(0, 1, LifecycleStage::Admit),
            ev(0, 2, LifecycleStage::Recover { round: 1 }),
            ev(0, 3, LifecycleStage::Complete { latency_ms: 2.0 }),
        ];
        assert!(validate(&readmit).is_empty());
        // First event not admit.
        let v = validate(&[ev(1, 0, LifecycleStage::Plan)]);
        assert_eq!(
            v,
            vec![LifecycleViolation::MissingAdmit {
                request: RequestId(1)
            }]
        );
        // Event after terminal.
        let v = validate(&[
            ev(0, 0, LifecycleStage::Admit),
            ev(0, 1, LifecycleStage::Degrade { reason: "x".into() }),
            ev(0, 2, LifecycleStage::Plan),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::AfterTerminal {
                request: RequestId(0),
                seq: 2
            }]
        );
        // Complete without execute.
        let v = validate(&[
            ev(0, 0, LifecycleStage::Admit),
            ev(0, 1, LifecycleStage::Complete { latency_ms: 1.0 }),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::CompleteWithoutExecute {
                request: RequestId(0),
                seq: 1
            }]
        );
    }

    #[test]
    fn validate_flags_duplicate_complete() {
        let t = TraceId(7);
        let ev = |seq: u64, stage: LifecycleStage| LifecycleEvent {
            trace: t,
            request: RequestId(0),
            seq,
            at_ms: 0.0,
            stage,
        };
        // A second complete on the same (trace, request) is its own
        // typed violation, not a generic AfterTerminal.
        let v = validate(&[
            ev(0, LifecycleStage::Admit),
            ev(1, LifecycleStage::Execute),
            ev(2, LifecycleStage::Complete { latency_ms: 1.0 }),
            ev(3, LifecycleStage::Complete { latency_ms: 1.0 }),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::DuplicateComplete {
                request: RequestId(0),
                seq: 3
            }]
        );
        // A complete after a degrade stays the generic AfterTerminal.
        let v = validate(&[
            ev(0, LifecycleStage::Admit),
            ev(1, LifecycleStage::Degrade { reason: "x".into() }),
            ev(2, LifecycleStage::Complete { latency_ms: 1.0 }),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::AfterTerminal {
                request: RequestId(0),
                seq: 2
            }]
        );
    }

    #[test]
    fn validate_enforces_reject_and_shed_rules() {
        let t = TraceId(9);
        let ev = |request: usize, seq: u64, stage: LifecycleStage| LifecycleEvent {
            trace: t,
            request: RequestId(request),
            seq,
            at_ms: 0.0,
            stage,
        };
        // Reject as the first (and only) event is legal: the request
        // was turned away at the door, never admitted.
        let v = validate(&[ev(
            0,
            0,
            LifecycleStage::Reject {
                reason: "queue_full".into(),
            },
        )]);
        assert!(v.is_empty(), "{v:?}");
        // Reject after an actual admit is a typed violation.
        let v = validate(&[
            ev(1, 0, LifecycleStage::Admit),
            ev(
                1,
                1,
                LifecycleStage::Reject {
                    reason: "shedding".into(),
                },
            ),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::RejectAfterAdmit {
                request: RequestId(1),
                seq: 1
            }]
        );
        // Shed requires a prior admit: admit → shed is clean...
        let v = validate(&[
            ev(2, 0, LifecycleStage::Admit),
            ev(
                2,
                1,
                LifecycleStage::Shed {
                    reason: "slack_below_solo".into(),
                },
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
        // ...but shed as a request's first event is a MissingAdmit.
        let v = validate(&[ev(3, 0, LifecycleStage::Shed { reason: "s".into() })]);
        assert_eq!(
            v,
            vec![LifecycleViolation::MissingAdmit {
                request: RequestId(3)
            }]
        );
        // Both are terminal: nothing may follow a reject or a shed.
        let v = validate(&[
            ev(4, 0, LifecycleStage::Reject { reason: "q".into() }),
            ev(4, 1, LifecycleStage::Plan),
        ]);
        assert_eq!(
            v,
            vec![LifecycleViolation::AfterTerminal {
                request: RequestId(4),
                seq: 1
            }]
        );
    }

    #[test]
    fn reject_and_shed_json_lines_carry_reasons() {
        let log = LifecycleLog::new();
        let t = TraceId(0x1);
        log.record(
            t,
            RequestId(0),
            2.0,
            LifecycleStage::Reject {
                reason: "queue_full".into(),
            },
        );
        log.record(
            t,
            RequestId(1),
            3.0,
            LifecycleStage::Shed {
                reason: "slack_below_solo".into(),
            },
        );
        let lines = log.json_lines();
        assert!(lines[0].contains("\"stage\":\"reject\",\"reason\":\"queue_full\""));
        assert!(lines[1].contains("\"stage\":\"shed\",\"reason\":\"slack_below_solo\""));
        assert!(LifecycleStage::Reject { reason: "x".into() }.is_terminal());
        assert!(LifecycleStage::Shed { reason: "x".into() }.is_terminal());
    }

    #[test]
    fn qos_class_roundtrips() {
        for c in QosClass::ALL {
            assert_eq!(QosClass::parse(c.name()), Some(c));
        }
        assert_eq!(QosClass::parse("bogus"), None);
    }
}
