//! Typed lint diagnostics: severities, stable codes, and machine-readable
//! JSON output.
//!
//! Every check in this crate reports through [`Diagnostics`], so callers
//! get one uniform surface: the CLI renders [`std::fmt::Display`], CI
//! consumes [`Diagnostic::json_line`], and the `debug_assertions` gates
//! only look at [`Diagnostics::error_count`].

use std::fmt;

use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// `Error` means the plan violates a structural contract and must not be
/// executed; `Warn` flags legal-but-slow structure (paging, unresolved
/// contention windows) the planner may knowingly accept; `Info` is
/// advisory context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Legal but likely slow; execution proceeds.
    Warn,
    /// Contract violation; the plan must not execute.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes, one per check family (documented in
/// `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiagCode {
    /// H2P000 — the plan or task graph is empty.
    EmptyPlan,
    /// H2P001 — layer coverage: a request's stages do not tile its model
    /// contiguously and exactly once.
    LayerCoverage,
    /// H2P002 — slot conflict: duplicate processors across pipeline
    /// slots, or a malformed stage vector.
    SlotConflict,
    /// H2P003 — processor feasibility: invalid processor index, a stage
    /// pinned off its slot's processor, or NPU operator-fallback rules
    /// broken.
    ProcFeasibility,
    /// H2P004 — memory budget: peak concurrent footprint exceeds the
    /// SoC's physical capacity (Constraint 6), so execution will page.
    MemoryBudget,
    /// H2P005 — DAG sanity: request indices are not distinct, or task
    /// dependencies are inconsistent with submission order.
    DagOrder,
    /// H2P006 — contention window: two ℍ requests inside one window of
    /// `K` positions (Def. 4), or an invalid mitigation permutation.
    ContentionWindow,
    /// H2P007 — bound analysis: the claimed makespan or bubble total
    /// (Eq. 3) falls outside the statically derivable envelope.
    BoundViolation,
    /// H2P008 — a cost, duration, intensity or rate is NaN, infinite or
    /// negative.
    NonFiniteCost,
    /// H2P009 — the plan references a processor marked unavailable
    /// (dropped out or administratively excluded): recovery replans must
    /// never route work onto a dead processor.
    ProcessorDown,
}

/// The single source of truth for every diagnostic code: variant,
/// stable `H2Pnnn` string, default severity, and one-line meaning —
/// indexed by discriminant and used by [`DiagCode::code`],
/// [`DiagCode::severity`] and [`DiagCode::summary`] (and, through
/// `code()`, by `Display` and the JSON serialization).
const CODE_TABLE: &[(DiagCode, &str, Severity, &str)] = &[
    (
        DiagCode::EmptyPlan,
        "H2P000",
        Severity::Warn,
        "the plan or task graph is empty",
    ),
    (
        DiagCode::LayerCoverage,
        "H2P001",
        Severity::Error,
        "stages do not tile the model contiguously and exactly once",
    ),
    (
        DiagCode::SlotConflict,
        "H2P002",
        Severity::Error,
        "duplicate processors across slots or malformed stage vector",
    ),
    (
        DiagCode::ProcFeasibility,
        "H2P003",
        Severity::Error,
        "invalid processor assignment or broken NPU-fallback rules",
    ),
    (
        DiagCode::MemoryBudget,
        "H2P004",
        Severity::Warn,
        "peak concurrent footprint exceeds physical memory (paging)",
    ),
    (
        DiagCode::DagOrder,
        "H2P005",
        Severity::Error,
        "request indices or task dependencies inconsistent",
    ),
    (
        DiagCode::ContentionWindow,
        "H2P006",
        Severity::Warn,
        "two high-contention requests inside one window of K positions",
    ),
    (
        DiagCode::BoundViolation,
        "H2P007",
        Severity::Error,
        "claimed makespan/bubbles outside the statically derived envelope",
    ),
    (
        DiagCode::NonFiniteCost,
        "H2P008",
        Severity::Error,
        "a cost, duration, intensity or rate is NaN/infinite/negative",
    ),
    (
        DiagCode::ProcessorDown,
        "H2P009",
        Severity::Error,
        "the plan references a processor marked unavailable",
    ),
];

impl DiagCode {
    /// Every code, in `H2P000..` order.
    pub const ALL: [DiagCode; 10] = [
        DiagCode::EmptyPlan,
        DiagCode::LayerCoverage,
        DiagCode::SlotConflict,
        DiagCode::ProcFeasibility,
        DiagCode::MemoryBudget,
        DiagCode::DagOrder,
        DiagCode::ContentionWindow,
        DiagCode::BoundViolation,
        DiagCode::NonFiniteCost,
        DiagCode::ProcessorDown,
    ];

    fn entry(self) -> &'static (DiagCode, &'static str, Severity, &'static str) {
        // The table is discriminant-ordered (pinned by a unit test), so
        // the lookup is a direct index.
        &CODE_TABLE[self as usize]
    }

    /// The stable `H2Pnnn` code string.
    pub fn code(self) -> &'static str {
        self.entry().1
    }

    /// The severity this code reports at.
    pub fn severity(self) -> Severity {
        self.entry().2
    }

    /// One-line meaning, for tables and `--help`-style listings.
    pub fn summary(self) -> &'static str {
        self.entry().3
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The check family that fired.
    pub code: DiagCode,
    /// Severity (normally [`DiagCode::severity`]).
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Request the finding is about (execution-order position), if any.
    pub request: Option<usize>,
    /// Pipeline slot the finding is about, if any.
    pub slot: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            request: None,
            slot: None,
        }
    }

    /// Attaches the request position (builder style).
    pub fn request(mut self, request: usize) -> Self {
        self.request = Some(request);
        self
    }

    /// Attaches the slot (builder style).
    pub fn slot(mut self, slot: usize) -> Self {
        self.slot = Some(slot);
        self
    }

    /// One machine-readable JSON object describing this finding, with no
    /// trailing newline. The format is hand-rolled (the vendored serde
    /// facade has no JSON backend) and kept flat on purpose.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code.code(),
            self.severity.label(),
            escape_json(&self.message)
        );
        if let Some(r) = self.request {
            s.push_str(&format!(",\"request\":{r}"));
        }
        if let Some(k) = self.slot {
            s.push_str(&format!(",\"slot\":{k}"));
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.severity.label(),
            self.code.code(),
            self.message
        )?;
        if let Some(r) = self.request {
            write!(f, " (request {r}")?;
            if let Some(k) = self.slot {
                write!(f, ", slot {k}")?;
            }
            write!(f, ")")?;
        } else if let Some(k) = self.slot {
            write!(f, " (slot {k})")?;
        }
        Ok(())
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The outcome of a lint pass: every finding plus how many checks ran.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Diagnostics {
    /// All findings, in check order.
    pub diags: Vec<Diagnostic>,
    /// Number of check families evaluated (clean or not).
    pub checks: usize,
}

impl Diagnostics {
    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Records that one check family ran.
    pub fn record_check(&mut self) {
        self.checks += 1;
    }

    /// Number of `Error` findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn` findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == sev).count()
    }

    /// Whether the pass found no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether the pass should fail the caller: errors always, warnings
    /// only when `deny_warnings`.
    pub fn should_fail(&self, deny_warnings: bool) -> bool {
        self.error_count() > 0 || (deny_warnings && self.warn_count() > 0)
    }

    /// JSON-lines rendering: one object per finding, then one summary
    /// object, each on its own line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.json_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"summary\":true,\"errors\":{},\"warnings\":{},\"checks\":{}}}\n",
            self.error_count(),
            self.warn_count(),
            self.checks
        ));
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "lint: {} error(s), {} warning(s) over {} checks",
            self.error_count(),
            self.warn_count(),
            self.checks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_ranks_error_highest() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let mut codes: Vec<&str> = DiagCode::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DiagCode::ALL.len(), "codes must be unique");
        assert_eq!(DiagCode::ALL.len(), 10);
        assert_eq!(DiagCode::LayerCoverage.code(), "H2P001");
        assert_eq!(DiagCode::ProcessorDown.code(), "H2P009");
    }

    #[test]
    fn code_table_is_discriminant_ordered() {
        // `DiagCode::entry` indexes the table by discriminant: every row
        // must sit at its own variant's index, and each stable string
        // must be `H2P{index:03}`.
        for (i, code) in DiagCode::ALL.iter().enumerate() {
            assert_eq!(*code as usize, i, "ALL out of discriminant order at {i}");
            assert_eq!(code.code(), format!("H2P{i:03}"), "table row {i} misplaced");
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn json_line_escapes_and_carries_anchors() {
        let d = Diagnostic::new(DiagCode::LayerCoverage, "bad \"range\"\n")
            .request(3)
            .slot(1);
        let j = d.json_line();
        assert!(j.contains("\"code\":\"H2P001\""), "{j}");
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("bad \\\"range\\\"\\n"), "{j}");
        assert!(j.contains("\"request\":3"), "{j}");
        assert!(j.contains("\"slot\":1"), "{j}");
    }

    #[test]
    fn should_fail_honors_deny_warnings() {
        let mut d = Diagnostics::default();
        assert!(!d.should_fail(true));
        d.push(Diagnostic::new(DiagCode::MemoryBudget, "paging"));
        assert!(!d.should_fail(false));
        assert!(d.should_fail(true));
        d.push(Diagnostic::new(DiagCode::LayerCoverage, "gap"));
        assert!(d.should_fail(false));
        assert!(!d.is_clean());
    }

    #[test]
    fn display_and_json_summary_count_consistently() {
        let mut d = Diagnostics::default();
        d.record_check();
        d.record_check();
        d.push(Diagnostic::new(DiagCode::NonFiniteCost, "NaN exec"));
        let text = d.to_string();
        assert!(
            text.contains("1 error(s), 0 warning(s) over 2 checks"),
            "{text}"
        );
        let json = d.to_json_lines();
        assert!(
            json.contains("\"errors\":1,\"warnings\":0,\"checks\":2"),
            "{json}"
        );
    }
}
