//! Typed ingestion of the JSON-lines engine event log.
//!
//! [`EngineEvent::json_line`] and [`task_header_line`] emit one flat
//! JSON object per line: a `task` header line per submitted task
//! followed by the events in simulation-time order. This module is
//! the trusted read path back: [`parse_event_log`] turns that text into
//! typed [`EngineEvent`]s and [`TaskHeader`]s, rejecting malformed
//! lines and non-finite timestamps with a line-numbered [`ParseError`]
//! instead of panicking or silently accepting garbage (an `f64` parse
//! happily accepts `NaN` and `inf` tokens, which would poison every
//! downstream time comparison).
//!
//! Unknown event *kinds* and unknown lifecycle *stages* are the one
//! deliberate exception: they parse as typed [`ParseWarning`]s on the
//! returned [`ParsedLog`] rather than hard errors, so an old binary can
//! still read a log written by a newer one that speaks more of the
//! grammar (forward compatibility). Warnings are never silent — callers
//! surface them alongside the parsed streams.
//!
//! The vendored serde has no JSON backend, so the parser is a small
//! hand-rolled scanner for exactly the flat string/number objects the
//! writers produce.

use std::fmt;

use h2p_telemetry::lifecycle::{LifecycleEvent, LifecycleStage, RequestId, TraceId};

use crate::engine::{EngineEvent, TaskSpec};
use crate::faults::FaultKind;
use crate::processor::ProcessorId;

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and control characters. Task labels are arbitrary
/// (models may be named anything), so every writer that interpolates a
/// label into a JSON line must route it through here.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The `task` header line for submitted task `task`: the metadata a
/// log carries so that it describes itself ([`TaskHeader`] reads it
/// back).
pub fn task_header_line(task: usize, spec: &TaskSpec) -> String {
    format!(
        "{{\"event\":\"task\",\"task\":{task},\"label\":\"{}\",\"processor\":{},\"solo_ms\":{}}}",
        json_escape(&spec.label),
        spec.processor.index(),
        spec.solo_ms
    )
}

/// A typed failure while ingesting an event log. Every variant carries
/// the 1-based line number of the offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The line is not a flat JSON object of the expected shape, or a
    /// required field is missing or of the wrong type.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        detail: String,
    },
    /// A numeric field parsed but is not finite (`NaN`, `inf`).
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// Field whose value is non-finite.
        field: String,
    },
}

impl ParseError {
    /// 1-based line number of the offending line.
    pub fn line(&self) -> usize {
        match self {
            ParseError::Malformed { line, .. } | ParseError::NonFinite { line, .. } => *line,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed { line, detail } => {
                write!(f, "event log line {line}: {detail}")
            }
            ParseError::NonFinite { line, field } => {
                write!(f, "event log line {line}: field `{field}` is not finite")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A non-fatal, typed ingestion warning: the line was well-formed JSON
/// but named an event kind or lifecycle stage this binary does not
/// know. The line is skipped (its content is preserved in the warning)
/// and parsing continues, so logs written by newer binaries with a
/// richer grammar still load.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseWarning {
    /// The line's `event` field names a kind this parser does not know.
    UnknownEvent {
        /// The unrecognised kind.
        kind: String,
        /// 1-based line number.
        line: usize,
    },
    /// A `lifecycle` line's `stage` field names a stage this parser
    /// does not know.
    UnknownLifecycleStage {
        /// The unrecognised stage tag.
        stage: String,
        /// 1-based line number.
        line: usize,
    },
}

impl ParseWarning {
    /// 1-based line number of the skipped line.
    pub fn line(&self) -> usize {
        match self {
            ParseWarning::UnknownEvent { line, .. }
            | ParseWarning::UnknownLifecycleStage { line, .. } => *line,
        }
    }
}

impl fmt::Display for ParseWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseWarning::UnknownEvent { kind, line } => {
                write!(
                    f,
                    "event log line {line}: unknown event kind `{kind}` (skipped)"
                )
            }
            ParseWarning::UnknownLifecycleStage { stage, line } => {
                write!(
                    f,
                    "event log line {line}: unknown lifecycle stage `{stage}` (skipped)"
                )
            }
        }
    }
}

/// One `task` header line: the task metadata the `--events` writer
/// prefixes the log with so a log file is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskHeader {
    /// Task id (submission index).
    pub task: usize,
    /// Human-readable label.
    pub label: String,
    /// Processor the task was pinned to.
    pub processor: ProcessorId,
    /// Solo execution time in ms.
    pub solo_ms: f64,
}

/// A fully parsed event log: the `task` headers (possibly empty for a
/// bare event stream) and the engine events in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedLog {
    /// `task` header lines, in file order.
    pub tasks: Vec<TaskHeader>,
    /// Engine events, in file order.
    pub events: Vec<EngineEvent>,
    /// Request lifecycle events (`"event":"lifecycle"` lines), in file
    /// order — the causal request history interleaved with the engine
    /// stream by the `--events` writers.
    pub lifecycle: Vec<LifecycleEvent>,
    /// Typed forward-compatibility warnings for well-formed lines whose
    /// event kind or lifecycle stage this binary does not know; the
    /// lines were skipped, not rejected.
    pub warnings: Vec<ParseWarning>,
}

impl ParsedLog {
    /// Number of tasks the log describes: the header count, or the
    /// highest task id mentioned by any event plus one.
    pub fn task_count(&self) -> usize {
        let from_events = self
            .events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::Ready { task, .. }
                | EngineEvent::Start { task, .. }
                | EngineEvent::Rate { task, .. }
                | EngineEvent::Finish { task, .. }
                | EngineEvent::TaskFailed { task, .. } => Some(task + 1),
                EngineEvent::ProcessorDown { .. } | EngineEvent::Throttle { .. } => None,
            })
            .max()
            .unwrap_or(0);
        self.tasks.len().max(from_events)
    }
}

/// One scanned JSON value: the writers only ever emit flat objects of
/// strings and numbers.
enum Val {
    Str(String),
    Num(f64),
}

/// Scans one flat JSON object (`{"k":v,...}`) into key/value pairs.
fn scan_object(line: &str) -> Result<Vec<(String, Val)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut out = Vec::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };
    let scan_string =
        |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| -> Result<String, String> {
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err("expected `\"`".to_owned()),
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => return Ok(s),
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '"')) => s.push('"'),
                        Some((_, '\\')) => s.push('\\'),
                        Some((_, '/')) => s.push('/'),
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 'r')) => s.push('\r'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = chars
                                    .next()
                                    .and_then(|(_, c)| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + d;
                            }
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!(
                                "bad escape `\\{}`",
                                other.map_or(String::new(), |(_, c)| c.to_string())
                            ))
                        }
                    },
                    Some((_, c)) if (c as u32) < 0x20 => {
                        return Err("raw control character in string".to_owned())
                    }
                    Some((_, c)) => s.push(c),
                    None => return Err("unterminated string".to_owned()),
                }
            }
        };

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected `{`".to_owned()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = scan_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                _ => return Err(format!("expected `:` after key `{key}`")),
            }
            skip_ws(&mut chars);
            let val = if matches!(chars.peek(), Some((_, '"'))) {
                Val::Str(scan_string(&mut chars)?)
            } else {
                // Number token: consume up to the next `,`/`}`. The
                // writers can emit `NaN`/`inf` tokens (they format f64
                // with `{}`), so accept the alphabetic forms here and
                // let the typed layer above reject non-finite values
                // with a dedicated error.
                let mut tok = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c == ',' || c == '}' {
                        break;
                    }
                    tok.push(c);
                    chars.next();
                }
                let tok = tok.trim();
                let v: f64 = tok
                    .parse()
                    .map_err(|_| format!("bad number `{tok}` for key `{key}`"))?;
                Val::Num(v)
            };
            out.push((key, val));
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                _ => return Err("expected `,` or `}`".to_owned()),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_owned());
    }
    Ok(out)
}

struct Fields<'a> {
    line: usize,
    pairs: &'a [(String, Val)],
}

impl Fields<'_> {
    fn num(&self, key: &str) -> Result<f64, ParseError> {
        for (k, v) in self.pairs {
            if k == key {
                return match v {
                    Val::Num(n) if n.is_finite() => Ok(*n),
                    Val::Num(_) => Err(ParseError::NonFinite {
                        line: self.line,
                        field: key.to_owned(),
                    }),
                    Val::Str(_) => Err(ParseError::Malformed {
                        line: self.line,
                        detail: format!("field `{key}` must be a number"),
                    }),
                };
            }
        }
        Err(ParseError::Malformed {
            line: self.line,
            detail: format!("missing field `{key}`"),
        })
    }

    fn index(&self, key: &str) -> Result<usize, ParseError> {
        let v = self.num(key)?;
        if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
            return Err(ParseError::Malformed {
                line: self.line,
                detail: format!("field `{key}` must be a small non-negative integer, got {v}"),
            });
        }
        Ok(v as usize)
    }

    fn time(&self, key: &str) -> Result<f64, ParseError> {
        let v = self.num(key)?;
        if v < 0.0 {
            return Err(ParseError::Malformed {
                line: self.line,
                detail: format!("field `{key}` must be non-negative, got {v}"),
            });
        }
        Ok(v)
    }

    fn str(&self, key: &str) -> Result<&str, ParseError> {
        for (k, v) in self.pairs {
            if k == key {
                return match v {
                    Val::Str(s) => Ok(s),
                    Val::Num(_) => Err(ParseError::Malformed {
                        line: self.line,
                        detail: format!("field `{key}` must be a string"),
                    }),
                };
            }
        }
        Err(ParseError::Malformed {
            line: self.line,
            detail: format!("missing field `{key}`"),
        })
    }
}

/// Parses a JSON-lines event log (the format `h2p trace --events`
/// writes and [`EngineEvent::json_line`] emits). Blank lines are
/// skipped. `task` header lines may appear anywhere but conventionally
/// lead the file.
///
/// # Errors
///
/// Returns the first [`ParseError`] found, carrying the 1-based line
/// number: malformed JSON, missing or mistyped fields, and non-finite
/// numeric values are all rejected. Well-formed lines with an unknown
/// event kind or lifecycle stage are *not* errors: they are skipped and
/// reported as typed [`ParseWarning`]s on the returned log, so this
/// binary can read logs written by newer ones.
pub fn parse_event_log(text: &str) -> Result<ParsedLog, ParseError> {
    let mut log = ParsedLog::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let pairs = scan_object(raw).map_err(|detail| ParseError::Malformed { line, detail })?;
        let f = Fields {
            line,
            pairs: &pairs,
        };
        let kind = f.str("event")?;
        match kind {
            "task" => log.tasks.push(TaskHeader {
                task: f.index("task")?,
                label: f.str("label")?.to_owned(),
                processor: ProcessorId(f.index("processor")?),
                solo_ms: f.time("solo_ms")?,
            }),
            "ready" => log.events.push(EngineEvent::Ready {
                time_ms: f.time("time_ms")?,
                task: f.index("task")?,
                processor: ProcessorId(f.index("processor")?),
            }),
            "start" => log.events.push(EngineEvent::Start {
                time_ms: f.time("time_ms")?,
                task: f.index("task")?,
                processor: ProcessorId(f.index("processor")?),
            }),
            "rate" => log.events.push(EngineEvent::Rate {
                time_ms: f.time("time_ms")?,
                task: f.index("task")?,
                processor: ProcessorId(f.index("processor")?),
                slowdown: f.num("slowdown")?,
                thermal_factor: f.num("thermal_factor")?,
                memory_factor: f.num("memory_factor")?,
            }),
            "finish" => log.events.push(EngineEvent::Finish {
                time_ms: f.time("time_ms")?,
                task: f.index("task")?,
                processor: ProcessorId(f.index("processor")?),
                duration_ms: f.time("duration_ms")?,
                slowdown: f.num("slowdown")?,
            }),
            "processor_down" => log.events.push(EngineEvent::ProcessorDown {
                time_ms: f.time("time_ms")?,
                processor: ProcessorId(f.index("processor")?),
            }),
            "throttle" => log.events.push(EngineEvent::Throttle {
                time_ms: f.time("time_ms")?,
                processor: ProcessorId(f.index("processor")?),
                factor: f.num("factor")?,
            }),
            "lifecycle" => {
                let trace =
                    TraceId::parse(f.str("trace")?).ok_or_else(|| ParseError::Malformed {
                        line,
                        detail: "field `trace` must be 16 hex digits".to_owned(),
                    })?;
                let stage = match f.str("stage")? {
                    "admit" => LifecycleStage::Admit,
                    "plan" => LifecycleStage::Plan,
                    "window" => LifecycleStage::Window {
                        window: f.index("window")?,
                    },
                    "execute" => LifecycleStage::Execute,
                    "recover" => LifecycleStage::Recover {
                        round: f.index("round")?,
                    },
                    "degrade" => LifecycleStage::Degrade {
                        reason: f.str("reason")?.to_owned(),
                    },
                    "complete" => LifecycleStage::Complete {
                        latency_ms: f.time("latency_ms")?,
                    },
                    "reject" => LifecycleStage::Reject {
                        reason: f.str("reason")?.to_owned(),
                    },
                    "shed" => LifecycleStage::Shed {
                        reason: f.str("reason")?.to_owned(),
                    },
                    other => {
                        log.warnings.push(ParseWarning::UnknownLifecycleStage {
                            stage: other.to_owned(),
                            line,
                        });
                        continue;
                    }
                };
                log.lifecycle.push(LifecycleEvent {
                    trace,
                    request: RequestId(f.index("request")?),
                    seq: f.index("seq")? as u64,
                    at_ms: f.time("at_ms")?,
                    stage,
                });
            }
            "task_failed" => log.events.push(EngineEvent::TaskFailed {
                time_ms: f.time("time_ms")?,
                task: f.index("task")?,
                processor: ProcessorId(f.index("processor")?),
                kind: match f.str("kind")? {
                    "transient" => FaultKind::Transient,
                    "dropout" => FaultKind::Dropout,
                    other => {
                        return Err(ParseError::Malformed {
                            line,
                            detail: format!("unknown failure kind `{other}`"),
                        })
                    }
                },
            }),
            other => {
                log.warnings.push(ParseWarning::UnknownEvent {
                    kind: other.to_owned(),
                    line,
                });
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulation, TaskSpec};
    use crate::faults::FaultInjector;
    use crate::processor::ProcessorKind;
    use crate::soc::SocSpec;

    fn logged_lines() -> (String, usize, Vec<EngineEvent>) {
        let soc = SocSpec::kirin_990();
        let npu = soc
            .processor_by_kind(ProcessorKind::Npu)
            .expect("preset has NPU");
        let gpu = soc
            .processor_by_kind(ProcessorKind::Gpu)
            .expect("preset has GPU");
        let mut sim = Simulation::new(soc);
        let a = sim.add_task(TaskSpec::new("say \"hi\"\\", npu, 5.0).intensity(0.8));
        sim.add_task(TaskSpec::new("b", gpu, 4.0).intensity(0.5).after(a));
        let tasks = sim.tasks().to_vec();
        let (_, events) = sim.run_with_events().expect("runs");
        let mut text = String::new();
        for (i, t) in tasks.iter().enumerate() {
            text.push_str(&task_header_line(i, t));
            text.push('\n');
        }
        for e in &events {
            text.push_str(&e.json_line());
            text.push('\n');
        }
        (text, tasks.len(), events)
    }

    #[test]
    fn round_trips_writer_output() {
        let (text, n_tasks, events) = logged_lines();
        let log = parse_event_log(&text).expect("parses");
        assert_eq!(log.tasks.len(), n_tasks);
        assert_eq!(log.events, events);
        assert_eq!(log.task_count(), n_tasks);
        // The escaped label round-trips to the original.
        assert_eq!(log.tasks[0].label, "say \"hi\"\\");
    }

    #[test]
    fn round_trips_fault_events() {
        let soc = SocSpec::kirin_990();
        let npu = soc
            .processor_by_kind(ProcessorKind::Npu)
            .expect("preset has NPU");
        let mut sim = Simulation::new(soc);
        sim.add_task(TaskSpec::new("a", npu, 5.0));
        sim.add_task(TaskSpec::new("b", npu, 5.0));
        let inj = FaultInjector::new(4)
            .throttle(npu, 0.0, 3.0, 0.5)
            .dropout(npu, 7.0);
        let (_, events) = sim.run_faulted(&inj).expect("runs");
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::ProcessorDown { .. })));
        let text: String = events.iter().map(|e| e.json_line() + "\n").collect();
        let log = parse_event_log(&text).expect("parses");
        assert_eq!(log.events, events);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (bad, expect_line) in [
            ("not json", 1),
            ("{\"event\":\"ready\",\"time_ms\":1}", 1),          // missing task
            ("{\"event\":\"ready\",\"time_ms\":1,\"task\":0,\"processor\":0}trailing", 1),
            ("{\"event\":\"ready\",\"time_ms\":1,\"task\":0,\"processor\":0\n", 1), // unterminated
            ("{\"event\":\"ready\",\"time_ms\":1,\"task\":1.5,\"processor\":0}", 1),
            ("{\"event\":\"ready\",\"time_ms\":-2,\"task\":0,\"processor\":0}", 1),
            ("{\"event\":\"ready\",\"time_ms\":1,\"task\":0,\"processor\":0}\n{\"event\":\"start\"}", 2),
            ("{\"event\":\"task_failed\",\"time_ms\":1,\"task\":0,\"processor\":0,\"kind\":\"gremlins\"}", 1),
            ("{\"event\":\"task\",\"task\":0,\"label\":3,\"processor\":0,\"solo_ms\":1}", 1),
        ] {
            let err = parse_event_log(bad).expect_err(bad);
            assert!(matches!(err, ParseError::Malformed { .. }), "{bad}: {err}");
            assert_eq!(err.line(), expect_line, "{bad}");
        }
    }

    #[test]
    fn rejects_non_finite_times_with_typed_error() {
        for bad in [
            "{\"event\":\"ready\",\"time_ms\":NaN,\"task\":0,\"processor\":0}",
            "{\"event\":\"ready\",\"time_ms\":inf,\"task\":0,\"processor\":0}",
            "{\"event\":\"finish\",\"time_ms\":1,\"task\":0,\"processor\":0,\"duration_ms\":-inf,\"slowdown\":0}",
            "{\"event\":\"rate\",\"time_ms\":1,\"task\":0,\"processor\":0,\"slowdown\":NaN,\"thermal_factor\":1,\"memory_factor\":1}",
        ] {
            let err = parse_event_log(bad).expect_err(bad);
            assert!(matches!(err, ParseError::NonFinite { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn round_trips_lifecycle_lines() {
        use h2p_telemetry::lifecycle::LifecycleLog;
        let lc = LifecycleLog::new();
        let t = TraceId::of_names(["bert", "vit"]);
        lc.record(t, RequestId(0), 0.0, LifecycleStage::Admit);
        lc.record(t, RequestId(0), 0.0, LifecycleStage::Plan);
        lc.record(t, RequestId(0), 0.0, LifecycleStage::Window { window: 1 });
        lc.record(t, RequestId(0), 2.5, LifecycleStage::Execute);
        lc.record(t, RequestId(1), 3.0, LifecycleStage::Recover { round: 2 });
        lc.record(
            t,
            RequestId(1),
            4.0,
            LifecycleStage::Degrade {
                reason: "deadline \"burst\"".into(),
            },
        );
        lc.record(
            t,
            RequestId(0),
            9.5,
            LifecycleStage::Complete { latency_ms: 9.5 },
        );
        lc.record(
            t,
            RequestId(2),
            10.0,
            LifecycleStage::Reject {
                reason: "queue_full".into(),
            },
        );
        lc.record(
            t,
            RequestId(3),
            11.0,
            LifecycleStage::Shed {
                reason: "slack_below_solo".into(),
            },
        );
        let text: String = lc.json_lines().iter().map(|l| l.clone() + "\n").collect();
        let log = parse_event_log(&text).expect("parses");
        assert_eq!(log.lifecycle, lc.records());
        assert!(log.warnings.is_empty());
        // Mixed with engine lines, both streams survive.
        let (engine_text, n_tasks, events) = logged_lines();
        let mixed = format!("{engine_text}{text}");
        let log = parse_event_log(&mixed).expect("parses mixed");
        assert_eq!(log.tasks.len(), n_tasks);
        assert_eq!(log.events, events);
        assert_eq!(log.lifecycle.len(), 9);
        // Malformed lifecycle lines fail typed.
        for bad in [
            "{\"event\":\"lifecycle\",\"trace\":\"xyz\",\"request\":0,\"seq\":0,\"at_ms\":0,\"stage\":\"admit\"}",
            "{\"event\":\"lifecycle\",\"trace\":\"0000000000000abc\",\"request\":0,\"seq\":0,\"at_ms\":0,\"stage\":\"window\"}",
            "{\"event\":\"lifecycle\",\"trace\":\"0000000000000abc\",\"request\":0,\"seq\":0,\"at_ms\":0,\"stage\":\"reject\"}",
        ] {
            let err = parse_event_log(bad).expect_err(bad);
            assert!(matches!(err, ParseError::Malformed { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_kinds_and_stages_warn_instead_of_failing() {
        // Forward compatibility: a log written by a newer binary with a
        // richer grammar still loads — the unknown lines are skipped
        // with typed warnings, the known streams survive intact.
        let (engine_text, n_tasks, events) = logged_lines();
        let future = format!(
            "{engine_text}\
             {{\"event\":\"frobnicate\",\"time_ms\":1}}\n\
             {{\"event\":\"lifecycle\",\"trace\":\"0000000000000abc\",\"request\":0,\"seq\":0,\"at_ms\":0,\"stage\":\"admit\"}}\n\
             {{\"event\":\"lifecycle\",\"trace\":\"0000000000000abc\",\"request\":0,\"seq\":1,\"at_ms\":0,\"stage\":\"hibernate\",\"depth\":3}}\n"
        );
        let n_engine_lines = engine_text.lines().count();
        let log = parse_event_log(&future).expect("future log parses");
        assert_eq!(log.tasks.len(), n_tasks);
        assert_eq!(log.events, events);
        assert_eq!(log.lifecycle.len(), 1);
        assert_eq!(
            log.warnings,
            vec![
                ParseWarning::UnknownEvent {
                    kind: "frobnicate".into(),
                    line: n_engine_lines + 1,
                },
                ParseWarning::UnknownLifecycleStage {
                    stage: "hibernate".into(),
                    line: n_engine_lines + 3,
                },
            ]
        );
        // Warnings render with their line numbers for operators.
        assert!(log.warnings[0].to_string().contains("frobnicate"));
        assert_eq!(log.warnings[1].line(), n_engine_lines + 3);
        // Unknown-kind lines must still be well-formed JSON to warn;
        // garbage stays a hard error.
        let err = parse_event_log("{\"event\":\"frobnicate\",\"x\":").expect_err("garbage");
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn fuzz_mutated_writer_lines_never_panic() {
        // Fuzz-style robustness: byte-level mutations of valid lines
        // must parse or fail typed, never panic. Deterministic LCG so
        // the test is reproducible.
        let (text, _, _) = logged_lines();
        let lines: Vec<&str> = text.lines().collect();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let src = lines[(rng() as usize) % lines.len()];
            let mut bytes = src.as_bytes().to_vec();
            match rng() % 4 {
                0 if !bytes.is_empty() => {
                    // flip a byte
                    let i = (rng() as usize) % bytes.len();
                    bytes[i] = (rng() % 256) as u8;
                }
                1 if !bytes.is_empty() => {
                    // truncate
                    bytes.truncate((rng() as usize) % bytes.len());
                }
                2 => {
                    // duplicate a slice
                    let i = (rng() as usize) % (bytes.len() + 1);
                    let tail: Vec<u8> = bytes[i..].to_vec();
                    bytes.extend_from_slice(&tail);
                }
                _ => {
                    // insert a random byte
                    let i = (rng() as usize) % (bytes.len() + 1);
                    bytes.insert(i, (rng() % 256) as u8);
                }
            }
            let mutated = String::from_utf8_lossy(&bytes);
            let _ = parse_event_log(&mutated); // must not panic
        }
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
