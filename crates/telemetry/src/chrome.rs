//! Structured Chrome Trace Event Format document.
//!
//! Emits the JSON Object Format (`{"traceEvents":[...]}`) understood by
//! `chrome://tracing` and Perfetto. Only the event phases the suite
//! needs are modelled:
//!
//! - `X` complete slices (engine task executions, planner spans)
//! - `i` instant events (task ready, audit violations, relocations)
//! - `C` counters (piecewise interference rates per processor)
//! - `b`/`e` async slices (requests crossing pipeline stages)
//! - `M` metadata (process and thread names)
//!
//! Timestamps are microseconds, per the format. [`TraceDoc::validate`]
//! enforces the schema invariants our golden tests rely on: required
//! fields present, finite non-negative timestamps, monotone start
//! order with proper nesting per `(pid, tid)` track, and balanced
//! async begin/end pairs.

use crate::{json_escape, json_num};

/// Slack when comparing slice boundaries, in microseconds.
const EPS_US: f64 = 1e-3;

/// One argument value on an event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    Num(f64),
    Int(i64),
    Str(String),
}

impl Arg {
    fn to_json(&self) -> String {
        match self {
            Arg::Num(v) => json_num(*v),
            Arg::Int(v) => v.to_string(),
            Arg::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

/// One trace event. Construct through the [`TraceDoc`] builders.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub ph: char,
    pub name: String,
    pub cat: String,
    pub ts_us: f64,
    pub dur_us: Option<f64>,
    pub pid: u32,
    pub tid: u64,
    /// Async-pair correlation id (`b`/`e` only).
    pub id: Option<u64>,
    /// Instant scope (`i` only): `t` thread, `p` process, `g` global.
    pub scope: Option<char>,
    pub args: Vec<(String, Arg)>,
}

impl TraceEvent {
    fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"name\":\"{}\"", json_escape(&self.name)),
            format!("\"cat\":\"{}\"", json_escape(&self.cat)),
            format!("\"ph\":\"{}\"", self.ph),
            format!("\"ts\":{}", json_num(self.ts_us)),
            format!("\"pid\":{}", self.pid),
            format!("\"tid\":{}", self.tid),
        ];
        if let Some(dur) = self.dur_us {
            fields.push(format!("\"dur\":{}", json_num(dur)));
        }
        if let Some(id) = self.id {
            fields.push(format!("\"id\":\"0x{id:x}\""));
        }
        if let Some(scope) = self.scope {
            fields.push(format!("\"s\":\"{scope}\""));
        }
        if !self.args.is_empty() {
            let args = self
                .args
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v.to_json()))
                .collect::<Vec<_>>()
                .join(",");
            fields.push(format!("\"args\":{{{args}}}"));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// A whole trace document; serialize with [`TraceDoc::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDoc {
    pub events: Vec<TraceEvent>,
}

impl TraceDoc {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Names a process (`pid` row header in the viewer).
    pub fn process_name(&mut self, pid: u32, name: impl Into<String>) {
        self.push(TraceEvent {
            ph: 'M',
            name: "process_name".to_owned(),
            cat: "__metadata".to_owned(),
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid: 0,
            id: None,
            scope: None,
            args: vec![("name".to_owned(), Arg::Str(name.into()))],
        });
    }

    /// Names a thread (track within a process).
    pub fn thread_name(&mut self, pid: u32, tid: u64, name: impl Into<String>) {
        self.push(TraceEvent {
            ph: 'M',
            name: "thread_name".to_owned(),
            cat: "__metadata".to_owned(),
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid,
            id: None,
            scope: None,
            args: vec![("name".to_owned(), Arg::Str(name.into()))],
        });
    }

    /// Adds an `X` complete slice.
    #[expect(
        clippy::too_many_arguments,
        reason = "the arity mirrors the Trace Event Format's field list; bundling \
                  pid/tid/ts/dur into a struct would just rename the same eight \
                  values at every call site"
    )]
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u64,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Arg)>,
    ) {
        self.push(TraceEvent {
            ph: 'X',
            name: name.into(),
            cat: cat.into(),
            ts_us,
            dur_us: Some(dur_us),
            pid,
            tid,
            id: None,
            scope: None,
            args,
        });
    }

    /// Adds an `i` instant event with the given scope (`t`/`p`/`g`).
    #[expect(
        clippy::too_many_arguments,
        reason = "the arity mirrors the Trace Event Format's field list, as for `complete`"
    )]
    pub fn instant(
        &mut self,
        pid: u32,
        tid: u64,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        scope: char,
        args: Vec<(String, Arg)>,
    ) {
        self.push(TraceEvent {
            ph: 'i',
            name: name.into(),
            cat: cat.into(),
            ts_us,
            dur_us: None,
            pid,
            tid,
            id: None,
            scope: Some(scope),
            args,
        });
    }

    /// Adds a `C` counter sample; each arg becomes one counter series.
    pub fn counter(
        &mut self,
        pid: u32,
        name: impl Into<String>,
        ts_us: f64,
        args: Vec<(String, Arg)>,
    ) {
        self.push(TraceEvent {
            ph: 'C',
            name: name.into(),
            cat: "counter".to_owned(),
            ts_us,
            dur_us: None,
            pid,
            tid: 0,
            id: None,
            scope: None,
            args,
        });
    }

    /// Adds a matched async begin/end pair (`b` + `e`) correlated by
    /// `id` within `cat`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the arity mirrors the Trace Event Format's field list, as for `complete`"
    )]
    pub fn async_slice(
        &mut self,
        pid: u32,
        tid: u64,
        id: u64,
        name: impl Into<String>,
        cat: impl Into<String>,
        start_us: f64,
        end_us: f64,
    ) {
        let name = name.into();
        let cat = cat.into();
        self.push(TraceEvent {
            ph: 'b',
            name: name.clone(),
            cat: cat.clone(),
            ts_us: start_us,
            dur_us: None,
            pid,
            tid,
            id: Some(id),
            scope: None,
            args: Vec::new(),
        });
        self.push(TraceEvent {
            ph: 'e',
            name,
            cat,
            ts_us: end_us,
            dur_us: None,
            pid,
            tid,
            id: Some(id),
            scope: None,
            args: Vec::new(),
        });
    }

    /// Serializes the document as Chrome Trace JSON Object Format.
    pub fn to_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(TraceEvent::to_json)
            .collect::<Vec<_>>()
            .join(",\n");
        format!("{{\"traceEvents\":[\n{events}\n],\"displayTimeUnit\":\"ms\"}}")
    }

    /// Checks the schema invariants. Returns the first problem found.
    ///
    /// - every event has a name, a known phase, and finite `ts >= 0`;
    ///   `X` slices also need finite `dur >= 0`
    /// - per `(pid, tid)` track, `X` slices appear in non-decreasing
    ///   start order and are either disjoint or properly nested
    /// - `b`/`e` async events pair up within `(cat, id)` with
    ///   `begin.ts <= end.ts`
    /// - the serialized text has balanced braces/brackets outside
    ///   string literals
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let known = ['X', 'i', 'C', 'b', 'e', 'M'];
        for (ix, e) in self.events.iter().enumerate() {
            if e.name.is_empty() {
                return Err(format!("event {ix}: empty name"));
            }
            if !known.contains(&e.ph) {
                return Err(format!("event {ix} ({}): unknown phase {:?}", e.name, e.ph));
            }
            if !e.ts_us.is_finite() || e.ts_us < 0.0 {
                return Err(format!("event {ix} ({}): bad ts {}", e.name, e.ts_us));
            }
            match e.ph {
                'X' => match e.dur_us {
                    Some(d) if d.is_finite() && d >= 0.0 => {}
                    other => {
                        return Err(format!(
                            "event {ix} ({}): X needs dur, got {other:?}",
                            e.name
                        ))
                    }
                },
                'i' if !matches!(e.scope, Some('t' | 'p' | 'g')) => {
                    return Err(format!(
                        "event {ix} ({}): instant needs scope t/p/g",
                        e.name
                    ));
                }
                'b' | 'e' if e.id.is_none() => {
                    return Err(format!("event {ix} ({}): async needs id", e.name));
                }
                _ => {}
            }
        }

        // Per-track X slices: monotone starts, disjoint or nested.
        let mut tracks: HashMap<(u32, u64), Vec<&TraceEvent>> = HashMap::new();
        for e in self.events.iter().filter(|e| e.ph == 'X') {
            tracks.entry((e.pid, e.tid)).or_default().push(e);
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "validation verdict is order-independent; only which track's \
                      error surfaces first varies"
        )]
        for ((pid, tid), slices) in &tracks {
            let mut prev_ts = f64::NEG_INFINITY;
            let mut stack: Vec<f64> = Vec::new(); // open slice end times
            for s in slices {
                if s.ts_us < prev_ts - EPS_US {
                    return Err(format!(
                        "track {pid}/{tid}: slice {} starts at {} before previous start {}",
                        s.name, s.ts_us, prev_ts
                    ));
                }
                prev_ts = s.ts_us;
                let end = s.ts_us + s.dur_us.unwrap_or(0.0);
                while let Some(&open_end) = stack.last() {
                    if s.ts_us >= open_end - EPS_US {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&open_end) = stack.last() {
                    if end > open_end + EPS_US {
                        return Err(format!(
                            "track {pid}/{tid}: slice {} [{} +{}] overlaps enclosing slice ending at {}",
                            s.name,
                            s.ts_us,
                            s.dur_us.unwrap_or(0.0),
                            open_end
                        ));
                    }
                }
                stack.push(end);
            }
        }

        // Async begin/end balance per (cat, id).
        let mut open: HashMap<(String, u64), Vec<f64>> = HashMap::new();
        for e in &self.events {
            let Some(id) = e.id else { continue };
            let key = (e.cat.clone(), id);
            match e.ph {
                'b' => open.entry(key).or_default().push(e.ts_us),
                'e' => {
                    let Some(begin) = open.get_mut(&key).and_then(Vec::pop) else {
                        return Err(format!(
                            "async end without begin: cat={} id=0x{id:x}",
                            e.cat
                        ));
                    };
                    if e.ts_us < begin - EPS_US {
                        return Err(format!(
                            "async slice cat={} id=0x{id:x} ends at {} before begin {}",
                            e.cat, e.ts_us, begin
                        ));
                    }
                }
                _ => {}
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "any unbalanced async slice is an error; which one is named in \
                      the message is immaterial"
        )]
        if let Some(((cat, id), _)) = open.iter().find(|(_, begins)| !begins.is_empty()) {
            return Err(format!("async begin without end: cat={cat} id=0x{id:x}"));
        }

        // Textual well-formedness of the emitted JSON (no parser in the
        // workspace, so scan for balanced structure outside strings).
        let text = self.to_json();
        let mut depth_brace = 0i64;
        let mut depth_bracket = 0i64;
        let mut in_string = false;
        let mut escaped = false;
        for c in text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' => depth_brace += 1,
                '}' => depth_brace -= 1,
                '[' => depth_bracket += 1,
                ']' => depth_bracket -= 1,
                _ => {}
            }
            if depth_brace < 0 || depth_bracket < 0 {
                return Err("emitted JSON closes more scopes than it opens".to_owned());
            }
        }
        if depth_brace != 0 || depth_bracket != 0 || in_string {
            return Err("emitted JSON has unbalanced structure".to_owned());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_and_adjacent_slices_validate() {
        let mut doc = TraceDoc::new();
        doc.process_name(1, "engine");
        doc.thread_name(1, 0, "NPU");
        doc.complete(1, 0, "outer", "task", 0.0, 100.0, Vec::new());
        doc.complete(1, 0, "inner", "task", 10.0, 50.0, Vec::new());
        doc.complete(1, 0, "next", "task", 100.0, 20.0, Vec::new());
        assert!(doc.validate().is_ok());
    }

    #[test]
    fn overlapping_slices_fail_validation() {
        let mut doc = TraceDoc::new();
        doc.complete(1, 0, "a", "task", 0.0, 100.0, Vec::new());
        doc.complete(1, 0, "b", "task", 50.0, 100.0, Vec::new());
        let err = doc.validate().unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn out_of_order_slices_fail_validation() {
        let mut doc = TraceDoc::new();
        doc.complete(1, 0, "late", "task", 100.0, 10.0, Vec::new());
        doc.complete(1, 0, "early", "task", 0.0, 10.0, Vec::new());
        assert!(doc.validate().is_err());
    }

    #[test]
    fn async_pairs_must_balance() {
        let mut doc = TraceDoc::new();
        doc.async_slice(1, 0, 7, "req", "request", 0.0, 10.0);
        assert!(doc.validate().is_ok());
        doc.push(TraceEvent {
            ph: 'b',
            name: "req".to_owned(),
            cat: "request".to_owned(),
            ts_us: 0.0,
            dur_us: None,
            pid: 1,
            tid: 0,
            id: Some(9),
            scope: None,
            args: Vec::new(),
        });
        let err = doc.validate().unwrap_err();
        assert!(err.contains("begin without end"), "{err}");
    }

    #[test]
    fn json_has_required_fields() {
        let mut doc = TraceDoc::new();
        doc.complete(
            1,
            2,
            "t",
            "task",
            1.5,
            2.5,
            vec![("solo_ms".to_owned(), Arg::Num(1.0))],
        );
        doc.instant(1, 2, "v", "audit", 3.0, 'g', Vec::new());
        doc.counter(
            1,
            "rate",
            0.0,
            vec![("slowdown".to_owned(), Arg::Num(0.25))],
        );
        let json = doc.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.5"));
        assert!(json.contains("\"dur\":2.5"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"s\":\"g\""));
        assert!(json.contains("\"args\":{\"slowdown\":0.25}"));
        assert!(doc.validate().is_ok());
    }

    #[test]
    fn bad_timestamps_are_rejected() {
        let mut doc = TraceDoc::new();
        doc.complete(1, 0, "nan", "task", f64::NAN, 1.0, Vec::new());
        assert!(doc.validate().is_err());
        let mut doc = TraceDoc::new();
        doc.complete(1, 0, "negdur", "task", 0.0, -1.0, Vec::new());
        assert!(doc.validate().is_err());
    }
}
