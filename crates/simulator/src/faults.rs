//! Deterministic fault injection for the engine.
//!
//! A [`FaultInjector`] scripts faults against a simulation run:
//! processor dropout at a given instant, thermal-throttle rate
//! multipliers over an interval, and transient task failures at a
//! fraction of a task's solo work. [`Simulation::run_faulted`] consumes
//! the script and returns a [`FaultOutcome`] — the completed subset of
//! spans plus a typed record of every task the faults killed — instead
//! of the all-or-nothing [`Trace`] of a fault-free run.
//!
//! Faults are visible in the event log as [`EngineEvent::ProcessorDown`],
//! [`EngineEvent::Throttle`] and [`EngineEvent::TaskFailed`] events, and
//! throttle multipliers are folded into the `thermal_factor` of the
//! `Rate` events the engine already emits — so the replay reconciliation
//! in [`crate::audit`] integrates the *faulted* rates exactly.
//!
//! [`FaultSpec`] is the user-facing scenario atom: the CLI grammar
//! (`drop:NPU@25,throttle:CPU_B@10..60x0.5,flaky:0x2,mispredict:1.6`)
//! parses into a list of specs via [`parse_fault_specs`]. Dropouts and
//! throttles compile directly into an injector; transient failures and
//! cost mispredictions are interpreted by the recovery layer in
//! `h2p-core`, which owns request identity and the cost model.
//!
//! [`Simulation::run_faulted`]: crate::engine::Simulation::run_faulted
//! [`Trace`]: crate::timeline::Trace
//! [`EngineEvent::ProcessorDown`]: crate::engine::EngineEvent::ProcessorDown
//! [`EngineEvent::Throttle`]: crate::engine::EngineEvent::Throttle
//! [`EngineEvent::TaskFailed`]: crate::engine::EngineEvent::TaskFailed

use crate::memory::MemorySample;
use crate::processor::ProcessorId;
use crate::soc::SocSpec;
use crate::timeline::Span;

/// Throttle factors below this floor are clamped up so a throttled
/// processor always makes *some* progress — a zero rate with no other
/// pending event would hang the engine, and the never-hang guarantee
/// outranks modelling a fully stopped clock (use a dropout for that).
pub const MIN_THROTTLE_FACTOR: f64 = 0.05;

/// Why an injected fault killed a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task itself failed mid-execution (crash, bad output).
    Transient,
    /// The processor running the task dropped out.
    Dropout,
}

impl FaultKind {
    /// Stable lowercase identifier used in JSON event lines.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Dropout => "dropout",
        }
    }
}

/// One task an injected fault aborted mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTask {
    /// Task id (submission index).
    pub task: usize,
    /// Processor the task was running on when it died.
    pub processor: ProcessorId,
    /// Simulation time of the abort in ms.
    pub at_ms: f64,
    /// What killed it.
    pub kind: FaultKind,
}

/// Result of a faulted simulation run: the completed subset of spans
/// plus a typed record of everything the faults prevented.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Per-task span, indexed by task id; `None` for tasks that failed
    /// or never ran.
    pub spans: Vec<Option<Span>>,
    /// Tasks aborted mid-execution by an injected fault.
    pub failed: Vec<FailedTask>,
    /// Tasks that never started: dependencies failed, or their
    /// processor was down (sorted by task id).
    pub orphaned: Vec<usize>,
    /// Simulation time at which the engine halted (last completion, or
    /// the instant it ran out of runnable work).
    pub halt_ms: f64,
    /// Per-processor down flag at halt time.
    pub down: Vec<bool>,
    /// Memory-pressure samples up to the halt.
    pub memory: Vec<MemorySample>,
    /// Number of processors on the SoC.
    pub processor_count: usize,
}

impl FaultOutcome {
    /// True when every task completed — the faults (if any) cost time
    /// but no work.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.orphaned.is_empty() && self.spans.iter().all(Option::is_some)
    }

    /// Number of tasks that ran to completion.
    pub fn completed_count(&self) -> usize {
        self.spans.iter().filter(|s| s.is_some()).count()
    }
}

/// A compiled, deterministic fault script against one simulation run.
///
/// All times are simulation milliseconds. The injector is immutable
/// during the run; the engine queries it at every event. Each fault
/// kind is one flat list, so an empty script allocates nothing and a
/// script of a few faults makes one block per kind it uses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultInjector {
    /// Number of processors the script was compiled against.
    processors: usize,
    /// `(processor, instant)` dropouts, at most one per processor.
    down_at: Vec<(usize, f64)>,
    /// `(processor, from_ms, until_ms, factor)` throttle intervals in
    /// insertion order, so one processor's factors multiply in the order
    /// they were scripted.
    throttles: Vec<(usize, f64, f64, f64)>,
    /// `(task, fraction)` transient-failure points, at most one per
    /// task.
    fail_at: Vec<(usize, f64)>,
}

impl FaultInjector {
    /// Creates an empty script for an SoC with `processors` processors.
    pub fn new(processors: usize) -> Self {
        FaultInjector {
            processors,
            ..FaultInjector::default()
        }
    }

    /// Number of processors this script was compiled against.
    pub fn processor_count(&self) -> usize {
        self.processors
    }

    /// True when the script contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.down_at.is_empty() && self.throttles.is_empty() && self.fail_at.is_empty()
    }

    /// Scripts a permanent dropout of `processor` at `at_ms` (builder
    /// style). An earlier scripted dropout for the same processor wins.
    pub fn dropout(mut self, processor: ProcessorId, at_ms: f64) -> Self {
        let (p, at_ms) = (processor.index(), at_ms.max(0.0));
        if p < self.processors {
            match self.down_at.iter_mut().find(|(q, _)| *q == p) {
                Some((_, prev)) => *prev = prev.min(at_ms),
                None => self.down_at.push((p, at_ms)),
            }
        }
        self
    }

    /// Scripts a rate multiplier `factor` on `processor` over
    /// `[from_ms, until_ms)` (builder style). The factor is clamped to
    /// `[MIN_THROTTLE_FACTOR, 1.0]`; overlapping intervals multiply.
    pub fn throttle(
        mut self,
        processor: ProcessorId,
        from_ms: f64,
        until_ms: f64,
        factor: f64,
    ) -> Self {
        let from_ms = from_ms.max(0.0);
        if processor.index() < self.processors && until_ms > from_ms {
            self.throttles.push((
                processor.index(),
                from_ms,
                until_ms,
                factor.clamp(MIN_THROTTLE_FACTOR, 1.0),
            ));
        }
        self
    }

    /// Scripts a transient failure of task `task` once it has executed
    /// `fraction` of its solo work (builder style). The fraction is
    /// clamped to `[0.0, 0.99]` so a failure always fires strictly
    /// before completion; a later call for the same task replaces it.
    pub fn fail_task(mut self, task: usize, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 0.99);
        match self.fail_at.iter_mut().find(|(t, _)| *t == task) {
            Some((_, prev)) => *prev = fraction,
            None => self.fail_at.push((task, fraction)),
        }
        self
    }

    /// Dropout instant scripted for processor `p`, if any.
    pub fn down_at(&self, p: usize) -> Option<f64> {
        self.down_at
            .iter()
            .find_map(|&(q, at)| (q == p).then_some(at))
    }

    /// Combined fault throttle factor on processor `p` at time `t`
    /// (product of all active intervals, floored at
    /// [`MIN_THROTTLE_FACTOR`]).
    pub fn throttle_factor(&self, p: usize, t: f64) -> f64 {
        let factor: f64 = self
            .throttles
            .iter()
            .filter(|&&(q, from, until, _)| q == p && t >= from && t < until)
            .map(|&(_, _, _, f)| f)
            .product();
        factor.max(MIN_THROTTLE_FACTOR)
    }

    /// Transient-failure point for `task` as a fraction of solo work.
    pub fn fail_fraction(&self, task: usize) -> Option<f64> {
        self.fail_at
            .iter()
            .find_map(|&(t, fraction)| (t == task).then_some(fraction))
    }

    /// Earliest scripted fault boundary strictly after `t`: a dropout
    /// instant or a throttle interval edge. The engine folds this into
    /// its next-event time so rate changes land exactly on boundaries.
    pub fn next_boundary_after(&self, t: f64) -> Option<f64> {
        let mut next: Option<f64> = None;
        let mut consider = |b: f64| {
            if b > t + 1e-9 && next.is_none_or(|n| b < n) {
                next = Some(b);
            }
        };
        for &(_, at) in &self.down_at {
            consider(at);
        }
        for &(_, from, until, _) in &self.throttles {
            consider(from);
            consider(until);
        }
        next
    }
}

/// One user-facing fault scenario atom, as parsed from the CLI
/// `--faults` grammar. Dropouts and throttles compile into a
/// [`FaultInjector`]; transient failures and cost mispredictions are
/// interpreted by the recovery layer, which owns request identity and
/// the cost model.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// `drop:<PROC>@<t>` — processor drops out permanently at `at_ms`.
    ProcessorDropout {
        /// Processor that drops.
        processor: ProcessorId,
        /// Dropout instant in ms.
        at_ms: f64,
    },
    /// `throttle:<PROC>@<from>..<until>x<factor>` — rate multiplier
    /// over an interval.
    ThermalThrottle {
        /// Processor being throttled.
        processor: ProcessorId,
        /// Interval start in ms.
        from_ms: f64,
        /// Interval end in ms.
        until_ms: f64,
        /// Rate multiplier in `(0, 1]`.
        factor: f64,
    },
    /// `flaky:<request>x<count>` — the request's final task fails
    /// transiently `failures` times before succeeding.
    TransientFailure {
        /// Request index.
        request: usize,
        /// Number of consecutive failures before success.
        failures: u32,
    },
    /// `mispredict:<scale>` — true task durations are `scale` times the
    /// cost model's prediction.
    CostMisprediction {
        /// Multiplicative error on every solo duration.
        scale: f64,
    },
}

/// Compiles the dropout/throttle subset of `specs` into an injector
/// for `soc`. Transient failures and mispredictions are skipped — they
/// are recovery-layer concerns.
pub fn compile_injector(specs: &[FaultSpec], soc: &SocSpec) -> FaultInjector {
    let mut inj = FaultInjector::new(soc.processors.len());
    for spec in specs {
        match *spec {
            FaultSpec::ProcessorDropout { processor, at_ms } => {
                inj = inj.dropout(processor, at_ms);
            }
            FaultSpec::ThermalThrottle {
                processor,
                from_ms,
                until_ms,
                factor,
            } => {
                inj = inj.throttle(processor, from_ms, until_ms, factor);
            }
            FaultSpec::TransientFailure { .. } | FaultSpec::CostMisprediction { .. } => {}
        }
    }
    inj
}

/// Parses the comma-separated CLI fault grammar against `soc`:
///
/// ```text
/// drop:<PROC>@<t>                      processor dropout at time t
/// throttle:<PROC>@<from>..<until>x<f>  rate multiplier f over [from, until)
/// flaky:<request>x<count>              transient failures of a request
/// mispredict:<scale>                   cost-model misprediction factor
/// ```
///
/// `<PROC>` is a processor name from the SoC (e.g. `NPU`, `CPU_B`).
///
/// # Errors
///
/// Returns a human-readable message naming the offending clause on any
/// syntax error, unknown processor, or non-finite/out-of-range number.
pub fn parse_fault_specs(spec: &str, soc: &SocSpec) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        let (kind, rest) = clause
            .split_once(':')
            .ok_or_else(|| format!("fault clause `{clause}` is missing `:`"))?;
        match kind {
            "drop" => {
                let (name, at) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("drop clause `{clause}` needs `<PROC>@<t>`"))?;
                let processor = lookup_proc(soc, name, clause)?;
                let at_ms = finite_num(at, clause)?;
                if at_ms < 0.0 {
                    return Err(format!("drop clause `{clause}` has negative time"));
                }
                out.push(FaultSpec::ProcessorDropout { processor, at_ms });
            }
            "throttle" => {
                let (name, window) = rest
                    .split_once('@')
                    .ok_or_else(|| format!("throttle clause `{clause}` needs `<PROC>@<from>..<until>x<factor>`"))?;
                let processor = lookup_proc(soc, name, clause)?;
                let (range, factor) = window
                    .split_once('x')
                    .ok_or_else(|| format!("throttle clause `{clause}` is missing `x<factor>`"))?;
                let (from, until) = range
                    .split_once("..")
                    .ok_or_else(|| format!("throttle clause `{clause}` is missing `<from>..<until>`"))?;
                let from_ms = finite_num(from, clause)?;
                let until_ms = finite_num(until, clause)?;
                let factor = finite_num(factor, clause)?;
                if from_ms < 0.0 || until_ms <= from_ms {
                    return Err(format!("throttle clause `{clause}` has an empty or negative interval"));
                }
                if !(factor > 0.0 && factor <= 1.0) {
                    return Err(format!("throttle clause `{clause}` needs a factor in (0, 1]"));
                }
                out.push(FaultSpec::ThermalThrottle {
                    processor,
                    from_ms,
                    until_ms,
                    factor,
                });
            }
            "flaky" => {
                let (req, count) = rest
                    .split_once('x')
                    .ok_or_else(|| format!("flaky clause `{clause}` needs `<request>x<count>`"))?;
                let request: usize = req
                    .trim()
                    .parse()
                    .map_err(|_| format!("flaky clause `{clause}` has a bad request index"))?;
                let failures: u32 = count
                    .trim()
                    .parse()
                    .map_err(|_| format!("flaky clause `{clause}` has a bad failure count"))?;
                out.push(FaultSpec::TransientFailure { request, failures });
            }
            "mispredict" => {
                let scale = finite_num(rest, clause)?;
                if scale <= 0.0 {
                    return Err(format!("mispredict clause `{clause}` needs a positive scale"));
                }
                out.push(FaultSpec::CostMisprediction { scale });
            }
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` in `{clause}` (expected drop, throttle, flaky or mispredict)"
                ))
            }
        }
    }
    if out.is_empty() {
        return Err("fault spec is empty".to_owned());
    }
    Ok(out)
}

fn lookup_proc(soc: &SocSpec, name: &str, clause: &str) -> Result<ProcessorId, String> {
    soc.processor_by_name(name.trim()).ok_or_else(|| {
        let known: Vec<&str> = soc.processors.iter().map(|p| p.name.as_str()).collect();
        format!(
            "unknown processor `{}` in `{clause}` (SoC has {})",
            name.trim(),
            known.join(", ")
        )
    })
}

fn finite_num(text: &str, clause: &str) -> Result<f64, String> {
    let v: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("bad number `{}` in `{clause}`", text.trim()))?;
    if !v.is_finite() {
        return Err(format!("non-finite number `{}` in `{clause}`", text.trim()));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soc() -> SocSpec {
        SocSpec::kirin_990()
    }

    #[test]
    fn throttle_factor_multiplies_and_floors() {
        let inj = FaultInjector::new(2)
            .throttle(ProcessorId(0), 10.0, 20.0, 0.5)
            .throttle(ProcessorId(0), 15.0, 25.0, 0.2);
        assert!((inj.throttle_factor(0, 5.0) - 1.0).abs() < 1e-12);
        assert!((inj.throttle_factor(0, 12.0) - 0.5).abs() < 1e-12);
        // Overlap multiplies but never drops below the floor.
        assert!((inj.throttle_factor(0, 17.0) - 0.1f64.max(MIN_THROTTLE_FACTOR)).abs() < 1e-12);
        assert!((inj.throttle_factor(0, 22.0) - 0.2).abs() < 1e-12);
        assert!((inj.throttle_factor(1, 17.0) - 1.0).abs() < 1e-12);
        // Interval end is exclusive.
        assert!((inj.throttle_factor(0, 25.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boundaries_enumerate_in_order() {
        let inj = FaultInjector::new(2)
            .dropout(ProcessorId(1), 30.0)
            .throttle(ProcessorId(0), 10.0, 20.0, 0.5);
        assert_eq!(inj.next_boundary_after(0.0), Some(10.0));
        assert_eq!(inj.next_boundary_after(10.0), Some(20.0));
        assert_eq!(inj.next_boundary_after(20.0), Some(30.0));
        assert_eq!(inj.next_boundary_after(30.0), None);
    }

    #[test]
    fn earliest_dropout_wins() {
        let inj = FaultInjector::new(1)
            .dropout(ProcessorId(0), 50.0)
            .dropout(ProcessorId(0), 20.0);
        assert_eq!(inj.down_at(0), Some(20.0));
    }

    #[test]
    fn fail_fraction_clamps_below_completion() {
        let inj = FaultInjector::new(1).fail_task(3, 1.5);
        assert_eq!(inj.fail_fraction(3), Some(0.99));
        assert_eq!(inj.fail_fraction(4), None);
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let soc = soc();
        let specs = parse_fault_specs(
            "drop:NPU@25, throttle:CPU_B@10..60x0.5, flaky:0x2, mispredict:1.6",
            &soc,
        )
        .expect("parses");
        assert_eq!(specs.len(), 4);
        assert!(matches!(specs[0], FaultSpec::ProcessorDropout { at_ms, .. } if at_ms == 25.0));
        assert!(matches!(
            specs[1],
            FaultSpec::ThermalThrottle { from_ms, until_ms, factor, .. }
                if from_ms == 10.0 && until_ms == 60.0 && factor == 0.5
        ));
        assert!(matches!(
            specs[2],
            FaultSpec::TransientFailure {
                request: 0,
                failures: 2
            }
        ));
        assert!(matches!(specs[3], FaultSpec::CostMisprediction { scale } if scale == 1.6));
    }

    #[test]
    fn parse_rejects_garbage_with_named_clause() {
        let soc = soc();
        for bad in [
            "",
            "drop:NPU",
            "drop:XPU@10",
            "drop:NPU@NaN",
            "drop:NPU@-5",
            "throttle:NPU@10..5x0.5",
            "throttle:NPU@10..60x0",
            "throttle:NPU@10..60x1.5",
            "flaky:ax2",
            "flaky:0xb",
            "mispredict:0",
            "mispredict:inf",
            "quux:1",
        ] {
            let err = parse_fault_specs(bad, &soc).expect_err(bad);
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn compile_injector_ignores_recovery_level_faults() {
        let soc = soc();
        let specs = parse_fault_specs("flaky:0x2,mispredict:1.6", &soc).expect("parses");
        let inj = compile_injector(&specs, &soc);
        assert!(inj.is_empty());
        let specs = parse_fault_specs("drop:NPU@25", &soc).expect("parses");
        let inj = compile_injector(&specs, &soc);
        assert!(!inj.is_empty());
        assert_eq!(inj.processor_count(), soc.processors.len());
    }
}
